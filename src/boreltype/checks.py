"""Cross-validation orchestration: every mathematically forced coincidence
the package knows about, run against a single module.

The exit-code contract: 0 all checks pass (or are inapplicable), 1 a
mathematical cross-check failed, 2 an internal inconsistency (a result theory
proves impossible, e.g. the Borel criteria disagreeing), 3 malformed input.
A Borel-type module that is not sequentially Cohen-Macaulay also exits 2: its
filtration build refuses it, and the report names the failing chain step.
Guard-limited checks report "skipped" and do not affect the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import DEFAULT_ORACLE_GUARD, betti_table, oracle_invariants
from .borel import (
    borel_verdict,
    ideal_is_borel_type,
    is_strongly_stable_ideal,
    torsion_identity_report,
    truncation_stability_degree,
)
from .chain import (
    dimension_filtration_report,
    iterated_saturation_chain,
    prepare,
    sequential_cm_report,
    torsion_ladder_matches_chain,
)
from .errors import (
    GuardExceededError,
    InternalInconsistencyError,
    NotSequentiallyCMError,
)
from .filtration import (
    filtration_length_report,
    pretty_clean_filtration,
    verify_filtration,
)
from .modfile import parse_module_file, serialize_module
from .regularity import regularity
from .subquotient import Subquotient

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = 2
EXIT_INPUT = 3

DEFAULT_CEILING = 40


@dataclass(frozen=True)
class CheckOptions:
    e_max: int | None = None
    ceiling: int = DEFAULT_CEILING
    oracle_guard: int = DEFAULT_ORACLE_GUARD
    field: str = "q"

    def to_json(self) -> dict:
        """The options as a report records them, in field order; a shallow
        dict, where asdict would deep-copy every value on each run."""
        return {
            "e_max": self.e_max,
            "ceiling": self.ceiling,
            "oracle_guard": self.oracle_guard,
            "field": self.field,
        }


def module_json(module: Subquotient) -> dict:
    return {
        "vars": module.nvars,
        "numerator": module.numerator.gens_text(),
        "denominator": module.denominator.gens_text(),
    }


def run_check(module: Subquotient, options: CheckOptions = CheckOptions()):
    """Run every applicable cross-check; returns (report, exit_code)."""
    checks: list[dict] = []
    report = {
        "input": module_json(module),
        "options": options.to_json(),
        "checks": checks,
    }

    def add(name, status, detail=None):
        checks.append({"name": name, "status": status, "detail": detail})

    try:
        exit_code = _run_all(module, options, add, report)
    except (InternalInconsistencyError, NotSequentiallyCMError) as exc:
        report["internal_inconsistency"] = str(exc)
        exit_code = EXIT_INTERNAL
    if exit_code != EXIT_INTERNAL and any(c["status"] == "fail" for c in checks):
        exit_code = EXIT_CHECK_FAILED
    report["exit_code"] = exit_code
    return report, exit_code


def _run_all(module, options, add, report):
    verdict = borel_verdict(module)
    report["verdict"] = verdict.to_json()
    add("borel_criteria_agree", "pass", {"borel_type": verdict.is_borel})

    # raises InternalInconsistencyError when a stable truncation contradicts
    # a non-Borel verdict; M_{>=0} = M, so degree 0 decides strong stability
    e_found = truncation_stability_degree(module, options.e_max)
    stable_now = e_found == 0

    cyclic_proper = module.is_cyclic() and not module.is_zero()
    if cyclic_proper:
        ideal = module.denominator
        ideal_route = ideal_is_borel_type(ideal)
        add(
            "ideal_module_borel_agree",
            "pass" if ideal_route == verdict.is_borel else "fail",
            {"ideal_route": ideal_route, "module_route": verdict.is_borel},
        )
        stable_ideal = is_strongly_stable_ideal(ideal)
        add(
            "strongly_stable_agree",
            "pass" if stable_ideal == stable_now else "fail",
            {"ideal_route": stable_ideal, "module_route": stable_now},
        )
    else:
        add("ideal_module_borel_agree", "not_applicable", "module is not cyclic")
        add("strongly_stable_agree", "not_applicable", "module is not cyclic")

    add(
        "strongly_stable_implies_borel",
        "pass" if (not stable_now or verdict.is_borel) else "fail",
        {"strongly_stable": stable_now, "borel_type": verdict.is_borel},
    )

    add("truncation_stability", "pass", {"degree": e_found})

    roundtrip = parse_module_file(serialize_module(module))
    add("serialization_roundtrip", "pass" if roundtrip == module else "fail")

    chain_checks = (
        "chain_invariants",
        "regular_sequences",
        "torsion_chain_consistency",
        "torsion_identities",
        "ideal_chain_consistency",
        "dimension_filtration",
        "regularity_vs_oracle",
        "depth_vs_oracle",
        "pretty_clean_filtration",
        "filtration_length",
    )
    if module.is_zero():
        for name in chain_checks:
            add(name, "not_applicable", "zero module")
        return EXIT_OK
    if not verdict.is_borel:
        for name in chain_checks:
            add(name, "not_applicable", "module is not of Borel type")
        return EXIT_OK

    # refuses a reduced top degree past the ceiling before any other check
    chain = prepare(module, "check", options.ceiling)
    n = module.nvars
    indices = chain.indices()
    ideals = chain.ideals()
    cm = sequential_cm_report(chain)
    invariants_ok = (
        all(a > b for a, b in zip(indices, indices[1:]))
        and len(chain) <= n
        and ideals[-1] == module.numerator
        and all(
            b.contains(a) and a != b
            for a, b in zip([module.denominator] + ideals, ideals)
        )
        and cm["dims_match"]
        and cm["dims_strictly_increase"]
    )
    add(
        "chain_invariants",
        "pass" if invariants_ok else "fail",
        {"indices": indices, "dims": cm["quotient_dims"]},
    )
    add(
        "regular_sequences",
        "pass" if all(cm["regular_sequences"]) else "fail",
        {"per_step": cm["regular_sequences"]},
    )
    add(
        "torsion_chain_consistency",
        "pass" if torsion_ladder_matches_chain(chain) else "fail",
    )
    identities = torsion_identity_report(module)
    add(
        "torsion_identities",
        "pass"
        if identities["consecutive_products"] and identities["support_reduction"]
        else "fail",
        identities["counterexample"],
    )

    if cyclic_proper:
        ideal = module.denominator
        saturation_route = iterated_saturation_chain(ideal)
        matches = saturation_route == [
            (s.variable_index, s.ideal) for s in chain.steps
        ]
        add("ideal_chain_consistency", "pass" if matches else "fail")
        dimrep = dimension_filtration_report(ideal)
        add(
            "dimension_filtration",
            "pass" if dimrep["ok"] else "fail",
            {"entries": dimrep["entries"]},
        )
        try:
            table = betti_table(ideal, guard=options.oracle_guard, field=options.field)
        except GuardExceededError as exc:
            add("regularity_vs_oracle", "skipped", str(exc))
            add("depth_vs_oracle", "skipped", str(exc))
            table = None
        if table is not None:
            reg_report = regularity(module, ceiling=options.ceiling)
            reg_oracle, _, depth_oracle = oracle_invariants(table)
            add(
                "regularity_vs_oracle",
                "pass" if reg_report.regularity == reg_oracle else "fail",
                {"chain": reg_report.regularity, "oracle": reg_oracle},
            )
            add(
                "depth_vs_oracle",
                "pass" if reg_report.depth == depth_oracle else "fail",
                {"chain": reg_report.depth, "oracle": depth_oracle},
            )
    else:
        add("ideal_chain_consistency", "not_applicable", "module is not cyclic")
        add("dimension_filtration", "not_applicable", "module is not cyclic")
        add("regularity_vs_oracle", "not_applicable", "oracle handles cyclic modules")
        add("depth_vs_oracle", "not_applicable", "oracle handles cyclic modules")

    # a module that is not sequentially CM is refused here, as an inconsistency
    filtration = pretty_clean_filtration(module)
    verification = verify_filtration(filtration)
    add(
        "pretty_clean_filtration",
        "pass"
        if verification["pretty_clean"] and verification["support_equals_ass"]
        else "fail",
        {
            "pretty_clean": verification["pretty_clean"],
            "support_equals_ass": verification["support_equals_ass"],
            "clean": verification["clean"],
            "length": verification["length"],
        },
    )
    lengths = filtration_length_report(filtration, chain, ceiling=options.ceiling)
    add(
        "filtration_length",
        "pass" if lengths["ok"] else "fail",
        {"total_length": lengths["total_length"]},
    )
    return EXIT_OK

