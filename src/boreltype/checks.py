"""Cross-validation orchestration: every mathematically forced coincidence
the package knows about, run against a single module.

Each check is one route(name, reason, compute) call, and the calls run in
the order the report lists the checks.  The reason is None, or the text a
not_applicable check reports; it is one of a few values read once per module
(zero, not of Borel type, not cyclic), so each check's name and
applicability are written once, side by side.  compute is a closure that
returns (ok, detail), or a status of its own in place of ok: "skipped" when
the oracle's guard refuses the box.  The values several checks read (the
chain and its SCM report, the Betti table, the chain's regularity, the
filtration) are plain locals, each built just before the first check that
reads it and only where that check applies; an exception there ends the
report after the checks already added.  Every package function is called
through this module's name for it, looked up at call time, so a test or a
tracer that rebinds the name sees every call.

The exit-code contract: 0 all checks pass (or are inapplicable), 1 a
mathematical cross-check failed, 2 an internal inconsistency (a result theory
proves impossible, e.g. the Borel criteria disagreeing), 3 malformed input.
A Borel-type module that is not sequentially Cohen-Macaulay also exits 2: its
filtration build refuses it, and the report names the failing chain step.
Guard-limited checks report "skipped" and do not affect the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import DEFAULT_ORACLE_GUARD, betti_table
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
    ceiling: int = DEFAULT_CEILING
    oracle_guard: int = DEFAULT_ORACLE_GUARD
    field: str = "q"


def module_json(module: Subquotient) -> dict:
    return {
        "vars": module.nvars,
        "numerator": module.numerator.gens_text(),
        "denominator": module.denominator.gens_text(),
    }


def run_check(module: Subquotient, options: CheckOptions = CheckOptions()):
    """Run every applicable cross-check; returns (report, exit_code).  The
    report records no options: the CLI writes the block its command read."""
    checks: list[dict] = []
    report = {"input": module_json(module), "checks": checks}

    def route(name, reason, compute):
        """Add one check: not applicable for a reason, else compute() gives
        (ok, detail), where ok is True, False or a status of its own."""
        if reason is not None:
            checks.append({"name": name, "status": "not_applicable", "detail": reason})
            return
        ok, detail = compute()
        status = ok if isinstance(ok, str) else ("pass" if ok else "fail")
        checks.append({"name": name, "status": status, "detail": detail})

    exit_code = EXIT_OK
    try:
        _run_all(module, options, route, report)
    except (InternalInconsistencyError, NotSequentiallyCMError) as exc:
        report["internal_inconsistency"] = str(exc)
        exit_code = EXIT_INTERNAL
    if exit_code != EXIT_INTERNAL and any(c["status"] == "fail" for c in checks):
        exit_code = EXIT_CHECK_FAILED
    report["exit_code"] = exit_code
    return report, exit_code


def _agree(**routes):
    """(whether the two routes agree, the routes as the check's detail)."""
    first, second = routes.values()
    return first == second, routes


def _run_all(module, options, route, report):
    verdict = borel_verdict(module)
    report["verdict"] = verdict.to_json()
    borel = verdict.is_borel
    # raises InternalInconsistencyError when a stable truncation contradicts
    # a non-Borel verdict; M_{>=0} = M, so degree 0 decides strong stability
    e_found = truncation_stability_degree(module)
    stable_now = e_found == 0
    ideal = module.denominator
    zero = "zero module" if module.is_zero() else None
    not_cyclic = None if module.is_cyclic() else "module is not cyclic"
    no_chain = zero or (None if borel else "module is not of Borel type")
    no_oracle = no_chain or (not_cyclic and "oracle handles cyclic modules")

    route("borel_criteria_agree", None, lambda: (True, {"borel_type": borel}))
    route(
        "ideal_module_borel_agree",
        not_cyclic or zero,
        lambda: _agree(ideal_route=ideal_is_borel_type(ideal), module_route=borel),
    )
    route(
        "strongly_stable_agree",
        not_cyclic or zero,
        lambda: _agree(
            ideal_route=is_strongly_stable_ideal(ideal), module_route=stable_now
        ),
    )
    route(
        "strongly_stable_implies_borel",
        None,
        lambda: (
            not stable_now or borel,
            {"strongly_stable": stable_now, "borel_type": borel},
        ),
    )
    route("truncation_stability", None, lambda: (True, {"degree": e_found}))
    route(
        "serialization_roundtrip",
        None,
        lambda: (parse_module_file(serialize_module(module)) == module, None),
    )

    chain = cm = None
    if no_chain is None:
        # refuses a reduced top degree past the ceiling before any other check
        chain = prepare(module, "check", options.ceiling)
        cm = sequential_cm_report(chain)

    def invariants():
        indices, ideals = chain.indices(), chain.ideals()
        ok = (
            all(a > b for a, b in zip(indices, indices[1:]))
            and len(chain) <= module.nvars
            and ideals[-1] == module.numerator
            and all(b.contains(a) and a != b for a, b in zip([ideal] + ideals, ideals))
            and cm["dims_match"]
            and cm["dims_strictly_increase"]
        )
        return ok, {"indices": indices, "dims": cm["quotient_dims"]}

    def identities():
        found = torsion_identity_report(module)
        ok = found["consecutive_products"] and found["support_reduction"]
        return ok, found["counterexample"]

    def saturations():
        steps = [(s.variable_index, s.ideal) for s in chain.steps]
        return iterated_saturation_chain(ideal) == steps, None

    def dimensions():
        found = dimension_filtration_report(ideal)
        return found["ok"], {"entries": found["entries"]}

    route("chain_invariants", no_chain, invariants)
    route(
        "regular_sequences",
        no_chain,
        lambda: (all(cm["regular_sequences"]), {"per_step": cm["regular_sequences"]}),
    )
    route(
        "torsion_chain_consistency",
        no_chain,
        lambda: (torsion_ladder_matches_chain(chain), None),
    )
    route("torsion_identities", no_chain, identities)
    route("ideal_chain_consistency", no_chain or not_cyclic, saturations)
    route("dimension_filtration", no_chain or not_cyclic, dimensions)

    # the chain's regularity is computed only once the oracle's box is admitted
    table = reg = skipped = None
    if no_oracle is None:
        try:
            table = betti_table(ideal, guard=options.oracle_guard, field=options.field)
        except GuardExceededError as exc:
            skipped = ("skipped", str(exc))
        else:
            reg = regularity(module, ceiling=options.ceiling)
    route(
        "regularity_vs_oracle",
        no_oracle,
        lambda: skipped or _agree(chain=reg.regularity, oracle=table.regularity()),
    )
    route(
        "depth_vs_oracle",
        no_oracle,
        lambda: skipped or _agree(chain=reg.depth, oracle=table.depth()),
    )

    # refuses a module that is not sequentially CM, as an inconsistency
    filtration = None if no_chain else pretty_clean_filtration(module)

    def verification():
        found = verify_filtration(filtration)
        ok = found["pretty_clean"] and found["support_equals_ass"]
        keys = ("pretty_clean", "support_equals_ass", "clean", "length")
        return ok, {key: found[key] for key in keys}

    def lengths():
        found = filtration_length_report(filtration, chain, ceiling=options.ceiling)
        return found["ok"], {"total_length": found["total_length"]}

    route("pretty_clean_filtration", no_chain, verification)
    route("filtration_length", no_chain, lengths)
