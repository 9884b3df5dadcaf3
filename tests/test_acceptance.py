"""Acceptance gate: one test per advertised guarantee, run at full scale.

Each test prints a single [PASS] line once its criterion holds on the whole
required corpus; run with -s (or read the -v test lines) to see them.  The
corpora are seeded and shared session-wide, so the counts here are the
advertised minimums, not samples.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from boreltype import (
    MonomialIdeal,
    Subquotient,
    betti_table,
    borel_verdict,
    build_chain,
    dimension_filtration_report,
    filtration_length_report,
    ideal_is_borel_type,
    is_strongly_stable_module,
    krull_dim,
    pretty_clean_filtration,
    regularity,
    run_check,
    sequential_cm_report,
    serialize_module,
    torsion_identity_report,
    truncation_stability_degree,
    verify_filtration,
)
from boreltype.checks import CheckOptions
from boreltype.cli import main
from boreltype.errors import InternalInconsistencyError


def _passed(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def cyclic(nvars, *gens):
    return Subquotient.cyclic(I(nvars, *gens))


def _borel_instances(corpus):
    return [
        M for M in corpus if not M.is_zero() and borel_verdict(M).is_borel
    ]


def test_criterion_1_chain_regularity_matches_oracle(borel_corpus):
    assert len(borel_corpus) >= 200
    for M in borel_corpus:
        chain_reg = regularity(M).regularity
        oracle_reg = betti_table(M.denominator).regularity()
        assert chain_reg == oracle_reg, (M, chain_reg, oracle_reg)
    _passed(1, f"chain regularity equals oracle regularity on {len(borel_corpus)} "
               "exchange-closed cyclic modules")


def test_criterion_2_three_borel_criteria_agree(mixed_corpus, monkeypatch, tmp_path):
    assert len(mixed_corpus) >= 500
    for M in mixed_corpus:
        v = borel_verdict(M)  # raises InternalInconsistencyError on a split
        assert v.by_saturation == v.by_pairwise == v.by_associated_primes
    # a forced disagreement must surface as exit code 2, not as a wrong answer
    import boreltype.checks as checks

    def boom(module):
        raise InternalInconsistencyError("forced disagreement for the gate")

    path = tmp_path / "m.mod"
    path.write_text(serialize_module(cyclic(2, "x1^2", "x1*x2")), encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(checks, "borel_verdict", boom)
        assert main(["check", str(path)]) == 2
    _passed(2, f"saturation, pairwise-torsion and associated-prime criteria agree "
               f"on {len(mixed_corpus)} mixed modules; disagreement exits 2")


def test_criterion_3_chain_invariants(borel_corpus, mixed_corpus):
    checked = 0
    for M in _borel_instances(borel_corpus) + _borel_instances(mixed_corpus):
        n = M.nvars
        chain = build_chain(M)
        idx = chain.indices()
        assert all(a > b for a, b in zip(idx, idx[1:]))
        previous = M.denominator
        for level in chain.ideals():
            assert level.contains(previous) and level != previous
            previous = level
        assert previous == M.numerator
        report = sequential_cm_report(chain)
        assert report["dims_match"], (M, report)
        assert report["dims_strictly_increase"], (M, report)
        assert all(report["regular_sequences"]), (M, report)
        assert report["quotient_dims"][-1] == n - idx[-1] == krull_dim(M)
        checked += 1
    _passed(3, f"descending indices, ascending ideals, dimensions n - index and "
               f"regular sequences verified on {checked} chains")


def test_criterion_4_dimension_filtration_is_torsion(borel_corpus):
    instances = [M for M in _borel_instances(borel_corpus) if M.is_cyclic()]
    assert len(instances) >= 100
    for M in instances:
        assert dimension_filtration_report(M.denominator)["ok"], M
    _passed(4, f"decomposition route and torsion route give the same dimension "
               f"filtration on {len(instances)} cyclic modules")


def test_criterion_5_pretty_clean_filtrations(borel_corpus, mixed_corpus):
    checked = 0
    for M in _borel_instances(borel_corpus) + _borel_instances(mixed_corpus):
        filtration = pretty_clean_filtration(M)  # NotSequentiallyCMError = fail
        report = verify_filtration(filtration)
        assert report["pretty_clean"], (M, report["violations"])
        assert report["support_equals_ass"], (M, report)
        lengths = filtration_length_report(filtration, build_chain(M))
        assert lengths["ok"], (M, lengths)
        checked += 1
    _passed(5, f"pretty clean filtration built and verified on {checked} modules; "
               "every length equals the reduced-quotient dimension sum")


def test_criterion_6_depth_markers_agree(borel_corpus, mixed_corpus):
    checked = 0
    for M in _borel_instances(borel_corpus) + _borel_instances(mixed_corpus):
        if not M.is_cyclic():
            continue
        chain_depth = regularity(M).depth
        table = betti_table(M.denominator)
        pd = table.projective_dimension()
        assert chain_depth == table.depth() == M.nvars - pd, (M, chain_depth, pd)
        checked += 1
    _passed(6, f"chain depth n - n_1 equals the homological depth on {checked} "
               "cyclic modules")


def test_criterion_7_golden_examples():
    report = regularity(cyclic(2, "x1^2", "x1*x2"))
    assert (report.regularity, report.dim, report.depth) == (1, 1, 0)
    chain = build_chain(cyclic(2, "x1^2", "x1*x2"))
    assert list(zip(chain.indices(), chain.ideals())) == [
        (2, I(2, "x1")),
        (1, MonomialIdeal.unit(2)),
    ]
    filtration = pretty_clean_filtration(cyclic(2, "x1^2", "x1*x2"))
    assert [str(s.prime) for s in filtration.steps] == ["x1,x2", "x1"]
    assert regularity(cyclic(2, "x1")).regularity == 0
    assert regularity(cyclic(2, "x1", "x2")).regularity == 0
    verdict = borel_verdict(cyclic(2, "x2"))
    assert not verdict.is_borel
    assert verdict.pairwise_failures == ((1, 2),)
    _passed(7, "hand-computed regularity, chain, filtration and failure "
               "witnesses reproduced exactly")


def test_criterion_8_structural_property_suites(borel_corpus, mixed_corpus):
    everything = [M for M in borel_corpus + mixed_corpus if not M.is_zero()]
    splits = two_thirds = pairs = truncations = identities = stable = 0
    for M in everything:
        # split off the first numerator generator outside the denominator
        witness = next(
            (g for g in M.numerator.gens if not M.denominator.member(g)), None
        )
        if witness is not None:
            middle = M.denominator.add(MonomialIdeal.principal(witness))
            sub = Subquotient(middle, M.denominator)
            quot = Subquotient(M.numerator, middle)
            whole = borel_verdict(M).is_borel
            parts = borel_verdict(sub).is_borel and borel_verdict(quot).is_borel
            if whole:
                assert parts, M
                splits += 1
            if parts:
                assert whole, M
                two_thirds += 1
        if not M.is_cyclic() and not M.numerator.is_unit():
            if ideal_is_borel_type(M.denominator):
                assert borel_verdict(M).is_borel, M
            if borel_verdict(M).is_borel and ideal_is_borel_type(M.numerator):
                assert ideal_is_borel_type(M.denominator), M
            pairs += 1
        if is_strongly_stable_module(M):
            assert borel_verdict(M).is_borel, M
            stable += 1
    # the truncation criterion is one-way: a strongly stable truncation
    # certifies Borel type, so no non-Borel module may ever produce one
    for M in everything[:80] + _borel_instances(borel_corpus)[:80]:
        e = truncation_stability_degree(M)
        if borel_verdict(M).is_borel:
            if e is not None:
                assert is_strongly_stable_module(M.truncate(e)), (M, e)
                truncations += 1
        else:
            assert e is None, (M, e)
    for M in _borel_instances(borel_corpus)[:60] + _borel_instances(mixed_corpus)[:60]:
        report = torsion_identity_report(M)
        assert report["consecutive_products"], (M, report)
        assert report["support_reduction"], (M, report)
        identities += 1
    assert splits and two_thirds and pairs and truncations and stable
    _passed(8, f"heredity ({splits}), converse from both parts ({two_thirds}), "
               f"ideal-pair transfer ({pairs}), stable truncations "
               f"({truncations}), torsion identities ({identities}) and "
               f"stability implication ({stable}) all hold")


def test_criterion_9_byte_identical_reruns(tmp_path):
    fuzz = [
        sys.executable, "-m", "boreltype", "fuzz",
        "--seed", "11", "--count", "12", "--gen", "random", "--vars", "3",
    ]
    first = subprocess.run(fuzz, capture_output=True)
    second = subprocess.run(fuzz, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
    path = tmp_path / "m.mod"
    path.write_text(serialize_module(cyclic(3, "x1", "x2^2", "x2*x3")))
    check = [sys.executable, "-m", "boreltype", "check", str(path)]
    runs = [subprocess.run(check, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
    # the library itself is deterministic too, not only the CLI wrapper
    module = cyclic(2, "x1^2", "x1*x2")
    reports = [
        json.dumps(run_check(module, CheckOptions())[0], sort_keys=True)
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    _passed(9, "identical seeds reproduce byte-identical JSON across fresh "
               "processes and repeated library calls")
