"""Sequential chains: construction, quotients, regular sequences, filtrations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from boreltype import (
    MonomialIdeal,
    Subquotient,
    borel_verdict,
    build_chain,
    chain_quotients,
    dimension_filtration_report,
    iterated_saturation_chain,
    krull_dim,
    regular_sequence_holds,
    run_check,
    sequential_cm_report,
    torsion_ladder_matches_chain,
)
from boreltype import chain as chain_module
from boreltype import filtration as filtration_module
from boreltype.chain import reduced_hilbert
from boreltype.errors import NotBorelTypeError, ZeroModuleError

from .support import monomial_ideals


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def cyclic(nvars, *gens):
    return Subquotient.cyclic(I(nvars, *gens))


class TestBuildChain:
    def test_golden_two_steps(self):
        chain = build_chain(cyclic(2, "x1^2", "x1*x2"))
        assert chain.indices() == [2, 1]
        assert chain.ideals() == [I(2, "x1"), MonomialIdeal.unit(2)]

    def test_golden_single_step(self):
        chain = build_chain(cyclic(2, "x1"))
        assert chain.indices() == [1]
        assert chain.ideals() == [MonomialIdeal.unit(2)]

    def test_golden_maximal_ideal(self):
        chain = build_chain(cyclic(2, "x1", "x2"))
        assert chain.indices() == [2]
        assert chain.ideals() == [MonomialIdeal.unit(2)]

    def test_non_borel_rejected(self):
        with pytest.raises(NotBorelTypeError):
            build_chain(cyclic(2, "x2"))

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModuleError):
            build_chain(Subquotient(I(2, "x1"), I(2, "x1")))

    def test_ends_at_numerator_and_starts_past_denominator(self):
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        chain = build_chain(M)
        assert chain.ideals()[-1] == M.numerator
        assert chain.ideals()[0] != M.denominator


class TestQuotients:
    def test_golden_quotients_and_reductions(self):
        chain = build_chain(cyclic(2, "x1^2", "x1*x2"))
        pairs = chain_quotients(chain)
        assert len(pairs) == 2
        q1, q1bar = pairs[0]
        assert q1 == Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert q1bar == q1
        q2, q2bar = pairs[1]
        assert q2 == cyclic(2, "x1")
        assert q2bar == cyclic(2, "x1", "x2")

    def test_golden_reduced_hilbert(self):
        chain = build_chain(cyclic(2, "x1^2", "x1*x2"))
        assert reduced_hilbert(chain) == ((0, 1), (1,))

    def test_check_scans_reduced_quotients_once(self, monkeypatch):
        # regularity and the filtration length report read the same scan
        M = cyclic(3, "x1^3", "x2^3", "x3^3", "x1*x2")
        scans = []
        original = Subquotient.artinian_hilbert

        def counted(self, *args, **kwargs):
            scans.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Subquotient, "artinian_hilbert", counted)
        reduced_hilbert.cache_clear()
        report, code = run_check(M)
        assert code == 0
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["regularity_vs_oracle"] == "pass"
        assert statuses["filtration_length"] == "pass"
        assert len(scans) == len(build_chain(M))

    def test_quotients_are_nonzero(self):
        chain = build_chain(cyclic(3, "x1", "x2^2", "x2*x3"))
        for quotient, reduced in chain_quotients(chain):
            assert not quotient.is_zero()
            assert not reduced.is_zero()


class TestRegularSequences:
    def test_golden(self):
        chain = build_chain(cyclic(2, "x1^2", "x1*x2"))
        assert regular_sequence_holds(chain, 1)
        assert regular_sequence_holds(chain, 2)

    def test_step_bounds(self):
        chain = build_chain(cyclic(2, "x1"))
        with pytest.raises(ValueError):
            regular_sequence_holds(chain, 0)
        with pytest.raises(ValueError):
            regular_sequence_holds(chain, 2)


    def test_check_computes_each_certificate_once(self, monkeypatch):
        # the check report, regularity and the filtration builder all read
        # the memoized sequential_cm_report, which asks once for every step's
        # certificate
        M = cyclic(3, "x1^2", "x1*x2", "x1*x3^2")
        requested = []

        def counted(chain, step_number):
            requested.append((chain, step_number))
            return regular_sequence_holds(chain, step_number)

        monkeypatch.setattr(chain_module, "regular_sequence_holds", counted)
        assert not hasattr(filtration_module, "regular_sequence_holds")
        regular_sequence_holds.cache_clear()
        sequential_cm_report.cache_clear()
        report, code = run_check(M)
        assert code == 0
        pairs = set(requested)
        assert len(pairs) == len(build_chain(M)) > 1
        assert len(requested) == len(pairs)
        assert regular_sequence_holds.cache_info().misses == len(pairs)
        assert sequential_cm_report.cache_info().misses == 1


class TestCmReport:
    def test_golden(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1^2", "x1*x2")))
        assert report["quotient_dims"] == [0, 1]
        assert report["expected_dims"] == [0, 1]
        assert report["dims_match"] and report["dims_strictly_increase"]
        assert report["regular_sequences"] == [True, True]
        assert report["dim"] == 1 and report["depth"] == 0
        assert report["ok"]

    def test_golden_principal(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1")))
        assert report["quotient_dims"] == [1]
        assert report["dim"] == 1 and report["depth"] == 1

    def test_golden_artinian(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1", "x2")))
        assert report["quotient_dims"] == [0]
        assert report["dim"] == 0 and report["depth"] == 0


class TestCorpusInvariants:
    def test_chain_shape_and_dimensions(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero():
                continue
            n = M.nvars
            chain = build_chain(M)
            idx = chain.indices()
            assert len(chain) <= n
            assert all(a > b for a, b in zip(idx, idx[1:]))
            ideals = chain.ideals()
            previous = M.denominator
            for level in ideals:
                assert level.contains(previous) and level != previous
                previous = level
            assert ideals[-1] == M.numerator
            report = sequential_cm_report(chain)
            assert report["ok"], (M, report)
            assert report["dim"] == n - idx[-1] == krull_dim(M)
            assert report["depth"] == n - idx[0]

    def test_torsion_ladder(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero():
                continue
            assert torsion_ladder_matches_chain(build_chain(M))

    def test_mixed_corpus_borel_modules_also_chain(self, mixed_corpus):
        built = 0
        for M in mixed_corpus:
            if M.is_zero() or not borel_verdict(M).is_borel:
                continue
            chain = build_chain(M)
            assert sequential_cm_report(chain)["ok"]
            built += 1
        assert built >= 30


class TestDimensionFiltration:
    def test_golden(self):
        report = dimension_filtration_report(I(2, "x1^2", "x1*x2"))
        assert report["ok"]
        assert [e["dim_bound"] for e in report["entries"]] == [1, 0]

    def test_golden_maximal(self):
        assert dimension_filtration_report(I(2, "x1", "x2"))["ok"]

    def test_golden_principal(self):
        # S/(x1) has no finite-length part, so the i=2 layer is the zero
        # submodule on both routes
        assert dimension_filtration_report(I(2, "x1"))["ok"]

    def test_non_borel_rejected(self):
        with pytest.raises(NotBorelTypeError):
            dimension_filtration_report(I(2, "x2"))

    def test_corpus(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero() or not M.is_cyclic():
                continue
            assert dimension_filtration_report(M.denominator)["ok"]


class TestIteratedSaturation:
    def test_golden_matches_module_chain(self):
        ideal = I(2, "x1^2", "x1*x2")
        ladder = iterated_saturation_chain(ideal)
        chain = build_chain(Subquotient.cyclic(ideal))
        assert ladder == list(zip(chain.indices(), chain.ideals()))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            iterated_saturation_chain(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            iterated_saturation_chain(MonomialIdeal.unit(2))

    def test_corpus_agreement(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero():
                continue
            chain = build_chain(M)
            ladder = iterated_saturation_chain(M.denominator)
            assert ladder == list(zip(chain.indices(), chain.ideals()))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=60)
    def test_always_terminates_at_unit(self, J):
        if J.is_zero() or J.is_unit():
            return
        ladder = iterated_saturation_chain(J)
        assert ladder[-1][1].is_unit()
        indices = [i for i, _ in ladder]
        assert all(a > b for a, b in zip(indices, indices[1:]))
