"""Sequential chains: construction, quotients, regular sequences, filtrations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    MonomialIdeal,
    Subquotient,
    borel_verdict,
    MonomialPrime,
    build_chain,
    dimension_filtration_report,
    iterated_saturation_chain,
    krull_dim,
    run_check,
    sequential_cm_report,
    torsion_ladder_matches_chain,
)
from boreltype import chain as chain_module
from boreltype.chain import reduced_hilbert
from boreltype.errors import NotBorelTypeError, ZeroModuleError

from .support import (
    modules,
    monomial_ideals,
    raw_trailing_sequence_regular,
    x1_recipe_modules,
)


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
        assert len(chain) == 2
        first, second = chain.steps
        assert first.quotient == Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert first.reduced == first.quotient
        assert (first.quotient_dim, first.prime) == (0, MonomialPrime(2, (1, 2)))
        assert second.quotient == cyclic(2, "x1")
        assert second.reduced == cyclic(2, "x1", "x2")
        assert (second.quotient_dim, second.prime) == (1, MonomialPrime(2, (1,)))

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

    def test_check_reduces_each_step_once(self, monkeypatch):
        # regularity, the SCM report and the filtration builder read the
        # steps of the memoized build_chain, the one place that reduces a
        # step quotient by x_{r+1}..x_n; the certificate of the memoized
        # sequential_cm_report reduces it only partially, by x_{j+1}..x_n
        # for j > r
        M = cyclic(3, "x1^2", "x1*x2", "x1*x3^2")
        reductions = []
        original = Subquotient.artinian_reduction

        def counted(self, r):
            reductions.append((self, r))
            return original(self, r)

        monkeypatch.setattr(Subquotient, "artinian_reduction", counted)
        build_chain.cache_clear()
        sequential_cm_report.cache_clear()
        report, code = run_check(M)
        assert code == 0
        chain = build_chain(M)
        assert len(chain) > 1
        for step in chain.steps:
            assert reductions.count((step.quotient, step.variable_index)) == 1
        assert [r for _, r in reductions] == [3, 1, 3, 2]

    def test_check_computes_each_certificate_once(self, monkeypatch):
        # the check report, regularity and the filtration builder all read
        # the memoized sequential_cm_report, which certifies each step of the
        # memoized build_chain once
        M = cyclic(3, "x1^2", "x1*x2", "x1*x3^2")
        certified = []
        original = chain_module._trailing_sequence_regular

        def counted(step):
            certified.append(step)
            return original(step)

        monkeypatch.setattr(chain_module, "_trailing_sequence_regular", counted)
        build_chain.cache_clear()
        sequential_cm_report.cache_clear()
        report, code = run_check(M)
        assert code == 0
        assert build_chain.cache_info().misses == 1
        assert sequential_cm_report.cache_info().misses == 1
        chain = build_chain(M)
        assert len(chain) > 1
        assert certified == list(chain.steps)

    def test_quotients_are_nonzero(self):
        chain = build_chain(cyclic(3, "x1", "x2^2", "x2*x3"))
        for step in chain.steps:
            assert not step.quotient.is_zero()
            assert not step.reduced.is_zero()

    def test_each_step_is_built_whole(self, borel_corpus, mixed_corpus):
        # every Borel draw of the two seeded corpora, cyclic or not
        modules = [
            M
            for M in borel_corpus + mixed_corpus
            if not M.is_zero() and borel_verdict(M).is_borel
        ]
        assert len(modules) >= 200
        for M in modules:
            n = M.nvars
            chain = build_chain(M)
            previous = M.denominator
            for step in chain.steps:
                r = step.variable_index
                assert step.quotient == Subquotient(step.ideal, previous)
                assert step.reduced == step.quotient.artinian_reduction(r)
                assert step.prime == MonomialPrime(n, tuple(range(1, r + 1)))
                assert step.quotient_dim == krull_dim(step.quotient)
                previous = step.ideal
            # the memo keys: a chain built again from an equal module
            again = build_chain.__wrapped__(Subquotient(M.numerator, M.denominator))
            assert again is not chain
            assert again == chain and hash(again) == hash(chain)


class TestCmReport:
    def test_golden(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1^2", "x1*x2")))
        assert report["quotient_dims"] == [0, 1]
        assert report["expected_dims"] == [0, 1]
        assert report["dims_match"] and report["dims_strictly_increase"]
        assert report["regular_sequences"] == [True, True]
        assert report["ok"]

    def test_golden_principal(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1")))
        assert report["quotient_dims"] == [1]

    def test_golden_artinian(self):
        report = sequential_cm_report(build_chain(cyclic(2, "x1", "x2")))
        assert report["quotient_dims"] == [0]

    def test_golden_failure_past_the_last_variable(self):
        # (x1, x2, x3)/(x1) is the maximal ideal of K[x2, x3]: x3 is a
        # nonzerodivisor on it, and x2 kills the class of x3 modulo x3 times it
        M = Subquotient(I(3, "x1", "x2", "x3"), I(3, "x1"))
        (step,) = build_chain(M).steps
        assert step.variable_index == 1
        assert step.quotient.torsion_submodule((3,)) == step.quotient.denominator
        reduced = step.quotient.artinian_reduction(2)
        assert reduced.torsion_submodule((2,)) != reduced.denominator
        assert sequential_cm_report(build_chain(M))["regular_sequences"] == [False]
        assert raw_trailing_sequence_regular(step) is False

    @pytest.mark.parametrize(
        "draws",
        [modules(min_vars=3, max_vars=4), x1_recipe_modules()],
        ids=["modules", "x1_recipe"],
    )
    @given(data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_certificates_match_the_forward_colon_order(self, draws, data):
        # the certificate reads x_n, ..., x_{r+1} on partial reductions; the
        # reference takes colons in the order x_{r+1}, ..., x_n.  About one
        # nonzero x1-recipe draw in ten has a failing step
        M = data.draw(draws)
        if M.is_zero() or not borel_verdict(M).is_borel:
            return
        chain = build_chain(M)
        assert sequential_cm_report(chain)["regular_sequences"] == [
            raw_trailing_sequence_regular(step) for step in chain.steps
        ]


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
            assert report["quotient_dims"][-1] == n - idx[-1] == krull_dim(M)
            assert report["quotient_dims"][0] == n - idx[0]

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
