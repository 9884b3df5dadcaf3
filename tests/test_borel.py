"""Borel-type verdicts, strong stability, truncation, torsion identities."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    Monomial,
    MonomialIdeal,
    Subquotient,
    borel_verdict,
    exchange_closure_ideal,
    ideal_is_borel_type,
    is_strongly_stable_ideal,
    is_strongly_stable_module,
    torsion_identity_report,
    truncation_stability_degree,
)
from boreltype.errors import InternalInconsistencyError, NotBorelTypeError

from .support import modules, monomial_ideals


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


class TestVerdict:
    def test_golden_positive(self):
        v = borel_verdict(Subquotient.cyclic(I(2, "x1^2", "x1*x2")))
        assert v.is_borel
        assert v.by_saturation and v.by_pairwise and v.by_associated_primes
        assert [str(p) for p in v.primes] == ["x1", "x1,x2"]

    def test_golden_negative_with_witnesses(self):
        v = borel_verdict(Subquotient.cyclic(I(2, "x2")))
        assert not v.is_borel
        assert v.saturation_failures == (2,)
        assert v.pairwise_failures == ((1, 2),)
        assert [str(p) for p in v.prime_failures] == ["x2"]

    def test_golden_subquotient(self):
        v = borel_verdict(Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2")))
        assert v.is_borel
        assert [str(p) for p in v.primes] == ["x1,x2"]

    def test_zero_module_vacuous(self):
        v = borel_verdict(Subquotient(I(2, "x1"), I(2, "x1")))
        assert v.is_borel
        assert v.note == "zero module"

    @given(M=modules())
    @settings(deadline=None, max_examples=120)
    def test_three_criteria_agree(self, M):
        v = borel_verdict(M)
        assert v.by_saturation == v.by_pairwise == v.by_associated_primes

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_heredity_and_two_out_of_three(self, M):
        if M.is_zero():
            return
        witness = next(
            (g for g in M.numerator.gens if not M.denominator.member(g)), None
        )
        if witness is None:
            return
        middle = M.denominator.add(MonomialIdeal.principal(witness))
        sub = Subquotient(middle, M.denominator)
        quot = Subquotient(M.numerator, middle)
        whole = borel_verdict(M).is_borel
        parts = borel_verdict(sub).is_borel and borel_verdict(quot).is_borel
        if whole:
            assert parts
        if parts:
            assert whole


class TestIdealCriterion:
    def test_golden(self):
        assert ideal_is_borel_type(I(2, "x1^2", "x1*x2"))
        assert not ideal_is_borel_type(I(2, "x2^2"))
        assert ideal_is_borel_type(I(2, "x1", "x2"))

    def test_saturation_detail_of_the_negative_case(self):
        J = I(2, "x2^2")
        assert J.saturate(I(2, "x2")) == MonomialIdeal.unit(2)
        assert J.saturate(I(2, "x1", "x2")) == J

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            ideal_is_borel_type(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            ideal_is_borel_type(MonomialIdeal.unit(2))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=80)
    def test_matches_module_route(self, J):
        assert ideal_is_borel_type(J) == borel_verdict(Subquotient.cyclic(J)).is_borel

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_ideal_pair_logic(self, M):
        # for J <= I proper nonzero: J Borel forces I/J Borel; and when both
        # I/J and I are Borel, J inherits it through 0 -> I/J -> S/J -> S/I
        if M.is_cyclic() or M.is_zero() or M.numerator.is_unit():
            return
        J, bigger = M.denominator, M.numerator
        if ideal_is_borel_type(J):
            assert borel_verdict(M).is_borel
        if borel_verdict(M).is_borel and ideal_is_borel_type(bigger):
            assert ideal_is_borel_type(J)

    def test_borel_quotient_of_borel_ring_need_not_come_from_borel_ideal(self):
        # the implication cannot be reversed: here J and I/J are both of
        # Borel type yet I is not, because S/I picks up the associated
        # prime (x1,x3), which no submodule of S/(x1) can see
        J = I(3, "x1")
        bigger = I(3, "x1", "x2*x3")
        assert ideal_is_borel_type(J)
        assert borel_verdict(Subquotient(bigger, J)).is_borel
        assert not ideal_is_borel_type(bigger)
        v = borel_verdict(Subquotient.cyclic(bigger))
        assert [str(p) for p in v.prime_failures] == ["x1,x3"]


class TestStronglyStable:
    def test_module_golden(self):
        assert is_strongly_stable_module(Subquotient.cyclic(I(2, "x1", "x2^2")))
        assert not is_strongly_stable_module(Subquotient.cyclic(I(2, "x2^2")))
        assert is_strongly_stable_module(Subquotient(I(2, "x1"), I(2, "x1")))

    def test_ideal_golden(self):
        assert is_strongly_stable_ideal(I(2, "x1", "x2^2"))
        assert not is_strongly_stable_ideal(I(2, "x2^2"))
        assert is_strongly_stable_ideal(I(2, "x1"))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=80)
    def test_ideal_module_agree(self, J):
        assert is_strongly_stable_ideal(J) == is_strongly_stable_module(
            Subquotient.cyclic(J)
        )

    @given(M=modules())
    @settings(deadline=None, max_examples=80)
    def test_strongly_stable_implies_borel(self, M):
        if is_strongly_stable_module(M):
            assert borel_verdict(M).is_borel

    @given(J=monomial_ideals(max_exp=2))
    @settings(deadline=None, max_examples=40)
    def test_exchange_closure_is_strongly_stable(self, J):
        closed = exchange_closure_ideal(J.nvars, J.gens)
        assert is_strongly_stable_ideal(closed)
        assert closed.contains(J)


class TestTruncationCriterion:
    def test_golden(self):
        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        assert truncation_stability_degree(M, 4) == 0

    def test_absent_for_non_borel(self):
        M = Subquotient.cyclic(I(2, "x2"))
        assert truncation_stability_degree(M, 4) is None

    def test_zero_module(self):
        M = Subquotient(I(2, "x1"), I(2, "x1"))
        assert truncation_stability_degree(M) == 0

    def test_borel_but_not_stable_needs_positive_degree(self):
        # (x1^2, x2^2) is Borel type (Ass = {(x1,x2)}) but not strongly
        # stable (x1x2 missing); its truncation at degree 2 is
        J = I(2, "x1^2", "x2^2")
        M = Subquotient.cyclic(J)
        assert borel_verdict(M).is_borel
        assert not is_strongly_stable_module(M)
        e = truncation_stability_degree(M)
        assert e is not None and e >= 1

    @given(M=modules(max_vars=3))
    @settings(deadline=None, max_examples=40)
    def test_found_degree_implies_borel(self, M):
        e = truncation_stability_degree(M)
        if e is not None:
            assert borel_verdict(M).is_borel
            assert is_strongly_stable_module(M.truncate(e))

    def test_golden_subquotient_needs_positive_degree(self):
        # M = (x1)/(x1*x2, x1^3) has basis x1, x1^2.  x2 kills all of M but
        # x1 does not kill x1, so M and M_{>=1} are not strongly stable;
        # M_{>=2} is spanned by x1^2, which both variables kill.
        M = Subquotient(I(2, "x1"), I(2, "x1*x2", "x1^3"))
        assert not is_strongly_stable_module(M.truncate(1))
        assert is_strongly_stable_module(M.truncate(2))
        assert truncation_stability_degree(M) == 2
        assert truncation_stability_degree(M, 1) is None

    @given(M=modules(max_vars=3), e_max=st.integers(0, 6))
    @settings(deadline=None, max_examples=60)
    def test_least_degree_matches_truncated_modules(self, M, e_max):
        expected = next(
            (e for e in range(e_max + 1) if is_strongly_stable_module(M.truncate(e))),
            None,
        )
        assert truncation_stability_degree(M, e_max) == expected

    def test_stable_truncation_of_non_borel_verdict_raises(self, monkeypatch):
        import boreltype.borel as borel_module

        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        verdict = dataclasses.replace(borel_verdict(M), by_saturation=False)
        monkeypatch.setattr(borel_module, "borel_verdict", lambda module: verdict)
        with pytest.raises(InternalInconsistencyError, match="degree 0"):
            truncation_stability_degree(M)


class TestTorsionIdentities:
    def test_golden(self):
        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        report = torsion_identity_report(M)
        assert report["consecutive_products"]
        assert report["support_reduction"]
        assert report["counterexample"] is None
        # the identity behind the report, spelled out once: torsion at x1*x2
        # equals torsion at x1, and both are the whole module here
        at_product = M.torsion_submodule(MonomialIdeal.principal(Monomial((1, 1))))
        at_least_var = M.torsion_submodule(MonomialIdeal.principal(Monomial((1, 0))))
        assert at_product == at_least_var == MonomialIdeal.unit(2)

    def test_requires_borel(self):
        with pytest.raises(NotBorelTypeError):
            torsion_identity_report(Subquotient.cyclic(I(2, "x2")))

    @given(M=modules(max_vars=3))
    @settings(deadline=None, max_examples=40)
    def test_identities_hold_on_borel_instances(self, M):
        if M.is_zero() or not borel_verdict(M).is_borel:
            return
        report = torsion_identity_report(M)
        assert report["consecutive_products"] and report["support_reduction"]
