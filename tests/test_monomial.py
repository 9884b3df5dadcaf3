"""Monomial and ideal arithmetic against raw exponent-tuple references."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import Monomial, MonomialIdeal, monomial_from_text, monomials_of_degree
from boreltype.errors import DimensionMismatchError, GuardExceededError, ParseError
from boreltype.monomial import EXPONENT_LIMIT, ensure_box

from .support import (
    exponent_tuples,
    gens_of,
    ideal_of,
    nonunit_tuples,
    raw_ideals,
    raw_member,
    raw_minimalize,
    raw_mul,
    raw_saturation_member,
    tuples_up_to,
)


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


class TestMonomialBasics:
    def test_divides_golden(self):
        assert Monomial((1, 0)).divides(Monomial((2, 1)))
        assert not Monomial((0, 2)).divides(Monomial((1, 1)))
        assert Monomial.unit(2).divides(Monomial((5, 7)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Monomial((1, 0)).divides(Monomial((1, 0, 0)))

    def test_operations_reject_mixed_variable_counts(self):
        # a zip over the exponent tuples alone would truncate to the shorter
        short, long = Monomial((1, 0)), Monomial((1, 0, 2))
        for a, b in ((short, long), (long, short)):
            for op in (a.mul, a.lcm, a.div, a.divides):
                with pytest.raises(DimensionMismatchError):
                    op(b)

    def test_radical_and_min_support(self):
        assert Monomial((2, 1, 0)).radical_and_min_support() == (Monomial((1, 1, 0)), 1)
        assert Monomial((0, 0, 3)).radical_and_min_support() == (Monomial((0, 0, 1)), 3)
        assert Monomial((0, 2, 1)).radical_and_min_support() == (Monomial((0, 1, 1)), 2)

    def test_radical_of_unit_rejected(self):
        with pytest.raises(ValueError):
            Monomial.unit(3).radical_and_min_support()

    def test_div_requires_divisibility(self):
        assert Monomial((2, 1)).div(Monomial((1, 0))) == Monomial((1, 1))
        with pytest.raises(ValueError):
            Monomial((1, 0)).div(Monomial((0, 1)))

    def test_exponent_cap(self):
        with pytest.raises(OverflowError):
            Monomial((EXPONENT_LIMIT + 1, 0))
        with pytest.raises(ValueError):
            Monomial((-1, 0))

    def test_text_round_trip(self):
        assert str(Monomial((2, 1))) == "x1^2*x2"
        assert str(Monomial.unit(2)) == "1"
        assert monomial_from_text("x1^2*x2", 2) == Monomial((2, 1))
        assert monomial_from_text("1", 3) == Monomial.unit(3)
        assert monomial_from_text("unit", 2) == Monomial.unit(2)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            monomial_from_text("x3", 2)
        with pytest.raises(ParseError):
            monomial_from_text("x1^0", 2)
        with pytest.raises(ParseError):
            monomial_from_text("y1", 2)
        with pytest.raises(ParseError):
            monomial_from_text("", 2)

    @given(a=exponent_tuples(3), b=exponent_tuples(3))
    def test_mul_lcm_parity(self, a, b):
        ma, mb = Monomial(a), Monomial(b)
        assert ma.mul(mb).exps == raw_mul(a, b)
        assert ma.lcm(mb).exps == tuple(max(x, y) for x, y in zip(a, b))
        assert ma.divides(mb) == all(x <= y for x, y in zip(a, b))

    @given(a=exponent_tuples(3))
    def test_text_parse_inverse(self, a):
        m = Monomial(a)
        assert monomial_from_text(str(m), 3) == m


class TestIdealNormalization:
    def test_minimal_generators_golden(self):
        ideal = I(2, "x1^2", "x1*x2", "x1^2*x2", "x1^3")
        # canonical order is lexicographic on exponent vectors: (1,1) < (2,0)
        assert ideal.gens_text() == ["x1*x2", "x1^2"]

    def test_zero_and_unit(self):
        assert MonomialIdeal.zero(2).is_zero()
        assert MonomialIdeal.unit(2).is_unit()
        # any generator set containing the unit collapses to the unit ideal
        assert MonomialIdeal(2, (Monomial.unit(2), Monomial((1, 1)))) == MonomialIdeal.unit(2)

    def test_prefix(self):
        assert MonomialIdeal.prefix(3, 0).is_zero()
        assert MonomialIdeal.prefix(3, 2) == I(3, "x1", "x2")
        with pytest.raises(ValueError):
            MonomialIdeal.prefix(3, 4)

    @given(data=st.data(), nvars=st.integers(1, 6))
    @settings(deadline=None, max_examples=200)
    def test_normalization_is_raw_minimalization(self, data, nvars):
        gens = data.draw(st.lists(exponent_tuples(nvars), max_size=12))
        if gens:
            gens += data.draw(st.lists(st.sampled_from(gens), max_size=3))
        if data.draw(st.booleans()):
            gens.insert(data.draw(st.integers(0, len(gens))), (0,) * nvars)
        assert gens_of(ideal_of(nvars, gens)) == raw_minimalize(gens)

    def test_minimalization_golden_mixed_supports(self):
        # x1^2 and x1*x2 share a degree and x1^2's support lies inside
        # x1*x2's without dividing it; x1*x3^3 has x1^2's support inside its
        # own but is not a multiple; the rest are multiples of lower degree
        ideal = I(
            3, "x1^2*x3", "x1*x2", "x2*x3", "x1^2", "x1*x2*x3", "x2^2*x3",
            "x1*x3^3", "x1*x2^3", "x1^2",
        )
        assert ideal.gens_text() == ["x2*x3", "x1*x3^3", "x1*x2", "x1^2"]

    @given(gens=raw_ideals(3), order=st.randoms(use_true_random=False))
    def test_order_independent(self, gens, order):
        shuffled = list(gens) + list(gens)
        order.shuffle(shuffled)
        assert ideal_of(3, shuffled) == ideal_of(3, gens)

    @given(gens=raw_ideals(3), m=exponent_tuples(3, 5))
    def test_membership_parity(self, gens, m):
        assert ideal_of(3, gens).member(Monomial(m)) == raw_member(m, gens)


class TestIdealArithmetic:
    def test_colon_golden(self):
        assert I(2, "x1^2", "x1*x2").colon_monomial(monomial_from_text("x2", 2)) == I(2, "x1")

    def test_intersection_golden(self):
        assert I(2, "x1").intersect(I(2, "x2")) == I(2, "x1*x2")

    def test_sum_golden(self):
        assert I(2, "x1^2").add(I(2, "x1*x2")) == I(2, "x1^2", "x1*x2")

    def test_saturate_by_zero_rejected(self):
        with pytest.raises(ValueError):
            I(2, "x1").saturate(MonomialIdeal.zero(2))

    def test_saturate_golden(self):
        assert I(2, "x1^2", "x1*x2").saturate(I(2, "x2")) == I(2, "x1")
        assert I(2, "x1").saturate(I(2, "x1", "x2")) == I(2, "x1")
        assert I(2, "x1*x2").saturate(I(2, "x1")) == I(2, "x2")
        assert I(2, "x1^2", "x1*x2").saturate(I(2, "x1")) == MonomialIdeal.unit(2)

    @given(gens_a=raw_ideals(2), gens_b=raw_ideals(2))
    @settings(deadline=None)
    def test_intersect_membership_parity(self, gens_a, gens_b):
        meet = ideal_of(2, gens_a).intersect(ideal_of(2, gens_b))
        for m in tuples_up_to(2, 7):
            assert meet.member(Monomial(m)) == (
                raw_member(m, gens_a) and raw_member(m, gens_b)
            )

    @given(gens=raw_ideals(2), g=nonunit_tuples(2))
    @settings(deadline=None)
    def test_colon_membership_parity(self, gens, g):
        quotient = ideal_of(2, gens).colon_monomial(Monomial(g))
        for m in tuples_up_to(2, 7):
            assert quotient.member(Monomial(m)) == raw_member(raw_mul(m, g), gens)

    @given(gens=raw_ideals(2), g=nonunit_tuples(2))
    def test_colon_laws(self, gens, g):
        ideal = ideal_of(2, gens)
        m = Monomial(g)
        once = ideal.colon_monomial(m)
        assert once.contains(ideal)
        assert once.colon_monomial(m) == ideal.colon_monomial(m.mul(m))

    def test_saturate_by_unit_and_prefix(self):
        ideal = I(3, "x1^2*x3", "x2^3", "x1*x2*x3^2")
        assert ideal.saturate(MonomialIdeal.unit(3)) == ideal
        assert ideal.saturate(MonomialIdeal.prefix(3, 1)) == I(3, "x3", "x2^3")
        assert ideal.saturate(MonomialIdeal.prefix(3, 2)) == I(3, "x3", "x2^3")
        assert ideal.saturate(MonomialIdeal.prefix(3, 3)) == I(
            3, "x1^2*x3", "x1*x2*x3", "x2^3"
        )

    def test_saturation_parity_squarefree_supports(self):
        # a saturation depends only on the supports of the saturating
        # generators: try every set of at most three squarefree ones, where
        # dropping any single principal saturation shows on (x1x2, x1x3, x2x3)
        squarefree = [t for t in tuples_up_to(3, 3) if any(t) and max(t) == 1]
        for gens in ([(1, 1, 0), (1, 0, 1), (0, 1, 1)], [(2, 0, 1), (0, 3, 0), (1, 1, 2)]):
            ideal = ideal_of(3, gens)
            for r in (1, 2, 3):
                for sat in itertools.combinations(squarefree, r):
                    result = ideal.saturate(ideal_of(3, sat))
                    power = r * max(ideal.max_exponents())
                    for m in tuples_up_to(3, 4):
                        assert result.member(Monomial(m)) == raw_saturation_member(
                            m, gens, sat, power
                        ), (gens, sat, m)

    @given(gens=raw_ideals(3), sat=raw_ideals(3, max_gens=3))
    @settings(deadline=None, max_examples=60)
    def test_saturation_parity(self, gens, sat):
        ideal = ideal_of(3, gens)
        result = ideal.saturate(ideal_of(3, sat))
        assert result.saturate(ideal_of(3, sat)) == result
        # m is in the saturation iff m * u^e lies in the ideal for every
        # generator u, with e the largest exponent of the ideal; a product of
        # len(sat) * e generators repeats one of them e times
        power = len(sat) * max(ideal.max_exponents())
        for m in tuples_up_to(3, 4):
            assert result.member(Monomial(m)) == raw_saturation_member(
                m, gens, sat, power
            )


class TestEnumeration:
    def test_monomials_of_degree_golden(self):
        assert {m.exps for m in monomials_of_degree(2, 2)} == {(2, 0), (1, 1), (0, 2)}
        assert {m.exps for m in monomials_of_degree(3, 1)} == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }
        assert monomials_of_degree(2, 0) == (Monomial.unit(2),)

    @given(nvars=st.integers(1, 4), degree=st.integers(0, 6))
    def test_monomials_of_degree_count(self, nvars, degree):
        batch = monomials_of_degree(nvars, degree)
        assert len(set(batch)) == len(batch)
        assert all(m.degree == degree for m in batch)
        assert len(batch) == math.comb(degree + nvars - 1, nvars - 1)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            ensure_box((100, 100, 100), 1000, "test")
        ensure_box((2, 2), 9, "test")
