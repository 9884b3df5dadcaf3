"""Monomial and ideal arithmetic against raw exponent-tuple references."""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    Monomial,
    MonomialIdeal,
    Subquotient,
    associated_primes,
    betti_table,
    dimension_filtration,
    ideal_is_borel_type,
    irreducible_decomposition,
    monomial_from_text,
    monomials_of_degree,
    primary_components,
)
from boreltype import monomial as monomial_module
from boreltype.errors import DimensionMismatchError, GuardExceededError, ParseError
from boreltype.monomial import EXPONENT_LIMIT, _saturate_monomial, ensure_box

from .support import (
    exponent_tuples,
    gens_of,
    ideal_of,
    nonunit_tuples,
    raw_colon,
    raw_ideals,
    raw_meet,
    raw_member,
    raw_minimalize,
    raw_mul,
    raw_saturation,
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


class TestTrustedKernel:
    """add, multiply, intersect, saturate, colon_monomial and add_monomial
    build their results from exponent tuples without the constructor's checks;
    they must equal the raw minimalization of the raw generators, member and
    contains must agree with raw divisibility, and the saturation memo must
    return what a fresh computation does."""

    @given(gens_a=raw_ideals(3), gens_b=raw_ideals(3, max_gens=3), g=exponent_tuples(3))
    @settings(deadline=None, max_examples=150)
    def test_results_are_raw_minimalizations(self, gens_a, gens_b, g):
        ideal, other = ideal_of(3, gens_a), ideal_of(3, gens_b)
        summed = ideal.add(other)
        product = ideal.multiply(other)
        meet = ideal.intersect(other)
        saturation = ideal.saturate(other)
        quotient = ideal.colon_monomial(Monomial(g))
        placed = ideal.add_monomial(Monomial(g))
        assert gens_of(summed) == raw_minimalize(gens_a + gens_b)
        assert gens_of(product) == raw_minimalize(
            [raw_mul(a, b) for a in gens_a for b in gens_b]
        )
        assert gens_of(meet) == raw_meet(gens_a, gens_b)
        assert gens_of(saturation) == raw_saturation(gens_a, gens_b)
        assert gens_of(quotient) == raw_colon(gens_a, g)
        assert gens_of(placed) == raw_minimalize(gens_a + [g])
        assert ideal.member(Monomial(g)) == raw_member(g, gens_a)
        assert ideal.contains(other) == all(raw_member(b, gens_a) for b in gens_b)
        assert summed.contains(ideal) and summed.contains(other)
        for result in (ideal, summed, product, meet, saturation, quotient, placed):
            # the stored tuples are the generators' exponents, and a kernel
            # result equals and hashes like the validating constructor's
            assert result.exps == tuple(m.exps for m in result.gens)
            rebuilt = MonomialIdeal(3, result.gens)
            assert result == rebuilt and hash(result) == hash(rebuilt)
            assert result.nvars == 3

    def test_constructor_keeps_its_checks(self):
        with pytest.raises(ValueError, match="^need at least one variable$"):
            MonomialIdeal(0, ())
        with pytest.raises(TypeError, match="^generator \\(1, 0\\) is not a Monomial$"):
            MonomialIdeal(2, [(1, 0)])
        with pytest.raises(
            DimensionMismatchError,
            match="^generator over 3 variables in a 2-variable ideal$",
        ):
            MonomialIdeal(2, [Monomial((1, 0)), Monomial((1, 0, 0))])
        # any iterable of monomials, positional or by keyword
        built = MonomialIdeal(nvars=2, gens=(m for m in I(2, "x1^2", "x2").gens))
        assert built == I(2, "x2", "x1^2") and built.exps == ((0, 1), (2, 0))

    def test_ideals_are_read_only(self):
        ideal = I(2, "x1^2", "x1*x2")
        for name, value in (("nvars", 3), ("exps", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ideal, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(ideal, name)
        # the view and names that are not fields are refused too; Python
        # 3.10 and 3.11 raise TypeError there for a frozen slotted dataclass
        for name in ("gens", "extra"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(ideal, name, ())
        assert ideal == I(2, "x1^2", "x1*x2") and ideal.exps == ((1, 1), (2, 0))

    def test_principal_and_prefix_ideals_match_the_constructor(self):
        # principal and prefix skip the constructor; their generator tuples,
        # equality and hashes must be the validating constructor's
        for n in range(1, 7):
            for i in range(1, n + 1):
                x = Monomial.variable(i, n)
                built, validated = MonomialIdeal.principal(x), MonomialIdeal(n, (x,))
                assert (built.nvars, built.gens) == (validated.nvars, validated.gens)
                assert hash(built) == hash(validated)
            for r in range(n + 1):
                built = MonomialIdeal.prefix(n, r)
                validated = MonomialIdeal(
                    n, tuple(Monomial.variable(i, n) for i in range(1, r + 1))
                )
                assert (built.nvars, built.gens) == (validated.nvars, validated.gens)
                assert hash(built) == hash(validated)

    def test_principal_and_prefix_ideals_keep_their_refusals(self):
        with pytest.raises(TypeError, match="^generator \\(1, 0\\) is not a Monomial$"):
            MonomialIdeal.principal((1, 0))
        for n, r in ((3, 4), (3, -1), (0, 1), (-1, 0)):
            with pytest.raises(ValueError, match=f"^prefix length {r} outside 0..{n}$"):
                MonomialIdeal.prefix(n, r)
        with pytest.raises(ValueError, match="^need at least one variable$"):
            MonomialIdeal.prefix(0, 0)

    def test_unit_and_zero_operands(self):
        ideal = I(3, "x1^2*x3", "x2^3")
        unit, zero = MonomialIdeal.unit(3), MonomialIdeal.zero(3)
        # the unit ideal returns the other operand itself
        assert unit.intersect(ideal) is ideal
        assert ideal.intersect(unit) is ideal
        assert unit.intersect(unit) == unit
        assert gens_of(unit.intersect(zero)) == gens_of(zero) == []
        assert ideal.intersect(zero) == zero and zero.intersect(ideal) == zero
        assert zero.saturate(I(3, "x1")) == zero
        assert unit.saturate(I(3, "x1", "x2*x3")) == unit
        assert ideal.saturate(unit) == ideal
        assert zero.colon_monomial(Monomial((1, 0, 0))) == zero
        assert unit.colon_monomial(Monomial((1, 2, 0))) == unit
        assert ideal.colon_monomial(Monomial.unit(3)) == ideal
        assert ideal.colon_monomial(Monomial((2, 0, 1))) == unit
        assert gens_of(ideal.colon_monomial(Monomial((1, 1, 0)))) == raw_colon(
            gens_of(ideal), (1, 1, 0)
        )

    def test_saturation_changing_no_generator_returns_the_ideal(self):
        ideal = I(3, "x2^2", "x2*x3")
        # a memo hit returns the result stored for an equal ideal, which need
        # not be this object, so start from an empty memo
        _saturate_monomial.cache_clear()
        assert ideal.saturate(I(3, "x1")) is ideal
        assert ideal.saturate(I(3, "x1")) is ideal  # and again from the memo
        changed = ideal.saturate(I(3, "x3"))
        assert changed is not ideal
        assert gens_of(changed) == raw_saturation(gens_of(ideal), [(0, 0, 1)]) == [
            (0, 1, 0)
        ]

    @given(gens=raw_ideals(4), sat=raw_ideals(4, max_gens=3))
    @settings(deadline=None, max_examples=60)
    def test_memo_agrees_with_a_fresh_computation(self, gens, sat):
        ideal, other = ideal_of(4, gens), ideal_of(4, sat)
        cached = ideal.saturate(other)
        hits = _saturate_monomial.cache_info().hits
        assert ideal.saturate(other) == cached
        assert _saturate_monomial.cache_info().hits == hits + len(other.gens)
        _saturate_monomial.cache_clear()
        assert ideal.saturate(other) == cached
        assert gens_of(cached) == raw_saturation(gens, sat)

    @given(
        gens=st.one_of(raw_ideals(3), st.just([]), st.just([(0, 0, 0)])),
        m=exponent_tuples(3, 5),
        inside=st.booleans(),
    )
    @settings(deadline=None, max_examples=200)
    def test_add_monomial_is_the_constructor_sum(self, gens, m, inside):
        # over drawn ideals, the zero ideal and the unit ideal; a multiple of
        # the first generator puts m inside the ideal, which is returned as is
        ideal = ideal_of(3, gens)
        if inside and gens:
            m = tuple(a + b for a, b in zip(gens[0], m))
        monomial = Monomial(m)
        summed = ideal.add_monomial(monomial)
        rebuilt = MonomialIdeal(3, ideal.gens + (monomial,))
        assert summed.gens == rebuilt.gens
        assert hash(summed) == hash(rebuilt)
        assert gens_of(summed) == raw_minimalize(list(gens) + [m])
        assert summed.nvars == 3
        if raw_member(m, gens):
            assert summed is ideal

    def test_mixed_variable_counts_raise(self):
        two, three = I(2, "x1*x2"), I(3, "x1", "x3^2")
        for ideal, m in ((two, Monomial((1, 0, 0))), (three, Monomial((1, 0)))):
            with pytest.raises(DimensionMismatchError):
                ideal.member(m)
            with pytest.raises(DimensionMismatchError):
                ideal.colon_monomial(m)
            with pytest.raises(DimensionMismatchError):
                ideal.add_monomial(m)
        # also where no generator would be compared
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal.zero(2).member(Monomial((0, 0, 1)))
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal.zero(2).add_monomial(Monomial((0, 0, 1)))
        with pytest.raises(DimensionMismatchError):
            MonomialIdeal.unit(3).add_monomial(Monomial((1, 0)))
        for a, b in ((two, three), (three, two)):
            with pytest.raises(DimensionMismatchError):
                a.intersect(b)
            with pytest.raises(DimensionMismatchError):
                a.saturate(b)
        for a, b in ((MonomialIdeal.unit(2), three), (three, MonomialIdeal.unit(2))):
            with pytest.raises(DimensionMismatchError):
                a.intersect(b)


class TestSaturationFreeRoutes:
    """The independent routes never saturate: with the saturation kernel
    replaced by one that raises and every cache cleared, associated primes,
    irreducible and primary decomposition, the dimension filtration and the
    Betti oracle still compute, and give what they gave before."""

    IDEALS = (
        ("x1^2", "x1*x2", "x2^2", "x1*x3"),
        ("x1^3", "x1^2*x2", "x2^2*x3", "x1*x3^2"),
        ("x2*x3", "x1^2"),
    )

    CACHED = (associated_primes, irreducible_decomposition, primary_components, betti_table)

    def routes(self, ideal: MonomialIdeal):
        module = Subquotient.cyclic(ideal)
        sub = Subquotient(ideal.add(I(3, "x3")), ideal)
        return (
            associated_primes(module),
            associated_primes(sub),
            irreducible_decomposition(ideal),
            primary_components(ideal),
            [dimension_filtration(ideal, d) for d in range(ideal.nvars)],
            betti_table(ideal),
            ideal_is_borel_type(ideal),
        )

    def test_routes_compute_without_saturation(self, monkeypatch):
        ideals = [I(3, *gens) for gens in self.IDEALS]
        before = [self.routes(ideal) for ideal in ideals]

        def refuse(*args):
            raise AssertionError("the saturation kernel was called")

        monkeypatch.setattr(monomial_module, "_saturate_monomial", refuse)
        for cached in self.CACHED:
            cached.cache_clear()
        with pytest.raises(AssertionError):
            ideals[0].saturate(I(3, "x1"))
        assert [self.routes(ideal) for ideal in ideals] == before


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
