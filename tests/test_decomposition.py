"""Irreducible decomposition, associated primes, dimensions.

The decomposition postcondition is verified against brute-force membership:
the intersection of the returned components must agree with the input ideal
on every monomial up to the generator degree bound.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    Subquotient,
    associated_primes,
    cyclic_associated_primes,
    dimension_filtration,
    irreducible_decomposition,
    krull_dim,
    minimal_primes,
    primary_components,
)
from boreltype.decomposition import _meet_irreducible, prime_sort_key
from boreltype.errors import ZeroModuleError

from .support import (
    gens_of,
    modules,
    nonunit_tuples,
    raw_associated_primes,
    raw_dimension_filtration,
    raw_ideals,
    raw_irreducible_components,
    raw_meet,
    raw_member,
    raw_minimalize,
    raw_pure_powers,
    tuples_up_to,
)


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def prime(nvars, *indices):
    return MonomialPrime(nvars, tuple(indices))


class TestIrreducibleDecomposition:
    def test_golden_mixed(self):
        comps = irreducible_decomposition(I(2, "x1^2", "x1*x2"))
        assert {c.to_ideal() for c in comps} == {I(2, "x1"), I(2, "x1^2", "x2")}

    def test_golden_squarefree(self):
        comps = irreducible_decomposition(I(2, "x1*x2"))
        assert {c.to_ideal() for c in comps} == {I(2, "x1"), I(2, "x2")}

    def test_golden_pure_powers(self):
        comps = irreducible_decomposition(I(2, "x1^2", "x2^3"))
        assert {c.to_ideal() for c in comps} == {I(2, "x1^2", "x2^3")}

    def test_golden_high_pure_powers_are_one_component(self):
        J = I(3, "x1^64", "x2^64", "x3^64")
        assert [c.to_ideal() for c in irreducible_decomposition(J)] == [J]
        # pure powers far above the small generators: every other exponent
        # is encoded in the Alexander dual as 65 minus itself
        mixed = I(3, "x1^64", "x2^64", "x1^2*x3", "x2*x3^2", "x3^3")
        comps = irreducible_decomposition(mixed)
        assert {c.bounds for c in comps} == raw_irreducible_components(
            gens_of(mixed), 3
        )
        assert [str(c) for c in comps] == [
            "(x3^3, x2, x1^2)",
            "(x3^2, x2^64, x1^2)",
            "(x3, x2^64, x1^64)",
        ]

    @given(data=st.data())
    @settings(deadline=None, max_examples=120)
    def test_matches_corner_scan(self, data):
        # the dual is taken with respect to the largest exponent, so wide
        # exponents in one variable shift the encoding of all the others;
        # the scan walks the box of the largest exponents, kept to a few
        # thousand points
        nvars = data.draw(st.integers(1, 6))
        widest = max(e for e in range(1, 9) if (e + 1) ** nvars <= 5000)
        gens = data.draw(raw_ideals(nvars, max_exp=data.draw(st.integers(1, widest))))
        comps = irreducible_decomposition(_ideal(nvars, gens))
        assert {c.bounds for c in comps} == raw_irreducible_components(gens, nvars)

    def test_rejects_zero_and_unit(self):
        with pytest.raises(ValueError):
            irreducible_decomposition(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            irreducible_decomposition(MonomialIdeal.unit(2))

    @given(gens=raw_ideals(3))
    @settings(deadline=None, max_examples=80)
    def test_intersection_recovers_ideal(self, gens):
        """A cross-check: the components come from a fold of the meet with
        irreducible ideals, and their intersection is tested here by plain
        membership, which no decomposition route reads."""
        ideal = _ideal(3, gens)
        comps = irreducible_decomposition(ideal)
        bound = ideal.max_gen_degree() + 1
        comp_gens = [gens_of(c.to_ideal()) for c in comps]
        for m in tuples_up_to(3, bound):
            expected = raw_member(m, [g.exps for g in ideal.gens])
            assert all(raw_member(m, cg) for cg in comp_gens) == expected

    @given(gens=raw_ideals(3))
    @settings(deadline=None, max_examples=80)
    def test_irredundant(self, gens):
        ideal = _ideal(3, gens)
        comps = list(irreducible_decomposition(ideal))
        for skip in range(len(comps)):
            rest = [c.to_ideal() for i, c in enumerate(comps) if i != skip]
            meet = MonomialIdeal.unit(3)
            for r in rest:
                meet = meet.intersect(r)
            assert meet != ideal or not rest


class TestMeetIrreducible:
    """``_meet_irreducible`` against the lcms of all pairs, ``raw_meet``."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=300)
    def test_matches_raw_meet(self, data):
        n = data.draw(st.integers(2, 6))
        case = data.draw(st.sampled_from(("drawn", "unit", "power_inside", "unused")))
        variables = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        )
        bounds = sorted((i, data.draw(st.integers(1, 4))) for i in variables)
        drawn = data.draw(st.lists(nonunit_tuples(n), min_size=1, max_size=6))
        if case == "power_inside":
            # a pure power of a bounded variable at or below its bound
            i, c = data.draw(st.sampled_from(bounds))
            drawn.append(raw_pure_powers([(i, data.draw(st.integers(1, c)))], n)[0])
        elif case == "unused":
            # a bounded variable that no generator uses
            i = bounds[0][0]
            drawn = [g[: i - 1] + (0,) + g[i:] for g in drawn]
        if case == "unit":
            gens, operand = None, [(0,) * n]
        else:
            operand = raw_minimalize(drawn)
            gens = tuple(operand)
        expected = raw_meet(operand, raw_pure_powers(bounds, n))
        assert _meet_irreducible(n, gens, bounds) == tuple(sorted(expected))

    def test_golden_cases(self):
        powers = ((0, 0, 2), (0, 3, 0))
        # the unit start gives the pure powers themselves, ascending
        assert _meet_irreducible(3, None, [(2, 3), (3, 2)]) == powers
        # every generator inside: the operand itself
        gens = ((0, 0, 3), (0, 4, 0), (1, 1, 2))
        assert _meet_irreducible(3, gens, [(2, 3), (3, 2)]) is gens
        # x1 is used by no generator: every generator is raised
        assert _meet_irreducible(3, ((0, 0, 1), (0, 1, 0)), [(1, 2)]) == (
            (2, 0, 1),
            (2, 1, 0),
        )


class TestTrustedValues:
    """irreducible_decomposition, IrreducibleComponent.radical and
    cyclic_associated_primes build their values without the validating
    constructors; each value must equal, hash and sort like the validated
    one, and the sequences must come in the validated order."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=120)
    def test_values_match_the_validating_constructors(self, data):
        n = data.draw(st.integers(1, 5))
        ideal = _ideal(n, data.draw(raw_ideals(n)))
        comps = irreducible_decomposition(ideal)
        validated = [IrreducibleComponent(n, c.bounds) for c in comps]
        assert list(comps) == validated
        assert [hash(c) for c in comps] == [hash(c) for c in validated]
        assert sorted(comps[::-1]) == validated == sorted(validated)
        for c, v in zip(comps, validated):
            assert type(c) is IrreducibleComponent and c.nvars == n
            assert c.to_ideal() == v.to_ideal() == MonomialIdeal(
                n,
                [Monomial(tuple(e if j == i else 0 for j in range(1, n + 1)))
                 for i, e in v.bounds],
            )
            radical = MonomialPrime(n, tuple(i for i, _ in v.bounds))
            assert c.radical() == radical and hash(c.radical()) == hash(radical)
        primes = cyclic_associated_primes(ideal)
        validated_primes = [MonomialPrime(n, p.variables) for p in primes]
        assert list(primes) == validated_primes
        assert [hash(p) for p in primes] == [hash(p) for p in validated_primes]
        assert all(type(p) is MonomialPrime and p.nvars == n for p in primes)
        assert validated_primes == sorted(
            {MonomialPrime(n, tuple(i for i, _ in c.bounds)) for c in validated},
            key=prime_sort_key,
        )


def _ideal(nvars, gens):
    from .support import ideal_of

    return ideal_of(nvars, gens)


class TestAssociatedPrimes:
    def test_cyclic_golden(self):
        assert set(cyclic_associated_primes(I(2, "x1^2", "x1*x2"))) == {
            prime(2, 1),
            prime(2, 1, 2),
        }
        assert set(cyclic_associated_primes(I(2, "x1*x2"))) == {
            prime(2, 1),
            prime(2, 2),
        }
        assert set(cyclic_associated_primes(I(2, "x1", "x2"))) == {prime(2, 1, 2)}

    def test_subquotient_golden(self):
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert set(associated_primes(M)) == {prime(2, 1, 2)}
        cyclic = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        assert set(associated_primes(cyclic)) == {prime(2, 1), prime(2, 1, 2)}

    def test_zero_module_rejected(self):
        M = Subquotient(I(2, "x1"), I(2, "x1"))
        with pytest.raises(ZeroModuleError):
            associated_primes(M)

    def test_primes_from_different_generators(self):
        # J : x1 = (x2) and J : x2 = (x1): neither generator alone gives Ass
        M = Subquotient(I(2, "x1", "x2"), I(2, "x1*x2"))
        assert set(associated_primes(M)) == {prime(2, 1), prime(2, 2)}

    def test_generator_inside_denominator(self):
        # x2 lies in J, so only J : x1 = (x2) contributes
        M = Subquotient(I(2, "x1", "x2"), I(2, "x2"))
        assert set(associated_primes(M)) == {prime(2, 2)}

    def test_high_pure_powers_golden(self):
        # the exponent box of J : x1 holds 270400 monomials, none of them scanned
        M = Subquotient(I(3, "x1", "x2", "x3"), I(3, "x1^64", "x2^64", "x3^64"))
        assert associated_primes(M) == (prime(3, 1, 2, 3),)

    @given(M=modules())
    @settings(deadline=None, max_examples=80)
    def test_matches_box_search(self, M):
        if M.is_zero():
            return
        expected = raw_associated_primes(gens_of(M.numerator), gens_of(M.denominator))
        assert {p.variables for p in associated_primes(M)} == expected

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_witness_colons_are_exact(self, M):
        if M.is_zero():
            return
        for p in associated_primes(M):
            # recheck the defining property: some monomial in I \ J has this colon
            ideal = p.to_ideal()
            box = tuple(
                max(a, b)
                for a, b in zip(
                    M.numerator.max_exponents(), M.denominator.max_exponents()
                )
            )
            assert any(
                M.numerator.member(m)
                and not M.denominator.member(m)
                and M.denominator.colon_monomial(m) == ideal
                for m in map(Monomial, itertools.product(*(range(b + 1) for b in box)))
            )

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_heredity_inclusions(self, M):
        # for any middle ideal L: Ass(L/J) <= Ass(I/J) <= Ass(L/J) + Ass(I/L)
        if M.is_zero():
            return
        witness = next(
            (g for g in M.numerator.gens if not M.denominator.member(g)), None
        )
        if witness is None:
            return
        middle = M.denominator.add(MonomialIdeal(M.nvars, (witness,)))
        sub = Subquotient(middle, M.denominator)
        quot = Subquotient(M.numerator, middle)
        ass_m = set(associated_primes(M))
        ass_sub = set(associated_primes(sub)) if not sub.is_zero() else set()
        ass_quot = set(associated_primes(quot)) if not quot.is_zero() else set()
        assert ass_sub <= ass_m
        assert ass_m <= ass_sub | ass_quot


class TestDimensions:
    def test_krull_dim_golden(self):
        assert krull_dim(Subquotient.cyclic(I(2, "x1^2", "x1*x2"))) == 1
        assert krull_dim(Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))) == 0
        assert krull_dim(Subquotient.cyclic(I(2, "x1"))) == 1
        assert krull_dim(Subquotient(I(2, "x1"), I(2, "x1"))) == -1

    def test_minimal_primes(self):
        primes = cyclic_associated_primes(I(2, "x1^2", "x1*x2"))
        assert set(minimal_primes(primes)) == {prime(2, 1)}


class TestDimensionFiltration:
    def test_golden_embedded(self):
        J = I(2, "x1^2", "x1*x2")
        assert dimension_filtration(J, 0) == I(2, "x1")
        assert dimension_filtration(J, 1) == MonomialIdeal.unit(2)

    def test_golden_no_embedded(self):
        J = I(2, "x1*x2")
        assert dimension_filtration(J, 0) == J

    def test_range(self):
        with pytest.raises(ValueError):
            dimension_filtration(I(2, "x1"), -1)
        with pytest.raises(ValueError):
            dimension_filtration(I(2, "x1"), 3)

    def test_golden_three_levels(self):
        J = I(4, "x1^2", "x1*x2", "x1*x3^2", "x2^2*x3*x4", "x3^3*x4^2")
        assert [str(dimension_filtration(J, d)) for d in range(5)] == [
            "(x3^3*x4^2, x2^2*x3*x4, x1*x3^2, x1*x2, x1^2)",
            "(x3*x4, x1)",
            "(1)",
            "(1)",
            "(1)",
        ]

    @given(data=st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_corner_scan_meet(self, data):
        n = data.draw(st.integers(2, 5))
        gens = data.draw(raw_ideals(n))
        J = _ideal(n, gens)
        for bound in range(n + 1):
            expected = raw_dimension_filtration(gens, n, bound)
            assert gens_of(dimension_filtration(J, bound)) == sorted(expected)

    @given(M=modules())
    @settings(deadline=None, max_examples=40)
    def test_filtration_increases_with_bound(self, M):
        J = M.denominator
        n = J.nvars
        previous = None
        for i in range(n, -1, -1):
            # D_i shrinks as the dimension bound drops
            level = dimension_filtration(J, i)
            assert level.contains(J)
            if previous is not None:
                assert previous.contains(level)
            previous = level
        assert dimension_filtration(J, n) == MonomialIdeal.unit(n)


class TestPrimaryComponents:
    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_primary_components_intersect_to_ideal(self, M):
        """A cross-check: the components are folded without the kernel's
        ``intersect`` (``TestIntersectFreeRoutes``), which meets them here."""
        J = M.denominator
        comps = primary_components(J)
        meet = MonomialIdeal.unit(J.nvars)
        for _, component in comps:
            meet = meet.intersect(component)
        assert meet == J

    def test_golden(self):
        J = I(4, "x1^2", "x1*x2", "x1*x3^2", "x2^2*x3*x4", "x3^3*x4^2")
        assert [(str(p), str(q)) for p, q in primary_components(J)] == [
            ("x1,x2,x3", "(x3^3, x2^2, x1*x3^2, x1*x2, x1^2)"),
            ("x1,x2,x4", "(x4^2, x2^2, x1)"),
            ("x1,x3", "(x3, x1)"),
            ("x1,x4", "(x4, x1)"),
        ]

    @given(data=st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_corner_scan_meet(self, data):
        # each component is the meet of its radical's irreducible components,
        # and the components above a dimension bound meet to the filtration
        n = data.draw(st.integers(2, 5))
        gens = data.draw(raw_ideals(n))
        comps = primary_components(_ideal(n, gens))
        scanned = raw_irreducible_components(gens, n)
        for prime, component in comps:
            expected = [(0,) * n]
            for bounds in scanned:
                if tuple(i for i, _ in bounds) == prime.variables:
                    expected = raw_meet(expected, raw_pure_powers(bounds, n))
            assert gens_of(component) == sorted(expected)
        for bound in range(n + 1):
            meet = [(0,) * n]
            for prime, component in comps:
                if prime.quotient_dim() > bound:
                    meet = raw_meet(meet, gens_of(component))
            assert sorted(meet) == sorted(raw_dimension_filtration(gens, n, bound))

    def test_radicals_are_ass(self):
        J = I(2, "x1^2", "x1*x2")
        comps = primary_components(J)
        assert {p for p, _ in comps} == set(cyclic_associated_primes(J))
