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
from boreltype.decomposition import prime_sort_key
from boreltype.errors import ZeroModuleError

from .support import (
    gens_of,
    modules,
    raw_associated_primes,
    raw_ideals,
    raw_irreducible_components,
    raw_member,
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

    @given(data=st.data())
    @settings(deadline=None, max_examples=120)
    def test_matches_corner_scan(self, data):
        nvars = data.draw(st.integers(1, 5))
        gens = data.draw(raw_ideals(nvars))
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
        J = M.denominator
        comps = primary_components(J)
        meet = MonomialIdeal.unit(J.nvars)
        for _, component in comps:
            meet = meet.intersect(component)
        assert meet == J

    def test_radicals_are_ass(self):
        J = I(2, "x1^2", "x1*x2")
        comps = primary_components(J)
        assert {p for p, _ in comps} == set(cyclic_associated_primes(J))
