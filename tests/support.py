"""Brute-force reference arithmetic and hypothesis strategies for the tests.

Everything in the raw_* family works on plain exponent tuples and never calls
into the package, so it can serve as an independent oracle for membership,
colon, intersection, and saturation results.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from boreltype import Monomial, MonomialIdeal, Subquotient


def raw_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def raw_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def raw_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def raw_member(m, gens) -> bool:
    return any(raw_divides(g, m) for g in gens)


def raw_minimalize(gens):
    unique = sorted(set(gens))
    return [
        g
        for g in unique
        if not any(h != g and raw_divides(h, g) for h in unique)
    ]


def tuples_of_degree(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in tuples_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def tuples_up_to(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from tuples_of_degree(nvars, d)


def raw_equal(gens_a, gens_b, nvars: int) -> bool:
    """Ideal equality by exhaustive membership up to the max generator degree.

    Two monomial ideals agree iff membership agrees on every monomial of
    degree up to the larger generator degree (each generator set then lies
    inside the other ideal).
    """
    bound = max((sum(g) for g in list(gens_a) + list(gens_b)), default=0)
    return all(
        raw_member(m, gens_a) == raw_member(m, gens_b)
        for m in tuples_up_to(nvars, bound)
    )


def raw_saturation_member(m, ideal_gens, sat_gens, power: int) -> bool:
    """Whether m lies in the saturation of the ideal at sat_gens, decided by
    checking m times every degree-k product of sat_gens for one k <= power."""
    for k in range(power + 1):
        products = itertools.combinations_with_replacement(sat_gens, k)
        if all(raw_member(raw_mul(m, _prod(p, len(m))), ideal_gens) for p in products):
            return True
    return False


def _prod(monomials, nvars):
    out = (0,) * nvars
    for m in monomials:
        out = raw_mul(out, m)
    return out


def raw_colon(gens, m):
    """Minimal generators of (gens : m)."""
    return raw_minimalize([tuple(max(a, b) - b for a, b in zip(g, m)) for g in gens])


def raw_witness(current, target, r: int):
    """The first monomial of the exponent box of current and target, in
    (degree, exponents) order, that lies in target and outside current and
    whose colon in current is exactly (x1, ..., xr); None when there is none."""
    nvars = len(target[0])
    prime = sorted(tuple(int(i == k) for i in range(nvars)) for k in range(r))
    bounds = [max(g[i] for g in current + target) for i in range(nvars)]
    box = itertools.product(*(range(b + 1) for b in bounds))
    for m in sorted(box, key=lambda e: (sum(e), e)):
        if (
            raw_member(m, target)
            and not raw_member(m, current)
            and raw_colon(current, m) == prime
        ):
            return m
    return None


def raw_witnesses(denominator, chain):
    """The witness sequence of the box scan along a chain given as
    (variable index r, target generators) per step.

    Returns (witnesses, stuck): stuck is None, or (r, current, target) at the
    first extension without a witness.
    """
    current = raw_minimalize(denominator)
    witnesses = []
    for r, target in chain:
        target = raw_minimalize(target)
        while current != target:
            m = raw_witness(current, target, r)
            if m is None:
                return witnesses, (r, current, target)
            witnesses.append(m)
            current = raw_minimalize(current + [m])
    return witnesses, None


def raw_rank_fraction(rows) -> int:
    """Rank over Q by Gaussian elimination with Fraction entries."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, nrows):
            if mat[r][col] != 0:
                factor = mat[r][col] / mat[rank][col]
                for c in range(col, ncols):
                    mat[r][c] -= factor * mat[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def raw_primes_never_grow(prime_sets) -> bool:
    """The pairwise pretty-clean rule on primes given as variable sets: no
    set strictly contains one that comes before it."""
    sets = [frozenset(p) for p in prime_sets]
    return not any(
        sets[a] < sets[b] for a in range(len(sets)) for b in range(a + 1, len(sets))
    )


def ideal_of(nvars: int, raw_gens) -> MonomialIdeal:
    return MonomialIdeal(nvars, tuple(Monomial(tuple(g)) for g in raw_gens))


def gens_of(ideal: MonomialIdeal):
    return [m.exps for m in ideal.gens]


# hypothesis strategies


def exponent_tuples(nvars: int, max_exp: int = 3):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def nonunit_tuples(nvars: int, max_exp: int = 3):
    return exponent_tuples(nvars, max_exp).filter(lambda t: any(t))


@st.composite
def raw_ideals(draw, nvars: int, max_gens: int = 4, max_exp: int = 3):
    gens = draw(
        st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=max_gens)
    )
    return gens


@st.composite
def monomial_ideals(draw, min_vars: int = 2, max_vars: int = 4, max_exp: int = 3):
    nvars = draw(st.integers(min_vars, max_vars))
    return ideal_of(nvars, draw(raw_ideals(nvars, max_exp=max_exp)))


@st.composite
def modules(draw, min_vars: int = 2, max_vars: int = 4, max_exp: int = 3):
    nvars = draw(st.integers(min_vars, max_vars))
    denominator = ideal_of(nvars, draw(raw_ideals(nvars, max_exp=max_exp)))
    if draw(st.booleans()):
        return Subquotient.cyclic(denominator)
    extras = draw(st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=2))
    numerator = denominator.add(ideal_of(nvars, extras))
    return Subquotient(numerator, denominator)
