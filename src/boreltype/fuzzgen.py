"""Seeded generators for fuzz corpora.

Two generator families: exchange-closed ("borel") ideals, which are strongly
stable by construction and therefore of Borel type, and unconstrained random
monomial modules ("random"), which mix cyclic quotients and genuine
subquotients, Borel and not.  Everything is driven by random.Random so equal
seeds give equal corpora, byte for byte.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatchError
from .monomial import Monomial, MonomialIdeal, _ideal_from_exps
from .subquotient import Subquotient

GENERATORS = ("borel", "random")


def random_monomial(rng: random.Random, nvars: int, max_degree: int) -> Monomial:
    degree = rng.randint(1, max_degree)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return Monomial(tuple(exps))


def exchange_closure_ideal(nvars: int, monomials) -> MonomialIdeal:
    """The ideal generated by the closure of the given monomials under the
    moves x_j * u / x_i for j < i in the support of u.  Each such move is a
    chain of adjacent moves x_{i-1} * u / x_i, so closing under those alone,
    each one edit of u's exponent tuple, gives the same set."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    seen = {u.exps for u in monomials}
    if any(len(u) != nvars for u in seen):
        raise DimensionMismatchError(
            f"a monomial to close is not over {nvars} variables"
        )
    queue = list(seen)
    while queue:
        u = queue.pop()
        for i in range(1, nvars):
            if u[i]:
                moved = (*u[: i - 1], u[i - 1] + 1, u[i] - 1, *u[i + 1 :])
                if moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
    return _ideal_from_exps(nvars, seen)


def random_borel_fixed_ideal(
    rng: random.Random, nvars: int, max_degree: int
) -> MonomialIdeal:
    seeds = [random_monomial(rng, nvars, max_degree) for _ in range(rng.randint(1, 2))]
    return exchange_closure_ideal(nvars, seeds)


def random_monomial_ideal(
    rng: random.Random, nvars: int, max_degree: int
) -> MonomialIdeal:
    gens = [random_monomial(rng, nvars, max_degree) for _ in range(rng.randint(1, 4))]
    return MonomialIdeal(nvars, tuple(gens))


def random_module(rng: random.Random, nvars: int, max_degree: int) -> Subquotient:
    denominator = random_monomial_ideal(rng, nvars, max_degree)
    if rng.random() < 0.5:
        return Subquotient.cyclic(denominator)
    extras = [
        random_monomial(rng, nvars, max_degree) for _ in range(rng.randint(1, 2))
    ]
    numerator = denominator.add(MonomialIdeal(nvars, tuple(extras)))
    return Subquotient(numerator, denominator)


def generate_corpus(
    seed: int, count: int, generator: str, nvars: int, max_degree: int
) -> list[Subquotient]:
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; use one of {GENERATORS}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if nvars < 1 or max_degree < 1:
        raise ValueError("need at least one variable and positive degrees")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if generator == "borel":
            out.append(Subquotient.cyclic(random_borel_fixed_ideal(rng, nvars, max_degree)))
        else:
            out.append(random_module(rng, nvars, max_degree))
    return out
