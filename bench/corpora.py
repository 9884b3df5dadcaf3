"""Seeded input corpora for the three workloads, built on plain exponent tuples.

Nothing here imports ``boreltype``: the generators are the benchmark's own, so
a change to the package's fuzz generators cannot change a workload, and the
reference answers in ``reference.py`` never pass through the code under test.

A module is a ``Case``: the variable count, the numerator generators (``None``
for the unit ideal, i.e. a cyclic module S/J) and the denominator generators,
each a tuple of exponent tuples.  Every corpus has a fixed make-up, a count
of distinct modules per stratum, so only the modules inside each stratum
change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import (
    is_borel_type,
    is_sequentially_cm,
    minimalize,
    standard_monomials,
)


@dataclass(frozen=True)
class Case:
    nvars: int
    numerator: tuple[tuple[int, ...], ...] | None
    denominator: tuple[tuple[int, ...], ...]


# The Borel-type module that is not sequentially Cohen-Macaulay, so no pretty
# clean filtration exists and `run_check` reports an internal inconsistency
# (exit 2).  It is instance 28 of `boreltype fuzz --seed 5 --count 200
# --gen random --vars 4 --maxdeg 4`.  It is part of every check-mixed round.
KNOWN_FAULT = Case(4, ((0, 0, 0, 2), (2, 0, 1, 1), (3, 0, 0, 0)), ((3, 0, 0, 0),))


def monomial_text(exps) -> str:
    parts = []
    for i, e in enumerate(exps, 1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) or "1"


def module_text(case: Case) -> str:
    """The module file grammar read by ``boreltype.parse_module_file``."""
    lines = [f"vars: {case.nvars}", "numerator:"]
    if case.numerator is None:
        lines.append("unit")
    else:
        lines.extend(monomial_text(g) for g in case.numerator)
    lines.append("denominator:")
    lines.extend(monomial_text(g) for g in case.denominator)
    return "\n".join(lines) + "\n"


def _random_monomial(rng: random.Random, nvars: int, low: int, high: int):
    exps = [0] * nvars
    for _ in range(rng.randint(low, high)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _exchange_closure(nvars: int, seeds):
    """Close a set of monomials under u -> x_j * u / x_i for j < i in supp(u)."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        u = queue.pop()
        for i in range(nvars):
            if u[i] == 0:
                continue
            for j in range(i):
                moved = list(u)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
    return minimalize(seen)


def _fill(draw, stratum, quotas: dict) -> list[Case]:
    """Draw modules until every stratum holds its quota of distinct modules.

    ``stratum(case)`` maps a drawn module to its stratum, a property of the
    input alone, or to None to reject it.  Fixing how many modules each
    stratum gets keeps the work in a corpus nearly the same from seed to
    seed; only the modules inside each stratum change.
    """
    picked = {key: [] for key in quotas}
    seen = set()
    missing = sum(quotas.values())
    for _ in range(1_000_000):
        if not missing:
            return [case for key in quotas for case in picked[key]]
        case = draw()
        if case in seen:
            continue
        key = stratum(case)
        if key in picked and len(picked[key]) < quotas[key]:
            seen.add(case)
            picked[key].append(case)
            missing -= 1
    raise RuntimeError("corpus strata could not be filled")


def _box(case: Case) -> int:
    gens = list(case.numerator or ()) + list(case.denominator)
    size = 1
    for column in zip(*gens):
        size *= max(column) + 1
    return size


def _half_octave(size: int) -> int:
    """k with 2^(k/2) <= size < 2^((k+1)/2)."""
    return (size * size).bit_length() - 1


# check-stable strata: (n, k) holds ideals whose lcm box times generator
# count lies in half-octave k, that is 2^(k/2) <= size < 2^((k+1)/2).  Most
# modules sit in one stratum, so the median module and the total work change
# little from seed to seed.
STABLE_QUOTAS = {(4, 19): 6, (4, 20): 36, (5, 20): 8, (5, 21): 6}


def stable_corpus(seed: int) -> tuple[list[Case], int]:
    """Strongly stable cyclic modules S/I at n = 4 and 5: the exchange closure
    of one or two random monomials of degree 1..4."""
    rng = random.Random(f"check-stable:{seed}")
    cases = []
    for nvars in (4, 5):

        def draw():
            seeds = [_random_monomial(rng, nvars, 1, 4) for _ in range(rng.randint(1, 2))]
            return Case(nvars, None, _exchange_closure(nvars, seeds))

        def stratum(case):
            return (nvars, _half_octave(_box(case) * len(case.denominator)))

        quotas = {key: q for key, q in STABLE_QUOTAS.items() if key[0] == nvars}
        cases += _fill(draw, stratum, quotas)
    return cases, 0


def _random_module(rng: random.Random, nvars: int, cyclic: bool) -> Case:
    den = minimalize(_random_monomial(rng, nvars, 1, 4) for _ in range(rng.randint(1, 4)))
    if cyclic:
        return Case(nvars, None, den)
    extras = [_random_monomial(rng, nvars, 1, 4) for _ in range(rng.randint(1, 2))]
    return Case(nvars, minimalize(list(den) + extras), den)


# check-mixed strata: (n, cyclic, largest generator degree, capped below at 2,
# Borel type) -> count.  The truncation scan runs up to that degree plus n on
# modules not of Borel type.  Cyclic n = 4 modules of degree 3 that are not
# of Borel type, full scans to degree 7, make up 50 of the 58 and hold the
# median; the other strata get one or two modules each.
MIXED_QUOTAS = {
    (3, True, 4, False): 1, (3, False, 4, False): 1, (3, False, 4, True): 1,
    (4, True, 2, True): 1, (4, True, 3, False): 50, (4, True, 4, False): 2,
    (4, False, 3, False): 1, (4, False, 4, False): 1,
}  # fmt: skip
# The 50 split further by the shape of J (see `_shape`), in about the shares
# the draws give them, since the cost of a scan grows with J's generators.
MIXED_MEDIAN_STRATUM = (4, True, 3, False)
MIXED_SHAPES = {(3,): 15, (1, 3): 12, (2, 3): 10, (3, 3): 5, 3: 8}


def _shape(den) -> tuple[int, ...] | int:
    """The sorted degrees of J's generators; three or more count as one shape."""
    degrees = tuple(sorted(sum(g) for g in den))
    return degrees if len(degrees) < 3 else 3


def _mixed_quotas(nvars: int, cyclic: bool) -> dict:
    quotas = {}
    for key, quota in MIXED_QUOTAS.items():
        if key[:2] != (nvars, cyclic):
            continue
        if key == MIXED_MEDIAN_STRATUM:
            quotas.update({key + (shape,): q for shape, q in MIXED_SHAPES.items()})
        else:
            quotas[key] = quota
    return quotas


def mixed_corpus(seed: int) -> tuple[list[Case], int]:
    """Random cyclic modules S/J and random nonzero subquotients I/J, Borel
    type or not, at n = 3 and 4: J has one to four random monomials of degree
    1..4 and I adds one or two more.

    A drawn module of Borel type that is not sequentially Cohen-Macaulay hits
    the known fault; it is redrawn so that the share of failed operations
    does not depend on the seed, and the number redrawn is returned.  The
    fixed ``KNOWN_FAULT`` module ends the corpus, so every round meets the
    fault exactly once.
    """
    rng = random.Random(f"check-mixed:{seed}")
    redrawn = 0
    cases = []
    for nvars in (3, 4):
        for cyclic in (True, False):

            def draw():
                return _random_module(rng, nvars, cyclic)

            def stratum(case):
                nonlocal redrawn
                num = case.numerator or ((0,) * nvars,)
                if set(num) == set(case.denominator):
                    return None  # the zero module
                degree = max(2, max(sum(g) for g in num + case.denominator))
                borel = is_borel_type(nvars, num, case.denominator)
                if borel and not is_sequentially_cm(nvars, num, case.denominator):
                    redrawn += 1
                    return None
                key = (nvars, cyclic, degree, borel)
                if key == MIXED_MEDIAN_STRATUM:
                    key += (_shape(case.denominator),)
                return key

            cases += _fill(draw, stratum, _mixed_quotas(nvars, cyclic))
    cases.append(KNOWN_FAULT)
    return cases, redrawn


def _artinian_module(rng: random.Random, nvars: int, cyclic: bool) -> Case:
    powers = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = ARTINIAN_POWER[nvars]
        powers.append(tuple(e))
    extra = [_random_monomial(rng, nvars, 2, 5) for _ in range(rng.randint(1, 3))]
    den = minimalize(powers + extra)
    if cyclic:
        return Case(nvars, None, den)
    tops = [_random_monomial(rng, nvars, 1, 4) for _ in range(rng.randint(1, 2))]
    return Case(nvars, minimalize(list(den) + tops), den)


# The pure power x_i^a in J, per variable count.
ARTINIAN_POWER = {3: 5, 4: 3}

# filtration-artinian strata: (n, cyclic, k) holds modules with 8k to 8k + 7
# standard monomials, that is filtration steps.  Cyclic n = 3 modules with
# 48 to 55 steps make up 30 of the 42 and hold the median.
ARTINIAN_QUOTAS = {
    (3, True, 5): 4, (3, True, 6): 30, (3, False, 6): 4, (4, True, 5): 2,
    (4, False, 5): 2,
}


def artinian_corpus(seed: int) -> tuple[list[Case], int]:
    """Artinian modules at n = 3 and 4: J holds the pure powers x_i^a (a from
    ``ARTINIAN_POWER``) and one to three random monomials of degree 2..5;
    S/J, or I/J with I = J plus one or two random monomials of degree 1..4."""
    rng = random.Random(f"filtration-artinian:{seed}")
    cases = []
    for nvars in (3, 4):
        for cyclic in (True, False):

            def draw():
                return _artinian_module(rng, nvars, cyclic)

            def stratum(case):
                num = case.numerator or ((0,) * nvars,)
                standard = len(standard_monomials(num, case.denominator))
                if not standard:
                    return None  # the zero module
                return (nvars, cyclic, standard // 8)

            quotas = {
                key: q for key, q in ARTINIAN_QUOTAS.items() if key[:2] == (nvars, cyclic)
            }
            cases += _fill(draw, stratum, quotas)
    return cases, 0


CORPORA = {
    "check-stable": stable_corpus,
    "check-mixed": mixed_corpus,
    "filtration-artinian": artinian_corpus,
}
