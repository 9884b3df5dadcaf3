"""Reference answers computed apart from ``boreltype``, on plain exponent tuples.

An ideal is a tuple of exponent tuples (its generators); the unit ideal is
``((0,) * n,)``.  Every routine here is a direct enumeration or a closed form
from the literature, sharing no code with the package under test:

- Eliahou-Kervaire: for a strongly stable ideal I, reg(S/I) is the largest
  minimal-generator degree minus one and depth(S/I) is n minus the largest
  m(u), the largest variable index of a generator u.
- Borel type by brute force: the associated primes of I/J are the colons
  (J : m) that are generated by variables, for monomials m in I but not in J
  inside the exponent box of I and J; the module is of Borel type exactly
  when each of them is an initial segment (x1..xj).
- Sequential Cohen-Macaulayness of a Borel-type module from its dimension
  filtration, each factor tested for a regular sequence by enumeration.
- For an Artinian I/J: the standard monomials (in I, not in J), their count
  and their top degree.
"""

from __future__ import annotations

import itertools


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(gens, m) -> bool:
    return any(divides(g, m) for g in gens)


def minimalize(gens) -> tuple[tuple[int, ...], ...]:
    unique = sorted(set(gens))
    return tuple(
        m for m in unique if not any(g != m and divides(g, m) for g in unique)
    )


def colon(gens, m):
    """(J : m) for a monomial m."""
    return minimalize(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens)


def box(*ideals):
    """All exponent tuples up to the componentwise max over the ideals' generators."""
    bounds = [max(col) for col in zip(*(g for ideal in ideals for g in ideal))]
    return itertools.product(*(range(b + 1) for b in bounds))


def associated_primes(nvars: int, num, den) -> set[tuple[int, ...]]:
    """Ass(I/J) as sets of 1-based variable indices."""
    primes = set()
    for m in box(num, den):
        if not member(num, m) or member(den, m):
            continue
        ann = colon(den, m)
        if all(sum(g) == 1 for g in ann):
            primes.add(tuple(sorted(g.index(1) + 1 for g in ann)))
    return primes


def is_borel_type(nvars: int, num, den) -> bool:
    return all(
        p == tuple(range(1, len(p) + 1)) for p in associated_primes(nvars, num, den)
    )


def module_dim(nvars: int, num, den) -> int:
    return max(nvars - len(p) for p in associated_primes(nvars, num, den))


def quotient_dim(nvars: int, ideal) -> int:
    """dim S/K: the most variables F such that no generator lives on F alone."""
    for size in range(nvars, -1, -1):
        for free in itertools.combinations(range(nvars), size):
            if not any(all(g[i] == 0 or i in free for i in range(nvars)) for g in ideal):
                return size
    return -1  # the unit ideal


def _regular_on(top, bottom, variable: int) -> bool:
    """Whether x_variable kills no monomial of top outside bottom."""
    for m in box(top, bottom):
        if member(top, m) and not member(bottom, m):
            bumped = m[:variable] + (m[variable] + 1,) + m[variable + 1 :]
            if member(bottom, bumped):
                return False
    return True


def is_sequentially_cm(nvars: int, num, den) -> bool:
    """For a Borel-type I/J: every nonzero factor D_i/D_{i-1} of the dimension
    filtration has x_{n-i+1}..x_n as a regular sequence.

    D_i/J is spanned by the monomials m of I whose annihilator S/(J : m) has
    dimension at most i; generators of D_i lie in the exponent box of I and J.
    Since every associated prime of the factor is (x1..x_{n-i}), those
    variables are a system of parameters, so the factor is Cohen-Macaulay
    exactly when they form a regular sequence.
    """
    points = list(box(num, den))
    level = {
        m: quotient_dim(nvars, colon(den, m))
        for m in points
        if member(num, m) and not member(den, m)
    }
    previous = den
    for i in range(nvars + 1):
        layer = minimalize(list(den) + [m for m, d in level.items() if d <= i])
        if set(layer) == set(previous):
            continue
        top, bottom = layer, previous
        for k in range(nvars - i, nvars):
            if not _regular_on(top, bottom, k):
                return False
            shifted = [g[:k] + (g[k] + 1,) + g[k + 1 :] for g in top]
            bottom = minimalize(list(bottom) + shifted)
        previous = layer
    return True


def eliahou_kervaire(nvars: int, ideal) -> tuple[int, int]:
    """(reg S/I, depth S/I) for a strongly stable ideal I."""
    reg = max(sum(g) for g in ideal) - 1
    largest = max(max(i + 1 for i, e in enumerate(g) if e) for g in ideal)
    return reg, nvars - largest


def standard_monomials(num, den) -> list[tuple[int, ...]]:
    """Monomials in I but not in J, for an Artinian J (pure powers included)."""
    return [m for m in box(den) if member(num, m) and not member(den, m)]


def witness_colons_exact(nvars: int, den, steps) -> bool:
    """Each step (ideal, witness): the colon of the previous ideal by the
    witness is exactly (x1..xn)."""
    maximal = {tuple(1 if i == j else 0 for i in range(nvars)) for j in range(nvars)}
    previous = den
    for ideal, witness in steps:
        if set(colon(previous, witness)) != maximal:
            return False
        previous = ideal
    return True


# The checks below take the program's outputs for one module, reduced to
# plain values, and return a list of disagreements (empty when all agree).


def check_stable(case, facts) -> list[str]:
    reg, depth = eliahou_kervaire(case.nvars, case.denominator)
    bad = []
    if facts["exit_code"] != 0:
        bad.append(f"exit code {facts['exit_code']}")
    if facts["borel_type"] is not True:
        bad.append("verdict is not Borel type on a strongly stable ideal")
    if facts["regularity"] != {"chain": reg, "oracle": reg}:
        bad.append(f"regularity {facts['regularity']} but Eliahou-Kervaire gives {reg}")
    if facts["depth"] != {"chain": depth, "oracle": depth}:
        bad.append(f"depth {facts['depth']} but Eliahou-Kervaire gives {depth}")
    return bad


def check_mixed(case, facts) -> list[str]:
    n = case.nvars
    num = case.numerator or ((0,) * n,)
    bad = []
    if facts["exit_code"] != 0:
        bad.append(f"exit code {facts['exit_code']}")
    if set(num) == set(case.denominator):
        return bad
    borel = is_borel_type(n, num, case.denominator)
    if facts["borel_type"] != borel:
        bad.append(f"verdict borel_type={facts['borel_type']}, brute force says {borel}")
    elif borel:
        dim = module_dim(n, num, case.denominator)
        if facts["chain_dims"] is None or facts["chain_dims"][-1] != dim:
            bad.append(f"chain dims {facts['chain_dims']} but dim M = {dim}")
    return bad


def check_artinian(case, facts) -> list[str]:
    num = case.numerator or ((0,) * case.nvars,)
    standard = standard_monomials(num, case.denominator)
    top = max(sum(m) for m in standard)
    bad = []
    if not facts["ok"]:
        bad.append(f"program checks failed: {facts['detail']}")
    if facts["length"] != len(standard):
        bad.append(f"filtration length {facts['length']}, {len(standard)} standard monomials")
    if facts["regularity"] != top:
        bad.append(f"regularity {facts['regularity']}, top standard degree {top}")
    if not facts["witness_colons_exact"]:
        bad.append("a witness colon is not (x1..xn)")
    return bad


CHECKS = {
    "check-stable": check_stable,
    "check-mixed": check_mixed,
    "filtration-artinian": check_artinian,
}
