"""Irreducible and primary decomposition of monomial ideals, associated
primes of monomial subquotients, Krull dimension, and the dimension
filtration.

Irreducible components are computed by the corner method: artinianize the
ideal with marker powers x_i^{T_i} one past each variable's largest generator
exponent, list the maximal standard monomials of the artinianization, and read
one component off each corner, dropping the bounds that hit the marker.  The
corners are exactly the socle elements of the artinianized quotient, which
makes the resulting family irredundant without any pruning pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import GuardExceededError, ZeroModuleError
from .monomial import Monomial, MonomialIdeal, ensure_box, trusted_monomial
from .subquotient import Subquotient

# Internal safety valve for exponent-box enumerations (witness searches and
# corner scans); desk-scale inputs sit far below it.
DEFAULT_BOX_GUARD = 1 << 18


@dataclass(frozen=True, order=True)
class MonomialPrime:
    """A monomial prime ideal, identified by its variable set."""

    nvars: int
    variables: tuple[int, ...]

    def __post_init__(self):
        varset = tuple(sorted(set(int(i) for i in self.variables)))
        if varset and not (1 <= varset[0] and varset[-1] <= self.nvars):
            raise ValueError(f"variables {varset} outside x1..x{self.nvars}")
        if not varset:
            raise ValueError("a monomial prime needs at least one variable")
        object.__setattr__(self, "variables", varset)

    def is_initial_segment(self) -> bool:
        return self.variables == tuple(range(1, len(self.variables) + 1))

    def codim(self) -> int:
        return len(self.variables)

    def quotient_dim(self) -> int:
        """dim S/P = number of variables missing from P."""
        return self.nvars - len(self.variables)

    def to_ideal(self) -> MonomialIdeal:
        return MonomialIdeal.variables(self.nvars, self.variables)

    def contains(self, other: "MonomialPrime") -> bool:
        return set(other.variables) <= set(self.variables)

    def __str__(self) -> str:
        return ",".join(f"x{i}" for i in self.variables)


@dataclass(frozen=True, order=True)
class IrreducibleComponent:
    """An irreducible monomial ideal (x_i^{e_i} : i in some variable set)."""

    nvars: int
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cleaned = tuple(sorted((int(i), int(e)) for i, e in self.bounds))
        if not cleaned:
            raise ValueError("an irreducible component needs at least one bound")
        seen = set()
        for i, e in cleaned:
            if not 1 <= i <= self.nvars:
                raise ValueError(f"variable x{i} outside x1..x{self.nvars}")
            if e < 1:
                raise ValueError(f"bound exponent {e} must be positive")
            if i in seen:
                raise ValueError(f"duplicate bound for x{i}")
            seen.add(i)
        object.__setattr__(self, "bounds", cleaned)

    def to_ideal(self) -> MonomialIdeal:
        gens = []
        for i, e in self.bounds:
            exps = [0] * self.nvars
            exps[i - 1] = e
            gens.append(Monomial(tuple(exps)))
        return MonomialIdeal(self.nvars, tuple(gens))

    def radical(self) -> MonomialPrime:
        return MonomialPrime(self.nvars, tuple(i for i, _ in self.bounds))

    def __str__(self) -> str:
        return str(self.to_ideal())


def _require_proper_nonzero(ideal: MonomialIdeal, what: str) -> None:
    if ideal.is_zero():
        raise ValueError(f"{what} is undefined for the zero ideal")
    if ideal.is_unit():
        raise ValueError(f"{what} is undefined for the unit ideal")


@lru_cache(maxsize=None)
def irreducible_decomposition(
    ideal: MonomialIdeal, guard: int = DEFAULT_BOX_GUARD
) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible decomposition, via corner monomials.

    A corner is a monomial outside the ideal all of whose variable bumps land
    inside the artinianization; each corner m yields the component with bounds
    m_i + 1 at the variables where m stays below the marker.
    """
    _require_proper_nonzero(ideal, "irreducible decomposition")
    caps = ideal.max_exponents()
    ensure_box(caps, guard, "irreducible decomposition")
    n = ideal.nvars
    components = []
    for exps in itertools.product(*[range(c + 1) for c in caps]):
        if ideal.member(trusted_monomial(exps)):
            continue
        corner = True
        for i in range(n):
            if exps[i] + 1 > caps[i]:
                continue  # the bump leaves the box: absorbed by the marker power
            bumped = trusted_monomial(exps[:i] + (exps[i] + 1,) + exps[i + 1 :])
            if not ideal.member(bumped):
                corner = False
                break
        if not corner:
            continue
        bounds = tuple(
            (i + 1, exps[i] + 1) for i in range(n) if exps[i] < caps[i]
        )
        # the all-marker corner cannot occur: the lcm of the generators is
        # always a member, so some coordinate sits strictly below its cap
        components.append(IrreducibleComponent(n, bounds))
    return tuple(sorted(components))


@lru_cache(maxsize=None)
def primary_components(
    ideal: MonomialIdeal, guard: int = DEFAULT_BOX_GUARD
) -> tuple[tuple[MonomialPrime, MonomialIdeal], ...]:
    """Primary decomposition obtained by intersecting same-radical
    irreducible components."""
    groups: dict[MonomialPrime, list[MonomialIdeal]] = {}
    for comp in irreducible_decomposition(ideal, guard):
        groups.setdefault(comp.radical(), []).append(comp.to_ideal())
    out = []
    for prime in sorted(groups):
        out.append((prime, reduce(MonomialIdeal.intersect, groups[prime])))
    return tuple(out)


def prime_sort_key(p: MonomialPrime):
    return (len(p.variables), p.variables)


@lru_cache(maxsize=None)
def cyclic_associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Ass(S/ideal): the distinct radicals of the irreducible components."""
    _require_proper_nonzero(ideal, "associated primes")
    primes = {comp.radical() for comp in irreducible_decomposition(ideal)}
    return tuple(sorted(primes, key=prime_sort_key))


@lru_cache(maxsize=None)
def associated_primes(
    module: Subquotient, guard: int = DEFAULT_BOX_GUARD
) -> tuple[MonomialPrime, ...]:
    """Ass(I/J) by witness search.

    Every associated prime of a multigraded module with one-dimensional graded
    pieces is the annihilator (J : m) of a monomial class m in I minus J.  The
    search box is the componentwise max of the generator exponents of I and J.
    """
    if module.is_zero():
        raise ZeroModuleError("the zero module has no associated primes")
    num, den = module.numerator, module.denominator
    bounds = tuple(
        max(a, b) for a, b in zip(num.max_exponents(), den.max_exponents())
    )
    ensure_box(bounds, guard, "associated prime witness search")
    primes = set()
    for exps in itertools.product(*[range(b + 1) for b in bounds]):
        m = trusted_monomial(exps)
        if not num.member(m) or den.member(m):
            continue
        ann = den.colon_monomial(m)
        if all(g.degree == 1 for g in ann.gens):
            primes.add(
                MonomialPrime(
                    module.nvars, tuple(i for g in ann.gens for i in g.support())
                )
            )
    return tuple(sorted(primes, key=prime_sort_key))


def minimal_primes(primes) -> tuple[MonomialPrime, ...]:
    """The inclusion-minimal elements of a set of monomial primes."""
    items = list(primes)
    out = [
        p
        for p in items
        if not any(q is not p and p.contains(q) and p != q for q in items)
    ]
    return tuple(sorted(out, key=prime_sort_key))


def krull_dim(module: Subquotient) -> int:
    """Krull dimension of a subquotient; -1 for the zero module."""
    if module.is_zero():
        return -1
    return max(p.quotient_dim() for p in associated_primes(module))


def dimension_filtration(ideal: MonomialIdeal, dim_bound: int) -> MonomialIdeal:
    """The ideal L with L/ideal = the largest submodule of S/ideal whose
    dimension is at most ``dim_bound``.

    Computed as the intersection of the primary components whose prime has
    quotient dimension strictly above the bound; an empty intersection is the
    unit ideal, i.e. the whole module.
    """
    _require_proper_nonzero(ideal, "dimension filtration")
    if not 0 <= dim_bound <= ideal.nvars:
        raise ValueError(f"dimension bound {dim_bound} outside 0..{ideal.nvars}")
    keep = [
        comp
        for prime, comp in primary_components(ideal)
        if prime.quotient_dim() > dim_bound
    ]
    if not keep:
        return MonomialIdeal.unit(ideal.nvars)
    return reduce(MonomialIdeal.intersect, keep)
