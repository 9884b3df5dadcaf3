"""Irreducible and primary decomposition of monomial ideals, associated
primes of monomial subquotients, Krull dimension, and the dimension
filtration.

Irreducible components are built one minimal generator m at a time from the
zero ideal.  A component C containing m stays; any other splits as
C + (m) = meet over i in supp m of C + (x_i^{m_i}).  Irreducible monomial
ideals are meet-prime, so a new component is redundant exactly when it
contains another one, and the unique irredundant result does not depend on
the generator order (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import ZeroModuleError
from .monomial import Monomial, MonomialIdeal
from .subquotient import Subquotient

# Entries kept by each of the decomposition memos (irreducible_decomposition,
# primary_components, associated_primes).  Their hits come from within one
# module's analysis, which meets about three distinct ideals or modules for
# each in a check-stable round; unbounded, they kept every one of a run, about
# 0.1 MB of irreducible components by the end of a round.
DECOMPOSITION_MEMO_SIZE = 32


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


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible decomposition, splitting on the generators
    by degree; a component is its bound vector, 0 marking an unbounded
    variable.  m outside C puts each m_i below C's bound on x_i, and a kept
    component never contains a new one: it would then contain its parent.
    """
    _require_proper_nonzero(ideal, "irreducible decomposition")
    n = ideal.nvars
    components = [(0,) * n]
    for m in sorted(ideal.exps, key=sum):
        kept, split = [], set()
        for b in components:
            if any(0 < c <= e for c, e in zip(b, m)):
                kept.append(b)
            else:
                split.update(b[:i] + (e,) + b[i + 1 :] for i, e in enumerate(m) if e)
        pool = kept + list(split)
        components = kept + [
            b for b in split if not any(c != b and _contains(b, c) for c in pool)
        ]
    bounds = (tuple((i, c) for i, c in enumerate(b, 1) if c) for b in components)
    return tuple(sorted(IrreducibleComponent(n, b) for b in bounds))


def _contains(b, c) -> bool:
    """Whether the component with bound vector b contains the one with c."""
    return all(0 < p <= q for p, q in zip(b, c) if q)


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def primary_components(
    ideal: MonomialIdeal,
) -> tuple[tuple[MonomialPrime, MonomialIdeal], ...]:
    """Primary decomposition obtained by intersecting same-radical
    irreducible components."""
    groups: dict[MonomialPrime, list[MonomialIdeal]] = {}
    for comp in irreducible_decomposition(ideal):
        groups.setdefault(comp.radical(), []).append(comp.to_ideal())
    out = []
    for prime in sorted(groups):
        out.append((prime, reduce(MonomialIdeal.intersect, groups[prime])))
    return tuple(out)


def prime_sort_key(p: MonomialPrime):
    return (len(p.variables), p.variables)


def cyclic_associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Ass(S/ideal): the distinct radicals of the irreducible components
    (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 5)."""
    _require_proper_nonzero(ideal, "associated primes")
    primes = {comp.radical() for comp in irreducible_decomposition(ideal)}
    return tuple(sorted(primes, key=prime_sort_key))


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def associated_primes(module: Subquotient) -> tuple[MonomialPrime, ...]:
    """Ass(I/J) = the union of Ass(S/(J : g)) over the minimal generators g
    of I outside J.

    Every associated prime of a multigraded module with one-dimensional graded
    pieces is the annihilator (J : m) of a monomial class m in I minus J.
    Write m = g*u with g a minimal generator of I: then J : m = (J : g) : u,
    and u lies outside J : g exactly when m lies outside J.  So the monomial
    annihilators of I/J are those of the cyclic modules S/(J : g) over the g
    with J : g proper, i.e. g outside J.
    """
    if module.is_zero():
        raise ZeroModuleError("the zero module has no associated primes")
    den = module.denominator
    primes = set()
    for g in module.numerator.gens:
        if not den.member(g):
            primes.update(cyclic_associated_primes(den.colon_monomial(g)))
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
