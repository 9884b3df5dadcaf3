"""Irreducible and primary decomposition of monomial ideals, associated
primes of monomial subquotients, Krull dimension, and the dimension
filtration.

Irreducible components are read off the Alexander dual (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 5), one fold of the kernel's meet
``MonomialIdeal.intersect``: nothing is split, compared or pruned here.
Associated primes and ``dimension_filtration`` read those components, so
they share only that meet with the saturation route of the Borel verdict
and the chain, never a computed ideal.

The components, their radicals and the associated primes computed here are
sorted as plain tuples and wrapped by ``_trusted``, without the validation of
``IrreducibleComponent(...)`` and ``MonomialPrime(...)``, which stay the
boundary for values from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import ZeroModuleError
from .monomial import MonomialIdeal, _ideal_from_exps, _trusted_ideal
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
        n = self.nvars
        return _ideal_from_exps(
            n, {(0,) * (i - 1) + (e,) + (0,) * (n - i) for i, e in self.bounds}
        )

    def radical(self) -> MonomialPrime:
        return _trusted(MonomialPrime, self.nvars, tuple(i for i, _ in self.bounds))

    def __str__(self) -> str:
        return str(self.to_ideal())


def _trusted(cls, nvars: int, value: tuple):
    """The ``MonomialPrime`` or ``IrreducibleComponent`` with these fields,
    without the validating ``__post_init__``.

    Only for values built from a valid ideal or component: ascending distinct
    variables of x1..xn, or bounds sorted by variable with positive exponents.
    Input from outside goes through the constructors.  The fields are set
    with ``object.__setattr__``, as the constructors set them: writing
    through ``__dict__`` would give each value a dict of its own, which the
    memos would keep.
    """
    obj = object.__new__(cls)
    for name, field_value in zip(cls.__dataclass_fields__, (nvars, value)):
        object.__setattr__(obj, name, field_value)
    return obj


def _require_proper_nonzero(ideal: MonomialIdeal, what: str) -> None:
    if ideal.is_zero():
        raise ValueError(f"{what} is undefined for the zero ideal")
    if ideal.is_unit():
        raise ValueError(f"{what} is undefined for the unit ideal")


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible decomposition.  With U one past the
    largest generator exponent, the Alexander dual is the meet over the
    minimal generators m of (x_i^(U - m_i) : m_i > 0), and each minimal
    generator d of the dual gives the component (x_i^(U - d_i) : d_i > 0).
    """
    _require_proper_nonzero(ideal, "irreducible decomposition")
    n = ideal.nvars
    top = max(map(max, ideal.exps)) + 1
    duals = []
    for m in ideal.exps:
        powers = [(0,) * i + (top - e,) + (0,) * (n - 1 - i) for i, e in enumerate(m) if e]
        # distinct pure powers, in ascending lexicographic order: x_n's first
        duals.append(_trusted_ideal(n, tuple(powers[::-1])))
    dual = reduce(MonomialIdeal.intersect, duals)
    bounds = sorted(tuple((i, top - e) for i, e in enumerate(d, 1) if e) for d in dual.exps)
    return tuple(_trusted(IrreducibleComponent, n, b) for b in bounds)


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
    radicals = {tuple(i for i, _ in c.bounds) for c in irreducible_decomposition(ideal)}
    primes = (_trusted(MonomialPrime, ideal.nvars, v) for v in radicals)
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
