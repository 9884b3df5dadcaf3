"""Irreducible and primary decomposition of monomial ideals, associated
primes of monomial subquotients, Krull dimension, and the dimension
filtration.

Irreducible components are read off the Alexander dual (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 5), one fold of ``_meet_irreducible``,
the meet of an ideal with an irreducible ideal of pure powers, on exponent
tuples.  Primary components and ``dimension_filtration`` fold the same meet
over the components they keep.  None of them calls the kernel's general
``MonomialIdeal.intersect``: associated primes and ``dimension_filtration``
share only the minimalization ``_minimal_exps`` with the saturation route of
the Borel verdict and the chain, never a computed ideal.

The components, their radicals and the associated primes computed here are
sorted as plain tuples and wrapped by ``_trusted``, without the validation of
``IrreducibleComponent(...)`` and ``MonomialPrime(...)``, which stay the
boundary for values from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import le

from .errors import ZeroModuleError
from .monomial import MonomialIdeal, _ideal_from_exps, _minimal_exps, _trusted_ideal
from .subquotient import Subquotient

# Entries kept by each of the decomposition memos (irreducible_decomposition,
# associated_primes).  Their hits come from within one module's analysis,
# which meets about three distinct ideals or modules for each in a
# check-stable round; unbounded, they kept every one of a run, about 0.1 MB
# of irreducible components by the end of a round.
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


def _meet_irreducible(nvars: int, gens, bounds) -> tuple[tuple[int, ...], ...]:
    """The ascending minimal generators of (gens) meet (x_i^c : (i, c) in
    bounds), for an ascending antichain gens of exponent tuples, ``None``
    standing for the unit ideal, and bounds on distinct 1-based variables
    with positive exponents.

    A generator a with some a_i >= c lies in the irreducible ideal and is
    kept as it is; every other one is replaced by its raises, a with
    a_i := c for each bound, its lcms with the pure powers.  Only the raises
    are minimalized, and those that a kept generator divides are dropped.
    The kept generators are an antichain, and no raise of a divides a kept
    b, since a would then divide b.
    """
    if gens is None:
        gens = ((0,) * nvars,)
    cuts = [(i - 1, c) for i, c in bounds]
    kept, raises = [], set()
    for a in gens:
        for i, c in cuts:
            if a[i] >= c:
                kept.append(a)
                break
        else:
            raises.update(a[:i] + (c,) + a[i + 1 :] for i, c in cuts)
    if not raises:
        return gens
    fresh = [
        r
        for r in _minimal_exps(raises)
        if not any(all(map(le, b, r)) for b in kept)
    ]
    return tuple(sorted(kept + fresh))


@lru_cache(maxsize=DECOMPOSITION_MEMO_SIZE)
def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible decomposition.  With U one past the
    largest generator exponent, the Alexander dual is the meet over the
    minimal generators m of (x_i^(U - m_i) : m_i > 0), one fold of
    ``_meet_irreducible``, and each minimal generator d of the dual gives
    the component (x_i^(U - d_i) : d_i > 0).
    """
    _require_proper_nonzero(ideal, "irreducible decomposition")
    n = ideal.nvars
    top = max(map(max, ideal.exps)) + 1
    duals = ([(i, top - e) for i, e in enumerate(m, 1) if e] for m in ideal.exps)
    dual = reduce(partial(_meet_irreducible, n), duals, None)
    bounds = sorted(tuple((i, top - e) for i, e in enumerate(d, 1) if e) for d in dual)
    return tuple(_trusted(IrreducibleComponent, n, b) for b in bounds)


def primary_components(
    ideal: MonomialIdeal,
) -> tuple[tuple[MonomialPrime, MonomialIdeal], ...]:
    """Primary decomposition: the meet of each radical's irreducible
    components, one fold of ``_meet_irreducible``."""
    groups: dict[MonomialPrime, list] = {}
    for comp in irreducible_decomposition(ideal):
        groups.setdefault(comp.radical(), []).append(comp.bounds)
    meet = partial(_meet_irreducible, ideal.nvars)
    return tuple(
        (prime, _trusted_ideal(ideal.nvars, reduce(meet, groups[prime], None)))
        for prime in sorted(groups)
    )


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

    Computed as the meet of the primary components whose prime has quotient
    dimension strictly above the bound, folded as the meet of their
    irreducible components; an empty meet is the unit ideal, i.e. the whole
    module.
    """
    _require_proper_nonzero(ideal, "dimension filtration")
    n = ideal.nvars
    if not 0 <= dim_bound <= n:
        raise ValueError(f"dimension bound {dim_bound} outside 0..{n}")
    keep = (
        comp.bounds
        for comp in irreducible_decomposition(ideal)
        if comp.radical().quotient_dim() > dim_bound
    )
    gens = reduce(partial(_meet_irreducible, n), keep, None)
    return MonomialIdeal.unit(n) if gens is None else _trusted_ideal(n, gens)
