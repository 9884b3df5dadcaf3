"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors over a fixed ambient ring K[x1..xn].  An ideal
is stored as its unique antichain of minimal generators in ascending
lexicographic order, so equal ideals compare, hash and serialize identically.
Every value is immutable and every operation is a pure function, which makes
all of them safe to share between threads.

Exponents are validated once, at the public boundaries: ``Monomial(...)``,
``monomial_from_text`` and the type and variable-count checks of
``MonomialIdeal(...)``.  Results of internal operations (products, quotients,
lcms, saturations, box walks) are built from exponent tuples that are valid by
construction and skip that validation; only the variable counts of the
operands are still compared, so that no operation truncates silently.  The
ideal results of ``intersect``, ``colon_monomial`` and ``saturate`` are built
by ``_ideal_from_exps``, which shares the constructor's minimalization and
skips its checks.  ``add_monomial`` (I + (m), as the filtration builder
places its witnesses) needs no minimalization: it keeps m and the generators m
does not divide, or returns I when m lies in it.  Both build their results
through ``_trusted_ideal``, as do ``principal`` and ``prefix`` after their
checks: one monomial, or distinct variables, are minimal by construction.

Saturations are memoized in one place, the bounded module-level
``lru_cache`` of ``_saturate_monomial``: the saturation of an ideal at a
single monomial, keyed by the ideal and the monomial's support.  Every
saturation by an ideal is an intersection of those.

The text grammar used everywhere (CLI included): a monomial is ``1`` or
``*``-separated factors ``x3`` / ``x3^2``; an ideal is one generator per line,
or the keyword ``unit``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, attrgetter, le, sub

from .errors import DimensionMismatchError, GuardExceededError, ParseError

# Exponents far beyond anything a desk-scale instance produces indicate a
# runaway loop rather than a legitimate input; fail loudly instead of looping.
EXPONENT_LIMIT = 1 << 20

# Entries kept by the saturation memo.  Its hits come from within one module's
# analysis, which asks for at most a few dozen distinct saturations at n <= 5
# (33 on the benchmark corpora); unbounded, a check-stable round kept 967 and
# about 0.35 MB more peak memory for 6 more hits.
SATURATION_MEMO_SIZE = 256


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial x1^e1 * ... * xn^en stored as its exponent vector.

    Ordering is lexicographic on the exponent vector.
    """

    exps: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exps)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        for e in exps:
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
            if e > EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} exceeds the limit {EXPONENT_LIMIT}")
        object.__setattr__(self, "exps", exps)

    @staticmethod
    def unit(nvars: int) -> "Monomial":
        return Monomial((0,) * nvars)

    @staticmethod
    @lru_cache(maxsize=None)
    def variable(index: int, nvars: int) -> "Monomial":
        """The monomial x_index (1-based); one shared value per (index, nvars)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable x{index} outside x1..x{nvars}")
        return Monomial(tuple(1 if i == index else 0 for i in range(1, nvars + 1)))

    @property
    def nvars(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def is_unit(self) -> bool:
        return self.degree == 0

    def _check(self, other: "Monomial") -> None:
        if len(self.exps) != len(other.exps):
            raise DimensionMismatchError(
                f"monomials over {len(self.exps)} and {len(other.exps)} variables"
            )

    def divides(self, other: "Monomial") -> bool:
        a, b = self.exps, other.exps
        if len(a) != len(b):
            self._check(other)
        return all(map(le, a, b))

    def mul(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return trusted_monomial(tuple(map(add, self.exps, other.exps)))

    def div(self, other: "Monomial") -> "Monomial":
        """Exact division; raises ValueError when other does not divide self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return trusted_monomial(tuple(map(sub, self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return trusted_monomial(tuple(map(max, self.exps, other.exps)))

    def support(self) -> tuple[int, ...]:
        """1-based indices of the variables dividing this monomial."""
        return tuple(i for i, e in enumerate(self.exps, 1) if e > 0)

    def radical_and_min_support(self) -> tuple["Monomial", int]:
        """The squarefree part and the smallest variable index in the support.

        Undefined for the unit monomial, which has empty support.
        """
        sup = self.support()
        if not sup:
            raise ValueError("the unit monomial has no support")
        return trusted_monomial(tuple(1 if e > 0 else 0 for e in self.exps)), sup[0]

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for i, e in enumerate(self.exps, 1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


def trusted_monomial(exps: tuple[int, ...]) -> Monomial:
    """The monomial with these exponents, without validation.

    Only for tuples of ints computed from valid monomials or exponent boxes
    (sums, differences of divisible pairs, maxima, box points): nonnegative by
    construction.  Input from outside goes through ``Monomial(...)``, which
    also enforces the exponent limit.
    """
    m = object.__new__(Monomial)
    m.__dict__["exps"] = exps
    return m


def _support_mask(exps: tuple[int, ...]) -> int:
    """Bit i set exactly when variable i + 1 divides the monomial."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def _minimal_exps(distinct) -> list[tuple[int, ...]]:
    """The divisibility-minimal ones among distinct exponent tuples, in
    ascending lexicographic order.

    The tuples are walked by degree: a monomial can only be divided by a
    different one of lower degree, so each candidate is tested against the
    kept tuples of lower degree only.  A kept tuple whose support is not
    inside the candidate's cannot divide it, which a comparison of support
    bitmasks decides before the exponents are compared.
    """
    kept: list[tuple[tuple[int, ...], int]] = []  # (exponents, support mask)
    lower: list[tuple[tuple[int, ...], int]] = []  # those of lower degree
    degree = -1
    for exps in sorted(distinct, key=sum):
        d = sum(exps)
        if d != degree:
            degree, lower = d, kept[:]
        mask = _support_mask(exps)
        for k, k_mask in lower:
            if not (k_mask & ~mask) and all(map(le, k, exps)):
                break
        else:
            kept.append((exps, mask))
    return sorted(exps for exps, _ in kept)


_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?\Z")


def monomial_from_text(text: str, nvars: int) -> Monomial:
    """Parse the canonical text form, e.g. ``x1^2*x2`` or ``1``."""
    body = text.strip()
    if not body:
        raise ParseError("empty monomial")
    if body == "1" or body == "unit":
        return Monomial.unit(nvars)
    exps = [0] * nvars
    for factor in body.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if m is None:
            raise ParseError(f"bad monomial factor {factor.strip()!r}")
        index = int(m.group(1))
        if not 1 <= index <= nvars:
            raise ParseError(f"variable x{index} outside x1..x{nvars}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp < 1:
            raise ParseError(f"exponent must be positive in {factor.strip()!r}")
        exps[index - 1] += exp
    return Monomial(tuple(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal generators.

    The constructor accepts any iterable of monomials and keeps the antichain
    of divisibility-minimal ones, sorted lexicographically.  The zero ideal has
    no generators; the unit ideal is generated by the unit monomial.  The
    constructor is the validating boundary; ideals computed from other ideals
    are built by ``_ideal_from_exps``, which shares its minimalization.
    """

    nvars: int
    gens: tuple[Monomial, ...] = ()

    def __post_init__(self):
        nvars = int(self.nvars)
        if nvars < 1:
            raise ValueError("need at least one variable")
        by_exps = {}
        for g in self.gens:
            if not isinstance(g, Monomial):
                raise TypeError(f"generator {g!r} is not a Monomial")
            if len(g.exps) != nvars:
                raise DimensionMismatchError(
                    f"generator over {g.nvars} variables in a {nvars}-variable ideal"
                )
            by_exps[g.exps] = g
        object.__setattr__(self, "nvars", nvars)
        minimal = tuple(by_exps[exps] for exps in _minimal_exps(by_exps))
        object.__setattr__(self, "gens", minimal)

    @staticmethod
    def zero(nvars: int) -> "MonomialIdeal":
        return MonomialIdeal(nvars, ())

    @staticmethod
    def unit(nvars: int) -> "MonomialIdeal":
        return MonomialIdeal(nvars, (Monomial.unit(nvars),))

    @staticmethod
    def principal(m: Monomial) -> "MonomialIdeal":
        if not isinstance(m, Monomial):
            raise TypeError(f"generator {m!r} is not a Monomial")
        return _trusted_ideal(m.nvars, (m,))

    @staticmethod
    def variables(nvars: int, indices) -> "MonomialIdeal":
        """The prime ideal generated by the listed variables (1-based)."""
        return MonomialIdeal(nvars, tuple(Monomial.variable(i, nvars) for i in indices))

    @staticmethod
    def prefix(nvars: int, r: int) -> "MonomialIdeal":
        """The initial-segment prime (x1, ..., xr); zero ideal for r = 0."""
        if not 0 <= r <= nvars:
            raise ValueError(f"prefix length {r} outside 0..{nvars}")
        if nvars < 1:
            raise ValueError("need at least one variable")
        # x_r < ... < x_1 lexicographically, and no variable divides another
        gens = tuple(Monomial.variable(i, nvars) for i in range(r, 0, -1))
        return _trusted_ideal(nvars, gens)

    @staticmethod
    def from_text_lines(nvars: int, lines) -> "MonomialIdeal":
        return MonomialIdeal(nvars, tuple(monomial_from_text(t, nvars) for t in lines))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit()

    def _check(self, other: "MonomialIdeal") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"ideals over {self.nvars} and {other.nvars} variables"
            )

    def member(self, m: Monomial) -> bool:
        exps = m.exps
        if len(exps) != self.nvars:
            raise DimensionMismatchError(
                f"a monomial over {len(exps)} variables tested in a "
                f"{self.nvars}-variable ideal"
            )
        for g in self.gens:
            if all(map(le, g.exps, exps)):
                return True
        return False

    def add_monomial(self, m: Monomial) -> "MonomialIdeal":
        """self + (m), in one pass over the generators.

        self itself when some generator divides m; otherwise m and the
        generators that m does not divide, with m at its place in ascending
        lexicographic order: the minimal generators the constructor would
        keep, found without minimalizing them again.
        """
        exps = m.exps
        if len(exps) != self.nvars:
            raise DimensionMismatchError(
                f"a monomial over {len(exps)} variables added to a "
                f"{self.nvars}-variable ideal"
            )
        kept = []
        for g in self.gens:
            e = g.exps
            if all(map(le, e, exps)):
                return self
            if not all(map(le, exps, e)):
                kept.append(g)
        kept.insert(bisect_left(kept, exps, key=attrgetter("exps")), m)
        return _trusted_ideal(self.nvars, tuple(kept))

    def contains(self, other: "MonomialIdeal") -> bool:
        """Whether self contains other as a subideal."""
        self._check(other)
        return all(self.member(g) for g in other.gens)

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.nvars, self.gens + other.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generated by the lcms of the pairs of generators; the unit ideal
        returns the other operand as it is."""
        self._check(other)
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        return _ideal_from_exps(
            self.nvars,
            {tuple(map(max, a.exps, b.exps)) for a in self.gens for b in other.gens},
        )

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        prods = tuple(a.mul(b) for a in self.gens for b in other.gens)
        return MonomialIdeal(self.nvars, prods)

    def colon_monomial(self, g: Monomial) -> "MonomialIdeal":
        """(self : g) = (lcm(m, g)/g for each minimal generator m)."""
        b = g.exps
        if len(b) != self.nvars:
            raise DimensionMismatchError(
                f"colon by a monomial over {len(b)} variables in a "
                f"{self.nvars}-variable ideal"
            )
        return _ideal_from_exps(
            self.nvars,
            {tuple(e - f if e > f else 0 for e, f in zip(m.exps, b)) for m in self.gens},
        )

    def saturate(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other^infinity), the intersection of the saturations at
        each minimal generator of other."""
        if other.is_zero():
            raise ValueError("saturation by the zero ideal is undefined")
        self._check(other)
        parts = [_saturate_monomial(self, u.support()) for u in other.gens]
        return reduce(MonomialIdeal.intersect, parts)

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max of generator exponents; all zero for the zero ideal."""
        bounds = [0] * self.nvars
        for g in self.gens:
            for i, e in enumerate(g.exps):
                if e > bounds[i]:
                    bounds[i] = e
        return tuple(bounds)

    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def gens_text(self) -> list[str]:
        return [str(g) for g in self.gens]

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(self.gens_text()) + ")"


def _trusted_ideal(nvars: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
    """The ideal with exactly these generators, without validation.

    Only for a tuple that is already the ascending antichain of minimal
    generators, of monomials over nvars variables.
    """
    ideal = object.__new__(MonomialIdeal)
    ideal.__dict__["nvars"] = nvars
    ideal.__dict__["gens"] = gens
    return ideal


def _ideal_from_exps(nvars: int, distinct) -> MonomialIdeal:
    """The ideal generated by a set of exponent tuples, without validation.

    Only for tuples of length nvars computed from the generators of valid
    ideals (lcms, quotients, zeroed exponents): valid by construction.  Input
    from outside goes through ``MonomialIdeal(...)``.
    """
    return _trusted_ideal(nvars, tuple(map(trusted_monomial, _minimal_exps(distinct))))


@lru_cache(maxsize=SATURATION_MEMO_SIZE)
def _saturate_monomial(ideal: MonomialIdeal, support: tuple[int, ...]) -> MonomialIdeal:
    """(ideal : u^infinity) for any monomial u with this support: each minimal
    generator with its exponents on the support set to zero.

    Memoized: a saturation depends only on the support, and the Borel-type
    verdict, the torsion submodules and the chains ask for the same few again
    and again.  An ideal that no generator exponent on the support changes is
    returned as it is.
    """
    cut = [i - 1 for i in support]
    if not any(g.exps[i] for g in ideal.gens for i in cut):
        return ideal
    zeroed = set()
    for g in ideal.gens:
        exps = list(g.exps)
        for i in cut:
            exps[i] = 0
        zeroed.add(tuple(exps))
    return _ideal_from_exps(ideal.nvars, zeroed)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, lexicographically decreasing."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out: list[tuple[int, ...]] = []

    def build(prefix: tuple[int, ...], position: int, left: int) -> None:
        if position == nvars - 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            build(prefix + (e,), position + 1, left - e)

    build((), 0, degree)
    return tuple(trusted_monomial(e) for e in out)


def box_size(bounds) -> int:
    size = 1
    for b in bounds:
        size *= b + 1
    return size


def ensure_box(bounds, guard: int, context: str) -> None:
    size = box_size(bounds)
    if size > guard:
        raise GuardExceededError(
            f"{context}: enumeration box of size {size} exceeds the guard {guard}"
        )

