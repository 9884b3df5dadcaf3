"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors over a fixed ambient ring K[x1..xn].  An ideal
is stored as its variable count and the exponent tuples of its unique
antichain of minimal generators, in ascending lexicographic order, so equal
ideals compare, hash and serialize identically, and comparing or hashing one
is tuple work with no Python call per generator.  The kernel reads and builds
those tuples directly; ``MonomialIdeal.gens`` wraps them in ``Monomial``
values only for callers that ask.  Every value is immutable and every
operation is a pure function, which makes all of them safe to share between
threads.

Exponents are validated once, at the public boundaries: ``Monomial(...)``,
``exps_from_text``, the type and variable-count checks of
``MonomialIdeal(...)`` and the variable-count check of ``member``, whose
tuple test ``_member_exps`` the package calls directly on tuples it
computed.  ``exps_from_text`` is the one validation of monomial text, the
exponent limit included: ``monomial_from_text`` wraps its tuple in a
``Monomial``, and the module-file parser (``modfile.parse_module_file``)
builds each ideal from its tuples with ``_ideal_from_exps``.  Results of
internal operations (products, quotients, lcms, saturations, box walks) are
built from exponent tuples that are valid by construction and skip that
validation; only the variable counts of the operands are still compared, so
that no operation truncates silently.  The ideal results of ``add``,
``multiply``, ``intersect``, ``colon_monomial`` and ``saturate`` are built by
``_ideal_from_exps``, which shares the constructor's minimalization and skips
its checks.  ``intersect`` first sorts
each operand's generators by membership in the other: those that lie in it
are kept as they are and lcms are formed only between the rest, so an operand
whose generators all lie in the other is returned itself, with no new ideal
built.  ``add_monomial`` (I + (m), as the filtration builder places its
witnesses) needs no minimalization: it keeps m and the generators m does not
divide, or returns I when m lies in it.  It and ``_ideal_from_exps`` build
their results through ``_trusted_ideal``.

Saturations are named by their variable set: ``saturate(support)`` takes an
ascending tuple of 1-based variable indices and returns the saturation at the
product of those variables, which every monomial with that support shares.
They are memoized in one place, the bounded module-level ``lru_cache`` of
``_saturate_monomial``, keyed by the ideal and the support.

The text grammar used everywhere (CLI included): a monomial is ``1`` or
``*``-separated factors ``x3`` / ``x3^2``; an ideal is one generator per line,
or the keyword ``unit``.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from operator import add, le, lt, sub

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

    def support(self) -> tuple[int, ...]:
        """1-based indices of the variables dividing this monomial."""
        return _support(self.exps)

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


def _minimal_exps(distinct) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal ones among distinct exponent tuples, in
    ascending lexicographic order.

    A tuple that divides another and differs from it is smaller at the first
    place they differ, so every divisor of a tuple comes before it in
    ascending lexicographic order.  One walk in that order therefore keeps a
    tuple unless a kept one divides it (a divisor that was dropped has a kept
    divisor of its own), and the kept tuples come out already sorted.  Such a
    divisor also has lower degree, so the kept tuples are grouped by degree
    and a candidate is tested against the groups of lower degree only: tuples
    all of one degree, as the exchange closure of one monomial gives, need no
    test at all.
    """
    kept: list[tuple[int, ...]] = []
    by_degree: dict[int, list[tuple[int, ...]]] = {}  # the kept tuples
    for exps in sorted(distinct):
        degree = sum(exps)
        for lower_degree, lower in by_degree.items():
            if lower_degree < degree:
                for k in lower:
                    if all(map(le, k, exps)):
                        break
                else:
                    continue
                break  # a kept tuple divides exps
        else:
            kept.append(exps)
            by_degree.setdefault(degree, []).append(exps)
    return tuple(kept)


_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?\Z")


def exps_from_text(text: str, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial in the canonical text form, e.g.
    ``x1^2*x2``, ``1`` or ``unit``: the one validation of monomial text.

    Raises ``ParseError`` on a malformed factor or a variable outside
    x1..xn, and, once every factor has parsed, ``OverflowError`` when a
    variable's summed exponent passes ``EXPONENT_LIMIT``.
    """
    body = text.strip()
    if not body:
        raise ParseError("empty monomial")
    exps = [0] * nvars
    if body == "1" or body == "unit":
        return tuple(exps)
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
    for e in exps:
        if e > EXPONENT_LIMIT:
            raise OverflowError(f"exponent {e} exceeds the limit {EXPONENT_LIMIT}")
    return tuple(exps)


def monomial_from_text(text: str, nvars: int) -> Monomial:
    """Parse the canonical text form, e.g. ``x1^2*x2`` or ``1``."""
    return Monomial(exps_from_text(text, nvars))


@dataclass(frozen=True, slots=True, init=False)
class MonomialIdeal:
    """A monomial ideal, normalized to its minimal generators.

    Stored as ``nvars`` and ``exps``, the ascending lexicographic tuple of the
    minimal generators' exponent tuples, so equality and hashing are plain
    tuple work.  ``gens`` is a read-only view that builds those generators as
    ``Monomial`` values on each read.  The zero ideal has no generators; the
    unit ideal is generated by the unit monomial.

    ``MonomialIdeal(nvars, gens)`` is the validating boundary: it accepts any
    iterable of monomials and keeps the antichain of divisibility-minimal
    ones.  Ideals computed from other ideals are built by
    ``_ideal_from_exps``, which shares its minimalization.
    """

    nvars: int
    exps: tuple[tuple[int, ...], ...]

    def __init__(self, nvars: int, gens=()):
        self.__post_init__(nvars, gens)

    def __post_init__(self, nvars, gens) -> None:
        """The validating build, run once by each ``MonomialIdeal(...)``.  It
        keeps the dataclass hook's name, under which bench/tracing.py counts
        validated builds."""
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("need at least one variable")
        distinct = set()
        for g in gens:
            if not isinstance(g, Monomial):
                raise TypeError(f"generator {g!r} is not a Monomial")
            if len(g.exps) != nvars:
                raise DimensionMismatchError(
                    f"generator over {g.nvars} variables in a {nvars}-variable ideal"
                )
            distinct.add(g.exps)
        _set_nvars(self, nvars)
        _set_exps(self, _minimal_exps(distinct))

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, in ascending order.  Built on
        each read and not kept, so ideals that share exponent tuples (as
        ``add_monomial``'s results share their predecessor's) hold no
        second copy of them."""
        return tuple(map(trusted_monomial, self.exps))

    @staticmethod
    def zero(nvars: int) -> "MonomialIdeal":
        return MonomialIdeal(nvars, ())

    @staticmethod
    def unit(nvars: int) -> "MonomialIdeal":
        return MonomialIdeal(nvars, (Monomial.unit(nvars),))

    @staticmethod
    def variables(nvars: int, indices) -> "MonomialIdeal":
        """The prime ideal generated by the listed variables (1-based)."""
        return MonomialIdeal(nvars, tuple(Monomial.variable(i, nvars) for i in indices))

    @staticmethod
    def from_text_lines(nvars: int, lines) -> "MonomialIdeal":
        return MonomialIdeal(nvars, tuple(monomial_from_text(t, nvars) for t in lines))

    def is_zero(self) -> bool:
        return not self.exps

    def is_unit(self) -> bool:
        exps = self.exps
        return len(exps) == 1 and not any(exps[0])

    def _check(self, other: "MonomialIdeal") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"ideals over {self.nvars} and {other.nvars} variables"
            )

    def member(self, m: Monomial) -> bool:
        """Whether m lies in the ideal: the validating boundary of the tuple
        test ``_member_exps``, which checks m's variable count first."""
        exps = m.exps
        if len(exps) != self.nvars:
            raise DimensionMismatchError(
                f"a monomial over {len(exps)} variables tested in a "
                f"{self.nvars}-variable ideal"
            )
        return self._member_exps(exps)

    def _member_exps(self, exps: tuple[int, ...]) -> bool:
        """Whether the monomial with these exponents lies in the ideal: some
        generator divides it.  Unchecked, for tuples of length nvars computed
        inside the package, which need no ``Monomial`` around them."""
        for e in self.exps:
            if all(map(le, e, exps)):
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
        for e in self.exps:
            if all(map(le, e, exps)):
                return self
            if not all(map(le, exps, e)):
                kept.append(e)
        insort(kept, exps)
        return _trusted_ideal(self.nvars, tuple(kept))

    def contains(self, other: "MonomialIdeal") -> bool:
        """Whether self contains other as a subideal."""
        self._check(other)
        gens = self.exps
        for b in other.exps:
            for e in gens:
                if all(map(le, e, b)):
                    break
            else:
                return False
        return True

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return _ideal_from_exps(self.nvars, {*self.exps, *other.exps})

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generated by the generators of each operand that lie in the other
        and the lcms of the pairs of generators that do not; an lcm with a
        generator that lies in the other operand is a multiple of it.  An
        operand whose every generator lies in the other (the partner of the
        unit ideal, the first of two equal ideals, the zero ideal) is
        returned as it is."""
        self._check(other)
        a_out, a_in = _split_by_membership(self.exps, other.exps)
        if not a_out:
            return self
        b_out, b_in = _split_by_membership(other.exps, self.exps)
        if not b_out:
            return other
        return _ideal_from_exps(
            self.nvars,
            {*a_in, *b_in, *(tuple(map(max, a, b)) for a in a_out for b in b_out)},
        )

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return _ideal_from_exps(
            self.nvars,
            {tuple(map(add, a, b)) for a in self.exps for b in other.exps},
        )

    def colon_monomial(self, g: Monomial) -> "MonomialIdeal":
        """(self : g) = (lcm(m, g)/g for each minimal generator m)."""
        b = g.exps
        if len(b) != self.nvars:
            raise DimensionMismatchError(
                f"colon by a monomial over {len(b)} variables in a "
                f"{self.nvars}-variable ideal"
            )
        return _ideal_from_exps(
            self.nvars, {tuple(map(sub, map(max, m, b), b)) for m in self.exps}
        )

    def saturate(self, support: tuple[int, ...]) -> "MonomialIdeal":
        """(self : u^infinity) for the product u of the variables x_i, i in
        support, an ascending tuple of 1-based indices; the empty support
        names the unit and gives the ideal itself."""
        if not all(map(lt, (0, *support), (*support, self.nvars + 1))):
            raise ValueError(
                f"saturation support {support} is not ascending "
                f"within x1..x{self.nvars}"
            )
        return _saturate_monomial(self, support)

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max of generator exponents; all zero for the zero ideal."""
        if not self.exps:
            return (0,) * self.nvars
        return tuple(map(max, zip(*self.exps)))

    def max_gen_degree(self) -> int:
        return max(map(sum, self.exps), default=0)

    def gens_text(self) -> list[str]:
        return [str(g) for g in self.gens]

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(self.gens_text()) + ")"


# The slots' own setters: the validating build and _trusted_ideal write the
# fields through them, past the frozen __setattr__.
_set_nvars = MonomialIdeal.nvars.__set__
_set_exps = MonomialIdeal.exps.__set__


def _trusted_ideal(nvars: int, exps: tuple[tuple[int, ...], ...]) -> MonomialIdeal:
    """The ideal with exactly these generator exponents, without validation.

    Only for a tuple that is already the ascending antichain of minimal
    generators, each of length nvars.
    """
    ideal = object.__new__(MonomialIdeal)
    _set_nvars(ideal, nvars)
    _set_exps(ideal, exps)
    return ideal


def _ideal_from_exps(nvars: int, distinct) -> MonomialIdeal:
    """The ideal generated by a set of exponent tuples, without validation.

    Only for tuples of length nvars computed from the generators of valid
    ideals (sums, lcms, quotients, zeroed exponents), valid by construction,
    or returned by ``exps_from_text``.  Other input from outside goes through
    ``MonomialIdeal(...)``.
    """
    return _trusted_ideal(nvars, _minimal_exps(distinct))


def _split_by_membership(gens, other) -> tuple[list, list]:
    """The tuples of gens outside the ideal generated by other, and those in
    it."""
    outside, inside = [], []
    for a in gens:
        for b in other:
            if all(map(le, b, a)):
                inside.append(a)
                break
        else:
            outside.append(a)
    return outside, inside


def _support(exps: tuple[int, ...]) -> tuple[int, ...]:
    """1-based indices of the variables with a positive exponent."""
    return tuple(compress(count(1), exps))


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
    gens = ideal.exps
    if not any(e[i] for e in gens for i in cut):
        return ideal
    zeroed = set()
    for e in gens:
        cleared = list(e)
        for i in cut:
            cleared[i] = 0
        zeroed.add(tuple(cleared))
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

