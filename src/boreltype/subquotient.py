"""Monomial subquotient modules M = I/J and their graded structure.

A subquotient is presented by a pair of monomial ideals J <= I; the module is
the image of I in S/J.  The denominator must be nonzero unless the module is
zero (I = J): that is exactly the syntactic form of the standing hypothesis
that M agrees with its torsion submodule, which the chain and filtration
machinery depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .errors import DimensionMismatchError, NotArtinianError, ZeroModuleError
from .monomial import (
    MonomialIdeal,
    _ideal_from_exps,
    monomials_of_degree,
)


@dataclass(frozen=True)
class Subquotient:
    numerator: MonomialIdeal
    denominator: MonomialIdeal

    def __post_init__(self):
        if self.numerator.nvars != self.denominator.nvars:
            raise DimensionMismatchError(
                f"numerator over {self.numerator.nvars} variables, "
                f"denominator over {self.denominator.nvars}"
            )
        if not self.numerator.contains(self.denominator):
            raise ValueError(
                f"denominator {self.denominator} is not contained in "
                f"numerator {self.numerator}"
            )
        if self.denominator.is_zero() and self.numerator != self.denominator:
            raise ValueError(
                "a torsion subquotient needs a nonzero denominator "
                "(or numerator = denominator for the zero module)"
            )

    @staticmethod
    def cyclic(ideal: MonomialIdeal) -> "Subquotient":
        """The quotient ring S/ideal presented as unit/ideal."""
        return Subquotient(MonomialIdeal.unit(ideal.nvars), ideal)

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    def is_zero(self) -> bool:
        return self.numerator == self.denominator

    def is_cyclic(self) -> bool:
        return self.numerator.is_unit()

    def torsion_submodule(self, support: tuple[int, ...]) -> MonomialIdeal:
        """The ideal L with L/J = the submodule killed by a power of the
        product of the variables x_i, i in ``support``, an ascending tuple of
        1-based indices; every monomial with that support kills the same one.

        Computed as I intersected with J's saturation at that support.  The
        empty support names the unit, whose saturation is J itself, so its
        torsion submodule is zero (L = J), as it should be.
        """
        return self.denominator.saturate(support).intersect(self.numerator)

    def truncate(self, degree: int) -> "Subquotient":
        """The submodule generated by all elements of degree >= ``degree``."""
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        n = self.nvars
        gens = set(self.denominator.exps)
        for g in self.numerator.exps:
            d = sum(g)
            if d >= degree:
                gens.add(g)
            else:
                gens.update(
                    tuple(map(add, g, m.exps)) for m in monomials_of_degree(n, degree - d)
                )
        return Subquotient(_ideal_from_exps(n, gens), self.denominator)

    def artinian_reduction(self, r: int) -> "Subquotient":
        """The quotient by the action of the trailing variables x_{r+1}..x_n."""
        if not 1 <= r <= self.nvars:
            raise ValueError(f"reduction index {r} outside 1..{self.nvars}")
        trailing = MonomialIdeal.variables(self.nvars, range(r + 1, self.nvars + 1))
        if trailing.is_zero():
            return self
        lowered = self.denominator.add(trailing.multiply(self.numerator))
        return Subquotient(self.numerator, lowered)

    def is_artinian(self) -> bool:
        """Whether L/D has finite length: L lies in the saturation
        D : m^infinity, m = (x1..xn).  That saturation is the intersection
        of the D : x_i^infinity, and a generator g of L lies in D : x_i^infinity
        exactly when x_i^{b_i} g lies in D, b_i being the largest exponent of
        x_i among D's generators; so no saturation is built."""
        den = self.denominator
        bounds = den.max_exponents()
        return all(
            den._member_exps(g[:i] + (e + b,) + g[i + 1 :])
            for g in self.numerator.exps
            for i, (e, b) in enumerate(zip(g, bounds))
        )

    def top_degree(self):
        """The largest degree of a monomial of L outside D, or None when L/D is
        not Artinian and such degrees are unbounded.

        For an Artinian L/D the socle monomials are the corners x^{b-1} of the
        irreducible components (x1^{b1}, ..., xn^{bn}) of D that lie in L, so
        top = max (b1 - 1) + ... + (bn - 1) over those corners.
        """
        # decomposition imports this module, so it is imported on use
        from .decomposition import irreducible_decomposition

        if self.is_zero():
            raise ZeroModuleError("the zero module has no top degree")
        if not self.is_artinian():
            return None
        corners = (
            tuple(e - 1 for _, e in comp.bounds)
            for comp in irreducible_decomposition(self.denominator)
            if len(comp.bounds) == self.nvars
        )
        return max(sum(c) for c in corners if self.numerator._member_exps(c))

    def artinian_hilbert(self, ceiling=None) -> list[int]:
        """The Hilbert function in degrees 0..top, for Artinian modules; its
        last entry is the top nonvanishing degree's value.

        top is read off the corners of D (top_degree).  A module that is not
        Artinian, or whose top degree passes the ceiling, is reported as not
        Artinian within it.

        The monomials of L outside D are then counted by x_n-columns over the
        box e_i < b_i, sum e <= top, b = D.max_exponents(), not over every
        monomial of each degree 0..top.  No monomial of L outside D leaves the
        box: if u is outside D and u_i >= b_i, a generator of D dividing
        x_i u would divide u, so x_i u is outside D too, and u in L would
        start an infinite x_i-string in L/D.  _box_columns walks the first
        n - 1 exponents from 1 and reads each column from the generators that
        divide it on those exponents, so no membership test runs per
        monomial; the walk starts at 1, not at L's generators, so it is not
        the filtration builder's walk.  Its cost grows with the number of
        columns, not with the module's length.
        """
        top = self.top_degree()
        bound = self.numerator.max_gen_degree()
        if ceiling is None:
            ceiling = max(10 * max(bound, 1), 40)
        ceiling = max(ceiling, bound)
        if top is None or top > ceiling:
            raise NotArtinianError(
                f"Hilbert function does not vanish up to degree {ceiling}; "
                "not Artinian within the ceiling"
            )
        # steps[d] = values[d] - values[d - 1]: a column adds one to every
        # degree of a run, so it changes two steps
        steps = [0] * (top + 2)
        columns = _box_columns(
            self.numerator.exps, self.denominator.exps, self.denominator.max_exponents(), top
        )
        for prefix, low, high in columns:
            if low < high:
                degree = sum(prefix)
                steps[degree + low] += 1
                steps[degree + high] -= 1
        return list(accumulate(steps[:-1]))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def _box_columns(num, den, bounds, top):
    """Yield (prefix, low, high) for each x_n-column the Hilbert count reads:
    prefix the exponents of x1..x_{n-1}, a monomial inside the box e_i < b_i,
    of degree at most top and outside D; the column's monomials prefix x_n^t
    inside the box and of degree at most top are outside D exactly for
    t < high, and in L exactly for t >= low.

    The walk fixes one exponent at a time, from x1, and carries the
    generators of L and of D that divide the prefix on the exponents fixed so
    far, dropping one at its first exponent above the prefix, as
    betti._koszul_walk carries its generators.  A carried generator of D
    whose later exponents are all zero divides the prefix itself, and every
    larger exponent, so the least such exponent ends the walk at that
    position.  At the last position every carried generator ends there: the
    column leaves D at the least x_n-exponent of the carried generators of
    D, capped by the box and by top - degree + 1, and enters L at the least
    x_n-exponent of the carried generators of L.
    """
    last = len(bounds) - 1
    ends = {g: max(i for i, e in enumerate(g) if e) for g in den}

    def stop(i, degree, den):
        return min(
            bounds[i], top - degree + 1, *(g[i] for g in den if ends[g] == i)
        )

    def walk(i, prefix, degree, num, den):
        if i == last:
            low = min((g[i] for g in num), default=top + 1)
            yield prefix, low, stop(i, degree, den)
            return
        for e in range(stop(i, degree, den)):
            yield from walk(
                i + 1,
                prefix + (e,),
                degree + e,
                [g for g in num if g[i] <= e],
                [g for g in den if g[i] <= e],
            )

    yield from walk(0, (), 0, num, den)

