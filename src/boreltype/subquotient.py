"""Monomial subquotient modules M = I/J and their graded structure.

A subquotient is presented by a pair of monomial ideals J <= I; the module is
the image of I in S/J.  The denominator must be nonzero unless the module is
zero (I = J): that is exactly the syntactic form of the standing hypothesis
that M agrees with its torsion submodule, which the chain and filtration
machinery depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import DimensionMismatchError, NotArtinianError, ZeroModuleError
from .monomial import (
    MonomialIdeal,
    _ideal_from_exps,
    monomials_of_degree,
    trusted_monomial,
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

    def torsion_submodule(self, support: MonomialIdeal) -> MonomialIdeal:
        """The ideal L with L/J = the submodule killed by a power of ``support``.

        Computed as I intersected with the saturation of J by the support
        ideal.  Saturating by the unit ideal returns J itself, so the torsion
        submodule at the unit ideal is zero, as it should be.
        """
        if support.is_zero():
            raise ValueError("torsion support must be a nonzero ideal")
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
            den.member(trusted_monomial(g[:i] + (e + b,) + g[i + 1 :]))
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
            trusted_monomial(tuple(e - 1 for _, e in comp.bounds))
            for comp in irreducible_decomposition(self.denominator)
            if len(comp.bounds) == self.nvars
        )
        return max(c.degree for c in corners if self.numerator.member(c))

    def artinian_hilbert(self, ceiling=None) -> list[int]:
        """The Hilbert function in degrees 0..top, for Artinian modules; its
        last entry is the top nonvanishing degree's value.

        top is read off the corners of D (top_degree).  A module that is not
        Artinian, or whose top degree passes the ceiling, is reported as not
        Artinian within it.

        The monomials of L outside D are then counted by degree over the box
        e_i < b_i, sum e <= top, b = D.max_exponents(), not over every
        monomial of each degree 0..top.  No monomial of L outside D leaves the
        box: if u is outside D and u_i >= b_i, a generator of D dividing
        x_i u would divide u, so x_i u is outside D too, and u in L would
        start an infinite x_i-string in L/D.  The box is walked raising one
        exponent at a time in increasing position, and a point in D ends the
        walk above it, as every multiple of it lies in D.  The walk starts at
        1, not at L's generators, so it is not the filtration builder's walk.
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
        values = [0] * (top + 1)
        bounds = self.denominator.max_exponents()

        def walk(exps, k, degree):
            # exps lies outside D and is zero from position k on
            if self.numerator.member(trusted_monomial(exps)):
                values[degree] += 1
            for i in range(k, len(exps)):
                for e in range(1, min(bounds[i], top - degree + 1)):
                    up = exps[:i] + (e,) + exps[i + 1 :]
                    if self.denominator.member(trusted_monomial(up)):
                        break
                    walk(up, i + 1, degree + e)

        walk((0,) * self.nvars, 0, 0)
        return values

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"
