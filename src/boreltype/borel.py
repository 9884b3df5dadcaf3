"""Borel-type (weakly stable) and strongly stable predicates.

A module is of Borel type when its torsion at each single variable x_i agrees
with its torsion at the whole initial segment (x1..xi).  Three equivalent
characterizations are computed side by side and must agree: the saturation
equalities themselves, the nesting of the single-variable torsion submodules,
and every associated prime being an initial segment.  A disagreement is an
implementation defect, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .decomposition import MonomialPrime, associated_primes, prime_sort_key
from .errors import InternalInconsistencyError, NotBorelTypeError
from .monomial import Monomial, MonomialIdeal, monomials_of_degree
from .subquotient import Subquotient

# largest degree of the sample monomials u in torsion_identity_report
TORSION_SAMPLE_DEGREE = 2


@dataclass(frozen=True)
class BorelVerdict:
    """Outcome of the three Borel-type criteria, with failure witnesses."""

    by_saturation: bool
    by_pairwise: bool
    by_associated_primes: bool
    saturation_failures: tuple[int, ...]
    pairwise_failures: tuple[tuple[int, int], ...]
    prime_failures: tuple[MonomialPrime, ...]
    primes: tuple[MonomialPrime, ...]
    note: str = ""

    @property
    def is_borel(self) -> bool:
        return self.by_saturation

    def to_json(self) -> dict:
        return {
            "borel_type": self.is_borel,
            "criteria": {
                "saturation": self.by_saturation,
                "pairwise_torsion": self.by_pairwise,
                "associated_primes": self.by_associated_primes,
            },
            "associated_primes": [str(p) for p in self.primes],
            "witnesses": {
                "saturation_indices": list(self.saturation_failures),
                "pairwise_index_pairs": [list(p) for p in self.pairwise_failures],
                "non_initial_primes": [str(p) for p in self.prime_failures],
            },
            "note": self.note,
        }


@lru_cache(maxsize=None)
def borel_verdict(module: Subquotient) -> BorelVerdict:
    """Decide Borel type by all three criteria; raise on any disagreement."""
    n = module.nvars
    if module.is_zero():
        return BorelVerdict(True, True, True, (), (), (), (), note="zero module")
    single = [None]
    prefix = [None]
    for i in range(1, n + 1):
        single.append(
            module.torsion_submodule(MonomialIdeal.principal(Monomial.variable(i, n)))
        )
        prefix.append(module.torsion_submodule(MonomialIdeal.prefix(n, i)))
    sat_failures = tuple(i for i in range(1, n + 1) if single[i] != prefix[i])
    pair_failures = tuple(
        (j, i)
        for i in range(2, n + 1)
        for j in range(1, i)
        if not single[j].contains(single[i])
    )
    primes = associated_primes(module)
    prime_failures = tuple(
        sorted((p for p in primes if not p.is_initial_segment()), key=prime_sort_key)
    )
    by_sat = not sat_failures
    by_pair = not pair_failures
    by_ass = not prime_failures
    if not (by_sat == by_pair == by_ass):
        raise InternalInconsistencyError(
            "Borel-type criteria disagree on "
            f"{module}: saturation={by_sat} pairwise={by_pair} primes={by_ass}"
        )
    return BorelVerdict(
        by_sat, by_pair, by_ass, sat_failures, pair_failures, prime_failures, primes
    )


def ideal_is_borel_type(ideal: MonomialIdeal) -> bool:
    """The ideal-level property: saturating at x_j equals saturating at the
    initial segment (x1..xj), for every j."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("Borel type is undefined for the zero and unit ideals")
    n = ideal.nvars
    for j in range(1, n + 1):
        at_var = ideal.saturate(MonomialIdeal.principal(Monomial.variable(j, n)))
        at_prefix = ideal.saturate(MonomialIdeal.prefix(n, j))
        if at_var != at_prefix:
            return False
    return True


def _killed_by_variables(module: Subquotient) -> list[MonomialIdeal]:
    """K_i = (J : x_i) meet I for i = 1..n (index 0 unused): K_i/J is the
    submodule of M = I/J killed by x_i."""
    n = module.nvars
    num, den = module.numerator, module.denominator
    return [None] + [
        den.colon_monomial(Monomial.variable(i, n)).intersect(num)
        for i in range(1, n + 1)
    ]


def _truncation_is_stable(killed: list[MonomialIdeal], e: int) -> bool:
    """Whether M_{>=e} is strongly stable, given K_i from _killed_by_variables.

    Every monomial of degree >= e in K_i must lie in K_j for all j < i.  Those
    monomials are generated by g*w, g a minimal generator of K_i and w any
    monomial of degree max(0, e - deg g).
    """
    n = len(killed) - 1
    for i in range(2, n + 1):
        for g in killed[i].gens:
            shifts = monomials_of_degree(n, max(0, e - g.degree))
            for j in range(1, i):
                if killed[j].member(g):
                    continue
                if not all(killed[j].member(g.mul(w)) for w in shifts):
                    return False
    return True


def is_strongly_stable_module(module: Subquotient) -> bool:
    """Whether the annihilator-of-x_i submodules shrink as i grows.

    The submodule of M = I/J killed by x_i is ((J : x_i) meet I)/J, so the
    condition is an ideal containment for every pair j < i: the truncation
    test at degree 0.
    """
    return _truncation_is_stable(_killed_by_variables(module), 0)


def is_strongly_stable_ideal(ideal: MonomialIdeal) -> bool:
    """Closure of the generators under the exchange moves x_j * u / x_i, j < i."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("strong stability is undefined for the zero and unit ideals")
    n = ideal.nvars
    for u in ideal.gens:
        for i in u.support():
            for j in range(1, i):
                moved = u.div(Monomial.variable(i, n)).mul(Monomial.variable(j, n))
                if not ideal.member(moved):
                    return False
    return True


def truncation_stability_degree(module: Subquotient, e_max=None):
    """Least e <= e_max whose truncation M_{>=e} is strongly stable, or None.

    A strongly stable truncation forces the module itself to be of Borel type;
    finding one for a non-Borel module is an implementation defect and raises.

    No truncated module is built.  M_{>=e} = (I_{>=e} + J)/J, and its
    submodule killed by x_i is ((J : x_i) meet (I_{>=e} + J))/J.  Monomial
    ideals form a distributive lattice and J lies in J : x_i, so with
    K_i = (J : x_i) meet I

        (J : x_i) meet (I_{>=e} + J) = ((J : x_i) meet I)_{>=e} + J = (K_i)_{>=e} + J.

    The containment (K_j)_{>=e} + J >= (K_i)_{>=e} + J only has to be tested on
    the monomials of (K_i)_{>=e}, which all have degree >= e; a monomial of
    degree >= e lies in (K_j)_{>=e} + J exactly when it lies in K_j, because
    J is contained in K_j.  So J drops out, and the test at every degree reads
    the ideals K_i computed once per module.
    """
    if e_max is None:
        e_max = (
            max(
                module.numerator.max_gen_degree(),
                module.denominator.max_gen_degree(),
            )
            + module.nvars
        )
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    killed = _killed_by_variables(module)
    for e in range(e_max + 1):
        if _truncation_is_stable(killed, e):
            if not borel_verdict(module).is_borel:
                raise InternalInconsistencyError(
                    f"truncation at degree {e} of {module} is strongly stable "
                    "but the module is not of Borel type"
                )
            return e
    return None


def torsion_identity_report(module: Subquotient) -> dict:
    """Torsion-support identities that hold for Borel-type modules.

    Checks torsion at x_j against torsion at consecutive products
    x_j x_{j+1} ... x_{j+p}, and torsion at sample monomials u against torsion
    at the least variable of their support.  Input must be of Borel type.
    """
    if not borel_verdict(module).is_borel:
        raise NotBorelTypeError(f"{module} is not of Borel type")
    n = module.nvars
    report = {
        "consecutive_products": True,
        "support_reduction": True,
        "counterexample": None,
    }
    for j in range(1, n + 1):
        base = module.torsion_submodule(
            MonomialIdeal.principal(Monomial.variable(j, n))
        )
        for p in range(0, n - j + 1):
            exps = [0] * n
            for t in range(j, j + p + 1):
                exps[t - 1] = 1
            prod = Monomial(tuple(exps))
            if module.torsion_submodule(MonomialIdeal.principal(prod)) != base:
                report["consecutive_products"] = False
                report["counterexample"] = {"kind": "product", "j": j, "p": p}
                return report
    for d in range(1, TORSION_SAMPLE_DEGREE + 1):
        for u in monomials_of_degree(n, d):
            if u.is_unit():
                continue
            _, least = u.radical_and_min_support()
            lhs = module.torsion_submodule(MonomialIdeal.principal(u))
            rhs = module.torsion_submodule(
                MonomialIdeal.principal(Monomial.variable(least, n))
            )
            if lhs != rhs:
                report["support_reduction"] = False
                report["counterexample"] = {"kind": "monomial", "u": str(u)}
                return report
    return report
