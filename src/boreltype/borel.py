"""Borel-type (weakly stable) and strongly stable predicates.

A module is of Borel type when its torsion at each single variable x_i agrees
with its torsion at the whole initial segment (x1..xi).  The segment's
saturation is built up one variable at a time, by the identity
J : (x1..xi)^inf = J : (x1..x_{i-1})^inf meet J : x_i^inf.  Three equivalent
characterizations are computed side by side and must agree: the saturation
equalities themselves, the nesting of the single-variable torsion submodules,
and every associated prime being an initial segment.  A disagreement is an
implementation defect, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .decomposition import MonomialPrime, associated_primes, prime_sort_key
from .errors import InternalInconsistencyError, NotBorelTypeError, ZeroModuleError
from .monomial import Monomial, MonomialIdeal
from .subquotient import Subquotient

# Verdicts kept by borel_verdict's memo.  Its hits come from within one
# module's analysis, which asks for the same verdict about seven times (392
# calls for 56 modules in a check-stable round); unbounded, it kept every
# module of a run, and peak memory grew with the number of modules.
VERDICT_MEMO_SIZE = 32


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


@lru_cache(maxsize=VERDICT_MEMO_SIZE)
def borel_verdict(module: Subquotient) -> BorelVerdict:
    """Decide Borel type by all three criteria; raise on any disagreement.

    The torsion at x_i is (J : x_i^inf) meet I, and at (x1..xi) it is
    (J : (x1..xi)^inf) meet I.  A saturation by an ideal is the meet of the
    saturations at its generators, so

        J : (x1..xi)^inf = J : (x1..x_{i-1})^inf  meet  J : x_i^inf,

    and one saturation per variable, folded into a running meet, gives every
    prefix saturation in n - 1 intersections.
    """
    n = module.nvars
    if module.is_zero():
        return BorelVerdict(True, True, True, (), (), (), (), note="zero module")
    num, den = module.numerator, module.denominator
    single = [None]
    prefix = [None]
    running = None  # J : (x1..xi)^inf
    for i in range(1, n + 1):
        sat = den.saturate((i,))
        running = sat if running is None else running.intersect(sat)
        single.append(sat.intersect(num))
        prefix.append(running.intersect(num))
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


def require_borel(module: Subquotient, command: str) -> None:
    """Rungs 1 and 2 of chain.prepare, and the guard of every report that
    needs a Borel-type module, naming the command that refuses."""
    if module.is_zero():
        raise ZeroModuleError(f"{command} is undefined for the zero module")
    if not borel_verdict(module).is_borel:
        raise NotBorelTypeError(
            f"{command} needs a Borel-type module; run 'analyze' for the failing witnesses"
        )


def ideal_is_borel_type(ideal: MonomialIdeal) -> bool:
    """The ideal-level property J : x_j^inf = J : (x1..xj)^inf for every j,
    read off the generators with no saturation, apart from borel_verdict.

    As J : (x1..xj)^inf is the meet of the J : x_i^inf, i <= j, this asks
    J : x_j^inf inside J : x_i^inf for each i < j (the form of Herzog,
    Popescu and Vladoiu, 2003).  Containment is transitive, so the pairs
    i = j - 1 decide every pair: x_{j-1}^t u / x_j^{u_j} must lie in J for
    each minimal generator u, t the largest exponent of x_{j-1} among J's
    generators.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("Borel type is undefined for the zero and unit ideals")
    tops = ideal.max_exponents()
    for u in ideal.exps:
        for j in range(1, ideal.nvars):
            if u[j]:
                moved = list(u)
                moved[j - 1], moved[j] = u[j - 1] + tops[j - 1], 0
                if not ideal._member_exps(tuple(moved)):
                    return False
    return True


def _unstable_pairs(module: Subquotient):
    """Yield (K_i, K_{i-1}) for each i with K_{i-1} not containing K_i, where
    K_i = (J : x_i) meet I: K_i/J is the submodule of M = I/J killed by x_i.
    Containment is transitive, so the consecutive pairs decide every pair."""
    n = module.nvars
    num, den = module.numerator, module.denominator
    killed = [
        den.colon_monomial(Monomial.variable(i, n)).intersect(num)
        for i in range(1, n + 1)
    ]
    for k_j, k_i in zip(killed, killed[1:]):
        if not k_j.contains(k_i):
            yield k_i, k_j


def is_strongly_stable_module(module: Subquotient) -> bool:
    """Whether the annihilator-of-x_i submodules shrink as i grows.

    The submodule of M = I/J killed by x_i is ((J : x_i) meet I)/J, so the
    condition is an ideal containment for every pair j < i; by transitivity,
    for every consecutive pair i - 1 < i.
    """
    return next(_unstable_pairs(module), None) is None


def is_strongly_stable_ideal(ideal: MonomialIdeal) -> bool:
    """Closure of J under the exchange moves x_j * m / x_i, j < i, tested as
    the adjacent move x_{i-1} * u / x_i on each minimal generator u.

    That suffices: the adjacent move of any m = u w in J stays in J, as it
    acts on u when u_i > 0 and on w otherwise, and every move x_j * m / x_i
    is a chain of adjacent moves through monomials of J.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("strong stability is undefined for the zero and unit ideals")
    for u in ideal.exps:
        for i in range(1, ideal.nvars):
            if u[i]:
                moved = list(u)
                moved[i] -= 1
                moved[i - 1] += 1
                if not ideal._member_exps(tuple(moved)):
                    return False
    return True


def truncation_stability_degree(module: Subquotient):
    """Least e whose truncation M_{>=e} is strongly stable, or None when there
    is none.  The degree is computed in closed form, so no truncation is
    scanned and every finite degree is returned, however large.

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
    J is contained in K_j.  So M_{>=e} is strongly stable exactly when e passes
    the degree of every monomial of K_i outside K_j, for all j < i: those
    monomials span (K_i + K_j)/K_j, so each pair with K_j not containing K_i
    needs e = 1 + its top degree, and no e exists when it is not Artinian.
    The consecutive pairs j = i - 1 admit the same degrees e as all pairs:
    if (K_i)_{>=e} lies in K_{i-1}, it lies in (K_{i-1})_{>=e}, hence in
    K_{i-2}, and so on down.  So only those pairs are read.
    """
    e = 0
    for k_i, k_j in _unstable_pairs(module):
        top = Subquotient(k_i.add(k_j), k_j).top_degree()
        if top is None:
            return None
        e = max(e, top + 1)
    if not borel_verdict(module).is_borel:
        raise InternalInconsistencyError(
            f"truncation at degree {e} of {module} is strongly stable "
            "but the module is not of Borel type"
        )
    return e


def torsion_identity_report(module: Subquotient) -> dict:
    """Torsion-support identities that hold for Borel-type modules.

    Checks torsion at x_j against torsion at consecutive products
    x_j x_{j+1} ... x_{j+p}, and torsion at the sample supports against
    torsion at their least variable.  Input must be a nonzero module of
    Borel type.

    The torsion submodule at a monomial u is I meet (J : u^infinity), and
    J : u^infinity only depends on the support of u: a monomial m lies in it
    when some power u^k puts m u^k in J, and u^k and the product of the
    variables of supp(u) divide powers of each other.  So each torsion
    submodule is named by its support tuple and computed once.  The samples
    are the supports of the monomials of degree at most 2: a support {i}
    is its own least index, so only the pairs {i < j} are tested, in the
    order x1*x2, x1*x3, ..., and a failing pair is reported as u = x_i*x_j.
    """
    require_borel(module, "torsion_identity_report")
    n = module.nvars
    by_support: dict[tuple[int, ...], MonomialIdeal] = {}

    def torsion_at(support: tuple[int, ...]) -> MonomialIdeal:
        if support not in by_support:
            by_support[support] = module.torsion_submodule(support)
        return by_support[support]

    report = {
        "consecutive_products": True,
        "support_reduction": True,
        "counterexample": None,
    }
    for j in range(1, n + 1):
        base = torsion_at((j,))
        for p in range(0, n - j + 1):
            if torsion_at(tuple(range(j, j + p + 1))) != base:
                report["consecutive_products"] = False
                report["counterexample"] = {"kind": "product", "j": j, "p": p}
                return report
    for i, j in combinations(range(1, n + 1), 2):
        if torsion_at((i, j)) != torsion_at((i,)):
            report["support_reduction"] = False
            report["counterexample"] = {"kind": "monomial", "u": f"x{i}*x{j}"}
            return report
    return report
