"""Brute-force reference arithmetic and hypothesis strategies for the tests.

Everything in the raw_* family works on plain exponent tuples and never calls
into the package, so it can serve as an independent oracle for membership,
colon, intersection, and saturation results.  The five exceptions are the
ideal-building loops the package's cheaper routes must agree with:
raw_saturate, which saturates by iterating the package's colon and
intersection, never its saturation kernel; raw_borel_verdict, which takes
the single-variable torsion submodules from the package and saturates every
initial segment afresh with raw_saturate; raw_torsion_identity_report,
which calls the package's torsion submodule at the support of every monomial
it tests; raw_trailing_sequence_regular, which certifies a chain step with
the package's colons in the order x_{r+1}, ..., x_n, never its torsion
submodules or reductions; and raw_step_violations, which builds each
filtration step's extension and colon ideals.  raw_stanley_witnesses reads
the ideals of a chain step the package built and walks their exponent
tuples itself, and raw_is_strongly_stable_module reads a module's two
ideals the same way.  raw_ideal_is_borel_type, raw_is_strongly_stable_ideal,
raw_exchange_closure and raw_is_strongly_stable_module compare every pair of
indices, where the package compares consecutive ones.
hilbert_function counts one degree of a module with the package's membership
test; it is the independent check of Subquotient.artinian_hilbert.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from boreltype import Monomial, MonomialIdeal, Subquotient, exchange_closure_ideal
from boreltype.borel import BorelVerdict
from boreltype.decomposition import associated_primes, prime_sort_key


def raw_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def raw_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def raw_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def raw_member(m, gens) -> bool:
    return any(raw_divides(g, m) for g in gens)


def raw_minimalize(gens):
    unique = sorted(set(gens))
    return [
        g
        for g in unique
        if not any(h != g and raw_divides(h, g) for h in unique)
    ]


def tuples_of_degree(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in tuples_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def tuples_up_to(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from tuples_of_degree(nvars, d)


def raw_equal(gens_a, gens_b, nvars: int) -> bool:
    """Ideal equality by exhaustive membership up to the max generator degree.

    Two monomial ideals agree iff membership agrees on every monomial of
    degree up to the larger generator degree (each generator set then lies
    inside the other ideal).
    """
    bound = max((sum(g) for g in list(gens_a) + list(gens_b)), default=0)
    return all(
        raw_member(m, gens_a) == raw_member(m, gens_b)
        for m in tuples_up_to(nvars, bound)
    )


def raw_saturation_member(m, ideal_gens, sat_gens, power: int) -> bool:
    """Whether m lies in the saturation of the ideal at sat_gens, decided by
    checking m times every degree-k product of sat_gens for one k <= power."""
    for k in range(power + 1):
        products = itertools.combinations_with_replacement(sat_gens, k)
        if all(raw_member(raw_mul(m, _prod(p, len(m))), ideal_gens) for p in products):
            return True
    return False


def _prod(monomials, nvars):
    out = (0,) * nvars
    for m in monomials:
        out = raw_mul(out, m)
    return out


def raw_colon(gens, m):
    """Minimal generators of (gens : m)."""
    return raw_minimalize([tuple(max(a, b) - b for a, b in zip(g, m)) for g in gens])


def raw_meet(gens_a, gens_b):
    """Minimal generators of the intersection: the lcms of the pairs."""
    return raw_minimalize([raw_lcm(a, b) for a in gens_a for b in gens_b])


def raw_saturation(gens, sat):
    """Minimal generators of the saturation at the ideal generated by sat: the
    meet over its generators u of the generators with supp(u) zeroed."""
    parts = [
        raw_minimalize([tuple(0 if u[i] else e for i, e in enumerate(g)) for g in gens])
        for u in sat
    ]
    meet = parts[0]
    for part in parts[1:]:
        meet = raw_meet(meet, part)
    return meet


def raw_saturate(ideal: MonomialIdeal, gens) -> MonomialIdeal:
    """The saturation of the ideal at the ideal generated by the exponent
    tuples gens (at least one): J <- meet over g of (J : g), from J = ideal,
    until J stops changing.  It takes colons and meets from the package, and
    never its saturation kernel, which zeroes exponents on a support."""
    colons = [Monomial(g) for g in gens]
    current = ideal
    while True:
        following = functools.reduce(
            MonomialIdeal.intersect, [current.colon_monomial(g) for g in colons]
        )
        if following == current:
            return current
        current = following


def raw_associated_primes(numerator, denominator):
    """Ass(I/J) by witness search: the colons (J : m) generated by variables,
    over every monomial m of the exponent box of I and J in I and outside J.
    Each prime is returned as its sorted tuple of 1-based variable indices."""
    nvars = len(denominator[0])
    gens = list(numerator) + list(denominator)
    bounds = [max(g[i] for g in gens) for i in range(nvars)]
    primes = set()
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        if not raw_member(m, numerator) or raw_member(m, denominator):
            continue
        colon = raw_colon(denominator, m)
        if all(sum(g) == 1 for g in colon):
            primes.add(tuple(sorted(g.index(1) + 1 for g in colon)))
    return primes


def raw_irreducible_components(gens, nvars: int):
    """The irreducible components of a proper nonzero ideal by the corner
    scan: artinianize with marker powers one past each variable's largest
    generator exponent, and read one component off each standard monomial m
    whose variable bumps all land in the ideal or on a marker, with bounds
    m_i + 1 where m stays below the marker.  Each component is returned as
    its sorted tuple of (1-based variable, bound) pairs."""
    caps = [max(g[i] for g in gens) for i in range(nvars)]
    components = set()
    for m in itertools.product(*(range(c + 1) for c in caps)):
        if raw_member(m, gens):
            continue
        if all(
            m[i] == caps[i] or raw_member(m[:i] + (m[i] + 1,) + m[i + 1 :], gens)
            for i in range(nvars)
        ):
            components.add(
                tuple((i + 1, m[i] + 1) for i in range(nvars) if m[i] < caps[i])
            )
    return components


def raw_pure_powers(bounds, nvars: int):
    """The generators of the irreducible ideal (x_i^c : (i, c) in bounds)."""
    return [tuple(c if j == i else 0 for j in range(1, nvars + 1)) for i, c in bounds]


def raw_dimension_filtration(gens, nvars: int, bound: int):
    """The minimal generators of the largest ideal L with dim L/J <= bound:
    the meet of the irreducible components of J (by the corner scan) whose
    radical has quotient dimension above the bound, the unit ideal when
    there are none."""
    meet = [(0,) * nvars]
    for comp in sorted(raw_irreducible_components(gens, nvars)):
        if nvars - len(comp) > bound:
            meet = raw_meet(meet, raw_pure_powers(comp, nvars))
    return meet


def hilbert_function(module: Subquotient, degree: int) -> int:
    """Number of monomials of the given degree in the numerator but not
    the denominator."""
    if degree < 0:
        return 0
    return sum(
        1
        for m in map(Monomial, tuples_of_degree(module.nvars, degree))
        if module.numerator.member(m) and not module.denominator.member(m)
    )


def raw_artinian_hilbert(numerator, denominator, nvars: int, ceiling=None):
    """The Hilbert function of I/J in degrees 0..top by scanning degree after
    degree until it vanishes at or past the largest numerator generator
    degree, past which a zero stays zero.  Returns the refusal message
    instead when nothing vanishes up to the ceiling."""
    bound = max(sum(g) for g in numerator)
    if ceiling is None:
        ceiling = max(10 * max(bound, 1), 40)
    ceiling = max(ceiling, bound)
    values = []
    for d in range(ceiling + 2):
        values.append(
            sum(
                1
                for m in tuples_of_degree(nvars, d)
                if raw_member(m, numerator) and not raw_member(m, denominator)
            )
        )
        if values[-1] == 0 and d >= bound:
            while values[-1] == 0:
                values.pop()
            return values
    return (
        f"Hilbert function does not vanish up to degree {ceiling}; "
        "not Artinian within the ceiling"
    )


def raw_witness(current, target, r: int):
    """The first monomial of the exponent box of current and target, in
    (degree, exponents) order, that lies in target and outside current and
    whose colon in current is exactly (x1, ..., xr); None when there is none."""
    nvars = len(target[0])
    prime = sorted(tuple(int(i == k) for i in range(nvars)) for k in range(r))
    bounds = [max(g[i] for g in current + target) for i in range(nvars)]
    box = itertools.product(*(range(b + 1) for b in bounds))
    for m in sorted(box, key=lambda e: (sum(e), e)):
        if (
            raw_member(m, target)
            and not raw_member(m, current)
            and raw_colon(current, m) == prime
        ):
            return m
    return None


def raw_witnesses(denominator, chain):
    """The witness sequence of the box scan along a chain given as
    (variable index r, target generators) per step.

    Returns (witnesses, stuck): stuck is None, or (r, current, target) at the
    first extension without a witness.
    """
    current = raw_minimalize(denominator)
    witnesses = []
    for r, target in chain:
        target = raw_minimalize(target)
        while current != target:
            m = raw_witness(current, target, r)
            if m is None:
                return witnesses, (r, current, target)
            witnesses.append(m)
            current = raw_minimalize(current + [m])
    return witnesses, None


def raw_rank_fraction(rows) -> int:
    """Rank over Q by Gaussian elimination with Fraction entries."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, nrows):
            if mat[r][col] != 0:
                factor = mat[r][col] / mat[rank][col]
                for c in range(col, ncols):
                    mat[r][c] -= factor * mat[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def raw_upper_koszul_faces(gens, a):
    """The faces of the upper Koszul complex at a, by its definition: every
    subset F of the support of a with a - F in the ideal.  Faces are returned
    as frozensets of 1-based variable indices."""
    support = [i + 1 for i, e in enumerate(a) if e > 0]
    faces = set()
    for k in range(len(support) + 1):
        for subset in itertools.combinations(support, k):
            lowered = tuple(e - (i + 1 in subset) for i, e in enumerate(a))
            if raw_member(lowered, gens):
                faces.add(frozenset(subset))
    return faces


def raw_reduced_homology_ranks(faces, rank):
    """Nonzero reduced homology ranks by dimension of a simplicial complex
    given as a collection of vertex sets, with faces as sorted tuples and
    boundary signs from the position of the dropped vertex; rank computes
    the rank of a list of integer rows."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    if not by_dim:
        return {}
    boundary = {}
    for k in range(max(by_dim) + 1):
        sources, targets = by_dim.get(k, []), by_dim.get(k - 1, [])
        rows = []
        for t in targets:
            row = []
            for face in sources:
                entry = 0
                for j in range(len(face)):
                    if face[:j] + face[j + 1 :] == t:
                        entry = -1 if j % 2 else 1
                row.append(entry)
            rows.append(row)
        boundary[k] = rank(rows) if sources and targets else 0
    out = {}
    for k in range(-1, max(by_dim) + 1):
        h = len(by_dim.get(k, [])) - boundary.get(k + 1, 0) - boundary.get(k, 0)
        if h:
            out[k] = h
    return out


def raw_betti_entries(gens, nvars: int, rank):
    """The sorted Betti table entries of S/I, as (index, multidegree, rank),
    from the raw upper Koszul faces and tuple boundary matrices at every
    point of the lcm box, plus the free rank one at the origin; rank
    computes the rank of a list of integer rows."""
    bounds = [max(g[i] for g in gens) for i in range(nvars)]
    entries = [(0, (0,) * nvars, 1)]
    for a in itertools.product(*(range(b + 1) for b in bounds)):
        ranks = raw_reduced_homology_ranks(raw_upper_koszul_faces(gens, a), rank)
        entries.extend((k + 2, a, h) for k, h in ranks.items())
    return sorted(entries)


def raw_borel_verdict(module: Subquotient) -> BorelVerdict:
    """The Borel verdict with the single-variable torsion submodules from the
    package and each initial segment (x1..xi) saturated afresh by
    raw_saturate, not folded into a running meet of the package's
    saturations.  The associated primes are the package's; no disagreement
    is raised."""
    n = module.nvars
    if module.is_zero():
        return BorelVerdict(True, True, True, (), (), (), (), note="zero module")
    num, den = module.numerator, module.denominator
    single = {i: module.torsion_submodule((i,)) for i in range(1, n + 1)}
    variables = [tuple(int(i == j) for i in range(1, n + 1)) for j in range(1, n + 1)]
    prefix = {
        i: raw_saturate(den, variables[:i]).intersect(num) for i in range(1, n + 1)
    }
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
    return BorelVerdict(
        not sat_failures,
        not pair_failures,
        not prime_failures,
        sat_failures,
        pair_failures,
        prime_failures,
        primes,
    )


def raw_ideal_is_borel_type(gens) -> bool:
    """J : x_j^inf inside J : x_i^inf for every pair i < j, read off the
    generators: x_i^t u / x_j^{u_j} must lie in J for each minimal generator
    u, t the largest exponent of x_i among the generators."""
    gens = raw_minimalize(gens)
    tops = [max(column) for column in zip(*gens)]
    for u in gens:
        for j in range(1, len(u)):
            if not u[j]:
                continue
            for i in range(j):
                moved = list(u)
                moved[i], moved[j] = u[i] + tops[i], 0
                if not raw_member(tuple(moved), gens):
                    return False
    return True


def raw_is_strongly_stable_ideal(gens) -> bool:
    """Every exchange move x_j * u / x_i, j < i, of every minimal generator u
    lies in the ideal."""
    gens = raw_minimalize(gens)
    for u in gens:
        for i, e in enumerate(u):
            if not e:
                continue
            for j in range(i):
                moved = list(u)
                moved[i] -= 1
                moved[j] += 1
                if not raw_member(tuple(moved), gens):
                    return False
    return True


def raw_exchange_closure(seeds) -> set:
    """The closure of a set of exponent tuples under every exchange move
    x_j * u / x_i for j < i in the support of u."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        u = queue.pop()
        for i, e in enumerate(u):
            if e:
                for j in range(i):
                    moved = (*u[:j], u[j] + 1, *u[j + 1 : i], e - 1, *u[i + 1 :])
                    if moved not in seen:
                        seen.add(moved)
                        queue.append(moved)
    return seen


def raw_is_strongly_stable_module(module: Subquotient) -> bool:
    """K_j contains K_i for every pair j < i, K_i = (J : x_i) meet I the
    ideal whose quotient by J is the submodule of I/J killed by x_i.

    J lies in every K_j and J : x_i contains J, so K_i = J + (J : x_i) meet
    I' for I' the generators of I outside J, and K_j contains K_i exactly
    when J : x_j contains (J : x_i) meet I'; the meets stay small where the
    generators of J are many."""
    n = module.nvars
    num, den = gens_of(module.numerator), gens_of(module.denominator)
    outside = [g for g in num if not raw_member(g, den)]
    variables = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    colons = [raw_colon(den, x) for x in variables]
    killed = [raw_meet(colon, outside) for colon in colons]
    return all(
        raw_member(g, colons[j])
        for i in range(n)
        for j in range(i)
        for g in killed[i]
    )


def raw_torsion_identity_report(module: Subquotient) -> dict:
    """The torsion identity report with one torsion submodule computed per
    monomial tested: every consecutive product, then every sample monomial
    of degree at most 2, lexicographically decreasing, where the package's
    report tests only the supports {i < j} in their order."""
    n = module.nvars

    def torsion(exps):
        return module.torsion_submodule(tuple(i for i, e in enumerate(exps, 1) if e))

    def variable(j):
        return tuple(int(i == j) for i in range(1, n + 1))

    report = {
        "consecutive_products": True,
        "support_reduction": True,
        "counterexample": None,
    }
    for j in range(1, n + 1):
        base = torsion(variable(j))
        for p in range(n - j + 1):
            product = tuple(int(j <= i <= j + p) for i in range(1, n + 1))
            if torsion(product) != base:
                report["consecutive_products"] = False
                report["counterexample"] = {"kind": "product", "j": j, "p": p}
                return report
    sample_degree = 2
    for d in range(1, sample_degree + 1):
        # lexicographically decreasing: x1^2, x1*x2, x1*x3, ..., x2^2, ...
        for u in sorted(tuples_of_degree(n, d), reverse=True):
            least = next(i for i, e in enumerate(u, 1) if e)
            if torsion(u) != torsion(variable(least)):
                text = "*".join(
                    f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(u, 1) if e
                )
                report["support_reduction"] = False
                report["counterexample"] = {"kind": "monomial", "u": text}
                return report
    return report


def raw_trailing_sequence_regular(step) -> bool:
    """Whether x_{r+1}, ..., x_n is a regular sequence on the chain step's
    quotient L/D, taken in that order: x_j must be a nonzerodivisor on L/D_j,
    D_j = D + (x_{r+1}..x_{j-1})L, that is (D_j : x_j) meet L must lie in
    D_j."""
    n = step.quotient.nvars
    top, denominator = step.quotient.numerator, step.quotient.denominator
    for j in range(step.variable_index + 1, n + 1):
        x = Monomial(tuple(int(i == j) for i in range(1, n + 1)))
        if not denominator.contains(denominator.colon_monomial(x).intersect(top)):
            return False
        denominator = denominator.add(top.multiply(MonomialIdeal(n, (x,))))
    return True


def raw_stanley_witnesses(step) -> list[tuple[int, ...]]:
    """The witnesses of a certified chain step T/C0 as exponent tuples, in
    the order the filtration builder places them: the tuple-based walk the
    packed one in boreltype.filtration must agree with.

    W, the standard monomials of the step's Artinian reduction, is walked in
    x1..xr from T's generators outside the reduction's denominator; a member
    m of W waits until every m x_i, i <= r, lies in C0 or has its owner (m
    x_i with trailing variables stripped while it stays in T) placed, and
    the waiting ones leave a heap keyed by (degree, exponents)."""
    quotient, reduced, r = step.quotient, step.reduced, step.variable_index
    n = quotient.nvars
    target, start = quotient.numerator.exps, quotient.denominator.exps
    lowered = reduced.denominator.exps

    def owner(e):
        for j in range(r, n):
            while e[j]:
                lower = e[:j] + (e[j] - 1,) + e[j + 1 :]
                if not raw_member(lower, target):
                    break
                e = lower
        return e

    frontier = [e for e in target if not raw_member(e, lowered)]
    waiting = dict.fromkeys(frontier, 0)
    dependents = {}
    while frontier:
        e = frontier.pop()
        for i in range(r):
            up = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if up not in waiting:
                if not raw_member(up, lowered):
                    waiting[up] = 0
                    frontier.append(up)
                elif r == n or raw_member(up, start):
                    continue
                else:
                    up = owner(up)
            waiting[e] += 1
            dependents.setdefault(up, []).append(e)
    ready = [(sum(e), e) for e, count in waiting.items() if not count]
    heapq.heapify(ready)
    order = []
    while ready:
        _, e = heapq.heappop(ready)
        order.append(e)
        for d in dependents.get(e, ()):
            waiting[d] -= 1
            if not waiting[d]:
                heapq.heappush(ready, (sum(d), d))
    return order


def raw_step_violations(previous: MonomialIdeal, step, k: int) -> list[str]:
    """The violations of filtration step k over the previous ideal, from the
    ideals themselves: the extension rebuilt by the ideal constructor, the
    membership test, and the whole colon ideal compared with the prime's."""
    violations = []
    if MonomialIdeal(previous.nvars, previous.gens + (step.witness,)) != step.ideal:
        violations.append(f"step {k}: ideal is not the previous one plus witness")
    if previous.member(step.witness):
        violations.append(f"step {k}: witness already lies in the previous ideal")
    if previous.colon_monomial(step.witness) != step.prime.to_ideal():
        violations.append(f"step {k}: colon is not exactly ({step.prime})")
    return violations


def raw_primes_never_grow(prime_sets) -> bool:
    """The pairwise pretty-clean rule on primes given as variable sets: no
    set strictly contains one that comes before it."""
    sets = [frozenset(p) for p in prime_sets]
    return not any(
        sets[a] < sets[b] for a in range(len(sets)) for b in range(a + 1, len(sets))
    )


def ideal_of(nvars: int, raw_gens) -> MonomialIdeal:
    return MonomialIdeal(nvars, tuple(Monomial(tuple(g)) for g in raw_gens))


def gens_of(ideal: MonomialIdeal):
    return [m.exps for m in ideal.gens]


# hypothesis strategies


def exponent_tuples(nvars: int, max_exp: int = 3):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def nonunit_tuples(nvars: int, max_exp: int = 3):
    return exponent_tuples(nvars, max_exp).filter(lambda t: any(t))


@st.composite
def raw_ideals(draw, nvars: int, max_gens: int = 4, max_exp: int = 3):
    gens = draw(
        st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=max_gens)
    )
    return gens


@st.composite
def monomial_ideals(draw, min_vars: int = 2, max_vars: int = 4, max_exp: int = 3):
    nvars = draw(st.integers(min_vars, max_vars))
    return ideal_of(nvars, draw(raw_ideals(nvars, max_exp=max_exp)))


@st.composite
def modules(draw, min_vars: int = 2, max_vars: int = 4, max_exp: int = 3):
    nvars = draw(st.integers(min_vars, max_vars))
    denominator = ideal_of(nvars, draw(raw_ideals(nvars, max_exp=max_exp)))
    if draw(st.booleans()):
        return Subquotient.cyclic(denominator)
    extras = draw(st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=2))
    numerator = denominator.add(ideal_of(nvars, extras))
    return Subquotient(numerator, denominator)


@st.composite
def x1_recipe_modules(draw, min_vars: int = 3, max_vars: int = 5, max_exp: int = 3):
    """I/J with J = x1 * (exchange closure of one or two monomials) and I = J plus
    one or two monomials: of Borel type whenever nonzero, as Ass(I/J) lies in
    Ass(S/J), and often not sequentially Cohen-Macaulay."""
    nvars = draw(st.integers(min_vars, max_vars))
    seeds = draw(st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=2))
    x1 = MonomialIdeal(nvars, (Monomial((1,) + (0,) * (nvars - 1)),))
    denominator = x1.multiply(exchange_closure_ideal(nvars, map(Monomial, seeds)))
    extras = draw(st.lists(nonunit_tuples(nvars, max_exp), min_size=1, max_size=2))
    return Subquotient(denominator.add(ideal_of(nvars, extras)), denominator)
