"""Prime filtrations of Borel-type modules with non-increasing primes.

The builder walks the sequential chain from the bottom.  In chain step r, with
prime P = (x1..xr), start C0 and target T, each appended factor is S/P, so a
witness m in T outside current needs (current : m) = P.  The witness taken is
always the least one in (degree, exponents) order.

When x_{r+1}, ..., x_n is a regular sequence on T/C0 (the step's certificate
in chain.sequential_cm_report), T/C0 is Cohen-Macaulay and its Stanley spaces
w K[x_{r+1}..x_n] partition T minus C0, w running over the standard monomials
W of the reduced quotient T/(C0 + (x_{r+1}, ..., x_n)T): a filtration by S/P
factors is a Stanley decomposition (Herzog-Popescu).  The owner of a monomial
u in T outside C0 is the w whose space holds u: u with trailing variables
stripped while the result stays in T.  By induction current minus C0 is the
union of the spaces of the witnesses placed so far, so m in W is a witness
exactly when, for each i <= r, m x_i lies in C0 or its owner is placed.  A
witness w v with v a nonunit in the trailing variables is never the least:
w x_i and w v x_i share their owner, or lie in C0 together, so w qualifies
whenever w v does.  So W is enumerated once and the witnesses come off a heap
of the qualifying ones, with no colon or intersection per witness.

Placing a witness w needs no pass over the current generators: as (current :
w) = P = (x1..xr), a generator g of current that w divides has g/w in P, so
some w x_i, i <= r, lies in current and divides g, and minimality makes g =
w x_i.  The generators of current + (w) are therefore w and those of current
other than the w x_i, i <= r: the builder drops those from its set of live
generators, adds w, and sorts, with nothing minimalized again.  The walk and
the placements run on exponent tuples packed into one int each
(monomial._ExponentWords), so a divisibility test is three int operations
and a witness's tuple is its parent's with one exponent raised.  Two checks
still see every placement: the builder's own current == target at the end of
each chain step, where the target comes from the torsion submodules by
another route, and verify_filtration, which re-derives each step from
generator exponents in its own pass, on words it packs itself.

Every step of a chain that passes chain.require_sequentially_cm has the
certificate, and a step without it has no filtration by S/P factors: such a
filtration would make x_{r+1}, ..., x_n a regular sequence on T/C0, since it
is one on S/P and a sequence regular on both ends of a short exact sequence is
regular on its middle; T/C0 would then have depth at least its dimension
n - r, so it would be Cohen-Macaulay.  As the chain of a Borel-type module is
its dimension filtration, a failed step marks a module that is not
sequentially Cohen-Macaulay, and such a module has no pretty clean filtration
at all (Herzog-Popescu), so the builder refuses it before seeking a witness.
The filtration is pretty clean, and its per-step counts match the dimensions
of the reduced chain quotients.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .borel import require_borel
from .chain import (
    ChainStep,
    SequentialChain,
    build_chain,
    reduced_hilbert,
    require_sequentially_cm,
)
from .decomposition import (
    MonomialPrime,
    associated_primes,
    minimal_primes,
    prime_sort_key,
)
from .errors import DimensionMismatchError, InternalInconsistencyError
from .monomial import (
    Monomial,
    MonomialIdeal,
    _ExponentWords,
    _trusted_ideal,
    trusted_monomial,
)
from .subquotient import Subquotient


@dataclass(frozen=True)
class FiltrationStep:
    ideal: MonomialIdeal
    witness: Monomial
    prime: MonomialPrime


@dataclass(frozen=True)
class PrimeFiltration:
    base: Subquotient
    steps: tuple[FiltrationStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def support(self) -> tuple[MonomialPrime, ...]:
        return tuple(sorted({s.prime for s in self.steps}, key=prime_sort_key))


def pretty_clean_filtration(module: Subquotient) -> PrimeFiltration:
    """Build a prime filtration with non-increasing primes for a sequentially
    Cohen-Macaulay Borel-type module.

    Each witness is the least, by (degree, exponents), of the monomials in
    the step's target outside current whose colon is exactly the step prime,
    read off the Stanley spaces (_stanley_witnesses) of the chain step's
    quotient and reduction.  The builder packs its exponent tuples into
    words (monomial._ExponentWords), sized for every generator of the
    chain's quotients and reductions.  A witness w with (current : w) =
    (x1..xr) divides only those generators of current that are among the
    w x_i, i <= r, so each placement drops those words from the live set of
    current's generators and adds w, and the sorted set is already the
    minimal generators of current + (w).  The placements are checked by
    current == target at the end of each chain step, and again by
    verify_filtration's own pass.  A module that is not sequentially
    Cohen-Macaulay is refused (NotSequentiallyCMError), as it has no such
    filtration; a step whose witnesses do not reach its target is an
    implementation defect (InternalInconsistencyError).
    """
    require_borel(module, "filtration")
    chain = build_chain(module)
    require_sequentially_cm(chain, "filtration")
    n = module.nvars
    current = module.denominator
    read = [current]
    for step in chain.steps:
        read += step.quotient.numerator, step.quotient.denominator, step.reduced.denominator
    words = _ExponentWords(n, _largest_exponent(read))
    live = set(map(words.pack, current.exps))
    unpack, tuples = words.unpack, words.tuples
    steps: list[FiltrationStep] = []
    for k, step in enumerate(chain.steps, 1):
        prime = step.prime
        lead = words.units[: step.variable_index]
        for w in _stanley_witnesses(step, words):
            live.difference_update([w + unit for unit in lead])
            live.add(w)
            current = _trusted_ideal(n, unpack(sorted(live)))
            steps.append(FiltrationStep(current, trusted_monomial(tuples[w]), prime))
        if current != step.ideal:
            raise InternalInconsistencyError(
                f"the witnesses of chain step {k} extend to {current}, "
                f"not to {step.ideal}"
            )
    return PrimeFiltration(module, tuple(steps))


def _largest_exponent(ideals) -> int:
    return max((max(e) for ideal in ideals for e in ideal.exps), default=0)


def _stanley_witnesses(step: ChainStep, words: _ExponentWords) -> list[int]:
    """The witnesses of a certified chain step T/C0 as words, in the order
    they are placed: W, the standard monomials of the step's reduction,
    popped from a heap keyed by (degree, word) once every m x_i, i <= r,
    lies in C0 or has its owner placed.  Word order is exponent order, and
    each member of W enters words.tuples with its tuple.

    Each w in W is g u for a generator g of T and u in K[x1..xr] (a trailing
    variable of w/g could be stripped), and each monomial between g and w is
    in W too, so W is the walk in x1..xr from T's generators outside the
    reduced quotient's denominator.  Each new member of W takes its tuple and
    degree from the member it was reached from.  The walk is finite exactly
    when the reduced quotient is Artinian, which is tested first; then each
    m in W has m_i below the largest exponent of x_i in that denominator, so
    no m x_i has an exponent the words were not sized for.
    """
    quotient, reduced, r = step.quotient, step.reduced, step.variable_index
    n = quotient.nvars
    if not reduced.is_artinian():
        raise InternalInconsistencyError(
            f"the reduced quotient {reduced} of a certified chain step at "
            f"x{r} is not Artinian"
        )
    pack, member, tuples = words.pack, words.member, words.tuples
    target = list(map(pack, quotient.numerator.exps))
    start = list(map(pack, quotient.denominator.exps))
    lowered = list(map(pack, reduced.denominator.exps))
    trailing = tuple(zip(words.units, words.fields))[r:]

    def owner(e):
        # a divisor of a monomial outside T is outside T, so one pass over
        # the trailing variables strips each as far as it goes
        for unit, field in trailing:
            while e & field:
                lower = e - unit
                if not member(lower, target):
                    break
                e = lower
        return e

    frontier = [e for e in target if not member(e, lowered)]
    degree = {e: sum(tuples[e]) for e in frontier}
    waiting = dict.fromkeys(frontier, 0)  # W, with each one's unplaced owners
    dependents = defaultdict(list)
    lead = tuple(enumerate(words.units[:r]))
    while frontier:
        e = frontier.pop()
        for i, unit in lead:
            up = e + unit
            if up not in waiting:
                if not member(up, lowered):
                    waiting[up] = 0
                    t = tuples[e]
                    tuples[up] = t[:i] + (t[i] + 1,) + t[i + 1 :]
                    degree[up] = degree[e] + 1
                    frontier.append(up)
                elif r == n or member(up, start):  # for r = n, lowered is C0
                    continue
                else:
                    up = owner(up)
            waiting[e] += 1
            dependents[up].append(e)
    ready = [(degree[e], e) for e, count in waiting.items() if not count]
    heapify(ready)
    order = []
    while ready:
        _, e = heappop(ready)
        order.append(e)
        for d in dependents[e]:
            waiting[d] -= 1
            if not waiting[d]:
                heappush(ready, (degree[d], d))
    return order


def primes_never_grow(primes) -> bool:
    """Whether no prime in the sequence strictly contains an earlier one.

    A prime p is followed somewhere by a strictly larger q exactly when p
    first occurs before q last occurs, so only the distinct primes with their
    first and last positions are compared: linear in the sequence's length.
    """
    first: dict[MonomialPrime, int] = {}
    last: dict[MonomialPrime, int] = {}
    for k, prime in enumerate(primes):
        first.setdefault(prime, k)
        last[prime] = k
    return not any(
        first[p] < last[q] and p != q and q.contains(p) for p in first for q in first
    )


def verify_filtration(filtration: PrimeFiltration) -> dict:
    """Check a prime filtration independently of how it was built.

    Verifies each step is generated by its witness with the stated colon,
    that the primes are non-increasing (pretty clean), that the support
    equals the associated primes, and whether the filtration is clean
    (support equal to the minimal primes).

    Each step is decided in one pass over the generators g of the previous
    ideal, reading E(g) = {j : g_j > w_j} for the witness w, with no colon
    or ideal built.  The colon (previous : w) is generated by the monomials
    with exponents max(g_j - w_j, 0), whose support is E(g); so it lies in
    the prime P exactly when every E(g) meets P, and it contains x_i exactly
    when some E(g) is {i} with g_i = w_i + 1, or is empty.  w lies in the
    previous ideal exactly when some E(g) is empty.  Otherwise the minimal
    generators of previous + (w) are w and the g that w does not divide,
    sorted; if w lies in previous, previous + (w) is previous itself.

    The pass runs on its own words (monomial._ExponentWords), never the
    builder's: E(g) is the guard bits of ~((w | guards) - g), P is a mask
    of guard bits, and the extension is sorted as words and unpacked.  When
    a step's ideal is that extension, the extension's words are the next
    step's previous ideal; otherwise the step's ideal is packed afresh, with
    wider fields if one of its exponents needs them.
    """
    module = filtration.base
    violations = []
    previous = module.denominator
    n = previous.nvars
    witnesses = [s.witness.exps for s in filtration.steps]
    largest = _largest_exponent((module.numerator, previous))
    words = _ExponentWords(n, max(largest, max(map(max, witnesses), default=0)))
    pack, guards, shift, units = words.pack, words.guards, words.guard_shift, words.units
    gens = list(map(pack, previous.exps))
    for k, (step, witness) in enumerate(zip(filtration.steps, witnesses), 1):
        if len(witness) != n:
            raise DimensionMismatchError(
                f"generator over {len(witness)} variables in a {n}-variable ideal"
            )
        w = pack(witness)
        raised = w | guards
        colon_in_prime = step.prime.nvars == n
        prime = 0  # the guard bits of the prime's variables
        if colon_in_prime:
            for v in step.prime.variables:
                prime |= units[v - 1]
            prime <<= shift
        inside = False  # whether w lies in previous
        bumped = 0  # the guard bits of the x_i that generate (previous : w)
        extension = [w]
        for g in gens:
            above = ~(raised - g) & guards
            if not above & prime:
                colon_in_prime = False
                if not above:
                    inside = True
            elif not above & (above - 1):
                # E(g) = {i}: g divides w x_i exactly when g_i = w_i + 1
                if (((w + (above >> shift)) | guards) - g) & guards == guards:
                    bumped |= above
            if ((g | guards) - w) & guards != guards:
                extension.append(g)
        if inside:
            extension, expected = gens, previous.exps
        else:
            extension.sort()
            expected = words.unpack(extension)
        previous = step.ideal
        carried = previous.exps == expected
        if not carried:
            violations.append(f"step {k}: ideal is not the previous one plus witness")
        if inside:
            violations.append(f"step {k}: witness already lies in the previous ideal")
        if not colon_in_prime or prime & ~bumped:
            violations.append(f"step {k}: colon is not exactly ({step.prime})")
        if carried and previous.nvars == n:
            gens = extension
        else:
            n = previous.nvars
            largest = _largest_exponent((previous,))
            if n != len(words.units) or largest > words.largest:
                words = _ExponentWords(n, max(largest, words.largest))
                pack, guards, shift, units = words.pack, words.guards, words.guard_shift, words.units
            gens = list(map(pack, previous.exps))
    if previous != module.numerator:
        violations.append("filtration does not end at the whole module")
    pretty = primes_never_grow([s.prime for s in filtration.steps])
    support = filtration.support()
    ass = associated_primes(module) if not module.is_zero() else ()
    minimal = minimal_primes(ass)
    return {
        "steps_ok": not violations,
        "violations": violations,
        "pretty_clean": pretty and not violations,
        "support": [str(p) for p in support],
        "associated_primes": [str(p) for p in ass],
        "support_equals_ass": support == ass,
        "minimal_primes": [str(p) for p in minimal],
        "clean": support == minimal,
        "length": len(filtration.steps),
    }


def filtration_length_report(
    filtration: PrimeFiltration, chain: SequentialChain, ceiling=None
) -> dict:
    """Per chain step, the number of filtration factors at its prime must be
    the vector-space dimension of the reduced chain quotient.

    The dimensions come from reduced_hilbert, which counts the monomials of
    each reduced quotient L/D by x_n-columns over the box of D's largest
    exponents (Subquotient.artinian_hilbert).  That count starts at 1 and
    reads each column's ends off the generators of L and D, while the
    builder walks up from the target's generators with its own Stanley-space
    bookkeeping, so the report stays an independent check of the builder.
    The factors at each prime are counted in one pass over the steps."""
    factors = Counter(s.prime for s in filtration.steps)
    entries = []
    for step, values in zip(chain.steps, reduced_hilbert(chain, ceiling)):
        prime = step.prime
        count = factors[prime]
        dimension = sum(values)
        entries.append(
            {
                "variable_index": step.variable_index,
                "prime": str(prime),
                "factors": count,
                "reduced_quotient_dimension": dimension,
                "equal": count == dimension,
            }
        )
    total_ok = len(filtration.steps) == sum(e["reduced_quotient_dimension"] for e in entries)
    return {
        "entries": entries,
        "total_length": len(filtration.steps),
        "ok": all(e["equal"] for e in entries) and total_ok,
    }
