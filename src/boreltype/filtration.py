"""Prime filtrations of Borel-type modules with non-increasing primes.

The builder walks the sequential chain from the bottom; inside chain step ell
every appended cyclic factor is S modulo the initial-segment prime
(x1..x_{n_ell}).  Witnesses are monomials m with (current : m) equal to that
prime exactly, searched in a bounded exponent box smallest-degree-first.  The
resulting filtration has non-increasing primes, hence is pretty clean, and its
per-step counts match the vector-space dimensions of the reduced chain
quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .borel import borel_verdict
from .chain import SequentialChain, build_chain, reduced_hilbert
from .decomposition import (
    MonomialPrime,
    associated_primes,
    minimal_primes,
    prime_sort_key,
)
from .errors import NotBorelTypeError, WitnessExhaustionError, ZeroModuleError
from .monomial import Monomial, MonomialIdeal, box_monomials
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
    """Build a prime filtration with non-increasing primes for a Borel module.

    Raises WitnessExhaustionError when no monomial in the search box has the
    required colon; for Borel-type input that cannot happen, so it is treated
    as a defect signal by the orchestrator.
    """
    if module.is_zero():
        raise ZeroModuleError("the zero module has no prime filtration")
    if not borel_verdict(module).is_borel:
        raise NotBorelTypeError(f"{module} is not of Borel type")
    chain = build_chain(module)
    n = module.nvars
    steps: list[FiltrationStep] = []
    current = module.denominator
    for step in chain.steps:
        prime = MonomialPrime(n, tuple(range(1, step.variable_index + 1)))
        prime_ideal = prime.to_ideal()
        target = step.ideal
        while current != target:
            bounds = tuple(
                max(a, b)
                for a, b in zip(target.max_exponents(), current.max_exponents())
            )
            witness = None
            for m in box_monomials(bounds):
                if not target.member(m) or current.member(m):
                    continue
                if current.colon_monomial(m) == prime_ideal:
                    witness = m
                    break
            if witness is None:
                raise WitnessExhaustionError(
                    f"no witness with colon ({prime}) while extending {current} "
                    f"toward {target}"
                )
            current = current.add(MonomialIdeal.principal(witness))
            steps.append(FiltrationStep(current, witness, prime))
    return PrimeFiltration(module, tuple(steps))


def verify_filtration(filtration: PrimeFiltration) -> dict:
    """Check a prime filtration independently of how it was built.

    Verifies each step is generated by its witness with the stated colon,
    that the primes are non-increasing (pretty clean), that the support
    equals the associated primes, and whether the filtration is clean
    (support equal to the minimal primes).
    """
    module = filtration.base
    violations = []
    previous = module.denominator
    for k, step in enumerate(filtration.steps, 1):
        if previous.add(MonomialIdeal.principal(step.witness)) != step.ideal:
            violations.append(f"step {k}: ideal is not the previous one plus witness")
        if previous.member(step.witness):
            violations.append(f"step {k}: witness already lies in the previous ideal")
        if previous.colon_monomial(step.witness) != step.prime.to_ideal():
            violations.append(f"step {k}: colon is not exactly ({step.prime})")
        previous = step.ideal
    if previous != module.numerator:
        violations.append("filtration does not end at the whole module")
    primes = [s.prime for s in filtration.steps]
    pretty = True
    for a in range(len(primes)):
        for b in range(a + 1, len(primes)):
            if primes[b].contains(primes[a]) and primes[a] != primes[b]:
                pretty = False
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
    the vector-space dimension of the reduced chain quotient."""
    entries = []
    for step, values in zip(chain.steps, reduced_hilbert(chain, ceiling)):
        prime = MonomialPrime(
            chain.base.nvars, tuple(range(1, step.variable_index + 1))
        )
        count = sum(1 for s in filtration.steps if s.prime == prime)
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
