"""The sequential chain of a torsion monomial subquotient.

The chain climbs from 0 to M: at each step take the largest variable index
whose torsion in the remaining quotient is nonzero, then cut at the torsion of
the whole module at that variable.  For Borel-type modules the chain is the
dimension filtration; its successive quotients become Artinian after reducing
by the trailing variables, which is what the regularity formula consumes.

Every reader of the chain's numbers refuses in one order: prepare refuses the
zero module, a non-Borel module, a failed construction and a reduced top
degree past the ceiling (the filtration builder, which takes no ceiling, uses
require_borel and build_chain); then require_sequentially_cm refuses a module
that is not sequentially Cohen-Macaulay, on which those numbers do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .borel import require_borel
from .decomposition import dimension_filtration, krull_dim
from .errors import (
    InternalInconsistencyError,
    NotBorelTypeError,
    NotSequentiallyCMError,
    ZeroModuleError,
)
from .monomial import Monomial, MonomialIdeal
from .subquotient import Subquotient

# Entries kept by each of the chain memos (build_chain, chain_quotients,
# reduced_hilbert, sequential_cm_report).  Their hits come from within
# one module's analysis, where check and the chain readers ask again for the
# same chain and its reports; unbounded, they kept every module of a run, and
# peak memory grew with the number of modules.
CHAIN_MEMO_SIZE = 32


@dataclass(frozen=True)
class ChainStep:
    variable_index: int
    ideal: MonomialIdeal


@dataclass(frozen=True)
class SequentialChain:
    base: Subquotient
    steps: tuple[ChainStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def ideals(self) -> list[MonomialIdeal]:
        return [s.ideal for s in self.steps]

    def indices(self) -> list[int]:
        return [s.variable_index for s in self.steps]


def _variable_torsion(module: Subquotient, i: int) -> MonomialIdeal:
    return module.torsion_submodule(
        MonomialIdeal.principal(Monomial.variable(i, module.nvars))
    )


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def build_chain(module: Subquotient) -> SequentialChain:
    """Construct the sequential chain, guarding against non-Borel inputs.

    Precondition: the module is nonzero and is exhausted by its x1-torsion.
    The variable indices must strictly decrease and the chain ideals strictly
    grow; a violation means the chain is undefined for this module, which is
    reported as a Borel-type failure.  These guards stay beside
    require_borel: prepare calls them only after the verdict said Borel, so
    there they report a defect.
    """
    if module.is_zero():
        raise ZeroModuleError("the zero module has no sequential chain")
    n = module.nvars
    num = module.numerator
    if _variable_torsion(module, 1) != num:
        raise NotBorelTypeError(
            f"x1-torsion does not exhaust {module}; the chain is undefined"
        )
    steps: list[ChainStep] = []
    current = module.denominator
    previous_index = n + 1
    while current != num:
        remaining = Subquotient(num, current)
        index = None
        for j in range(n, 0, -1):
            if _variable_torsion(remaining, j) != current:
                index = j
                break
        if index is None:
            raise InternalInconsistencyError(
                f"nonzero torsion quotient {remaining} has no torsion at any variable"
            )
        if index >= previous_index:
            raise NotBorelTypeError(
                f"chain index failed to decrease at x{index}; {module} is not "
                "of Borel type"
            )
        lifted = _variable_torsion(module, index)
        if not lifted.contains(current) or lifted == current:
            raise NotBorelTypeError(
                f"chain ideal at x{index} does not strictly extend the previous "
                f"one; {module} is not of Borel type"
            )
        steps.append(ChainStep(index, lifted))
        current = lifted
        previous_index = index
    if not steps:
        raise AssertionError("unreachable: nonzero module produced an empty chain")
    return SequentialChain(module, tuple(steps))


def prepare(module: Subquotient, command: str, ceiling) -> SequentialChain:
    """The chain behind the one refusal ladder of its readers: require_borel,
    then a failed construction (a defect once the verdict says Borel), then a
    reduced top degree past the ceiling (NotArtinianError)."""
    require_borel(module, command)
    try:
        chain = build_chain(module)
    except Exception as exc:  # the verdict said Borel; any failure is a defect
        raise InternalInconsistencyError(
            f"chain construction failed on a Borel-type module: {exc}"
        ) from exc
    reduced_hilbert(chain, ceiling)
    return chain


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def chain_quotients(chain: SequentialChain) -> tuple[tuple[Subquotient, ...], ...]:
    """Per step: the quotient Q = L_step/L_prev and its Artinian reduction,
    built here only.  Memoized like build_chain, since reduced_hilbert,
    sequential_cm_report and the filtration builder read them for one chain."""
    out = []
    prev = chain.base.denominator
    for step in chain.steps:
        quotient = Subquotient(step.ideal, prev)
        out.append((quotient, quotient.artinian_reduction(step.variable_index)))
        prev = step.ideal
    return tuple(out)


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def reduced_hilbert(
    chain: SequentialChain, ceiling=None
) -> tuple[tuple[int, ...], ...]:
    """Per step: the Hilbert function of the reduced chain quotient in degrees
    0..top, top being its last nonvanishing degree.

    Memoized like build_chain, since regularity and the filtration length
    report both read it for the same chain; tuples keep the shared value
    immutable.
    """
    return tuple(
        tuple(reduced.artinian_hilbert(ceiling))
        for _, reduced in chain_quotients(chain)
    )


def _trailing_sequence_regular(quotient: Subquotient, r: int) -> bool:
    """Whether x_{r+1}, ..., x_n is a regular sequence on the step quotient L/D.

    Checks each variable in turn for being a nonzerodivisor on the quotient by
    the previously consumed ones: x is a nonzerodivisor on L/D exactly when
    (D : x) meet L sits inside D.
    """
    n = quotient.nvars
    top, denominator = quotient.numerator, quotient.denominator
    for j in range(r + 1, n + 1):
        x = Monomial.variable(j, n)
        if not denominator.contains(denominator.colon_monomial(x).intersect(top)):
            return False
        denominator = denominator.add(MonomialIdeal.principal(x).multiply(top))
    return True


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def sequential_cm_report(chain: SequentialChain) -> dict:
    """Dimensions of the chain quotients and the regular-sequence verdicts.

    On a Borel-type module a failed regular sequence flags a module that is
    not sequentially Cohen-Macaulay; any other failed assertion flags an
    implementation defect.  Memoized like reduced_hilbert, since the check
    report and every chain reader's require_sequentially_cm read it for the
    same chain; callers must not mutate the shared report.
    """
    n = chain.base.nvars
    quotients = [quotient for quotient, _ in chain_quotients(chain)]
    dims = [krull_dim(quotient) for quotient in quotients]
    expected = [n - s.variable_index for s in chain.steps]
    regular = [
        _trailing_sequence_regular(quotient, step.variable_index)
        for quotient, step in zip(quotients, chain.steps)
    ]
    increasing = all(a < b for a, b in zip(dims, dims[1:]))
    return {
        "quotient_dims": dims,
        "expected_dims": expected,
        "dims_match": dims == expected,
        "dims_strictly_increase": increasing,
        "regular_sequences": regular,
        "dim": dims[-1],
        "depth": dims[0],
        "ok": dims == expected and increasing and all(regular),
    }


def require_sequentially_cm(chain: SequentialChain, command: str) -> None:
    """The rung after prepare for every reader of the chain's numbers.

    Regularity, depth and a pretty clean filtration read off the chain hold
    only for a sequentially Cohen-Macaulay module, as a pretty clean
    filtration forces one (Herzog-Popescu).  Refuses (NotSequentiallyCMError)
    the first step whose trailing variables are not a regular sequence on
    its quotient; once they all are, quotient dimensions off n - r are a
    defect (InternalInconsistencyError).
    """
    report = sequential_cm_report(chain)
    if not all(report["regular_sequences"]):
        k = report["regular_sequences"].index(False)
        r = chain.steps[k].variable_index
        trailing = ", ".join(f"x{i}" for i in range(r + 1, chain.base.nvars + 1))
        raise NotSequentiallyCMError(
            f"{command} needs a sequentially Cohen-Macaulay module; at chain "
            f"step {k + 1}, {trailing} is not a regular sequence on the step quotient"
        )
    if not report["ok"]:
        raise InternalInconsistencyError(
            f"chain quotient dimensions {report['quotient_dims']} of a Borel-type "
            f"module are not {report['expected_dims']}"
        )


def torsion_ladder_matches_chain(chain: SequentialChain) -> bool:
    """The distinct nonzero torsion submodules at x_n, ..., x_1, in that order,
    must be exactly the chain ideals."""
    module = chain.base
    distinct: list[MonomialIdeal] = []
    for i in range(module.nvars, 0, -1):
        value = _variable_torsion(module, i)
        if value == module.denominator:
            continue
        if not distinct or value != distinct[-1]:
            distinct.append(value)
    return distinct == chain.ideals()


def dimension_filtration_report(ideal: MonomialIdeal) -> dict:
    """Compare the dimension filtration of S/ideal, computed through primary
    decomposition, with the single-variable torsion submodules.

    For a Borel-type quotient ring the largest submodule of dimension at most
    n - i is exactly the x_i-torsion, for every i.
    """
    module = Subquotient.cyclic(ideal)
    require_borel(module, "dimension_filtration_report")
    n = ideal.nvars
    entries = []
    for i in range(1, n + 1):
        via_decomposition = dimension_filtration(ideal, n - i)
        via_torsion = _variable_torsion(module, i)
        entries.append(
            {
                "i": i,
                "dim_bound": n - i,
                "equal": via_decomposition == via_torsion,
            }
        )
    return {"entries": entries, "ok": all(e["equal"] for e in entries)}


def iterated_saturation_chain(ideal: MonomialIdeal) -> list[tuple[int, MonomialIdeal]]:
    """The ideal-level chain: repeatedly saturate at the largest variable
    appearing in the current ideal, until the unit ideal is reached.

    For Borel-type ideals this reproduces the module chain of S/ideal; the
    orchestrator checks that coincidence.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("the iterated saturation chain needs a proper nonzero ideal")
    n = ideal.nvars
    out = []
    current = ideal
    while not current.is_unit():
        bounds = current.max_exponents()
        index = max(i + 1 for i, e in enumerate(bounds) if e > 0)
        current = current.saturate(
            MonomialIdeal.principal(Monomial.variable(index, n))
        )
        out.append((index, current))
    return out
