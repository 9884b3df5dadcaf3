"""The sequential chain of a torsion monomial subquotient.

The chain climbs from 0 to M: at each step take the largest variable index
whose torsion in the remaining quotient is nonzero, then cut at the torsion of
the whole module at that variable.  For Borel-type modules the chain is the
dimension filtration; its successive quotients become Artinian after reducing
by the trailing variables, which is what the regularity formula consumes.
Each ChainStep is built whole in build_chain: its index r and ideal L, the
quotient L/L_prev, that quotient's reduction by x_{r+1}..x_n, its dimension
n - r and its prime (x1..xr), so every reader takes all four from the step.
Each torsion submodule is named by its variable set: the x_i-torsion of a
module is module.torsion_submodule((i,)).

A step's certificate, x_{r+1}, ..., x_n regular on its quotient, reads the
variables as x_n, ..., x_{r+1}, as a homogeneous regular sequence permutes:
x_j must have zero torsion on the quotient's partial reduction by
x_{j+1}..x_n.  The step's own reduction is the term after the last, so the
step and its certificate read one routine, Subquotient.artinian_reduction.

Every reader of the chain's numbers refuses in one order: prepare refuses the
zero module, a non-Borel module, a failed construction and a reduced top
degree past the ceiling (the filtration builder, which takes no ceiling, uses
require_borel and build_chain); then require_sequentially_cm refuses a module
that is not sequentially Cohen-Macaulay, on which those numbers do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .borel import require_borel
from .decomposition import MonomialPrime, dimension_filtration, krull_dim
from .errors import (
    InternalInconsistencyError,
    NotBorelTypeError,
    NotSequentiallyCMError,
    ZeroModuleError,
)
from .monomial import MonomialIdeal
from .subquotient import Subquotient

# Entries kept by each of the three chain memos (build_chain,
# reduced_hilbert, sequential_cm_report).  Their hits come from within
# one module's analysis, where check and the chain readers ask again for the
# same chain and its reports; unbounded, they kept every module of a run, and
# peak memory grew with the number of modules.
CHAIN_MEMO_SIZE = 32


@dataclass(frozen=True)
class ChainStep:
    """The step L/L_prev of the chain at x_r, with its quotient and that
    quotient's Artinian reduction by x_{r+1}..x_n.  Equality and hash read
    only r and L, which with the chain's base determine the rest."""

    variable_index: int
    ideal: MonomialIdeal
    quotient: Subquotient = field(compare=False)
    reduced: Subquotient = field(compare=False)

    @property
    def quotient_dim(self) -> int:
        """The dimension n - r of the step quotient, read off the index."""
        return self.quotient.nvars - self.variable_index

    @property
    def prime(self) -> MonomialPrime:
        """The prime (x1..xr) of the step's filtration factors."""
        n, r = self.quotient.nvars, self.variable_index
        return MonomialPrime(n, tuple(range(1, r + 1)))


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
    if module.torsion_submodule((1,)) != num:
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
            if remaining.torsion_submodule((j,)) != current:
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
        lifted = module.torsion_submodule((index,))
        if not lifted.contains(current) or lifted == current:
            raise NotBorelTypeError(
                f"chain ideal at x{index} does not strictly extend the previous "
                f"one; {module} is not of Borel type"
            )
        quotient = Subquotient(lifted, current)
        steps.append(
            ChainStep(index, lifted, quotient, quotient.artinian_reduction(index))
        )
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
def reduced_hilbert(
    chain: SequentialChain, ceiling=None
) -> tuple[tuple[int, ...], ...]:
    """Per step: the Hilbert function of the reduced chain quotient in degrees
    0..top, top being its last nonvanishing degree.

    Memoized like build_chain, since regularity and the filtration length
    report both read it for the same chain; tuples keep the shared value
    immutable.
    """
    return tuple(tuple(step.reduced.artinian_hilbert(ceiling)) for step in chain.steps)


def _trailing_sequence_regular(step: ChainStep) -> bool:
    """Whether x_{r+1}, ..., x_n is a regular sequence on the step quotient L/D.

    A homogeneous regular sequence on a graded module stays regular in any
    order (Bruns-Herzog, Cohen-Macaulay Rings, ch. 1), so the variables are
    taken as x_n, ..., x_{r+1}, the order of Trung's filter-regular
    sequences.  Then the module x_j acts on is the step's partial Artinian
    reduction L/(D + (x_{j+1}..x_n)L), and x_j is a nonzerodivisor on it
    exactly when its x_j-torsion is zero.  The step's own reduction by
    x_{r+1}..x_n is the term after the last one.
    """
    quotient = step.quotient
    for j in range(quotient.nvars, step.variable_index, -1):
        reduced = quotient.artinian_reduction(j)
        if reduced.torsion_submodule((j,)) != reduced.denominator:
            return False
    return True


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def sequential_cm_report(chain: SequentialChain) -> dict:
    """Dimensions of the chain quotients and the regular-sequence verdicts.

    Each quotient's dimension comes from its associated primes (krull_dim)
    and is compared with the step's quotient_dim, n - r off its index.  On a
    Borel-type module a failed regular sequence flags a module that is
    not sequentially Cohen-Macaulay; any other failed assertion flags an
    implementation defect.  Memoized like reduced_hilbert, since the check
    report and every chain reader's require_sequentially_cm read it for the
    same chain; callers must not mutate the shared report.
    """
    dims = [krull_dim(step.quotient) for step in chain.steps]
    expected = [step.quotient_dim for step in chain.steps]
    regular = [_trailing_sequence_regular(step) for step in chain.steps]
    increasing = all(a < b for a, b in zip(dims, dims[1:]))
    return {
        "quotient_dims": dims,
        "expected_dims": expected,
        "dims_match": dims == expected,
        "dims_strictly_increase": increasing,
        "regular_sequences": regular,
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
        value = module.torsion_submodule((i,))
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
        via_torsion = module.torsion_submodule((i,))
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
    out = []
    current = ideal
    while not current.is_unit():
        bounds = current.max_exponents()
        index = max(i + 1 for i, e in enumerate(bounds) if e > 0)
        current = current.saturate((index,))
        out.append((index, current))
    return out
