"""Castelnuovo-Mumford regularity of Borel-type modules via the sequential
chain.

For a sequentially Cohen-Macaulay Borel-type module the regularity is the
maximum, over the chain steps, of the top nonvanishing degree of the Artinian
reduction of the step quotient.  The report also carries the dimension and
depth read off the first and last chain indices, and the a-invariants (top
degree minus quotient dimension) per step.  A Borel-type module that is not
sequentially Cohen-Macaulay is refused: on the complete intersection
(x3*x4, x2^2, x1)/(x1) the chain has one step at x1 and would read regularity
2 and depth 3, where the true values are 3 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import prepare, reduced_hilbert, require_sequentially_cm
from .subquotient import Subquotient


@dataclass(frozen=True)
class RegularityStep:
    variable_index: int
    top_degree: int
    quotient_dim: int
    a_invariant: int


@dataclass(frozen=True)
class RegularityReport:
    regularity: int
    dim: int
    depth: int
    steps: tuple[RegularityStep, ...]

    def to_json(self) -> dict:
        return {
            "regularity": self.regularity,
            "dim": self.dim,
            "depth": self.depth,
            "steps": [
                {
                    "variable_index": s.variable_index,
                    "top_degree": s.top_degree,
                    "quotient_dim": s.quotient_dim,
                    "a_invariant": s.a_invariant,
                }
                for s in self.steps
            ],
        }


def regularity(module: Subquotient, ceiling=None) -> RegularityReport:
    """Regularity, dimension and depth of a sequentially Cohen-Macaulay
    Borel-type module."""
    chain = prepare(module, "regularity", ceiling)
    require_sequentially_cm(chain, "regularity")
    steps = []
    for step, values in zip(chain.steps, reduced_hilbert(chain, ceiling)):
        top = len(values) - 1
        dim = step.quotient_dim
        steps.append(RegularityStep(step.variable_index, top, dim, top - dim))
    return RegularityReport(
        regularity=max(s.top_degree for s in steps),
        dim=chain.steps[-1].quotient_dim,
        depth=chain.steps[0].quotient_dim,
        steps=tuple(steps),
    )

