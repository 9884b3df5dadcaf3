"""Fast self-test of the references: each must accept a right answer and
reject a corrupted one.  Runs in milliseconds and needs no boreltype.

    python3 bench/selftest.py

bench/run.py runs it before every measurement and stops if it fails.
"""

from __future__ import annotations

import sys

from corpora import KNOWN_FAULT, Case
from reference import (
    check_artinian,
    check_mixed,
    check_stable,
    is_borel_type,
    is_sequentially_cm,
    witness_colons_exact,
)

# S/(x1^2, x1*x2, x1*x3, x2^2): strongly stable, reg 1, depth 3 - 3 = 0, dim 1
STABLE = Case(3, None, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)))
# S/(x2): its only associated prime (x2) is not an initial segment
NOT_BOREL = Case(2, None, ((0, 1),))
# S/(x1^2, x1*x2, x2^2): standard monomials 1, x1, x2, so length 3, reg 1
ARTINIAN = Case(2, None, ((2, 0), (1, 1), (0, 2)))
# its filtration J < J + (x1) < J + (x1, x2) < S, as (ideal, witness) steps
ARTINIAN_STEPS = [
    (((1, 0), (0, 2)), (1, 0)),
    (((1, 0), (0, 1)), (0, 1)),
    (((0, 0),), (0, 0)),
]


def _stable_facts(reg, depth):
    return {
        "exit_code": 0,
        "borel_type": True,
        "regularity": {"chain": reg, "oracle": reg},
        "depth": {"chain": depth, "oracle": depth},
    }


def _mixed_facts(borel, dims):
    return {"exit_code": 0, "borel_type": borel, "chain_dims": dims}


def _artinian_facts(length, reg, colons=True):
    return {
        "ok": True,
        "detail": None,
        "length": length,
        "regularity": reg,
        "witness_colons_exact": colons,
    }


def cases():
    """(description, problems found, whether problems are expected)."""
    yield "stable: right answer", check_stable(STABLE, _stable_facts(1, 0)), False
    yield "stable: regularity off by one", check_stable(STABLE, _stable_facts(2, 0)), True
    yield "stable: wrong depth", check_stable(STABLE, _stable_facts(1, 1)), True
    yield "mixed: right verdict", check_mixed(NOT_BOREL, _mixed_facts(False, None)), False
    yield "mixed: flipped verdict", check_mixed(NOT_BOREL, _mixed_facts(True, [1])), True
    yield "mixed: right chain dim", check_mixed(STABLE, _mixed_facts(True, [0, 1])), False
    yield "mixed: wrong chain dim", check_mixed(STABLE, _mixed_facts(True, [0, 2])), True
    yield "artinian: right answer", check_artinian(ARTINIAN, _artinian_facts(3, 1)), False
    yield "artinian: short filtration", check_artinian(ARTINIAN, _artinian_facts(2, 1)), True
    yield "artinian: wrong regularity", check_artinian(ARTINIAN, _artinian_facts(3, 2)), True
    yield "artinian: bad witness colon", check_artinian(
        ARTINIAN, _artinian_facts(3, 1, colons=False)
    ), True
    steps = ARTINIAN_STEPS
    yield "witness colons: right steps", (
        [] if witness_colons_exact(2, ARTINIAN.denominator, steps) else ["no"]
    ), False
    yield "witness colons: unit witness first", (
        [] if witness_colons_exact(2, ARTINIAN.denominator, steps[::-1]) else ["no"]
    ), True
    fault = (KNOWN_FAULT.nvars, KNOWN_FAULT.numerator, KNOWN_FAULT.denominator)
    yield "known fault is Borel type", [] if is_borel_type(*fault) else ["no"], False
    yield "known fault is not sequentially CM", (
        [] if is_sequentially_cm(*fault) else ["not CM"]
    ), True
    stable = (STABLE.nvars, ((0, 0, 0),), STABLE.denominator)
    yield "stable is sequentially CM", [] if is_sequentially_cm(*stable) else ["no"], False


def run() -> None:
    wrong = [name for name, problems, expected in cases() if bool(problems) != expected]
    if wrong:
        raise SystemExit("reference self-test failed: " + "; ".join(wrong))


if __name__ == "__main__":
    run()
    print("reference self-test passed")
    sys.exit(0)
