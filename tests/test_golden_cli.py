"""Pinned command output: `check`, `chain`, `reg`, `filtration` and `analyze`
on a few fixed modules must print exactly the bytes stored in golden_cli.json.

Criterion 9 compares reruns of the same code, so it cannot see a change
that alters every run alike; this file can.  After an intended output
change, regenerate the expectations with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of golden_cli.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from boreltype.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

MODULES = {
    # strongly stable, two chain steps: (x1, x2) then (x1)
    "cyclic_borel": "vars: 3\nnumerator:\nunit\ndenominator:\nx1^2\nx1*x2\nx2^2\nx1*x3\n",
    "cyclic_artinian": "vars: 3\nnumerator:\nunit\ndenominator:\nx1^2\nx2^2\nx3^2\n",
    "subquotient_borel": "vars: 3\nnumerator:\nx3\nx1^2\ndenominator:\nx1*x2*x3\nx1^2\n",
    # (x2, x3) is an associated prime: check is vacuous, the rest refuse
    "non_borel": "vars: 3\nnumerator:\nunit\ndenominator:\nx2*x3\n",
    # Ass = {(x1), (x2)}, each prime read off a different numerator generator
    "two_generator_primes": "vars: 2\nnumerator:\nx1\nx2\ndenominator:\nx1*x2\n",
}

CASES = [
    (command, name, ())
    for name in MODULES
    for command in ("check", "chain", "reg", "filtration", "analyze")
] + [("check", "cyclic_borel", ("--oracle-guard", "1"))]


def case_id(command, name, options) -> str:
    return " ".join((command, name, *options))


def run_case(command, name, options) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(MODULES[name])
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "-", *options])
    finally:
        sys.stdin = stdin
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _expected() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_id(*case))
def test_golden_output(case):
    assert run_case(*case) == _expected()[case_id(*case)]


def test_golden_exercises_the_intended_paths():
    expected = _expected()
    skip = json.loads(expected["check cyclic_borel --oracle-guard 1"]["stdout"])
    statuses = {c["name"]: c["status"] for c in skip["checks"]}
    assert statuses["regularity_vs_oracle"] == "skipped"
    full = json.loads(expected["check cyclic_borel"]["stdout"])
    assert {c["name"]: c["status"] for c in full["checks"]}["regularity_vs_oracle"] == "pass"
    sub = json.loads(expected["chain subquotient_borel"]["stdout"])
    assert sub["length"] == 2
    assert expected["reg non_borel"]["exit_code"] == 3
    two = json.loads(expected["analyze two_generator_primes"]["stdout"])
    assert two["associated_primes"] == ["x1", "x2"]


if __name__ == "__main__":
    outputs = {case_id(*case): run_case(*case) for case in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
