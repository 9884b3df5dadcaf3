"""Pinned command output: `check`, `chain`, `reg`, `filtration`, `analyze` and
`betti` on a few fixed modules must print exactly the bytes stored in
golden_cli.json.

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
    # Borel type, yet no truncation is strongly stable: x3^e is killed by x2
    # and not by x1 in every degree e
    "borel_no_stable_truncation": "vars: 3\nnumerator:\nunit\ndenominator:\nx2\nx1^2\n",
    # least stable truncation degree 9, past the largest generator degree plus
    # the number of variables; pinned under check alone, as its filtration
    # lists all 64 standard monomials
    "fourth_powers": "vars: 3\nnumerator:\nunit\ndenominator:\nx1^4\nx2^4\nx3^4\n",
    # the refusal ladder, pinned under the four commands that read the chain
    "zero": "vars: 2\nnumerator:\nx1\ndenominator:\nx1\n",
    # S/S: zero and cyclic, so its ideal routes are not applicable as zero
    "zero_cyclic": "vars: 2\nnumerator:\nunit\ndenominator:\nunit\n",
    # M is the maximal ideal of K[x2,x3]: of Borel type, not sequentially CM
    "not_sequentially_cm": "vars: 3\nnumerator:\nx1\nx2\nx3\ndenominator:\nx1\n",
    # not sequentially CM, and its reduced top degree passes a ceiling of 4
    "both_refusals": (
        "vars: 4\nnumerator:\nx2^3*x4\nx1*x2*x3*x4\nx1^2\ndenominator:\nx1^2\n"
    ),
    # the benchmark's known fault: of Borel type, not sequentially CM
    "known_fault": "vars: 4\nnumerator:\nx4^2\nx1^2*x3*x4\nx1^3\ndenominator:\nx1^3\n",
    # the complete intersection (x3*x4, x2^2) over K[x2, x3, x4]: regularity 3
    # and depth 2, yet its chain has one step at x1, which would read 2 and 3
    "complete_intersection": "vars: 4\nnumerator:\nx3*x4\nx2^2\nx1\ndenominator:\nx1\n",
}

# modules pinned only under the commands that read the chain, with options
LADDER_CASES = {
    "zero": (),
    "not_sequentially_cm": (),
    "both_refusals": ("--ceiling", "4"),
    "known_fault": (),
    "complete_intersection": (),
    "cyclic_artinian": ("--ceiling", "2"),
}

CASES = [
    (command, name, ())
    for name in (
        "cyclic_borel",
        "cyclic_artinian",
        "subquotient_borel",
        "non_borel",
        "two_generator_primes",
        "borel_no_stable_truncation",
    )
    for command in ("check", "chain", "reg", "filtration", "analyze")
] + [
    ("check", "fourth_powers", ()),
    ("check", "zero_cyclic", ()),
    ("check", "cyclic_borel", ("--oracle-guard", "1")),
    ("check", "cyclic_borel", ("--field", "f2")),
    # the least stable truncation degree is 3, past the cap of 2
    ("check", "cyclic_artinian", ("--emax", "2")),
    ("betti", "cyclic_borel", ()),
    ("betti", "cyclic_artinian", ()),
    ("betti", "non_borel", ()),
    ("betti", "cyclic_borel", ("--field", "f2")),
    # a proper subquotient: betti refuses with exit 3
    ("betti", "subquotient_borel", ()),
] + [
    (command, name, options)
    for name, options in LADDER_CASES.items()
    for command in ("chain", "reg", "filtration", "check")
]


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

    def truncation(key):
        report = json.loads(expected[key]["stdout"])
        degree = {c["name"]: c for c in report["checks"]}["truncation_stability"]
        return report["verdict"]["borel_type"], degree["detail"]["degree"]

    assert truncation("check borel_no_stable_truncation") == (True, None)
    assert truncation("check cyclic_artinian") == (True, 3)
    assert truncation("check cyclic_artinian --emax 2") == (True, None)
    assert truncation("check fourth_powers") == (True, 9)


if __name__ == "__main__":
    outputs = {case_id(*case): run_case(*case) for case in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
