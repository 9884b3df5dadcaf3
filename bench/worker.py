"""One round of a workload in a fresh interpreter, so the package's caches
start cold as they do for a command-line user.

    python3 bench/worker.py --workload NAME --corpus DIR [--setup-only]
                            [--trace-out PATH --round K]

Imports ``boreltype`` from ``src/`` of the checkout, parses every module file
in DIR and prints ``ready``: the parent times set-up up to that line.  Then it
times one operation per module, reduces each output to the plain facts the
references check, and prints one JSON line with the per-module times, the
facts, its peak resident memory and, when traced, the per-layer summary.

Before each operation it also times a calibration, a fixed computation of
the benchmark's own: a shared host's speed can drift by a third within a
minute, and the parent divides each operation's time by the calibration
time taken just before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CEILING = 40  # the command line's default --ceiling

# The calibration: minimalizing 300 fixed monomials in four variables with
# the plain-tuple code of reference.py, a few milliseconds of pure Python
# that no change to the package can touch.
_DRAW = random.Random("calibration")
CALIBRATION_GENS = [tuple(_DRAW.randint(0, 5) for _ in range(4)) for _ in range(300)]


def calibration_time() -> float:
    from reference import minimalize

    gc.disable()  # a collection here would time the package's heap
    start = time.perf_counter()
    minimalize(CALIBRATION_GENS)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def import_package():
    """Import boreltype from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "boreltype", "__init__.py")):
        raise SystemExit(f"worker: no boreltype package under {SRC}")
    sys.path.insert(0, SRC)
    import boreltype

    if os.path.dirname(os.path.dirname(os.path.abspath(boreltype.__file__))) != SRC:
        raise SystemExit(f"worker: imported boreltype from {boreltype.__file__}")
    return boreltype


def check_op(bt, module):
    """The path behind `boreltype check`."""
    report, code = bt.run_check(module)
    return report


def check_facts(report) -> dict:
    checks = {c["name"]: c for c in report["checks"]}

    def detail(name):
        entry = checks.get(name)
        return entry["detail"] if entry and entry["status"] != "not_applicable" else None

    chain = detail("chain_invariants")
    return {
        "exit_code": report["exit_code"],
        "borel_type": report.get("verdict", {}).get("borel_type"),
        "regularity": detail("regularity_vs_oracle"),
        "depth": detail("depth_vs_oracle"),
        "chain_dims": chain["dims"] if chain else None,
        "internal_inconsistency": report.get("internal_inconsistency"),
    }


def filtration_op(bt, module):
    """The path behind `boreltype filtration` followed by `boreltype reg`."""
    if module.is_zero() or not bt.borel_verdict(module).is_borel:
        raise ValueError("the filtration path needs a nonzero Borel-type module")
    filtration = bt.pretty_clean_filtration(module)
    verification = bt.verify_filtration(filtration)
    lengths = bt.filtration_length_report(
        filtration, bt.build_chain(module), ceiling=CEILING
    )
    reg = bt.regularity(module, ceiling=CEILING)
    return filtration, verification, lengths, reg


def filtration_facts(outputs) -> dict:
    from reference import witness_colons_exact

    filtration, verification, lengths, reg = outputs
    module = filtration.base
    steps = [
        (tuple(g.exps for g in s.ideal.gens), s.witness.exps) for s in filtration.steps
    ]
    ok = (
        verification["pretty_clean"]
        and verification["support_equals_ass"]
        and lengths["ok"]
    )
    return {
        "ok": ok,
        "detail": None if ok else {"verification": verification, "lengths": lengths},
        "length": len(filtration.steps),
        "regularity": reg.regularity,
        "witness_colons_exact": witness_colons_exact(
            module.nvars, tuple(g.exps for g in module.denominator.gens), steps
        ),
    }


OPERATIONS = {
    "check-stable": (check_op, check_facts),
    "check-mixed": (check_op, check_facts),
    "filtration-artinian": (filtration_op, filtration_facts),
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    bt = import_package()
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    names = sorted(os.listdir(args.corpus))
    texts = []
    for name in names:
        with open(os.path.join(args.corpus, name), encoding="utf-8") as handle:
            texts.append(handle.read())
    for text in texts:
        bt.parse_module_file(text)
    print("ready", flush=True)
    if args.setup_only:
        return

    operation, facts_of = OPERATIONS[args.workload]
    calibration_time()  # warm-up
    times, calibration, facts = [], [], []
    for index, text in enumerate(texts):
        calibration.append(calibration_time())
        if tracer is not None:
            tracer.module_index = index
        start = time.perf_counter()
        try:
            outputs = operation(bt, bt.parse_module_file(text))
        except Exception as exc:  # a raising operation is a counted failure
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            facts.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - start)
        facts.append(facts_of(outputs))
    result = {
        "times": times,
        "calibration": calibration,
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace_out, args.round)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
