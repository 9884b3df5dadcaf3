"""Benchmark for boreltype: `check` and `filtration` on three seeded corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's module files
under bench/_out/; then whole rounds over that corpus run until S seconds have
passed, each round in a fresh interpreter (bench/worker.py) so the package's
caches start cold.  Operation times are reported in calibration units (see
bench/worker.py), which the host's drifting speed does not move.  Every
output is checked against the references in bench/reference.py.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics, from traced rounds alternated with
untraced ones whose speed gives the tracing overhead.  Spans go to
bench/_out/trace-NAME-seedN.jsonl.  Every process is one thread; the worker
processes run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2  # set-up-only interpreters after each round, for a steady median
WORKER_TIMEOUT = 120

sys.path.insert(0, HERE)
import selftest  # noqa: E402
from corpora import CORPORA, KNOWN_FAULT, module_text  # noqa: E402
from reference import CHECKS  # noqa: E402
from tracing import COUNTED, DERIVED, LAYERS  # noqa: E402


def write_corpus(workload: str, seed: int):
    cases, redrawn = CORPORA[workload](seed)
    directory = os.path.join(OUT, f"corpus-{workload}-seed{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for index, case in enumerate(cases):
        with open(os.path.join(directory, f"{index:04d}.mod"), "w", encoding="utf-8") as f:
            f.write(module_text(case))
    return directory, cases, redrawn


def run_worker(workload, corpus, setup_only=False, trace_out=None, round_index=0):
    """Start one worker; returns (set-up seconds, its result or None)."""
    command = [sys.executable, WORKER, "--workload", workload, "--corpus", corpus]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out, "--round", str(round_index)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}) on {workload}")
    return setup, (None if setup_only else json.loads(rest.splitlines()[-1]))


class Tally:
    """Checks every round's outputs and counts attempted and failed operations."""

    def __init__(self, workload, cases):
        self.check = CHECKS[workload]
        self.cases = cases
        self.verdicts = {}  # (index, facts) -> problems; outputs repeat each round
        self.attempted = self.failed = 0
        self.correct = True
        self.failures = {}

    def add(self, result) -> None:
        for index, (case, facts) in enumerate(zip(self.cases, result["facts"])):
            key = (index, json.dumps(facts, sort_keys=True))
            if key not in self.verdicts:
                if "error" in facts:
                    self.verdicts[key] = [facts["error"]]
                else:
                    self.verdicts[key] = self.check(case, facts)
            problems = self.verdicts[key]
            self.attempted += 1
            if case is KNOWN_FAULT:
                # not sequentially CM, so no pretty clean filtration exists;
                # a clean pass would be a wrong answer
                if not problems:
                    self.correct = False
            elif problems:
                self.correct = False
            if problems:
                self.failed += 1
                self.failures[index] = {
                    "module": module_text(case),
                    "problems": problems,
                    "internal_inconsistency": facts.get("internal_inconsistency"),
                }


def relative_sum(result) -> float:
    """A round's operation time as a multiple of its calibration time."""
    return sum(result["times"]) / sum(result["calibration"])


def measure(workload, seed, seconds, traced):
    corpus, cases, redrawn = write_corpus(workload, seed)
    trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
    if traced and os.path.exists(trace_out):
        os.remove(trace_out)
    tally = Tally(workload, cases)
    run_worker(workload, corpus, setup_only=True)  # warm-up: byte-compiles src/
    setups, times, calibration, rss = [], [], [], []
    plain, traced_rel, layers = [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        setup, result = run_worker(workload, corpus)
        tally.add(result)
        setups.append(setup)
        times.extend(result["times"])
        calibration.extend(result["calibration"])
        rss.append(result["peak_rss_mb"])
        plain.append(relative_sum(result))
        if traced:
            _, result = run_worker(workload, corpus, trace_out=trace_out, round_index=len(layers))
            tally.add(result)
            traced_rel.append(relative_sum(result))
            layers.append(result["layers"])
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, corpus, setup_only=True)[0])

    if traced:
        names = [*LAYERS, *COUNTED, *DERIVED]
        metrics = {
            name: {
                "value": statistics.fmean(r[name] for r in layers),
                "unit": "s" if name in LAYERS else "count",
            }
            for name in names
        }
        overhead = 100 * (1 - statistics.fmean(plain) / statistics.fmean(traced_rel))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        # operation times in calibration units: each divided by the time of
        # the calibration run just before it, which cancels the host's speed
        relative = [t / c for t, c in zip(times, calibration)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "module_p50_cal": {"value": statistics.median(relative), "unit": "cal"},
            "module_mean_cal": {"value": sum(times) / sum(calibration), "unit": "cal"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    summary = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(
        summary,
        workload=workload,
        seed=seed,
        seconds=seconds,
        rounds=len(plain),
        modules_per_round=len(cases),
        redrawn=redrawn,
        modules_per_s=len(times) / sum(times),
        module_ms_p50=1000 * statistics.median(times),
        calibration_ms_p50=1000 * statistics.median(calibration),
        nproc=os.cpu_count(),
        failures=tally.failures,
    )
    name = f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "boreltype", "__init__.py")):
        print(f"run.py: no boreltype package under {ROOT}/src", file=sys.stderr)
        return 2
    selftest.run()
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
