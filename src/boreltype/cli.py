"""Command line front end.

Subcommands: analyze, chain, reg, betti, filtration, check, fuzz.  Every
report is a JSON object printed to stdout (and optionally written to a file
with --json); reports contain no timestamps, so identical invocations
produce identical bytes.  COMMANDS names the options each command reads:
its parser offers only those, refusing any other --flag, before argparse
can take its value for the module path, as a usage error (exit 3) that
names the command, the flag and its value, and its report's options block,
written by _dispatch alone, lists exactly those, so analyze reports {}.

chain, reg, filtration and check reach the chain through chain.prepare, which
refuses in order the zero module, a non-Borel module (check: not applicable),
a failed chain construction (a defect) and a reduced top degree past
--ceiling.  Then chain.require_sequentially_cm refuses a module that is not
sequentially Cohen-Macaulay, naming the first chain step whose trailing
variables are not a regular sequence: chain, reg and filtration exit 3, while
check runs its other checks first and reports the refusal of its filtration
build as an internal inconsistency (exit 2).

Exit codes: 0 all requested checks passed or were skipped by a guard, 1 a
mathematical cross-check failed, 2 an internal inconsistency was detected,
3 the input was malformed or outside a command's domain.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .betti import DEFAULT_ORACLE_GUARD, BettiTable, betti_table
from .borel import borel_verdict, is_strongly_stable_module
from .chain import prepare, reduced_hilbert, require_sequentially_cm
from .checks import (
    DEFAULT_CEILING,
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    CheckOptions,
    module_json,
    run_check,
)
from .decomposition import associated_primes, krull_dim, minimal_primes
from .errors import AlgebraError, InternalInconsistencyError, NotArtinianError
from .filtration import (
    filtration_length_report,
    pretty_clean_filtration,
    verify_filtration,
)
from .fuzzgen import GENERATORS, generate_corpus
from .modfile import parse_module_file
from .regularity import regularity
from .subquotient import Subquotient


def nonnegative_int(text: str) -> int:
    """The argparse type of --ceiling and --oracle-guard; argparse names the
    flag when it refuses a value, and main exits 3."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: refuses every ``--flag`` it does not declare.

    argparse would take an unknown flag's value for the module path and name
    the path as unrecognized.  So the command's tokens are scanned first: a
    flag that is neither declared nor argparse's abbreviation of a declared
    one is refused, naming the command, the flag and its value.  Every option
    of this command line takes one value; the value is the text after ``=``,
    or else the next token unless that is a flag too.  Tokens after ``--``
    are positional and are not scanned.
    """

    def parse_known_args(self, args=None, namespace=None):
        # the subparsers action passes the command's tokens as a list
        for at, token in enumerate(args):
            if token == "--":
                break
            if not token.startswith("--"):
                continue
            flag, eq, value = token.partition("=")
            if any(s.startswith(flag) for s in self._option_string_actions):
                continue
            if not eq:
                after = args[at + 1 : at + 2]
                value = after[0] if after and not after[0].startswith("--") else None
            command = self.prog.rpartition(" ")[2]
            given = "" if value is None else f" (given {value})"
            self.error(f"{command} does not read {flag}{given}")
        return super().parse_known_args(args, namespace)


# each option's argparse keywords, keyed by its CheckOptions field, whose
# name with dashes for underscores is the flag
OPTIONS = {
    "ceiling": dict(
        type=nonnegative_int,
        default=DEFAULT_CEILING,
        help="largest reduced top degree, raised at each chain step to the largest "
        f"generator degree of its ideal; refused before any scan (default {DEFAULT_CEILING})",
    ),
    "oracle_guard": dict(
        type=nonnegative_int,
        default=DEFAULT_ORACLE_GUARD,
        help=f"largest multidegree box the Betti oracle will enumerate (default {DEFAULT_ORACLE_GUARD})",
    ),
    "field": dict(
        choices=("q", "f2"),
        default="q",
        help="coefficient field for homology ranks: rationals or two elements",
    ),
}

# each command's help and the options it reads: the parser offers it only
# these and refuses the others, and its report's options block lists exactly
# these
COMMANDS = {
    "analyze": ("Borel verdict, primes, dimension", ()),
    "chain": ("sequential chain of a Borel-type module", ("ceiling",)),
    "reg": ("regularity, dimension, depth via the chain", ("ceiling",)),
    "betti": ("brute-force Betti table of S/I", ("oracle_guard", "field")),
    "filtration": ("pretty clean prime filtration", ("ceiling",)),
    "check": (
        "run every applicable cross-check",
        ("ceiling", "oracle_guard", "field"),
    ),
    "fuzz": (
        "generate a seeded corpus and cross-check every instance",
        ("ceiling", "oracle_guard", "field"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boreltype",
        description="Analyze multigraded monomial modules: Borel-type status, "
        "sequential chains, regularity, prime filtrations, and brute-force "
        "Betti numbers.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    parsers = {}
    for command, (help_text, names) in COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=help_text)
        if command != "fuzz":
            p.add_argument("file", help="module file path, or - for stdin")
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), **OPTIONS[name])
        p.add_argument(
            "--json",
            dest="json_path",
            default=None,
            help="also write the JSON report to this path",
        )
    parsers["betti"].add_argument(
        "--csv", default=None, help="also write the Betti entries to this CSV path"
    )
    fuzz_parser = parsers["fuzz"]
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--count", type=int, default=10)
    fuzz_parser.add_argument("--gen", choices=GENERATORS, default="borel")
    fuzz_parser.add_argument("--vars", dest="nvars", type=int, default=3)
    fuzz_parser.add_argument("--maxdeg", type=int, default=3)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_analyze(module: Subquotient, options: CheckOptions):
    verdict = borel_verdict(module)
    report = {
        "module": module_json(module),
        "verdict": verdict.to_json(),
        "strongly_stable": is_strongly_stable_module(module),
        "zero": module.is_zero(),
        "dim": krull_dim(module),
    }
    if module.is_zero():
        report["associated_primes"] = []
        report["minimal_primes"] = []
    else:
        ass = associated_primes(module)
        report["associated_primes"] = [str(p) for p in ass]
        report["minimal_primes"] = [str(p) for p in minimal_primes(ass)]
    return report, EXIT_OK


def _cmd_chain(module: Subquotient, options: CheckOptions):
    chain = prepare(module, "chain", options.ceiling)
    require_sequentially_cm(chain, "chain")
    steps = []
    for step, values in zip(chain.steps, reduced_hilbert(chain, options.ceiling)):
        steps.append(
            {
                "variable_index": step.variable_index,
                "generators": step.ideal.gens_text(),
                "quotient_dim": step.quotient_dim,
                "reduced_top_degree": len(values) - 1,
                "reduced_hilbert": [[d, h] for d, h in enumerate(values)],
            }
        )
    report = {
        "module": module_json(module),
        "length": len(chain),
        "steps": steps,
    }
    return report, EXIT_OK


def _cmd_reg(module: Subquotient, options: CheckOptions):
    require_sequentially_cm(prepare(module, "reg", options.ceiling), "reg")
    report = regularity(module, ceiling=options.ceiling).to_json()
    if module.is_cyclic():
        # reg(I) = reg(S/I) + 1 for a proper nonzero monomial ideal
        report["ideal_regularity"] = report["regularity"] + 1
    report["module"] = module_json(module)
    return report, EXIT_OK


def _cmd_betti(module: Subquotient, options: CheckOptions, csv_path=None):
    if not module.is_cyclic():
        raise ValueError(
            "betti needs a cyclic module S/I, written with 'numerator: unit'"
        )
    table = betti_table(
        module.denominator, guard=options.oracle_guard, field=options.field
    )
    if csv_path is not None:
        _write_betti_csv(table, csv_path)
    report = table.to_json()
    report["module"] = module_json(module)
    return report, EXIT_OK


def _write_betti_csv(table: BettiTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["i", "degree"]
        header += [f"x{k}" for k in range(1, table.nvars + 1)]
        header.append("rank")
        writer.writerow(header)
        for i, a, r in table.entries:
            writer.writerow([i, sum(a), *a, r])


def _cmd_filtration(module: Subquotient, options: CheckOptions):
    chain = prepare(module, "filtration", options.ceiling)
    filtration = pretty_clean_filtration(module)
    verification = verify_filtration(filtration)
    lengths = filtration_length_report(filtration, chain, ceiling=options.ceiling)
    report = {
        "module": module_json(module),
        "steps": [
            {
                "witness": str(s.witness),
                "prime": str(s.prime),
                "generators": s.ideal.gens_text(),
            }
            for s in filtration.steps
        ],
        "verification": verification,
        "length_check": lengths,
    }
    ok = (
        verification["pretty_clean"]
        and verification["support_equals_ass"]
        and lengths["ok"]
    )
    return report, EXIT_OK if ok else EXIT_CHECK_FAILED


# fuzz exits with its gravest instance's code: a defect outranks a failed
# cross-check, which outranks a refused module
_FUZZ_SEVERITY = {EXIT_OK: 0, EXIT_INPUT: 1, EXIT_CHECK_FAILED: 2, EXIT_INTERNAL: 3}


def _cmd_fuzz(args, options: CheckOptions):
    if args.nvars < 2:
        raise ValueError("fuzz needs at least two variables")
    corpus = generate_corpus(args.seed, args.count, args.gen, args.nvars, args.maxdeg)
    instances = []
    counts = dict.fromkeys(_FUZZ_SEVERITY, 0)
    worst = EXIT_OK
    for index, module in enumerate(corpus):
        record = {"index": index, "module": module_json(module)}
        try:
            report, code = run_check(module, options)
        except NotArtinianError as exc:
            # one module past the ceiling refuses that module, not the corpus
            code = EXIT_INPUT
            record["refused"] = str(exc)
        else:
            record["checks"] = {c["name"]: c["status"] for c in report["checks"]}
            if "internal_inconsistency" in report:
                record["internal_inconsistency"] = report["internal_inconsistency"]
        record["exit_code"] = code
        counts[code] += 1
        worst = max(worst, code, key=_FUZZ_SEVERITY.__getitem__)
        instances.append(record)
    report = {
        "seed": args.seed,
        "count": args.count,
        "generator": args.gen,
        "vars": args.nvars,
        "max_degree": args.maxdeg,
        "aggregate": {
            "instances": len(corpus),
            "passed": counts[EXIT_OK],
            "failed": counts[EXIT_CHECK_FAILED],
            "internal": counts[EXIT_INTERNAL],
            "refused": counts[EXIT_INPUT],
        },
        "instances": instances,
    }
    return report, worst


_HANDLERS = {
    "analyze": _cmd_analyze,
    "chain": _cmd_chain,
    "reg": _cmd_reg,
    "filtration": _cmd_filtration,
    "check": run_check,
}


def _dispatch(args) -> tuple[dict, int]:
    read = {name: getattr(args, name) for name in COMMANDS[args.command][1]}
    options = CheckOptions(**read)
    if args.command == "fuzz":
        report, code = _cmd_fuzz(args, options)
    else:
        module = parse_module_file(_read_text(args.file))
        if args.command == "betti":
            report, code = _cmd_betti(module, options, args.csv)
        else:
            report, code = _HANDLERS[args.command](module, options)
        report["input_path"] = args.file
    report["command"] = args.command
    report["options"] = read
    return report, code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot means inconsistency here
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        report, code = _dispatch(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (AlgebraError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.json_path is not None:
        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    return code


def main_entry() -> None:
    sys.exit(main())
