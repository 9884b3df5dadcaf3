"""Module file grammar round trips and the command line front end."""

from __future__ import annotations

import dataclasses
import io
import json
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from boreltype import (
    MonomialIdeal,
    Subquotient,
    generate_corpus,
    parse_module_file,
    serialize_module,
)
from boreltype import chain as chain_module
from boreltype import checks, cli
from boreltype.cli import main
from boreltype.errors import InternalInconsistencyError, NotArtinianError, ParseError

from .support import modules
from .test_golden_cli import MODULES

CANONICAL = "vars: 2\nnumerator:\nunit\ndenominator:\nx1*x2\nx1^2\n"


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def cyclic(nvars, *gens):
    return Subquotient.cyclic(I(nvars, *gens))


class TestParse:
    def test_canonical_file(self):
        assert parse_module_file(CANONICAL) == cyclic(2, "x1^2", "x1*x2")

    def test_inline_generators_after_colon(self):
        text = "vars: 2\nnumerator: unit\ndenominator: x1^2\nx1*x2\n"
        assert parse_module_file(text) == cyclic(2, "x1^2", "x1*x2")

    def test_comments_and_blank_lines(self):
        text = (
            "# a cyclic module\nvars: 2\n\nnumerator:\nunit  # the whole ring\n"
            "denominator:\nx1^2\n  \nx1*x2\n"
        )
        assert parse_module_file(text) == cyclic(2, "x1^2", "x1*x2")

    def test_subquotient_and_zero_module(self):
        text = "vars: 2\nnumerator:\nx1\ndenominator:\nx1^2\nx1*x2\n"
        assert parse_module_file(text) == Subquotient(
            I(2, "x1"), I(2, "x1^2", "x1*x2")
        )
        zero = parse_module_file("vars: 2\nnumerator:\nx1\ndenominator:\nx1\n")
        assert zero.is_zero()

    def test_containment_violation(self):
        with pytest.raises(ParseError):
            parse_module_file("vars: 2\nnumerator:\nx2\ndenominator:\nx1\n")

    def test_unknown_variable_carries_line_number(self):
        text = "vars: 2\nnumerator:\nunit\ndenominator:\nx3\n"
        with pytest.raises(ParseError) as exc:
            parse_module_file(text)
        assert exc.value.line == 5
        assert "line 5" in str(exc.value)

    def test_header_discipline(self):
        with pytest.raises(ParseError):
            parse_module_file("numerator:\nunit\n")
        with pytest.raises(ParseError):
            parse_module_file("vars: 2\ndenominator:\nx1\nnumerator:\nunit\n")
        with pytest.raises(ParseError):
            parse_module_file("vars: 2\nvars: 2\nnumerator:\nunit\ndenominator:\nx1\n")
        with pytest.raises(ParseError):
            parse_module_file("vars: two\nnumerator:\nunit\ndenominator:\nx1\n")
        with pytest.raises(ParseError):
            parse_module_file("vars: 0\nnumerator:\nunit\ndenominator:\nx1\n")
        with pytest.raises(ParseError):
            parse_module_file("stray\nvars: 2\nnumerator:\nunit\ndenominator:\nx1\n")
        with pytest.raises(ParseError):
            parse_module_file("vars: 2\nnumerator:\nunit\n")

    def test_serialize_golden(self):
        assert serialize_module(cyclic(2, "x1^2", "x1*x2")) == CANONICAL

    @given(M=modules())
    @settings(deadline=None, max_examples=80)
    def test_round_trip(self, M):
        assert parse_module_file(serialize_module(M)) == M


@pytest.fixture()
def module_file(tmp_path):
    path = tmp_path / "m.mod"
    path.write_text(CANONICAL, encoding="utf-8")
    return str(path)


@pytest.fixture()
def non_borel_file(tmp_path):
    path = tmp_path / "nb.mod"
    path.write_text("vars: 2\nnumerator:\nunit\ndenominator:\nx2\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def not_sequentially_cm_file(tmp_path):
    # I = (x4^2, x1^2*x3*x4, x1^3), J = (x1^3): of Borel type, but x3 kills the
    # class of x1^2*x4^2 modulo x4, so it is not sequentially Cohen-Macaulay
    path = tmp_path / "nscm.mod"
    path.write_text(
        "vars: 4\nnumerator:\nx4^2\nx1^2*x3*x4\nx1^3\ndenominator:\nx1^3\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def six_variable_file(tmp_path):
    # Artinian; its reduced top degree 41 passes the default ceiling 40
    path = tmp_path / "six.mod"
    path.write_text(
        "vars: 6\nnumerator:\nunit\ndenominator:\n"
        "x1^8\nx1^7*x2\nx2^8\nx3^8\nx4^8\nx5^8\nx6^8\n",
        encoding="utf-8",
    )
    return str(path)


def forbid_filtration_build(monkeypatch):
    """Make the filtration build fail loudly: the ceiling refusal comes first."""

    def build(module):
        raise AssertionError("the filtration build ran before the ceiling check")

    monkeypatch.setattr(cli, "pretty_clean_filtration", build)
    monkeypatch.setattr(checks, "pretty_clean_filtration", build)


CEILING_REFUSAL = (
    "error: Hilbert function does not vanish up to degree 40; "
    "not Artinian within the ceiling\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


class TestCliCommands:
    def test_reports_record_every_option_in_field_order(self):
        options = checks.CheckOptions(e_max=7, ceiling=12, oracle_guard=99, field="f2")
        expected = list(dataclasses.asdict(options).items())
        assert list(options.to_json().items()) == expected
        report, _ = checks.run_check(Subquotient.cyclic(I(2, "x1")), options)
        assert list(report["options"].items()) == expected

    def test_analyze_golden(self, capsys, module_file):
        code, report, _ = run_cli(capsys, "analyze", module_file)
        assert code == 0
        assert report["command"] == "analyze"
        assert report["input_path"] == module_file
        assert report["verdict"]["borel_type"] is True
        assert report["verdict"]["associated_primes"] == ["x1", "x1,x2"]
        assert report["dim"] == 1

    def test_analyze_non_borel_still_exits_zero(self, capsys, non_borel_file):
        code, report, _ = run_cli(capsys, "analyze", non_borel_file)
        assert code == 0
        assert report["verdict"]["borel_type"] is False
        assert report["verdict"]["witnesses"]["pairwise_index_pairs"] == [[1, 2]]
        assert report["verdict"]["witnesses"]["non_initial_primes"] == ["x2"]

    def test_chain_golden(self, capsys, module_file):
        code, report, _ = run_cli(capsys, "chain", module_file)
        assert code == 0
        assert [s["variable_index"] for s in report["steps"]] == [2, 1]
        assert report["steps"][0]["generators"] == ["x1"]
        assert report["steps"][1]["generators"] == ["1"]

    def test_chain_refuses_non_borel(self, capsys, non_borel_file):
        code, report, err = run_cli(capsys, "chain", non_borel_file)
        assert code == 3
        assert report is None
        assert "error:" in err

    @pytest.mark.parametrize("command", ["reg", "chain", "filtration"])
    def test_chain_readers_refuse_non_sequentially_cm(
        self, capsys, not_sequentially_cm_file, command
    ):
        code, report, err = run_cli(capsys, command, not_sequentially_cm_file)
        assert code == 3 and report is None
        assert err == (
            f"error: {command} needs a sequentially Cohen-Macaulay module; at chain "
            "step 1, x2, x3, x4 is not a regular sequence on the step quotient\n"
        )

    def test_check_on_non_sequentially_cm_stays_internal(
        self, capsys, not_sequentially_cm_file
    ):
        code, report, _ = run_cli(capsys, "check", not_sequentially_cm_file)
        assert code == 2
        assert report["internal_inconsistency"] == (
            "filtration needs a sequentially Cohen-Macaulay module; at chain "
            "step 1, x2, x3, x4 is not a regular sequence on the step quotient"
        )

    def test_chain_readers_refuse_alike_on_random_corpora(self, capsys, monkeypatch):
        # chain, reg and filtration share one refusal ladder, so they exit
        # and refuse alike on every module, the command name aside; one
        # parser serves all 3000 runs, as building it dominates their time
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        refusals = Counter()
        for seed in range(1, 6):
            for nvars in (3, 4):
                for module in generate_corpus(seed, 100, "random", nvars, 4):
                    text = serialize_module(module)
                    outcomes = []
                    for command in ("chain", "reg", "filtration"):
                        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                        code = main([command, "-"])
                        err = capsys.readouterr().err
                        err = err.replace(f"error: {command} ", "error: ")
                        outcomes.append((code, err))
                    assert outcomes[0] == outcomes[1] == outcomes[2], text
                    if "sequentially Cohen-Macaulay" in outcomes[0][1]:
                        refusals[outcomes[0][0]] += 1
        assert refusals == {3: 5}

    @pytest.mark.parametrize("command", ["chain", "reg", "filtration", "check"])
    def test_failed_chain_construction_on_borel_input_is_internal(
        self, capsys, monkeypatch, module_file, command
    ):
        def build(module):
            raise ValueError("forced")

        monkeypatch.setattr(chain_module, "build_chain", build)
        code, report, err = run_cli(capsys, command, module_file)
        assert code == 2
        message = "chain construction failed on a Borel-type module: forced"
        if command == "check":
            assert report["internal_inconsistency"] == message
        else:
            assert report is None and err == f"internal inconsistency: {message}\n"

    def test_analyze_six_variable_artinian(self, capsys, six_variable_file):
        code, report, _ = run_cli(capsys, "analyze", six_variable_file)
        assert code == 0
        assert report["associated_primes"] == ["x1,x2,x3,x4,x5,x6"]

    @pytest.mark.parametrize("command", ["reg", "chain", "check", "filtration"])
    def test_six_variable_artinian_refused_on_the_ceiling(
        self, capsys, monkeypatch, six_variable_file, command
    ):
        forbid_filtration_build(monkeypatch)
        code, report, err = run_cli(capsys, command, six_variable_file)
        assert code == 3 and report is None
        assert err == CEILING_REFUSAL

    def test_six_variable_artinian_within_a_raised_ceiling(
        self, capsys, six_variable_file
    ):
        # 233472 monomials, of degree up to 41, lie outside the denominator
        code, report, _ = run_cli(capsys, "reg", "--ceiling", "41", six_variable_file)
        assert code == 0
        assert report["regularity"] == 41 and report["depth"] == 0

    def test_filtration_refuses_the_ceiling_before_the_build(
        self, capsys, monkeypatch, tmp_path
    ):
        # top degree 177, and a filtration of 216000 steps
        forbid_filtration_build(monkeypatch)
        path = tmp_path / "p60.mod"
        path.write_text(
            "vars: 3\nnumerator:\nunit\ndenominator:\nx1^60\nx2^60\nx3^60\n"
        )
        code, report, err = run_cli(capsys, "filtration", str(path))
        assert code == 3 and report is None
        assert err == CEILING_REFUSAL

    def test_reg_golden(self, capsys, module_file):
        code, report, _ = run_cli(capsys, "reg", module_file)
        assert code == 0
        assert report["regularity"] == 1
        assert report["ideal_regularity"] == 2
        assert report["dim"] == 1 and report["depth"] == 0
        assert [s["a_invariant"] for s in report["steps"]] == [1, -1]

    def test_betti_golden_with_csv(self, capsys, tmp_path, module_file):
        csv_path = tmp_path / "t.csv"
        code, report, _ = run_cli(capsys, "betti", module_file, "--csv", str(csv_path))
        assert code == 0
        assert report["regularity"] == 1
        assert report["projective_dimension"] == 2
        rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "i,degree,x1,x2,rank"
        assert rows[1] == "0,0,0,0,1"
        assert set(rows[2:]) == {"1,2,1,1,1", "1,2,2,0,1", "2,3,2,1,1"}

    def test_betti_needs_cyclic(self, capsys, tmp_path):
        path = tmp_path / "sq.mod"
        path.write_text(
            "vars: 2\nnumerator:\nx1\ndenominator:\nx1^2\nx1*x2\n", encoding="utf-8"
        )
        code, report, err = run_cli(capsys, "betti", str(path))
        assert code == 3 and report is None and "cyclic" in err

    def test_filtration_golden(self, capsys, module_file):
        code, report, _ = run_cli(capsys, "filtration", module_file)
        assert code == 0
        assert [(s["witness"], s["prime"]) for s in report["steps"]] == [
            ("x1", "x1,x2"),
            ("1", "x1"),
        ]
        assert report["verification"]["pretty_clean"]
        assert report["length_check"]["ok"]

    def test_check_golden(self, capsys, module_file):
        code, report, _ = run_cli(capsys, "check", module_file)
        assert code == 0
        assert report["verdict"]["borel_type"] is True
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["borel_criteria_agree"] == "pass"
        assert statuses["regularity_vs_oracle"] == "pass"
        assert "fail" not in statuses.values()

    def test_check_non_borel_is_vacuous(self, capsys, non_borel_file):
        code, report, _ = run_cli(capsys, "check", non_borel_file)
        assert code == 0
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["chain_invariants"] == "not_applicable"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(CANONICAL))
        code, report, _ = run_cli(capsys, "reg", "-")
        assert code == 0 and report["regularity"] == 1

    def test_json_sidecar_matches_stdout(self, capsys, tmp_path, module_file):
        side = tmp_path / "out.json"
        code, report, _ = run_cli(capsys, "analyze", module_file, "--json", str(side))
        assert code == 0
        assert json.loads(side.read_text(encoding="utf-8")) == report

    def test_fuzz_inline(self, capsys):
        code, report, _ = run_cli(
            capsys, "fuzz", "--seed", "3", "--count", "5", "--vars", "2"
        )
        assert code == 0
        agg = report["aggregate"]
        assert agg["instances"] == 5 and agg["passed"] == 5
        assert len(report["instances"]) == 5
        assert all("internal_inconsistency" not in r for r in report["instances"])

    def test_fuzz_record_carries_internal_inconsistency(self, capsys):
        # instance 28 is I = (x4^2, x1^2*x3*x4, x1^3), J = (x1^3): of Borel
        # type but not sequentially Cohen-Macaulay, so its filtration is refused
        code, report, _ = run_cli(
            capsys, "fuzz", "--seed", "5", "--count", "29", "--gen", "random",
            "--vars", "4", "--maxdeg", "4",
        )
        assert code == 2 and report["aggregate"]["internal"] == 1
        record = report["instances"][28]
        assert record["module"] == {
            "vars": 4,
            "numerator": ["x4^2", "x1^2*x3*x4", "x1^3"],
            "denominator": ["x1^3"],
        }
        assert record["exit_code"] == 2
        assert record["internal_inconsistency"].startswith(
            "filtration needs a sequentially Cohen-Macaulay module; at chain step 1,"
        )
        assert all(
            "internal_inconsistency" not in r for r in report["instances"][:28]
        )


    def test_fuzz_refusal_is_a_record_not_a_lost_corpus(self, capsys):
        code, report, err = run_cli(
            capsys, "fuzz", "--seed", "1", "--count", "10", "--gen", "random",
            "--maxdeg", "4", "--ceiling", "0",
        )
        assert code == 3 and err == ""
        assert report["aggregate"] == {
            "instances": 10, "passed": 9, "failed": 0, "internal": 0, "refused": 1
        }
        refused = [r for r in report["instances"] if "refused" in r]
        assert len(refused) == 1 and refused[0]["exit_code"] == 3
        assert "checks" not in refused[0]
        assert refused[0]["refused"].startswith("Hilbert function does not vanish")

    def test_fuzz_refusal_never_hides_an_internal_inconsistency(self, capsys):
        code, report, _ = run_cli(
            capsys, "fuzz", "--seed", "5", "--count", "29", "--gen", "random",
            "--vars", "4", "--maxdeg", "4", "--ceiling", "2",
        )
        assert report["aggregate"]["refused"] == 1
        assert report["aggregate"]["internal"] == 1
        assert code == 2

    @pytest.mark.parametrize(
        "codes, expected",
        [((3, 0), 3), ((0, 3), 3), ((3, 1), 1), ((1, 3), 1), ((3, 2, 1), 2)],
    )
    def test_fuzz_exit_ranks_internal_over_failed_over_refused(
        self, capsys, monkeypatch, codes, expected
    ):
        # 3 stands for a refused module, any other code for run_check's
        outcomes = iter(codes)

        def fake_run_check(module, options):
            code = next(outcomes)
            if code == 3:
                raise NotArtinianError("past the ceiling")
            return {"checks": []}, code

        monkeypatch.setattr(cli, "run_check", fake_run_check)
        code, report, _ = run_cli(
            capsys, "fuzz", "--seed", "3", "--count", str(len(codes)), "--vars", "2"
        )
        assert code == expected
        assert report["aggregate"]["refused"] == codes.count(3)

class TestCliErrors:
    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.mod"
        path.write_text("vars: 2\nnumerator:\nunit\ndenominator:\nx3\n")
        code, report, err = run_cli(capsys, "check", str(path))
        assert code == 3 and report is None
        assert "line 5" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/m.mod")
        assert code == 3 and "error:" in err

    def test_zero_module_has_no_chain(self, capsys, tmp_path):
        path = tmp_path / "z.mod"
        path.write_text("vars: 2\nnumerator:\nx1\ndenominator:\nx1\n")
        code, _, err = run_cli(capsys, "reg", str(path))
        assert code == 3 and "zero module" in err

    @pytest.mark.parametrize("flag", ["--emax", "--ceiling", "--oracle-guard"])
    @pytest.mark.parametrize(
        "command", ["analyze", "chain", "reg", "betti", "filtration", "check", "fuzz"]
    )
    def test_negative_numeric_flag_is_refused(self, capsys, module_file, command, flag):
        argv = [command] if command == "fuzz" else [command, module_file]
        code, report, err = run_cli(capsys, *argv, flag, "-1")
        assert code == 3 and report is None
        assert f"argument {flag}: must be nonnegative, got -1" in err

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_fuzz_needs_two_variables(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--vars", "1")
        assert code == 3 and "two variables" in err

    def test_oversized_exponent_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "big.mod"
        path.write_text("vars: 2\nnumerator:\nunit\ndenominator:\nx1^2000000\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 3 and "error:" in err

    def test_unwritable_json_sidecar(self, capsys, module_file):
        code, _, err = run_cli(
            capsys, "analyze", module_file, "--json", "/nonexistent/dir/out.json"
        )
        assert code == 3 and "error:" in err

    def test_internal_inconsistency_from_check(self, capsys, monkeypatch, module_file):
        import boreltype.checks as checks

        def boom(module):
            raise InternalInconsistencyError("forced for the test")

        monkeypatch.setattr(checks, "borel_verdict", boom)
        code, report, _ = run_cli(capsys, "check", module_file)
        assert code == 2
        assert report["internal_inconsistency"] == "forced for the test"

    def test_internal_inconsistency_from_analyze(self, capsys, monkeypatch, module_file):
        import boreltype.cli as cli

        def boom(module):
            raise InternalInconsistencyError("forced for the test")

        monkeypatch.setattr(cli, "borel_verdict", boom)
        code, report, err = run_cli(capsys, "analyze", module_file)
        assert code == 2 and report is None
        assert "internal inconsistency" in err


# every function checks.py imports from the package, lru_cache wrappers too
CHECK_CALLEES = sorted(
    name
    for name, value in vars(checks).items()
    if callable(value)
    and not isinstance(value, type)
    and getattr(value, "__module__", "").startswith("boreltype.")
    and value.__module__ != checks.__name__
)


def test_check_callees_include_the_memoized_functions():
    assert {"borel_verdict", "betti_table", "sequential_cm_report"} <= set(CHECK_CALLEES)


@pytest.mark.parametrize("name", CHECK_CALLEES)
def test_run_check_calls_through_the_module_name(monkeypatch, name):
    # a tracer or a test that rebinds checks.<name> must see the call; a
    # function object kept elsewhere, say in a table, would bypass it
    module = parse_module_file(MODULES["cyclic_borel"])
    original, calls = getattr(checks, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, name, counting)
    checks.run_check(module)
    assert calls


class TestSubprocess:
    def test_module_entry_point_check(self, tmp_path):
        path = tmp_path / "m.mod"
        path.write_text(CANONICAL, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "boreltype", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"]["borel_type"] is True

    def test_fuzz_output_is_reproducible(self):
        argv = [
            sys.executable, "-m", "boreltype", "fuzz",
            "--seed", "5", "--count", "8", "--gen", "random", "--vars", "3",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
