"""The README's Library snippet runs and prints the values its comments state,
and its list of `check`'s cross-checks is the order the report gives."""

from __future__ import annotations

import contextlib
import io
import os
import re

from boreltype import parse_module_file, run_check

from .test_golden_cli import MODULES

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def _library_snippet() -> str:
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_its_comments():
    snippet = _library_snippet()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(snippet, README, "exec"), {})
    printed = stdout.getvalue().splitlines()
    assert printed == ["True", "1", "['x1,x2', 'x1']", "1"]
    # one comment per print, on its line or the next; a comma starts a remark
    comments = re.findall(r"# (.+)", snippet)
    assert len(comments) == len(printed)
    assert all(c == p or c.startswith(p + ",") for c, p in zip(comments, printed))


def test_check_list_is_the_report_order():
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("### Exit codes", 1)[1]
    section = section.split("## Library", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, re.M)
    report, _ = run_check(parse_module_file(MODULES["cyclic_borel"]))
    assert listed == [c["name"] for c in report["checks"]]
