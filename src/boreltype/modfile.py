"""The module file grammar: parsing and canonical serialization.

Format, line oriented::

    vars: 2
    numerator:
    unit
    denominator:
    x1*x2
    x1^2

Blocks must appear in that order.  A block holds generator lines; a line
``unit`` (or ``1``) makes it the unit ideal; an empty block is the zero
ideal (legal only when numerator and denominator agree, i.e. the zero
module).  Blank lines and ``#`` comments are ignored.
``parse_module_file(serialize_module(M))`` returns a module equal to M.

Each generator line, ``unit`` included, is validated by
``monomial.exps_from_text`` alone, which raises on a malformed factor, a
variable outside x1..xn or a summed exponent past the limit; the parser adds
the line number to its ``ParseError``.  Each ideal is then built from its set
of exponent tuples with no second validation, and ``Subquotient`` checks
that the denominator lies in the numerator.
"""

from __future__ import annotations

from .errors import ParseError
from .monomial import _ideal_from_exps, exps_from_text
from .subquotient import Subquotient

_HEADERS = ("vars", "numerator", "denominator")


def parse_module_file(text: str) -> Subquotient:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    nvars_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        head = head.strip().lower()
        if sep and head in _HEADERS:
            if head in sections or (head == "vars" and nvars_line is not None):
                raise ParseError(f"duplicate block {head!r}", line=lineno)
            expected = _HEADERS[
                (0 if nvars_line is None else 1) if not sections else 2
            ]
            if head != expected:
                raise ParseError(
                    f"expected block {expected!r} before {head!r}", line=lineno
                )
            if head == "vars":
                nvars_line = (lineno, rest.strip())
            else:
                sections[head] = []
                current = head
                if rest.strip():
                    sections[head].append((lineno, rest.strip()))
            continue
        if current is None:
            raise ParseError(f"unexpected content {line!r}", line=lineno)
        sections[current].append((lineno, line))
    if nvars_line is None:
        raise ParseError("missing 'vars:' header")
    if "numerator" not in sections:
        raise ParseError("missing 'numerator:' block")
    if "denominator" not in sections:
        raise ParseError("missing 'denominator:' block")
    lineno, body = nvars_line
    try:
        nvars = int(body)
    except ValueError:
        raise ParseError(f"bad variable count {body!r}", line=lineno) from None
    if nvars < 1:
        raise ParseError(f"variable count must be positive, got {nvars}", line=lineno)
    ideals = {}
    for name in ("numerator", "denominator"):
        exps = set()
        for lineno, entry in sections[name]:
            try:
                exps.add(exps_from_text(entry, nvars))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        ideals[name] = _ideal_from_exps(nvars, exps)
    try:
        return Subquotient(ideals["numerator"], ideals["denominator"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_module(module: Subquotient) -> str:
    lines = [f"vars: {module.nvars}", "numerator:"]
    if module.numerator.is_unit():
        lines.append("unit")
    else:
        lines.extend(module.numerator.gens_text())
    lines.append("denominator:")
    lines.extend(module.denominator.gens_text())
    return "\n".join(lines) + "\n"
