"""Plain-text box files.

Format: a header line ``n <parties>`` followed by one record per nonzero
entry, ``<x bits> <a bits> <numerator>/<denominator>``, plus optional blank
and ``#`` comment lines.  Omitted records mean probability zero.  Loading
validates exact normalization for every input.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .boxes import BoxTable, bit_tuples

_RATIO = re.compile(r"([-+]?[0-9]+)/([0-9]+)")


class BoxFileError(ValueError):
    """Malformed box file (syntax, bad bits, or broken normalization)."""


def int_text(i: int) -> str:
    """Decimal digits of i at any size.

    `str(i)` refuses integers longer than `sys.get_int_max_str_digits()`
    digits; the conversion through Decimal is exact and has no such limit.
    """
    return str(Decimal(i))


def _parse_probability(text: str) -> Fraction:
    # 'num/den' goes through Decimal, free of int's digit limit; any other
    # spelling is left to Fraction.
    match = _RATIO.fullmatch(text)
    if match is None:
        return Fraction(text)
    return Fraction(int(Decimal(match[1])), int(Decimal(match[2])))


def box_to_text(box: BoxTable) -> str:
    lines = [f"n {box.n}"]
    for x in bit_tuples(box.n):
        for a, p in box.support(x):
            xs = "".join(map(str, x))
            as_ = "".join(map(str, a))
            lines.append(f"{xs} {as_} {int_text(p.numerator)}/{int_text(p.denominator)}")
    return "\n".join(lines) + "\n"


def box_from_text(text: str) -> BoxTable:
    n = None
    records: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise BoxFileError(f"line {lineno}: duplicate header")
            if len(fields) != 2 or not fields[1].isdigit():
                raise BoxFileError(f"line {lineno}: malformed header {raw!r}")
            n = int(fields[1])
            continue
        if n is None:
            raise BoxFileError(f"line {lineno}: record before 'n' header")
        if len(fields) != 3:
            raise BoxFileError(f"line {lineno}: expected 'x a p', got {raw!r}")
        xs, as_, ps = fields
        if len(xs) != n or len(as_) != n or set(xs + as_) - {"0", "1"}:
            raise BoxFileError(
                f"line {lineno}: x and a must be {n}-bit strings"
            )
        try:
            p = _parse_probability(ps)
        except (ValueError, ZeroDivisionError) as exc:
            raise BoxFileError(f"line {lineno}: bad probability {ps!r}") from exc
        key = (tuple(int(b) for b in xs), tuple(int(b) for b in as_))
        if key in records:
            raise BoxFileError(f"line {lineno}: duplicate record for {xs} {as_}")
        records[key] = p
    if n is None:
        raise BoxFileError("missing 'n' header")
    try:
        return BoxTable(n, records)
    except ValueError as exc:
        raise BoxFileError(str(exc)) from exc


def save_box(box: BoxTable, path) -> None:
    Path(path).write_text(box_to_text(box))


def load_box(path) -> BoxTable:
    return box_from_text(Path(path).read_text())
