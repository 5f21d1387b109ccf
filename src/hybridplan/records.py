"""Record lines, the one text layout of every artifact file.

A record line is whitespace-separated fields; a ``#`` starts a comment that
runs to the end of the line, and a line left empty is skipped.  A keyword
file starts each record with a keyword whose field count its table fixes; a
table file holds bare numeric rows of one width.  Numbers are written with
``%.17g``, which reads back bit for bit.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

_ONE_FIELD = re.compile(r"[^\s#]+")


def line(*fields) -> str:
    """One record line.  A str field is written as it is and must read back
    as one field (nonempty, no whitespace or ``#``), or ValueError; a number
    is written with ``%.17g``, an array or sequence one field per element."""
    out = []
    for f in fields:
        if isinstance(f, str):
            if not _ONE_FIELD.fullmatch(f):
                raise ValueError(f"record field {f!r} must be nonempty, without whitespace or '#'")
            out.append(f)
        else:
            out.extend("%.17g" % v for v in np.ravel(f))
    return " ".join(out)


def text(lines) -> str:
    return "".join(f"{ln}\n" for ln in lines)


def write(path, lines) -> None:
    """Write ``lines``; a refused field raises before the file is opened."""
    Path(path).write_text(text(lines))


def bad_line(what: str, tokens, why: str) -> ValueError:
    return ValueError(f"{what} line {' '.join(tokens)!r}: {why}")


def _records(content: str):
    for raw in content.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield tokens


def read_keyed(content: str, table: dict, what: str):
    """Yield ``(keyword, fields)`` per record; ``table`` maps each keyword to
    its field count (None: any).  An unknown keyword or a wrong count raises
    ValueError quoting the line."""
    for key, *fields in _records(content):
        if key not in table:
            raise bad_line(what, [key, *fields], f"unknown {what}-file key {key!r}")
        n = table[key]
        if n is not None and len(fields) != n:
            raise bad_line(what, [key, *fields], f"{key!r} takes {n} fields, got {len(fields)}")
        yield key, fields


def read_table(content: str, width: int, what: str) -> np.ndarray:
    """The ``(N, width)`` float array of bare numeric rows; a row of another
    width raises ValueError quoting it."""
    rows = list(_records(content))
    for tokens in rows:
        if len(tokens) != width:
            raise bad_line(what, tokens, f"takes {width} scalars, got {len(tokens)}")
    return np.array(rows, dtype=float).reshape(-1, width)
