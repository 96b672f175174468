"""The table syntax shared by every rdeinv CSV file.

A table is a header line of comma-separated column names followed by one line
per row, each with exactly one finite number per header column.  Numbers are
written with 17 significant digits, which is enough for every double to read
back as the same bits.  The path, trajectory and observation formats are
column layouts over this syntax; a malformed file raises InvalidParameter
naming the file and the line.  A table body is formatted in one operation and
parsed in one pass; only a malformed one is scanned line by line.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_NUMBER = "%.17g"


def fmt(x):
    """One number in the table syntax."""
    return _NUMBER % x


def numbered(prefix, n):
    """Column names prefix1 .. prefix<n>."""
    return [f"{prefix}{i + 1}" for i in range(n)]


def write_table(file, header, data):
    """Write `header` and the rows of the 2-d array `data` (one column per name)."""
    data = np.asarray(data, dtype=float)
    row = ",".join([_NUMBER] * len(header)) + "\n"
    body = (row * len(data)) % tuple(data.ravel().tolist())
    with open(file, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + body)


def read_table(file):
    """Header names and the (rows, columns) float array of a table file.

    Every data row must have one cell per header name, every cell must parse
    as a finite float, and at least one data row must follow the header.
    Line k of the file is data row k - 2; an error names the first bad line.
    """
    try:
        with open(file, "r") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{file}: not a text file ({exc.reason})") from exc
    if len(lines) < 2:
        raise InvalidParameter(f"{file}:1: expected a header line and at least one data row")
    header = [name.strip() for name in lines[0].split(",")]
    body, commas = lines[1:], len(header) - 1
    try:
        if any(line.count(",") != commas for line in body):
            raise ValueError
        data = np.array([float(cell) for cell in ",".join(body).split(",")]).reshape(len(body), -1)
        if not np.all(np.isfinite(data)):
            raise ValueError
    except ValueError:  # scan line by line for the first bad one
        for r, line in enumerate(body):
            cells = line.split(",")
            if len(cells) != len(header):
                raise InvalidParameter(
                    f"{file}:{r + 2}: {len(cells)} cells, the header has {len(header)}"
                ) from None
            try:
                row = np.array([float(cell) for cell in cells])
            except ValueError as exc:
                raise InvalidParameter(f"{file}:{r + 2}: {exc}") from None
            if not np.all(np.isfinite(row)):
                name = header[np.argmin(np.isfinite(row))]
                raise InvalidParameter(
                    f"{file}:{r + 2}: non-finite value in column {name!r}"
                ) from None
    return header, data
