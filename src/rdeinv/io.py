"""The table syntax shared by every rdeinv CSV file.

A table is a header line of comma-separated column names followed by one line
per row, each with exactly one finite number per header column.  Numbers are
written with 17 significant digits, which is enough for every double to read
back as the same bits.  The path, trajectory and observation formats are
column layouts over this syntax; a malformed file raises InvalidParameter
naming the file and the line.  A table body is written and read in blocks of
_BLOCK rows, so memory beyond the array itself stays bounded whatever the
length: each block is formatted in one operation and parsed in one pass, and
only a malformed one is scanned line by line.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, islice

import numpy as np

from .errors import DimensionMismatch, InvalidParameter

_NUMBER = "%.17g"
_BLOCK = 1024  # table rows formatted or parsed at once


def fmt(x):
    """One number in the table syntax."""
    return _NUMBER % x


def numbered(prefix, n):
    """Column names prefix1 .. prefix<n>."""
    return [f"{prefix}{i + 1}" for i in range(n)]


def write_table(file, header, data):
    """Write `header` and the rows of the 2-d array `data` (one column per name).  Rows
    of another width raise DimensionMismatch before the file opens."""
    try:
        data = np.asarray(data, dtype=float)
    except ValueError as exc:  # rows of mixed widths or depths
        if "sequence" not in str(exc):
            raise
        raise DimensionMismatch(f"{len(header)} column names for ragged rows") from None
    if len(data) and data.shape[1:] != (len(header),):
        raise DimensionMismatch(f"{len(header)} column names for data of shape {data.shape}")
    row = ",".join([_NUMBER] * len(header)) + "\n"
    with open(file, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _BLOCK):
            block = data[start:start + _BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_table(file):
    """Header names and the (rows, columns) float array of a table file.

    Every data row must have one cell per header name, every cell must parse
    as a finite float, and at least one data row must follow the header.
    Line k of the file is data row k - 2; an error names the first bad line.
    """
    try:
        with open(file, "r") as fh:
            chunks = iter(lambda: "".join(islice(fh, _BLOCK)), "")  # _BLOCK lines each
            lines = chain.from_iterable(map(str.splitlines, chunks))  # str.splitlines of the file
            header = [name.strip() for name in next(lines, "").split(",")]
            blocks = []
            try:
                for body in iter(lambda: list(islice(lines, _BLOCK)), []):
                    blocks.append(_rows(file, header, body, 2 + _BLOCK * len(blocks)))
            except InvalidParameter:
                for _ in fh:  # a file that is not text is reported as that first
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{file}: not a text file ({exc.reason})") from exc
    if not blocks:
        raise InvalidParameter(f"{file}:1: expected a header line and at least one data row")
    return header, np.concatenate(blocks)


def _rows(file, header, body, first):
    """The float rows of the data lines `body`, which start at line `first` of the file."""
    if all(line.count(",") == len(header) - 1 for line in body):
        with suppress(ValueError):  # else scan line by line for the first bad one
            data = np.array([float(cell) for cell in ",".join(body).split(",")])
            if np.all(np.isfinite(data)):
                return data.reshape(len(body), -1)
    for r, line in enumerate(body, first):
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidParameter(f"{file}:{r}: {len(cells)} cells, the header has {len(header)}")
        try:
            row = np.array([float(cell) for cell in cells])
        except ValueError as exc:
            raise InvalidParameter(f"{file}:{r}: {exc}") from None
        if not np.all(np.isfinite(row)):
            name = header[np.argmin(np.isfinite(row))]
            raise InvalidParameter(f"{file}:{r}: non-finite value in column {name!r}")
