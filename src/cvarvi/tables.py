"""The one CSV syntax of every table the package writes or reads.

A header row of column names, then one row per record: cells joined by
commas without quoting, floats as `%.17g` (which reads back bit for bit),
booleans in lower case, lines ended by LF. The columns of each table stay
with the code that owns it.
"""

from __future__ import annotations

import csv

__all__ = ["fmt", "format_table", "read_table"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def format_table(header: tuple[str, ...], rows) -> str:
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


def read_table(text: str, header: tuple[str, ...], source: str, types=None) -> list[list]:
    """The whitespace-stripped cells of each row under `header`, skipping
    blank lines, each read by its column's callable in `types` (default
    str). Raises ValueError, naming `source` and the line, for another
    header, a row with another number of cells or a cell its callable rejects."""
    reader = csv.reader(text.splitlines())
    lines = [(reader.line_num, [cell.strip() for cell in row]) for row in reader]
    (lineno, first), *rows = [line for line in lines if line[1] not in ([], [""])] or [(1, [])]
    if first != list(header):
        raise ValueError(f"{source}, line {lineno}: expected the header "
                         f"{','.join(header)!r}, got {','.join(first)!r}")
    table = []
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ValueError(f"{source}, line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            table.append([convert(cell) for convert, cell in zip(types or [str] * len(header), cells)])
        except ValueError as exc:
            raise ValueError(f"{source}, line {lineno}: {exc}") from None
    return table
