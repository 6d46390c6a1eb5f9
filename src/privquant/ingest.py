"""Two-column CSV ingestion into a joint range, with dataset statistics.

The loader extracts one sensitive and one public column, drops rows where
either cell matches a missing-value sentinel, and builds the alphabets in
first-appearance order (deterministic for a given file). A column becomes
numeric iff every retained cell parses as a decimal number; otherwise it
stays categorical and distortion-based utility is unavailable for it. A
numeric column holding a non-finite value (``nan``, ``inf``) is an error.
The file's lines are counted per distinct line; when no quote character
``"`` is in it, each line is one row, so only the distinct lines are parsed.
A quote in the first line sends the file straight to a row-by-row read.

The default sentinels are "-9" (the UCI heart-disease convention), the
empty string and "?". The exact filter behind any reference record count
should be pinned by the caller; everything here is configurable.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .core import JointRange, finite_magnitude
from .errors import ConfigurationError, IngestError

__all__ = ["DEFAULT_MISSING", "DatasetStats", "load_csv", "stats"]

DEFAULT_MISSING: tuple[str, ...] = ("-9", "", "?")


class DatasetStats(NamedTuple):
    """Counts describing one ingested two-column dataset."""

    record_count: int
    distinct_s: int
    distinct_x: int
    distinct_pairs: int
    singleton_pairs: int  # pairs occurring exactly once

    def to_dict(self) -> dict:
        return self._asdict()


def stats(jr: JointRange, records: Sequence[tuple[str, str]]) -> DatasetStats:
    """Statistics of the retained records backing a joint range."""
    return _stats(Counter(records))


def _stats(counts: Mapping[tuple[str, str], int]) -> DatasetStats:
    """Statistics of retained records given as ``(s, x)`` pair -> record count."""
    return DatasetStats(
        record_count=sum(counts.values()),
        distinct_s=len({s for s, _ in counts}),
        distinct_x=len({x for _, x in counts}),
        distinct_pairs=len(counts),
        singleton_pairs=sum(1 for c in counts.values() if c == 1),
    )


def _resolve_column(
    target: Union[str, int], header: Optional[list[str]], width: int, what: str
) -> int:
    if isinstance(target, int) or (isinstance(target, str) and target.lstrip("-").isdigit()):
        idx = int(target)
        if not (0 <= idx < width):
            raise IngestError(f"{what} column index {idx} outside 0..{width - 1}")
        return idx
    if header is None:
        raise IngestError(f"{what} column {target!r} needs a header row to resolve")
    try:
        return header.index(target)
    except ValueError:
        raise IngestError(f"no column named {target!r}; header is {header}") from None


def load_csv(
    path: Union[str, Path],
    s_column: Union[str, int],
    x_column: Union[str, int],
    *,
    missing: Sequence[str] = DEFAULT_MISSING,
    has_header: bool = True,
    delimiter: str = ",",
    require_numeric_x: bool = False,
) -> tuple[JointRange, DatasetStats]:
    """Load (S, X) records from a delimited file.

    Columns may be named (requires a header) or 0-based indices. Rows where
    either cell matches a sentinel in ``missing`` are dropped, and an empty
    cell in a kept row is an error; duplicate (s, x) rows collapse into one
    joint-range pair while statistics count every retained record. With
    ``require_numeric_x`` a non-numeric X cell is an error (reported with
    its 1-based row number) instead of silently demoting the column to
    categorical. Each distinct line is parsed once unless the file holds a
    quote (a row may then span lines, so rows are read); either way rows,
    errors and row numbers are those of a row-by-row read.
    """
    if len(delimiter) != 1:
        raise ConfigurationError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    missing_set = set(missing)

    with path.open(newline="", encoding="utf-8-sig") as fh:
        head, lines, failure = _count_rows(fh, has_header)

    def bad_row(message: str, row: Sequence[str]) -> IngestError:
        return IngestError(message, row=_row_number(path, delimiter, has_header, row))

    # Distinct data rows and their occurrences, in first-appearance order. The
    # checks below run once per distinct row, in that order, so the first row
    # to fail is the first in the file to fail, as a row-by-row scan would
    # find; a read error is raised only if no row before it fails.
    try:  # only a distinct line's parse raises a CSV error here
        if '"' in head or '"' in "".join(lines):  # a quoted row may span lines
            with path.open(newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh, delimiter=delimiter)
                first_row, counts, failure = _count_rows(map(tuple, reader), has_header, reader)
            rows = counts.items()
        else:  # each line is one row: parse each distinct line once, lazily
            first_row = next(csv.reader([head], delimiter=delimiter))
            rows = zip(csv.reader(lines, delimiter=delimiter), lines.values())
        header = [cell.strip() for cell in first_row] if has_header else None
        s_idx = _resolve_column(s_column, header, len(first_row), "sensitive")
        x_idx = _resolve_column(x_column, header, len(first_row), "public")
        width = max(s_idx, x_idx) + 1
        records: dict[tuple[str, str], int] = {}  # retained (s, x) -> count, first appearance first
        for row, count in rows:  # a blank row is skipped
            if len(row) < width:
                if not any(map(str.strip, row)):
                    continue
                raise bad_row(f"row has only {len(row)} columns", row)
            s_cell = row[s_idx].strip()
            x_cell = row[x_idx].strip()
            if not (s_cell or x_cell or any(map(str.strip, row))):
                continue
            if s_cell in missing_set or x_cell in missing_set:
                continue
            if require_numeric_x and not _parses_as_number(x_cell):
                raise bad_row(f"public column value {x_cell!r} is not numeric", row)
            if not s_cell or not x_cell:
                raise bad_row(f"{'public' if s_cell else 'sensitive'} column value is empty", row)
            key = (s_cell, x_cell)
            records[key] = records.get(key, 0) + count
    except csv.Error:  # read row by row to raise it with its physical line
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            raise _count_rows(map(tuple, reader), has_header, reader)[2] from None
    if failure is not None:
        raise failure
    if not records:
        raise IngestError("no records left after missing-value filtering")

    x_tokens = {x for _, x in records}
    x_values = None
    if all(_parses_as_number(tok) for tok in x_tokens):
        x_values = {tok: float(tok) for tok in x_tokens}
        if not all(map(math.isfinite, x_values.values())):
            bad = next(x for _, x in records if not math.isfinite(x_values[x]))
            raise IngestError(f"public column value {bad!r} is not a finite number")
        if not finite_magnitude(x_values.values()):
            raise IngestError("public column values are too large: |x| sums past the float range")
    jr = JointRange.from_id_pairs(list(records), x_values)
    return jr, _stats(records)


def _count_rows(units, has_header: bool, reader=None):
    """``(first, data, failure)`` of ``units``, a file's lines or ``reader``'s rows
    as tuples: the first unit, the data units counted in first-appearance order
    (none when the first line holds a quote: the file is then read as rows),
    and the error that stopped the read, if any (the units before it stay
    counted). Raises that error, or that the file is empty, if no unit reads."""
    first: Counter = Counter()
    data = Counter() if has_header else first
    try:
        first.update(itertools.islice(units, 1))
        if reader is not None or '"' not in next(iter(first), ""):
            data.update(units)
    except UnicodeDecodeError:
        failure = IngestError("file is not UTF-8 text")
    except csv.Error as exc:
        failure = IngestError(f"CSV error on line {reader.line_num}: {exc}", row=reader.line_num)
    else:
        failure = None
    if not first:
        raise failure or IngestError("file is empty")
    return next(iter(first)), data, failure


def _row_number(
    path: Path, delimiter: str, has_header: bool, row: Sequence[str]
) -> Optional[int]:
    """1-based number of the first data row equal to ``row``, by reading the file
    again (None if the file no longer holds it)."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        skip = 1 if has_header else 0
        data = itertools.islice(csv.reader(fh, delimiter=delimiter), skip, None)
        return next((n for n, raw in enumerate(data, skip + 1) if raw == list(row)), None)


def _parses_as_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
