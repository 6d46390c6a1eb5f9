"""Two-column CSV ingestion into a joint range, with dataset statistics.

The loader extracts one sensitive and one public column, drops rows where
either cell matches a missing-value sentinel, and builds the alphabets in
first-appearance order (deterministic for a given file). A column becomes
numeric iff every retained cell parses as a decimal number; otherwise it
stays categorical and distortion-based utility is unavailable for it. A
numeric column holding a non-finite value (``nan``, ``inf``) is an error.

The default sentinels are "-9" (the UCI heart-disease convention), the
empty string and "?". The exact filter behind any reference record count
should be pinned by the caller; everything here is configurable.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence, Union

from .core import JointRange
from .errors import IngestError

__all__ = ["DEFAULT_MISSING", "DatasetStats", "load_csv", "stats", "joint_range_csv_rows"]

DEFAULT_MISSING: tuple[str, ...] = ("-9", "", "?")


@dataclass(frozen=True)
class DatasetStats:
    """Counts describing one ingested two-column dataset."""

    record_count: int
    distinct_s: int
    distinct_x: int
    distinct_pairs: int
    singleton_pairs: int  # pairs occurring exactly once

    def to_dict(self) -> dict:
        return asdict(self)


def stats(jr: JointRange, records: Sequence[tuple[str, str]]) -> DatasetStats:
    """Statistics of the retained records backing a joint range."""
    counts = Counter(records)
    return DatasetStats(
        record_count=len(records),
        distinct_s=len({s for s, _ in records}),
        distinct_x=len({x for _, x in records}),
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
    either cell matches a sentinel in ``missing`` are dropped; duplicate
    (s, x) rows collapse into one joint-range pair while statistics count
    every retained record. With ``require_numeric_x`` a non-numeric X cell
    is an error (reported with its 1-based row number) instead of silently
    demoting the column to categorical.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    missing_set = set(missing)

    records: list[tuple[str, str]] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header: Optional[list[str]] = None
        first_row = next(reader, None)
        if first_row is None:
            raise IngestError("file is empty")
        first_row = [cell.strip() for cell in first_row]
        if has_header:
            header = first_row
            data_start = 2
            rows = reader
        else:
            data_start = 1
            rows = _chain_first(first_row, reader)
        s_idx = _resolve_column(s_column, header, len(first_row), "sensitive")
        x_idx = _resolve_column(x_column, header, len(first_row), "public")

        for row_no, row in enumerate(rows, start=data_start):
            if not row or all(not str(c).strip() for c in row):
                continue
            if len(row) <= max(s_idx, x_idx):
                raise IngestError(f"row has only {len(row)} columns", row=row_no)
            s_cell = str(row[s_idx]).strip()
            x_cell = str(row[x_idx]).strip()
            if s_cell in missing_set or x_cell in missing_set:
                continue
            if require_numeric_x and not _parses_as_number(x_cell):
                raise IngestError(
                    f"public column value {x_cell!r} is not numeric", row=row_no
                )
            records.append((s_cell, x_cell))

    if not records:
        raise IngestError("no records left after missing-value filtering")

    x_tokens = {x for _, x in records}
    x_values = None
    if all(_parses_as_number(tok) for tok in x_tokens):
        x_values = {tok: float(tok) for tok in x_tokens}
        if not all(map(math.isfinite, x_values.values())):
            bad = next(x for _, x in records if not math.isfinite(x_values[x]))
            raise IngestError(f"public column value {bad!r} is not a finite number")
    jr = JointRange.from_id_pairs(records, x_values)
    return jr, stats(jr, records)


def _chain_first(first, rest):
    yield first
    yield from rest


def _parses_as_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def joint_range_csv_rows(jr: JointRange) -> list[list[str]]:
    """One row per joint-range pair (s, x), suitable for reloading.

    Reloading the emitted rows reproduces the same joint range up to symbol
    ordering; used by round-trip checks and useful as a compact export.
    """
    rows = [["s", "x"]]
    for s, x in sorted(jr.pairs):
        rows.append([jr.s_symbols[s].id, jr.x_symbols[x].id])
    return rows
