"""A small column-oriented DataFrame.

The real jpwr stores measurements as pandas DataFrames; pandas is not
available in this environment, so this module provides the small subset
jpwr needs: named float columns plus a time column, row append, column
statistics, numpy arrays for integration, CSV/JSON round trips and a
readable string form.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import MeasurementError


class DataFrame:
    """Column-oriented table of floats with string column names."""

    def __init__(self, columns: Iterable[str] = ()) -> None:
        names = [str(c) for c in columns]
        self._columns: dict[str, list[float]] = {c: [] for c in names}
        if len(self._columns) != len(names):
            raise MeasurementError("duplicate column names")
        #: Each column's values converted so far (see :meth:`array`).
        self._arrays: dict[str, np.ndarray] = {}

    # -- shape ------------------------------------------------------------

    @property
    def columns(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def empty(self) -> bool:
        """True when the frame has no rows."""
        return len(self) == 0

    # -- data access --------------------------------------------------------

    def __getitem__(self, column: str) -> list[float]:
        try:
            return self._columns[column]
        except KeyError:
            raise MeasurementError(f"no column {column!r}") from None

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def array(self, column: str) -> np.ndarray:
        """A column as a read-only float64 array.

        Each value is converted once: the frame keeps the array, and a
        later call converts only the rows appended since.  Rows are only
        ever appended, so the kept array is always a prefix of the
        column.
        """
        values = self[column]
        kept = self._arrays.get(column)
        if kept is None:
            out = np.asarray(values, dtype=float)
        elif len(kept) == len(values):
            return kept
        else:
            tail = np.asarray(values[len(kept):], dtype=float)
            out = np.concatenate((kept, tail))
        out.flags.writeable = False
        self._arrays[column] = out
        return out

    def row(self, index: int) -> dict[str, float]:
        """One row as a dict."""
        n = len(self)
        if not -n <= index < n:
            raise MeasurementError(f"row {index} out of range ({n} rows)")
        return {c: vals[index] for c, vals in self._columns.items()}

    def rows(self) -> Iterator[dict[str, float]]:
        """Iterate rows as dicts."""
        for i in range(len(self)):
            yield self.row(i)

    # -- mutation -------------------------------------------------------------

    def add_row(self, row: dict[str, float]) -> None:
        """Append a row; keys must exactly match the columns."""
        if set(row) != set(self._columns):
            missing = set(self._columns) - set(row)
            extra = set(row) - set(self._columns)
            raise MeasurementError(
                f"row keys mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for c in self._columns:
            self._columns[c].append(float(row[c]))

    def add_values(self, values: Sequence[float]) -> None:
        """Append a row of floats given in column order.

        The cheap form of :meth:`add_row` for a caller that already
        holds a row it took from this frame: only the width is checked.
        """
        if len(values) != len(self._columns):
            raise MeasurementError(
                f"row has {len(values)} values, frame has {len(self._columns)} columns"
            )
        for column, value in zip(self._columns.values(), values):
            column.append(value)

    def extend_columns(self, columns: Sequence[Sequence[float]]) -> None:
        """Append rows given column by column, in column order.

        The bulk form of :meth:`add_values`: ``columns[j]`` holds the
        new values of column ``j``.  Only the width and the lengths are
        checked.
        """
        if len(columns) != len(self._columns):
            raise MeasurementError(
                f"got {len(columns)} columns, frame has {len(self._columns)}"
            )
        if len({len(values) for values in columns}) > 1:
            raise MeasurementError("appended columns have unequal lengths")
        for column, values in zip(self._columns.values(), columns):
            column.extend(values)

    # -- statistics --------------------------------------------------------------

    def mean(self, column: str) -> float:
        """Arithmetic mean of a column (NaN for empty frames)."""
        vals = self[column]
        return sum(vals) / len(vals) if vals else math.nan

    def sum(self, column: str) -> float:
        """Sum of a column."""
        return sum(self[column])

    def min(self, column: str) -> float:
        """Minimum of a column (NaN for empty frames)."""
        vals = self[column]
        return min(vals) if vals else math.nan

    def max(self, column: str) -> float:
        """Maximum of a column (NaN for empty frames)."""
        vals = self[column]
        return max(vals) if vals else math.nan

    # -- serialisation --------------------------------------------------------------

    def to_csv(self) -> str:
        """CSV text with a header row."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        for row in zip(*self._columns.values()) if self._columns else []:
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DataFrame":
        """Parse CSV text produced by :meth:`to_csv`."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise MeasurementError("empty CSV") from None
        df = cls(header)
        for line in reader:
            if not line:
                continue
            if len(line) != len(header):
                raise MeasurementError(f"CSV row width mismatch: {line!r}")
            df.add_row({c: float(v) for c, v in zip(header, line)})
        return df

    def to_json(self) -> str:
        """JSON object mapping column name to value list."""
        return json.dumps(self._columns)

    @classmethod
    def from_json(cls, text: str) -> "DataFrame":
        """Parse JSON produced by :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise MeasurementError("JSON frame must be an object")
        df = cls(data.keys())
        lengths = {len(v) for v in data.values()}
        if len(lengths) > 1:
            raise MeasurementError("JSON frame columns have unequal lengths")
        for name, values in data.items():
            df._columns[name] = [float(v) for v in values]
        return df

    def __str__(self) -> str:
        cols = self.columns
        if not cols:
            return "<empty DataFrame>"
        widths = {
            c: max(len(c), *(len(f"{v:.3f}") for v in self._columns[c])) if self._columns[c] else len(c)
            for c in cols
        }
        header = "  ".join(c.rjust(widths[c]) for c in cols)
        lines = [header]
        for row in self.rows():
            lines.append("  ".join(f"{row[c]:.3f}".rjust(widths[c]) for c in cols))
        return "\n".join(lines)

    def copy(self) -> "DataFrame":
        """Deep copy."""
        df = DataFrame(self.columns)
        for c in self.columns:
            df._columns[c] = list(self._columns[c])
        return df
