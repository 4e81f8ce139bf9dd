"""Typed tabular datasets: CSV loading, filtering, and summaries.

A Dataset couples a declared schema (variable name, role, kind, transform,
category order) with immutable column arrays.  Numeric columns are float64
with NaN at missing cells; categorical columns are int32 category codes with
-1 at missing cells.  The empty CSV field is the only missing marker.

CSV files follow RFC 4180 and are read and written a column at a time, in
fixed chunks of rows: a load parses each column of a chunk in one pass
(``float`` on every numeric cell, one dict lookup per label) and never
holds more than one chunk of cells; a write formats each column of a chunk
whole (``repr`` for floats, a table of quoted labels by category code).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from ._errors import ConfigError, DataError

ROLES = ("response", "predictor", "identifier", "excluded")
KINDS = ("numeric", "categorical", "binary")
TRANSFORMS = ("none", "ln", "ln1p")

# rows per column pass in CSV reads and writes: the measured optimum, and
# a load never holds more than one chunk of cells
_CHUNK_ROWS = 256

__all__ = [
    "VariableSpec",
    "Dataset",
    "FilterRule",
    "load_csv",
    "csv_header",
    "utf8_fault",
    "serialize_csv",
    "apply_filters",
    "complete_rows",
    "listwise_complete",
    "summarize",
]


@dataclass(frozen=True)
class VariableSpec:
    """Declared properties of one dataset variable."""

    name: str
    role: str
    kind: str
    transform: str = "none"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ConfigError("variable name must be non-empty")
        if self.role not in ROLES:
            raise ConfigError(f"unknown role {self.role!r} for variable {self.name!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r} for variable {self.name!r}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(
                f"unknown transform {self.transform!r} for variable {self.name!r}"
            )
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == "numeric":
            if self.categories:
                raise ConfigError(f"numeric variable {self.name!r} cannot declare categories")
        else:
            if self.transform != "none":
                raise ConfigError(
                    f"transform {self.transform!r} is only valid on numeric variables "
                    f"({self.name!r} is {self.kind})"
                )
            if len(set(self.categories)) != len(self.categories):
                raise ConfigError(f"duplicate categories on variable {self.name!r}")
            # an empty list means: accept any labels at load time, sorted
            if self.categories:
                if self.kind == "binary" and len(self.categories) != 2:
                    raise ConfigError(
                        f"binary variable {self.name!r} must declare exactly 2 categories"
                    )
                if self.kind == "categorical" and len(self.categories) < 2:
                    raise ConfigError(
                        f"categorical variable {self.name!r} needs at least 2 categories"
                    )

    @property
    def is_categorical(self) -> bool:
        return self.kind in ("categorical", "binary")


def _check_schema(schema: Sequence[VariableSpec]) -> tuple[VariableSpec, ...]:
    specs = tuple(schema)
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate variable names in schema")
    responses = [s.name for s in specs if s.role == "response"]
    if len(responses) > 1:
        raise ConfigError(f"schema declares multiple responses: {responses}")
    return specs


class Dataset:
    """Immutable columnar dataset bound to a schema.

    ``columns[name]`` is float64 for numeric variables and int32 category
    codes for categorical/binary ones; NaN or code -1 marks a missing cell,
    and ``missing(name)`` derives the mask from that marker.  Arrays are
    frozen after construction.
    """

    def __init__(self, schema: Sequence[VariableSpec], columns: dict[str, np.ndarray]):
        self.schema = _check_schema(schema)
        self._by_name = {s.name: s for s in self.schema}
        if set(columns) != set(self._by_name):
            raise DataError("column keys must match schema names exactly")
        lengths = {arr.shape[0] for arr in columns.values()}
        if len(lengths) > 1:
            raise DataError(f"ragged columns: lengths {sorted(lengths)}")
        self.row_count = lengths.pop() if lengths else 0
        self.columns = {}
        for spec in self.schema:
            dtype = np.int32 if spec.is_categorical else np.float64
            col = np.asarray(columns[spec.name], dtype=dtype).copy()
            col.flags.writeable = False
            self.columns[spec.name] = col

    def spec(self, name: str) -> VariableSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"unknown variable {name!r}") from None

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schema)

    def missing(self, name: str) -> np.ndarray:
        """Boolean mask of the missing cells of one column."""
        if self.spec(name).is_categorical:
            return self.columns[name] < 0
        return np.isnan(self.columns[name])

    def labels(self, name: str) -> list[str | None]:
        """Decoded category labels for one categorical column (None = missing)."""
        spec = self.spec(name)
        if not spec.is_categorical:
            raise DataError(f"variable {name!r} is numeric, not categorical")
        codes = self.columns[name]
        return [spec.categories[c] if c >= 0 else None for c in codes]

    def encode(self, name: str, mapping: dict[str, float]) -> np.ndarray:
        """Float values of one categorical column, each label mapped through
        ``mapping`` by a lookup table over the category codes.

        The first row (in row order) that is missing or whose label has no
        value in ``mapping`` raises DataError.
        """
        spec = self.spec(name)
        if not spec.is_categorical:
            raise DataError(f"variable {name!r} is numeric, not categorical")
        codes = self.columns[name]
        # trailing False: the missing code -1 indexes it
        known = np.array([label in mapping for label in spec.categories] + [False])
        bad = ~known[codes]
        if bad.any():
            code = int(codes[np.argmax(bad)])
            if code < 0:
                raise DataError(f"missing value in categorical variable {name!r}")
            raise DataError(
                f"no quantification value for category {spec.categories[code]!r} "
                f"of {name!r}"
            )
        lookup = np.array([float(mapping.get(label, np.nan)) for label in spec.categories])
        return lookup[codes]

    def take(self, indices) -> "Dataset":
        """Row subset (or reorder) preserving schema and category order."""
        idx = np.asarray(indices, dtype=np.int64)
        cols = {name: arr[idx] for name, arr in self.columns.items()}
        return Dataset(self.schema, cols)

    def select(self, names: Sequence[str]) -> "Dataset":
        """Column subset in schema order; an unknown name raises DataError."""
        for name in names:
            self.spec(name)
        wanted = set(names)
        schema = [s for s in self.schema if s.name in wanted]
        cols = {s.name: self.columns[s.name] for s in schema}
        return Dataset(schema, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        return all(
            np.array_equal(col, other.columns[name], equal_nan=True)
            for name, col in self.columns.items()
        )

    def __repr__(self) -> str:
        return f"Dataset({self.row_count} rows, {len(self.schema)} variables)"


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def load_csv(source, schema: Sequence[VariableSpec]) -> Dataset:
    """Read an RFC 4180 CSV (UTF-8, header row required) against a schema.

    Empty fields are missing; numeric cells must parse to finite floats
    (``nan`` and ``inf`` are rejected, not read as values).  Categorical
    labels must come from the declared category list; a variable declared
    with an empty list accepts any labels and lists them sorted, so no
    category's code depends on row order.  Columns present in the file but
    absent from the schema are ignored, and a leading byte-order mark is
    dropped from the header.  The first fault in row order raises
    DataError, within a row the first in schema order.  A file that is not
    UTF-8 raises DataError naming it (see ``utf8_fault``); bytes that are
    not raise UnicodeDecodeError, for the caller that knows their name.
    """
    specs = _check_schema(schema)
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return _load_table(csv.reader(handle), specs)
        except UnicodeDecodeError:
            raise utf8_fault(Path(source).read_bytes(), f"data file {source}") from None
    if isinstance(source, bytes):
        text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", newline="")
        return _load_table(csv.reader(text), specs)
    return _load_table(csv.reader(source), specs)


def utf8_fault(data: bytes, name: str) -> DataError:
    """The DataError of CSV bytes that do not decode as UTF-8, naming
    ``name`` and the offset of the first byte that fails.  A streaming
    decoder counts its offsets from the start of its chunk, so the offset
    comes from decoding ``data`` whole."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return DataError(f"{name} is not valid UTF-8: {err.reason} at byte {err.start}")
    return DataError(f"{name} is not valid UTF-8")


def csv_header(reader) -> list[str] | None:
    """The next row of a ``csv.reader`` (None at the end), with a leading
    UTF-8 byte-order mark, as Excel's "CSV UTF-8" export writes it, dropped
    from its first name."""
    header = next(reader, None)
    if header and header[0].startswith("\ufeff"):
        header[0] = header[0][1:]
    return header


class _Labels:
    """One categorical column's labels and codes while a CSV loads.

    The empty field codes to -1.  An open column (no declared categories)
    codes new labels in first-seen order; ``_load_table`` sorts them after
    the last row.
    """

    def __init__(self, spec: VariableSpec):
        self.spec = spec
        self.found = list(spec.categories)
        self.code_of = {label: i for i, label in enumerate(self.found)}
        self.code_of[""] = -1

    def parse(self, cells: tuple[str, ...]):
        """(codes, fault): int32 codes of a chunk of cells, and the index and
        message of its first faulty cell, or None."""
        spec, code_of = self.spec, self.code_of
        if not spec.categories:
            # dict keys keep first-seen order
            for label in dict.fromkeys(cells):
                if label in code_of:
                    continue
                if spec.kind == "binary" and len(self.found) >= 2:
                    return None, (
                        cells.index(label),
                        f"binary variable {spec.name!r} saw a third label {label!r}",
                    )
                code_of[label] = len(self.found)
                self.found.append(label)
        try:
            return np.fromiter(map(code_of.__getitem__, cells), np.int32, len(cells)), None
        except KeyError:
            i = next(i for i, cell in enumerate(cells) if cell not in code_of)
            return None, (i, f"unknown category {cells[i]!r} for {spec.name!r}")


def _parse_numbers(name: str, cells: tuple[str, ...]):
    """(values, fault): float64 values of a chunk of cells, each read by
    ``float`` with NaN at empty cells, and the index and message of the
    first cell that is not a finite number, or None."""
    empty = []
    if "" in cells:
        cells = list(cells)
        i = cells.index("")
        while True:
            empty.append(i)
            cells[i] = "nan"
            try:
                i = cells.index("", i + 1)
            except ValueError:
                break
    end = len(cells)
    try:
        values = np.fromiter(map(float, cells), np.float64, end)
    except ValueError:
        end = next(i for i, cell in enumerate(cells) if not _is_number(cell))
        values = np.fromiter(map(float, cells[:end]), np.float64, end)
    bad = ~np.isfinite(values)
    bad[[i for i in empty if i < end]] = False
    if bad.any():
        i = int(np.argmax(bad))
        return values, (i, f"non-finite value {cells[i]!r} for {name!r}")
    if end < len(cells):
        return values, (end, f"non-numeric value {cells[end]!r} for {name!r}")
    return values, None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_table(reader, specs: tuple[VariableSpec, ...]) -> Dataset:
    header = csv_header(reader)
    if header is None:
        raise DataError("CSV has no header row")
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in positions and any(s.name == name for s in specs):
            raise DataError(f"duplicate CSV column {name!r}")
        positions.setdefault(name, i)
    for spec in specs:
        if spec.name not in positions:
            raise DataError(f"CSV is missing required column {spec.name!r}")

    labels = {s.name: _Labels(s) for s in specs if s.is_categorical}
    parts: dict[str, list[np.ndarray]] = {s.name: [] for s in specs}
    width = len(header)
    done = 0
    while rows := list(islice(reader, _CHUNK_ROWS)):
        sizes = list(map(len, rows))
        whole = len(rows)
        if sizes.count(width) < whole:
            whole = next(i for i, size in enumerate(sizes) if size != width)
        fault = None  # (row index in the chunk, message)
        if whole:
            fields = list(zip(*rows[:whole]))
            for spec in specs:
                cells = fields[positions[spec.name]]
                if spec.is_categorical:
                    values, found = labels[spec.name].parse(cells)
                else:
                    values, found = _parse_numbers(spec.name, cells)
                if found is not None and (fault is None or found[0] < fault[0]):
                    fault = found
                parts[spec.name].append(values)
        if fault is not None:
            raise DataError(f"{fault[1]} at data row {done + fault[0] + 1}")
        if whole < len(rows):
            raise DataError(
                f"malformed CSV at data row {done + whole + 1}: "
                f"expected {width} fields, got {sizes[whole]}"
            )
        done += len(rows)

    final_specs = []
    columns = {}
    for spec in specs:
        dtype = np.int32 if spec.is_categorical else np.float64
        column = np.concatenate(parts[spec.name]) if parts[spec.name] else np.empty(0, dtype)
        if spec.is_categorical:
            found = tuple(labels[spec.name].found)
            if spec.kind == "binary" and len(found) != 2:
                raise DataError(
                    f"binary variable {spec.name!r} has {len(found)} observed "
                    f"categories, needs exactly 2"
                )
            if spec.kind == "categorical" and len(found) < 2:
                raise DataError(
                    f"categorical variable {spec.name!r} has {len(found)} observed "
                    f"categories, needs at least 2"
                )
            if not spec.categories:
                # recode first-seen codes to sorted ones; the trailing -1
                # keeps missing cells missing
                sorted_labels = tuple(sorted(found))
                recode = [sorted_labels.index(label) for label in found] + [-1]
                column = np.array(recode, dtype=np.int32)[column]
                found = sorted_labels
            spec = replace(spec, categories=found)
        final_specs.append(spec)
        columns[spec.name] = column
    return Dataset(final_specs, columns)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it beside other fields of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _cells(column: np.ndarray, table: np.ndarray | None, empty: str) -> list[str]:
    """The CSV fields of a chunk of one column: labels from ``table`` by
    category code (its last entry serves code -1), or floats by ``repr``
    with ``empty`` at NaN."""
    if table is not None:
        return table[column].tolist()
    cells = list(map(repr, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = empty
    return cells


def serialize_csv(ds: Dataset, destination) -> None:
    """Write a dataset back to CSV; floats use repr so reloads are lossless.

    The bytes are ``csv.writer``'s with ``\\n`` line ends.  Columns are
    formatted a chunk of rows at a time: labels from a table quoted once
    per category, floats by ``repr``, missing cells as empty fields (as
    ``""`` in a one-column table, where an empty row would read as no
    row), and each chunk's rows go out in one write.
    """
    # csv.writer quotes a row's only field when it is empty
    empty = '""' if len(ds.schema) == 1 else ""
    tables = {
        s.name: np.array(
            [_csv_field(label) or empty for label in s.categories] + [empty], dtype=object
        )
        for s in ds.schema
        if s.is_categorical
    }

    def _write(handle):
        csv.writer(handle, lineterminator="\n").writerow(ds.variable_names)
        for start in range(0, ds.row_count, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            fields = [
                _cells(ds.columns[s.name][start:stop], tables.get(s.name), empty)
                for s in ds.schema
            ]
            handle.write("\n".join(map(",".join, zip(*fields))) + "\n")

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            _write(handle)
    else:
        _write(destination)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterRule:
    """One row predicate; rules in a list are conjoined.

    A missing cell never satisfies ``in_set`` or ``range``.
    """

    kind: str
    variable: str
    labels: tuple[str, ...] = ()
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        if self.kind not in ("in_set", "non_missing", "range"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind == "in_set" and not self.labels:
            raise ConfigError(f"in_set filter on {self.variable!r} has no labels")
        if self.kind == "range" and self.low is None and self.high is None:
            raise ConfigError(f"range filter on {self.variable!r} has no bounds")

    def check(self, spec: VariableSpec) -> None:
        """ConfigError unless the rule fits ``spec``, its variable: in_set
        needs a categorical variable and range a numeric one, and each
        in_set label must be a category where categories are declared."""
        if self.kind == "in_set":
            if not spec.is_categorical:
                raise ConfigError(
                    f"in_set filter needs a categorical variable, got {self.variable!r}"
                )
            unknown = [l for l in self.labels if l not in spec.categories]
            if unknown and spec.categories:
                raise ConfigError(
                    f"filter on {self.variable!r} references unknown categories {unknown}"
                )
        if self.kind == "range" and spec.is_categorical:
            raise ConfigError(f"range filter needs a numeric variable, got {self.variable!r}")


def _rule_mask(ds: Dataset, rule: FilterRule) -> np.ndarray:
    if rule.variable not in ds.variable_names:
        raise ConfigError(f"filter references unknown variable {rule.variable!r}")
    spec = ds.spec(rule.variable)
    rule.check(spec)
    vals = ds.columns[rule.variable]
    if rule.kind == "in_set":
        # the missing code -1 is never wanted
        wanted = [i for i, label in enumerate(spec.categories) if label in rule.labels]
        return np.isin(vals, wanted)
    mask = ~ds.missing(rule.variable)
    if rule.kind == "non_missing":
        return mask
    # range, bounds inclusive
    if rule.low is not None:
        mask &= vals >= rule.low
    if rule.high is not None:
        mask &= vals <= rule.high
    return mask


def apply_filters(ds: Dataset, rules: Sequence[FilterRule]) -> Dataset:
    """Keep exactly the rows satisfying every rule; row order is preserved."""
    mask = np.ones(ds.row_count, dtype=bool)
    for rule in rules:
        mask &= _rule_mask(ds, rule)
    return ds.take(np.flatnonzero(mask))


def complete_rows(ds: Dataset, variables: Sequence[str]) -> np.ndarray:
    """Boolean mask of the rows with no missing value in any of the given
    variables."""
    mask = np.ones(ds.row_count, dtype=bool)
    for name in variables:
        mask &= ~ds.missing(name)
    return mask


def listwise_complete(ds: Dataset, variables: Sequence[str]) -> Dataset:
    """Rows with no missing value in any of the given variables.

    A dataset with no such row is returned itself: its arrays are frozen,
    so sharing it is as safe as a copy.
    """
    mask = complete_rows(ds, variables)
    if mask.all():
        return ds
    return ds.take(np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation (n - 1 divisor); 0.0 when n < 2."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(np.sqrt(np.sum((v - v.mean()) ** 2) / (v.size - 1)))


def summarize(ds: Dataset) -> dict:
    """The report's summary section: ``{"row_count": ..., "variables":
    ...}``, each variable with descriptive statistics (sample sd) or a
    frequency table."""
    out: dict[str, dict] = {}
    for spec in ds.schema:
        present = ~ds.missing(spec.name)
        entry: dict = {
            "role": spec.role,
            "kind": spec.kind,
            "n": int(present.sum()),
            "n_missing": int((~present).sum()),
        }
        if spec.kind == "numeric":
            vals = ds.columns[spec.name][present]
            if vals.size:
                entry.update(
                    mean=float(vals.mean()),
                    sd=sample_sd(vals),
                    min=float(vals.min()),
                    max=float(vals.max()),
                )
        else:
            codes = ds.columns[spec.name][present]
            entry["frequencies"] = {
                label: int(np.count_nonzero(codes == i))
                for i, label in enumerate(spec.categories)
            }
        out[spec.name] = entry
    return {"row_count": ds.row_count, "variables": out}
