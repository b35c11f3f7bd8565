"""Schema-driven CSV ingestion and one-hot encoding.

A Schema declares, per column, whether it is numeric, binary, or
categorical (with an ordered category list), plus the label column and
its positive value. Loading maps the label onto {-1, +1}, drops rows
with missing cells, validates every categorical value against the
declaration, and requires every numeric or binned cell to be a finite
number. Encoding expands each categorical column with q categories
into q indicator columns, maps binary columns to a single 0/1 column,
and passes numeric columns through, producing the extended matrix used
by the dependence scorer.

Categorical columns may carry a `recode` map (raw value -> category) or,
for numeric sources, ascending `bins` cut points; intervals are
half-open on the right, so bins=[25, 60] buckets values as x < 25,
25 <= x < 60, x >= 60.

`load_dataset` reads the CSV in blocks of `BLOCK_ROWS` records and
transposes each block with one `zip`. A numeric or binned column is
float64 in every block: one conversion of the whole block when that
proves the block holds no missing marker (see `load_dataset`), and
otherwise a read of each cell, stripped once, in which a marker marks
its row to drop. Binary, categorical and label columns are coded as
int32 against their column's table of raw cells; after the last block
each distinct cell is stripped once, the markers among them complete
one mask of the rows to keep, and the recodes and checks run on the
distinct cells that kept rows use. Such a column is then its table
indexed by its codes. The result and every error (type, message and
precedence) are those of a row-by-row reader: a value error is raised
only after the whole file has been read, so an earlier bad value never
hides a later short row.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import suppress
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice

import numpy as np

from .errors import DataError, SchemaError, signs
from .kernels import scaled_down

NUMERIC = "numeric"
BINARY = "binary"
CATEGORICAL = "categorical"
COLUMN_KINDS = (NUMERIC, BINARY, CATEGORICAL)

DEFAULT_MISSING = ("", "?", "NA")

BLOCK_ROWS = 1024  # CSV records read and transposed per step of `load_dataset`


@dataclass(frozen=True)
class Column:
    """Declaration of one feature column.

    `recode` maps raw values onto declared categories; `recode_default`
    catches everything the map misses (handy for groupings like
    US/non-US where enumerating the long tail is pointless). `bins`
    turns a numeric source column into ordered categories.

    The fields, in this order, are the keys of a column in a schema
    document (`Schema.from_dict` builds `Column(**entry)`, `to_dict`
    writes them back), and construction checks each one's type:
    `name` and `kind` strings, `candidate_sensitive` a bool or None,
    `recode` a dict of strings to strings, `categories` and `bins`
    lists (or tuples).
    """

    name: str
    kind: str
    categories: tuple[str, ...] | None = None
    candidate_sensitive: bool | None = None  # None -> detector default by kind
    recode: dict[str, str] | None = None
    recode_default: str | None = None
    bins: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"column name must be a string, got {self.name!r}")
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if not isinstance(self.candidate_sensitive, (bool, type(None))):
            raise SchemaError(f"column {self.name!r}: candidate_sensitive must be true or false")
        if not isinstance(self.recode, (dict, type(None))) or any(
            not isinstance(s, str) for pair in (self.recode or {}).items() for s in pair
        ):
            raise SchemaError(f"column {self.name!r}: recode must map strings to strings")
        for key in ("categories", "bins"):
            if not isinstance(getattr(self, key), (list, tuple, type(None))):
                raise SchemaError(f"column {self.name!r}: {key} must be a list")
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"column {self.name!r}: duplicate categories")
        if self.kind == CATEGORICAL:
            if self.categories is None or len(self.categories) < 2:
                raise SchemaError(
                    f"column {self.name!r}: categorical needs >= 2 declared categories"
                )
        elif self.kind == BINARY:
            if self.categories is not None and len(self.categories) != 2:
                raise SchemaError(
                    f"column {self.name!r}: binary categories, when given, must be a pair"
                )
        elif self.categories is not None:
            raise SchemaError(f"column {self.name!r}: numeric columns take no categories")
        if (self.recode is not None or self.recode_default is not None) and self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r}: recode applies to categorical columns only")
        if self.recode_default is not None and self.recode_default not in (self.categories or ()):
            raise SchemaError(
                f"column {self.name!r}: recode_default {self.recode_default!r} "
                "is not a declared category"
            )
        if self.bins is not None:
            if self.kind != CATEGORICAL:
                raise SchemaError(f"column {self.name!r}: bins apply to categorical columns only")
            object.__setattr__(self, "bins", tuple(float(b) for b in self.bins))
            if not all(map(math.isfinite, self.bins)):
                raise SchemaError(f"column {self.name!r}: bins must be finite")
            if list(self.bins) != sorted(self.bins):
                raise SchemaError(f"column {self.name!r}: bins must be ascending")
            if len(self.categories) != len(self.bins) + 1:
                raise SchemaError(
                    f"column {self.name!r}: {len(self.bins)} bin edges need "
                    f"{len(self.bins) + 1} categories, got {len(self.categories)}"
                )


def _known_keys(doc: dict, keys, where: str) -> dict:
    """`doc`, checked to be a JSON object whose keys are all in `keys`."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}; expected one of {list(keys)}")
    return doc


@dataclass(frozen=True)
class Schema:
    """Column declarations plus the label column and its positive value.

    `label` and `positive` are strings and `missing_values` a list (or
    tuple) of strings, kept as a tuple. A marker with surrounding
    whitespace could never match, as the loader strips each cell before
    comparing it, so it is a SchemaError.
    """

    columns: tuple[Column, ...]
    label: str
    positive: str
    missing_values: tuple[str, ...] = DEFAULT_MISSING

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not (isinstance(self.label, str) and isinstance(self.positive, str)):
            raise SchemaError("label name and positive value must be strings")
        if not isinstance(self.missing_values, (list, tuple)) or any(
            not isinstance(m, str) for m in self.missing_values
        ):
            raise SchemaError("missing_values must be a list of strings")
        for marker in self.missing_values:
            if marker != marker.strip():
                raise SchemaError(f"missing value {marker!r} has surrounding whitespace")
        object.__setattr__(self, "missing_values", tuple(self.missing_values))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if not self.columns:
            raise SchemaError("schema declares no feature columns")
        if self.label in names:
            raise SchemaError(f"label column {self.label!r} also declared as a feature")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @classmethod
    def from_dict(cls, doc: dict) -> "Schema":
        """Schema from a parsed JSON document; every fault is a SchemaError.

        Each entry of "columns" is `Column(**entry)`, so the column keys
        are Column's fields. A key nothing reads raises, in a column, in
        "label" or at the top level. A TypeError, ValueError, KeyError or
        AttributeError from a missing or mistyped field becomes a
        SchemaError; Column's own SchemaErrors pass unchanged.
        """
        try:
            _known_keys(doc, ("columns", "label", "missing_values"), "schema")
            _known_keys(doc["label"], ("name", "positive"), "label")
            keys = [f.name for f in fields(Column)]
            return cls(
                columns=tuple(
                    Column(**_known_keys(entry, keys, f"columns[{i}]"))
                    for i, entry in enumerate(doc["columns"])
                ),
                label=doc["label"]["name"],
                positive=doc["label"]["positive"],
                missing_values=doc.get("missing_values", DEFAULT_MISSING),
            )
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "Schema":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """The document `from_dict` reads: each column's fields in order, None ones left out."""
        cols = [{key: v for key, v in asdict(c).items() if v is not None} for c in self.columns]
        return {
            "columns": cols,
            "label": {"name": self.label, "positive": self.positive},
            "missing_values": list(self.missing_values),
        }


@dataclass(frozen=True)
class Dataset:
    """Validated samples: one array per feature column plus labels in {-1, +1}.

    Numeric columns are float64 arrays; binary and categorical columns
    keep their (string) category values. A binary column declared with
    no pair gets its two sorted distinct values, over the whole column,
    when the Dataset is built, so `take` keeps the pair and encode reads
    it from `schema`. `negative_display` remembers the raw negative
    label when the source used a single one, so writers can round-trip
    it. Immutable after construction.
    """

    schema: Schema
    features: tuple[np.ndarray, ...]
    y: np.ndarray
    dropped_rows: int = 0
    negative_display: str | None = None

    def __post_init__(self):
        if len(self.features) != len(self.schema.columns):
            raise DataError("feature count does not match schema")
        n = self.y.shape[0]
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if any(col.shape[0] != n for col in self.features):
            raise DataError("feature columns and labels have mismatched lengths")
        if np.unique(signs(self.y)).size < 2:
            raise DataError("degenerate labels: only one class present")
        for col, cells in zip(self.schema.columns, self.features):
            floats = np.asarray(cells, dtype=np.float64) if col.kind == NUMERIC else 0.0
            if not np.isfinite(floats).all():
                bad = floats[~np.isfinite(floats)]
                raise DataError(f"column {col.name!r}: non-finite value {float(bad[0])!r}")
        columns = tuple(
            replace(col, categories=_categories(col, cells.tolist()))
            if col.kind == BINARY and col.categories is None
            else col
            for col, cells in zip(self.schema.columns, self.features)
        )
        object.__setattr__(self, "schema", replace(self.schema, columns=columns))

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def m(self) -> int:
        return len(self.features)

    def take(self, indices) -> "Dataset":
        """Row subset (used by subsampling); keeps the drop count."""
        idx = np.asarray(indices)
        return replace(
            self,
            features=tuple(col[idx] for col in self.features),
            y=self.y[idx],
        )


@dataclass(frozen=True)
class Subfeature:
    """One column of the extended matrix and where it came from."""

    name: str
    parent_name: str
    column: int


@dataclass(frozen=True)
class EncodedDataset:
    """Extended matrix after one-hot encoding, its labels, and provenance maps.

    `y` holds one label in {-1, +1} per matrix row (DataError otherwise);
    a single class is allowed.
    """

    schema: Schema
    matrix: np.ndarray
    y: np.ndarray
    subfeatures: tuple[Subfeature, ...]
    parent_columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "y", signs(self.y))
        if self.y.size != self.matrix.shape[0]:
            raise DataError(f"labels ({self.y.size}) and matrix ({self.matrix.shape[0]}) disagree")

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def width(self) -> int:
        return int(self.matrix.shape[1])

    def column(self, index: int) -> np.ndarray:
        return self.matrix[:, index]

    def decode_parent(self, parent: int) -> np.ndarray:
        """Recover the original column values from the encoded block.

        Every binary column's pair is in the schema (the Dataset settles
        it from the whole column), so every non-numeric column decodes
        unambiguously.
        """
        col = self.schema.columns[parent]
        block = self.parent_columns[parent]
        if col.kind == NUMERIC:
            return self.matrix[:, block[0]].copy()
        if col.kind == BINARY:
            zero_cat, one_cat = col.categories
            return np.where(self.matrix[:, block[0]] > 0.5, one_cat, zero_cat)
        cats = np.array(col.categories, dtype=object)
        picks = np.argmax(self.matrix[:, list(block)], axis=1)
        return cats[picks]


def _open_csv(csv_source):
    if hasattr(csv_source, "read"):
        return csv_source, False
    return open(csv_source, "r", encoding="utf-8-sig", newline=""), True


def load_dataset(csv_source, schema: Schema) -> Dataset:
    """Read a headered CSV into a validated Dataset.

    Rows with a missing marker in any schema column (features or label)
    are dropped and counted in `dropped_rows`. Cell whitespace is
    stripped before interpretation.

    Records are read in blocks of `BLOCK_ROWS` and transposed by one
    `zip`. A block of a numeric or binned column takes one float64
    conversion when it succeeds, every value is finite and no value
    equals a marker's own float value: numpy converts each cell with
    float(), which accepts only surrounding whitespace that str.strip
    also removes, so a cell whose stripped text is a marker either fails
    to convert or gives exactly that value. Any other block of such a
    column is read cell by cell (`_floats`): a marker sets its row in a
    drop mask of all rows, and only a cell that is neither a marker nor a
    finite number is kept, with its row, for the error message. Blocks of
    binary, categorical and label columns are coded as int32 against
    their column's table of raw cells. After the last block, each
    distinct coded cell is stripped once and the markers among them add
    their rows to the drop mask; then recode, the category checks and the
    label test run once per distinct cell that kept rows use.
    Blank records are skipped but keep their place in the row numbers.

    DataError precedence, as in a row-by-row reader:
      1. an empty file, or a schema column absent from (or repeated in)
         the header;
      2. the first short or malformed row (such as a field longer than
         `csv.field_size_limit()`), by its file-order row number;
      3. fewer than 2 rows left after dropping missing cells;
      4. value errors, column by column in schema order, raised only
         after every row has been read ("non-numeric" names the first bad
         kept cell in row order);
      5. label errors.

    Paths are read as UTF-8 with an optional byte-order mark; a byte that
    does not decode raises DataError naming its offset in the file.
    """
    fh, should_close = _open_csv(csv_source)
    try:
        bad: list[csv.Error] = []
        reader = _records(fh, bad)
        header = next(reader, None)
        if header is None:
            _raise_malformed(1, bad)
            raise DataError("CSV is empty")
        header = [h.strip() for h in header]
        needed = list(schema.names) + [schema.label]
        for name in needed:
            if name not in header:
                raise DataError(f"unknown column: {name!r} not in CSV header")
            if header.count(name) > 1:
                raise DataError(f"duplicate column: {name!r} repeats in CSV header")
        positions = [header.index(name) for name in needed]
        width = max(positions) + 1
        # each marker, and its float value (None when float() rejects it)
        missing = {marker: _number(marker) for marker in schema.missing_values}
        # float64 per block, or (the label too) coded per distinct cell
        floats = [col.kind == NUMERIC or col.bins is not None for col in schema.columns] + [False]
        # per column, each block's float64 values or its int32 codes into `index`
        parts: list[list[np.ndarray]] = [[] for _ in needed]
        index: list[dict[str, int]] = [{} for _ in needed]  # raw cell -> code
        # a row is an index into the non-blank records; per float64 column, the
        # (row, stripped cell) of each cell neither a marker nor a finite number
        rejects: list[list[tuple[int, str]]] = [[] for _ in needed]
        drop = bytearray()  # per row, 1 when a float64 column holds a marker there

        row_no = 2
        while block := list(islice(reader, BLOCK_ROWS)):
            lengths = np.fromiter(map(len, block), np.intp, len(block))
            short = np.flatnonzero((lengths > 0) & (lengths < width))
            if short.size:
                raise DataError(f"row {row_no + int(short[0])}: too few fields")
            row_no += len(block)
            if not lengths.all() and not (block := list(filter(None, block))):  # blank records
                continue
            transposed = list(islice(zip(*block), width))
            columns = [transposed[p] for p in positions]
            drop += bytes(len(block))
            del block, transposed  # two blocks alive at once raise the peak RSS
            for j, cells in enumerate(columns):
                if floats[j]:
                    parts[j].append(_floats(cells, missing, drop, rejects[j]))
                else:
                    parts[j].append(_code(index[j], cells))
            del columns, cells
        _raise_malformed(row_no, bad)

        # a marker in any column drops its row; each coded distinct cell is stripped once
        keep = ~np.frombuffer(drop, bool)
        tables = [[cell.strip() for cell in table] for table in index]
        for j, table in enumerate(tables):
            if (marked := np.array([cell in missing for cell in table], bool)).any():
                keep &= ~marked[np.concatenate(parts[j])]
        n = int(np.count_nonzero(keep))
        if n < 2:
            raise DataError(f"fewer than 2 rows survive missing-value removal (got {n})")

        features = []
        for j, col in enumerate(schema.columns):
            if floats[j]:
                if bad_cells := [cell for row, cell in rejects[j] if keep[row]]:  # in row order
                    kind = "non-numeric" if _number(bad_cells[0]) is None else "non-finite"
                    raise DataError(f"column {col.name!r}: {kind} value {bad_cells[0]!r}")
                # the blocks are freed before the next column is joined
                values, parts[j] = np.concatenate(parts[j]), []
                values = values[keep]
            else:
                cells, values = _kept_cells(tables[j], parts[j], keep)
                values = np.array(_interpret_values(col, cells), dtype=object)[values]
            if col.bins is not None:
                bin_of = np.searchsorted(np.asarray(col.bins), values, side="right")
                values = np.array(col.categories, dtype=object)[bin_of]
            features.append(values)
        labels, codes = _kept_cells(tables[-1], parts[-1], keep)
        if schema.positive not in labels:
            raise DataError(
                f"degenerate labels: positive value {schema.positive!r} never observed"
            )
        if all(v == schema.positive for v in labels):
            raise DataError("degenerate labels: only the positive class present")
        sign = np.array([1 if v == schema.positive else -1 for v in labels], dtype=np.int64)
        negatives = sorted({v for v in labels if v != schema.positive})
        return Dataset(
            schema=schema,
            features=tuple(features),
            y=sign[codes],
            dropped_rows=keep.size - n,
            negative_display=negatives[0] if len(negatives) == 1 else None,
        )
    except UnicodeDecodeError as exc:
        # the text layer decodes the bytes in chunks, and exc.object is the
        # chunk holding the bad byte, which ends where the byte stream stands
        offset = fh.buffer.tell() - len(exc.object) + exc.start
        raise DataError(f"byte {offset}: not valid UTF-8 ({exc.reason})") from None
    finally:
        if should_close:
            fh.close()


def _records(fh, bad: list):
    """The CSV records of `fh`; a malformed one ends them, its csv.Error put in `bad`.

    The records before it are still yielded, so a short row among them
    raises first.
    """
    try:
        yield from csv.reader(fh)
    except csv.Error as exc:
        bad.append(exc)


def _raise_malformed(row_no: int, bad: list) -> None:
    if bad:
        raise DataError(f"row {row_no}: malformed CSV record: {bad[0]}")


def _code(index: dict[str, int], cells) -> np.ndarray:
    """int32 codes of the cells, extending `index` with cells it lacks."""
    for cell in set(cells).difference(index):
        index[cell] = len(index)
    return np.fromiter(map(index.__getitem__, cells), np.int32, len(cells))


def _kept_cells(table: list[str], parts: list[np.ndarray], keep: np.ndarray):
    """The cells of `table` that kept rows use, and each kept row's index into them.

    Clears `parts`, a coded column's blocks, once they are joined.
    """
    codes = np.concatenate(parts)[keep]
    parts.clear()
    used = np.zeros(len(table), np.int32)
    used[codes] = 1
    # a used cell's index is the count of used cells before it
    return [table[k] for k in np.flatnonzero(used)], (np.cumsum(used, dtype=np.int32) - 1)[codes]


def _interpret_values(col: Column, values: list[str]) -> list[str]:
    """Recode and check a binary or categorical column's distinct values."""
    if col.recode:
        values = [col.recode.get(v, v) for v in values]
    if col.recode_default is not None:
        declared = set(col.categories)
        values = [v if v in declared else col.recode_default for v in values]
    _categories(col, values)
    return values


def _categories(col: Column, values) -> tuple[str, ...]:
    """A binary or categorical column's categories, checked against its values.

    An undeclared binary pair is the two distinct values, sorted (first -> 0);
    both must be strings, as `encode` compares cells with the pair's strings.
    """
    observed = set(values)
    if col.categories is None:
        if len(observed) != 2:
            raise DataError(
                f"column {col.name!r}: binary column has {len(observed)} distinct "
                f"values, expected exactly 2"
            )
        if not all(isinstance(v, str) for v in observed):
            raise DataError(
                f"column {col.name!r}: binary values must be strings, "
                f"got {sorted(observed, key=repr)!r}"
            )
        return tuple(sorted(observed))
    extra = observed.difference(col.categories)
    if extra and col.kind == CATEGORICAL:
        raise DataError(f"column {col.name!r}: undeclared category values {sorted(extra)!r}")
    if extra:
        raise DataError(f"column {col.name!r}: values {sorted(extra)!r} outside declared pair")
    return col.categories


def _floats(cells, missing: dict, drop: bytearray, rejects: list):
    """A block of a float64 column's cells as float64, by one conversion when it can.

    The conversion stands when it succeeds, every value is finite and none
    equals a marker's own float value (`missing` maps each marker to it,
    or to None): numpy converts each cell with float(), which accepts only
    surrounding whitespace that str.strip also removes, so a cell whose
    stripped text is a marker either fails to convert or gives exactly
    that value. Otherwise each cell is stripped once and read on its own.
    The block's rows are the last `len(cells)` of `drop`. A marker sets
    its row there; a cell that is neither a marker nor a finite number
    reads as nan, and its row and stripped text go to `rejects`.
    """
    with suppress(ValueError):
        values = np.asarray(cells, dtype=np.float64)
        clash = any((values == v).any() for v in missing.values() if v is not None)
        if np.isfinite(values).all() and not clash:
            return values
    values = np.full(len(cells), np.nan)
    for i, cell in enumerate(map(str.strip, cells)):
        if cell in missing:
            drop[i - len(cells)] = True
        elif (number := _number(cell)) is not None and math.isfinite(number):
            values[i] = number
        else:
            rejects.append((len(drop) - len(cells) + i, cell))
    return values


def _number(cell: str) -> float | None:
    """float(cell), or None when float() rejects the cell."""
    try:
        return float(cell)
    except ValueError:
        return None


def encode(dataset: Dataset) -> EncodedDataset:
    """One-hot encode into the extended matrix.

    Categorical columns with q categories become q indicator columns in
    declared order; binary columns one 0/1 column, the indicator of the
    second category of the pair the Dataset settled from the whole
    column; numeric columns are copied unchanged. Each categorical row
    block sums to exactly 1: a cell equal to none of its column's
    categories is a DataError naming the first such value. An encoded
    column is named `name` (numeric) or `name_category`; SchemaError when
    two source columns give one name (a categorical `a` with category `b`
    and a column `a_b`). The labels are the dataset's.
    """
    blocks: list[np.ndarray] = []
    subfeatures: list[Subfeature] = []
    parent_columns: list[tuple[int, ...]] = []
    next_col = 0
    for j, col in enumerate(dataset.schema.columns):
        values = dataset.features[j]
        if col.kind == NUMERIC:
            blocks.append(values.astype(np.float64).reshape(-1, 1))
            subfeatures.append(Subfeature(col.name, col.name, next_col))
            parent_columns.append((next_col,))
            next_col += 1
            continue
        block = np.column_stack([values == cat for cat in col.categories]).astype(np.float64)
        if (undeclared := values[block.sum(axis=1) == 0]).size:
            raise DataError(f"column {col.name!r}: undeclared value {undeclared.tolist()[0]!r}")
        cats = col.categories[1:] if col.kind == BINARY else col.categories
        block = block[:, -len(cats) :]  # cats ends the categories
        for k, cat in enumerate(cats):
            subfeatures.append(Subfeature(f"{col.name}_{cat}", col.name, next_col + k))
        blocks.append(block)
        parent_columns.append(tuple(range(next_col, next_col + len(cats))))
        next_col += len(cats)
    source: dict[str, str] = {}
    for sub in subfeatures:
        if (first := source.setdefault(sub.name, sub.parent_name)) != sub.parent_name:
            raise SchemaError(
                f"columns {first!r} and {sub.parent_name!r} both encode as {sub.name!r}"
            )
    matrix = np.hstack(blocks)
    matrix.setflags(write=False)
    return EncodedDataset(
        schema=dataset.schema,
        matrix=matrix,
        y=dataset.y,
        subfeatures=tuple(subfeatures),
        parent_columns=tuple(parent_columns),
    )


def standardize_numeric(encoded: EncodedDataset) -> EncodedDataset:
    """Z-score the numeric passthrough columns; indicators are untouched.

    Zero-variance columns are only mean-centered. Each column is first
    divided by the power of two above its largest |v| (`scaled_down`),
    which is exact, so the z-scores keep their bits and no square
    overflows at any finite magnitude. Off by default in the pipeline: the
    RBF kernel's 1/n scaling is the only normalization the dependence
    measure assumes.
    """
    matrix = encoded.matrix.copy()
    for j, col in enumerate(encoded.schema.columns):
        if col.kind != NUMERIC:
            continue
        c = encoded.parent_columns[j][0]
        v, _ = scaled_down(matrix[:, c])
        sd = v.std()
        matrix[:, c] = (v - v.mean()) / sd if sd > 0 else v - v.mean()
    matrix.setflags(write=False)
    return replace(encoded, matrix=matrix)


def dataset_from_arrays(
    schema: Schema, features, y, negative_display: str | None = None
) -> Dataset:
    """Build a Dataset from in-memory columns, checking categories as the CSV loader does."""
    dataset = Dataset(
        schema=schema,
        features=tuple(np.asarray(col) for col in features),
        y=np.asarray(y, dtype=np.int64),
        negative_display=negative_display,
    )
    for col, cells in zip(dataset.schema.columns, dataset.features):
        if col.kind != NUMERIC:  # against settled pairs too: non-string cells fail
            _categories(col, cells.tolist())
    return dataset


def write_encoded_csv(encoded: EncodedDataset, path, negative: str | None = None) -> None:
    """Write the extended matrix with `parent_category` headers plus the label."""
    columns = (map(_format_cell, encoded.matrix[:, c].tolist()) for c in range(encoded.width))
    header = [s.name for s in encoded.subfeatures]
    _write_csv(path, encoded.schema, header, columns, encoded.y, negative)


def write_dataset_csv(dataset: Dataset, path, negative: str | None = None) -> None:
    """Write a Dataset back out as a raw CSV (header + original cells)."""
    columns = (
        map(_format_cell if col.kind == NUMERIC else str, cells.tolist())
        for col, cells in zip(dataset.schema.columns, dataset.features)
    )
    _write_csv(path, dataset.schema, dataset.schema.names, columns, dataset.y, negative)


def _format_cell(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _write_csv(path, schema: Schema, header, columns, y, negative: str | None) -> None:
    """One CSV row per label: the columns' cells, then `positive` or `negative`.

    `negative` defaults to `not_<positive>`.
    """
    neg = negative if negative is not None else f"not_{schema.positive}"
    labels = [schema.positive if v == 1 else neg for v in y.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, schema.label])
        writer.writerows(zip(*columns, labels))


def write_json(path, doc) -> None:
    """Write `doc` as UTF-8 JSON indented by two, ending in a newline.

    NaN and infinities raise `ValueError`, since standard JSON has no such
    values; callers write an undefined value as None (`null`). The text is
    built before the file is opened, so a refused document writes nothing.
    """
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
