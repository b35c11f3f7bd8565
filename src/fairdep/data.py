"""Schema-driven CSV ingestion and one-hot encoding.

A Schema declares, per column, whether it is numeric, binary, or
categorical (with an ordered category list), plus the label column and
its positive value. Loading maps the label onto {-1, +1}, drops rows
with missing cells, and validates every categorical value against the
declaration. Encoding expands each categorical column with q categories
into q indicator columns, maps binary columns to a single 0/1 column,
and passes numeric columns through, producing the extended matrix used
by the dependence scorer.

Categorical columns may carry a `recode` map (raw value -> category) or,
for numeric sources, ascending `bins` cut points; intervals are
half-open on the right, so bins=[25, 60] buckets values as x < 25,
25 <= x < 60, x >= 60.

`load_dataset` reads the CSV in blocks of `BLOCK_ROWS` records and
transposes each block into columns, so no Python loop runs per row or
per cell. Per block and column: the missing test is one pass over the
stripped cells (a row mask is built only when a marker is present),
numeric and binned columns are parsed by one float64 conversion of the
kept cells, and binary, categorical and label cells are coded as
int32 against a per-column table of distinct raw cells. Once every row
is read, each distinct cell is stripped, recoded and checked once, and
a column is its table indexed by its codes. The result and every error
(type, message and precedence) are those of a row-by-row reader: a
value error is raised only after the whole file has been read, so an
earlier bad value never hides a later short row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .errors import DataError, SchemaError

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
    """

    name: str
    kind: str
    categories: tuple[str, ...] | None = None
    candidate_sensitive: bool | None = None  # None -> detector default by kind
    recode: dict[str, str] | None = None
    recode_default: str | None = None
    bins: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
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
            if list(self.bins) != sorted(self.bins):
                raise SchemaError(f"column {self.name!r}: bins must be ascending")
            if len(self.categories) != len(self.bins) + 1:
                raise SchemaError(
                    f"column {self.name!r}: {len(self.bins)} bin edges need "
                    f"{len(self.bins) + 1} categories, got {len(self.categories)}"
                )


@dataclass(frozen=True)
class Schema:
    """Column declarations plus the label column and its positive value."""

    columns: tuple[Column, ...]
    label: str
    positive: str
    missing_values: tuple[str, ...] = DEFAULT_MISSING

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
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
        try:
            columns = tuple(
                Column(
                    name=str(c["name"]),
                    kind=str(c["kind"]),
                    categories=tuple(c["categories"]) if "categories" in c else None,
                    candidate_sensitive=c.get("candidate_sensitive"),
                    recode={str(k): str(v) for k, v in c["recode"].items()}
                    if "recode" in c
                    else None,
                    recode_default=c.get("recode_default"),
                    bins=tuple(c["bins"]) if "bins" in c else None,
                )
                for c in doc["columns"]
            )
            label = doc["label"]
            return cls(
                columns=columns,
                label=str(label["name"]),
                positive=str(label["positive"]),
                missing_values=tuple(doc.get("missing_values", DEFAULT_MISSING)),
            )
        except (KeyError, TypeError) as exc:
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
        cols = []
        for c in self.columns:
            entry: dict = {"name": c.name, "kind": c.kind}
            if c.categories is not None:
                entry["categories"] = list(c.categories)
            if c.candidate_sensitive is not None:
                entry["candidate_sensitive"] = c.candidate_sensitive
            if c.recode is not None:
                entry["recode"] = dict(c.recode)
            if c.recode_default is not None:
                entry["recode_default"] = c.recode_default
            if c.bins is not None:
                entry["bins"] = list(c.bins)
            cols.append(entry)
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
        values = set(np.unique(self.y).tolist())
        if not values <= {-1, 1}:
            raise DataError(f"labels must lie in {{-1, +1}}, got {sorted(values)}")
        if len(values) < 2:
            raise DataError("degenerate labels: only one class present")
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
    parent: int
    parent_name: str
    category: str | None  # None for numeric passthrough columns
    column: int


@dataclass(frozen=True)
class EncodedDataset:
    """Extended matrix after one-hot encoding, with provenance maps."""

    schema: Schema
    matrix: np.ndarray
    subfeatures: tuple[Subfeature, ...]
    parent_columns: tuple[tuple[int, ...], ...]

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

    Records are read in blocks of `BLOCK_ROWS` and transposed. Every
    per-cell step (the missing mask, the float parse, the coding) is one
    C-level call per block and column; a block holding a missing marker
    strips its distinct cells to build the row mask. Strip, recode, the
    category checks and the label test run once per distinct kept cell of
    the whole file.
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
        fields = [itemgetter(p) for p in positions]
        width = max(positions) + 1
        missing = set(schema.missing_values)
        # parsed as float64 per block, or (the label too) coded per distinct cell
        floats = [col.kind == NUMERIC or col.bins is not None for col in schema.columns] + [False]
        parts: list[list[np.ndarray]] = [[] for _ in needed]
        index: list[dict[str, int]] = [{} for _ in needed]  # raw cell -> code
        errors: list[DataError | None] = [None for _ in needed]

        row_no, dropped = 2, 0
        while block := list(islice(reader, BLOCK_ROWS)):
            lengths = np.fromiter(map(len, block), np.intp, len(block))
            short = np.flatnonzero((lengths > 0) & (lengths < width))
            if short.size:
                raise DataError(f"row {row_no + int(short[0])}: too few fields")
            row_no += len(block)
            if not lengths.all():
                block = list(filter(None, block))  # blank records
            # transposed one needed column at a time: no row tuples are built
            columns = [list(map(field, block)) for field in fields]
            drop = None
            for cells in columns:
                if missing.isdisjoint(map(str.strip, cells)):  # the usual case
                    continue
                marks = {c for c in set(cells) if c.strip() in missing}
                hit = np.fromiter(map(marks.__contains__, cells), bool, len(cells))
                drop = hit if drop is None else drop | hit
            if drop is not None:
                dropped += int(np.count_nonzero(drop))
                keep = (~drop).tolist()
                columns = [list(compress(cells, keep)) for cells in columns]
            for j, cells in enumerate(columns):
                if not floats[j]:
                    parts[j].append(_code(index[j], cells))
                elif errors[j] is None:
                    try:
                        parts[j].append(_parse_floats(needed[j], cells))
                    except DataError as exc:
                        errors[j] = exc
            # free this block's cells before the next is read; two blocks alive
            # at once raise the process's peak RSS
            del block, columns
        _raise_malformed(row_no, bad)

        n = sum(map(len, parts[-1]))
        if n < 2:
            raise DataError(f"fewer than 2 rows survive missing-value removal (got {n})")

        features = []
        for j, col in enumerate(schema.columns):
            if errors[j] is not None:
                raise errors[j]
            values = np.concatenate(parts[j])
            parts[j].clear()  # free the blocks before the next column is joined
            if col.bins is not None:
                bin_of = np.searchsorted(np.asarray(col.bins), values, side="right")
                values = np.array(col.categories, dtype=object)[bin_of]
            elif not floats[j]:
                table = _interpret_values(col, [cell.strip() for cell in index[j]])
                values = np.array(table, dtype=object)[values]
            features.append(values)
        labels = [cell.strip() for cell in index[-1]]
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
            y=sign[np.concatenate(parts[-1])],
            dropped_rows=dropped,
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


def _parse_floats(name: str, cells) -> np.ndarray:
    """The cells as float64; DataError names the first non-numeric one.

    float() accepts the same surrounding whitespace as str.strip() except
    the separators \\x1c-\\x1f, so stripped cells are parsed only when the
    raw ones fail.
    """
    try:
        return np.asarray(cells, dtype=np.float64)
    except ValueError:
        cells = list(map(str.strip, cells))
    try:
        return np.asarray(cells, dtype=np.float64)
    except ValueError:
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                raise DataError(f"column {name!r}: non-numeric value {cell!r}") from None
        raise


def encode(dataset: Dataset) -> EncodedDataset:
    """One-hot encode into the extended matrix.

    Categorical columns with q categories become q indicator columns in
    declared order; binary columns one 0/1 column, the indicator of the
    second category of the pair the Dataset settled from the whole
    column; numeric columns are copied unchanged. Each categorical row
    block sums to exactly 1.
    """
    blocks: list[np.ndarray] = []
    subfeatures: list[Subfeature] = []
    parent_columns: list[tuple[int, ...]] = []
    next_col = 0
    for j, col in enumerate(dataset.schema.columns):
        values = dataset.features[j]
        if col.kind == NUMERIC:
            blocks.append(values.astype(np.float64).reshape(-1, 1))
            subfeatures.append(Subfeature(col.name, j, col.name, None, next_col))
            parent_columns.append((next_col,))
            next_col += 1
            continue
        cats = col.categories[1:] if col.kind == BINARY else col.categories
        block = np.zeros((dataset.n, len(cats)), dtype=np.float64)
        for k, cat in enumerate(cats):
            block[:, k] = values == cat
            subfeatures.append(Subfeature(f"{col.name}_{cat}", j, col.name, cat, next_col + k))
        blocks.append(block)
        parent_columns.append(tuple(range(next_col, next_col + len(cats))))
        next_col += len(cats)
    matrix = np.hstack(blocks)
    matrix.setflags(write=False)
    return EncodedDataset(
        schema=dataset.schema,
        matrix=matrix,
        subfeatures=tuple(subfeatures),
        parent_columns=tuple(parent_columns),
    )


def standardize_numeric(encoded: EncodedDataset) -> EncodedDataset:
    """Z-score the numeric passthrough columns; indicators are untouched.

    Zero-variance columns are only mean-centered. Off by default in the
    pipeline: the RBF kernel's 1/n scaling is the only normalization the
    dependence measure assumes.
    """
    matrix = encoded.matrix.copy()
    for j, col in enumerate(encoded.schema.columns):
        if col.kind != NUMERIC:
            continue
        c = encoded.parent_columns[j][0]
        v = matrix[:, c]
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


def write_encoded_csv(encoded: EncodedDataset, y, path, negative: str | None = None) -> None:
    """Write the extended matrix with `parent_category` headers plus the label."""
    y = np.asarray(y)
    neg = negative if negative is not None else f"not_{encoded.schema.positive}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in encoded.subfeatures] + [encoded.schema.label])
        for i in range(encoded.n):
            row = [_format_cell(v) for v in encoded.matrix[i]]
            row.append(encoded.schema.positive if y[i] == 1 else neg)
            writer.writerow(row)


def _format_cell(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def write_dataset_csv(dataset: Dataset, path, negative: str | None = None) -> None:
    """Write a Dataset back out as a raw CSV (header + original cells)."""
    neg = negative if negative is not None else f"not_{dataset.schema.positive}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.names) + [dataset.schema.label])
        for i in range(dataset.n):
            row = []
            for j, col in enumerate(dataset.schema.columns):
                v = dataset.features[j][i]
                row.append(_format_cell(v) if col.kind == NUMERIC else str(v))
            row.append(dataset.schema.positive if dataset.y[i] == 1 else neg)
            writer.writerow(row)
