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

`load_dataset` reads a CSV path with no quote character in byte ranges
of at least `SPLIT_BYTES`, at most one per usable CPU, where the package
forks (Linux, see `fairdep.workers`): this process reads the first range
and a forked child each other one, and their reads merge in file order. Each
range is read in blocks of `BLOCK_ROWS` records, each block transposed
with one `zip`. A numeric or binned column is float64 in every block,
by one conversion of the raw cells where it can, and otherwise by one
conversion of the stripped cells that are not missing markers; a marker
marks its row to drop. Binary, categorical and label columns are coded
as int32 against their column's table of raw cells; after the last
block each distinct cell is stripped once, the markers among them
complete one mask of the rows to keep, and the recodes and checks run on
the distinct cells that kept rows use. Such a column is then its table
indexed by its codes. The result and every error (type, message and
precedence) are those of a row-by-row reader: a value error is raised
only after the whole file has been read, so an earlier bad value never
hides a later short row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice

import numpy as np

from .errors import DataError, SchemaError, signs
from .kernels import scaled_down
from .workers import FORKS, forked, usable_cpus

NUMERIC = "numeric"
BINARY = "binary"
CATEGORICAL = "categorical"
COLUMN_KINDS = (NUMERIC, BINARY, CATEGORICAL)

DEFAULT_MISSING = ("", "?", "NA")

BLOCK_ROWS = 1024  # CSV records read and transposed per step of `load_dataset`
SPLIT_BYTES = 1 << 19  # the least bytes per range of a CSV read by forked readers


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


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of the file open as descriptor `fd`, read by position.

    `end` None reads to the end of the file, wherever it is when read. A
    forked reader shares the descriptor's offset with its parent, so no
    reader moves it. `tell` is the absolute offset in the file.
    """

    def __init__(self, fd: int, start: int, end: int | None):
        self.fd, self.start, self.end, self.pos = fd, start, end, start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)
        if self.end is not None:
            view = view[: self.end - self.pos]
        read = os.preadv(self.fd, [view], self.pos)
        self.pos += read
        return read

    def tell(self) -> int:
        return self.pos


def _text(raw, encoding: str):
    return io.TextIOWrapper(io.BufferedReader(raw), encoding, newline="")


@contextmanager
def _open_csv(csv_source):
    """The text stream of a CSV's first byte range, and the `_ByteRange`s after it.

    A file object, and a path that does not split, are read as they are,
    in one range.
    """
    if hasattr(csv_source, "read"):
        yield csv_source, []
        return
    with open(csv_source, "r", encoding="utf-8-sig", newline="") as fh:
        if not (cuts := _byte_ranges(fh.fileno())):
            yield fh, []
            return
        ranges = [_ByteRange(fh.fileno(), *cut) for cut in cuts]
        with _text(ranges[0], "utf-8-sig") as first:
            yield first, ranges[1:]


def _byte_ranges(fd: int) -> list[tuple[int, int | None]]:
    """The byte ranges a CSV file splits into, or [] when it is read in one.

    Where the package forks, a regular file with no `"` splits into
    min(usable CPUs, size // SPLIT_BYTES) ranges when that is two or more:
    the bytes after the first line are cut into about equal shares, each
    but the last ending just after a newline, and the first range starts
    with the first line. With no quote character, every newline ends a
    record, so each range holds whole records. The last range runs to the
    end of the file, so a file that grows is read as far as one range
    would read it. A pipe or other stream never splits.
    """
    if not FORKS:
        return []
    info = os.fstat(fd)
    size = info.st_size
    parts = min(usable_cpus(), size // SPLIT_BYTES) if stat.S_ISREG(info.st_mode) else 1
    if parts < 2 or _find(fd, b'"', 0) >= 0 or (head := _find(fd, b"\n", 0) + 1) == 0:
        return []
    cuts = [0]
    for k in range(1, parts):
        cut = _find(fd, b"\n", head + k * (size - head) // parts) + 1
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None])) if len(cuts) > 1 else []


def _find(fd: int, byte: bytes, start: int) -> int:
    """The offset of the first `byte` at or after `start` in the file, or -1."""
    buffer = bytearray(1 << 16)
    while read := os.preadv(fd, [buffer], start):
        if (at := buffer.find(byte, 0, read)) >= 0:
            return start + at
        start += read
    return -1


def load_dataset(csv_source, schema: Schema) -> Dataset:
    """Read a headered CSV into a validated Dataset.

    Rows with a missing marker in any schema column (features or label)
    are dropped and counted in `dropped_rows`. Cell whitespace is
    stripped before interpretation.

    A path is read in byte ranges (see `_byte_ranges`): the first by this
    process, each other one by a child forked by `workers.forked` that
    runs `_read_range` and pickles what it read down a pipe. Each range's
    records go through `_scan`, and the scans are merged in file order
    (`_Scan.extend`). A file object, a small or quoted file, a pipe or
    other stream, and every platform but Linux take one range, read
    through one plain `open`. So on Linux this function may `os.fork`; the
    fork is safe in the commands (see `fairdep.workers`), but a caller
    whose process runs other threads that may hold locks can raise
    `SPLIT_BYTES` above its files' sizes to keep one range.

    `_scan` reads records in blocks of `BLOCK_ROWS` and transposes each
    by one `zip`. A block of a numeric or binned column is float64, by
    one conversion where it can (`_floats`): a marker sets its row in a
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
    does not decode raises DataError naming its offset in the file. Of
    the errors of step 2 and the undecodable bytes, the one in the
    earliest byte range counts. A fault of the program in a reader is
    raised here with its own type, as one range would raise it; a reader
    that ends without a result raises `concurrent.futures.BrokenExecutor`.
    Every reader is reaped before this returns or raises.
    """
    needed = list(schema.names) + [schema.label]
    # each marker, and its float value (None when float() rejects it)
    missing = {marker: _number(marker) for marker in schema.missing_values}
    # float64 per block, or (the label too) coded per distinct cell
    floats = [col.kind == NUMERIC or col.bins is not None for col in schema.columns] + [False]
    with _open_csv(csv_source) as (fh, ranges):
        scan = _read_csv(fh, ranges, needed, floats, missing)

    # a marker in any column drops its row; each coded distinct cell is stripped once
    keep = ~np.frombuffer(scan.drop, bool)
    tables = [[cell.strip() for cell in table] for table in scan.index]
    parts = scan.parts
    for j, table in enumerate(tables):
        if (marked := np.array([cell in missing for cell in table], bool)).any():
            keep &= ~marked[np.concatenate(parts[j])]
    n = int(np.count_nonzero(keep))
    if n < 2:
        raise DataError(f"fewer than 2 rows survive missing-value removal (got {n})")

    features = []
    for j, col in enumerate(schema.columns):
        if floats[j]:
            if bad_cells := [cell for row, cell in scan.rejects[j] if keep[row]]:  # in row order
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


def _read_csv(fh, ranges: list[_ByteRange], needed: list[str], floats, missing) -> "_Scan":
    """Check the header, then scan `fh` and every later byte range, merged in file order.

    The readers of the later ranges are forked once the header has
    passed its checks; `workers.forked` reaps each before this returns or
    raises, a KeyboardInterrupt included.
    """
    bad: list[csv.Error] = []
    records = _records(fh, bad)
    try:
        header = next(records, None)
    except UnicodeDecodeError as exc:
        raise DataError(_undecodable(fh, exc)) from None
    if header is None:
        if bad:
            raise DataError(f"row 1: malformed CSV record: {bad[0]}")
        raise DataError("CSV is empty")
    header = [h.strip() for h in header]
    for name in needed:
        if name not in header:
            raise DataError(f"unknown column: {name!r} not in CSV header")
        if header.count(name) > 1:
            raise DataError(f"duplicate column: {name!r} repeats in CSV header")
    layout = ([header.index(name) for name in needed], floats, missing)
    readers = [(f"the reader of the CSV from byte {r.start}", (r, *layout)) for r in ranges]
    with forked(_read_range, readers) as later_scans:
        scan = _scan(fh, records, bad, *layout)
        for _ in ranges:  # no reader after an error is waited for
            if scan.error is not None:
                break
            scan.extend(next(later_scans), floats)
    if scan.error is not None:
        row, text = scan.error
        raise DataError(text if row is None else f"row {row}: {text}")
    return scan


@dataclass
class _Scan:
    """What `_scan` read of one byte range, or of several merged in file order.

    Per needed column j (the schema's columns, then the label):
    `parts[j]`, each block's float64 values or its int32 codes into
    `index[j]` (raw cell -> code); `rejects[j]`, the (row, stripped cell)
    of each cell of a float64 column that is neither a marker nor a finite
    number, where a row is an index into the non-blank records. `drop`
    holds 1 per row where a float64 column holds a marker. `records`
    counts every record, blank ones included; `error` is the first
    short-row, malformed-record or decode error as (file-order row
    number, or None for a byte offset, text).
    """

    parts: list[list[np.ndarray]]
    index: list[dict[str, int]]
    rejects: list[list[tuple[int, str]]]
    drop: bytearray
    records: int = 0
    error: tuple[int | None, str] | None = None

    def extend(self, later: "_Scan", floats) -> None:
        """Append the scan of the byte range after this one.

        Its row numbers and row indices move past this one's; its codes are
        remapped into this scan's tables.
        """
        if later.error is not None:
            row, text = later.error
            self.error = (None if row is None else row + self.records, text)
        self.records += later.records
        rows = len(self.drop)
        self.drop += later.drop
        for j, blocks in enumerate(later.parts):
            if floats[j]:
                self.parts[j] += blocks
                self.rejects[j] += [(row + rows, cell) for row, cell in later.rejects[j]]
            else:
                index = self.index[j]
                remap = [index.setdefault(cell, len(index)) for cell in later.index[j]]
                remap = np.array(remap, np.int32)
                self.parts[j] += [remap[codes] for codes in blocks]


def _scan(fh, records, bad: list, positions: list[int], floats, missing) -> _Scan:
    """Read the records of one byte range (the rest of `fh`) in blocks of `BLOCK_ROWS`.

    Row numbers start at 2, as after a header. A short row, a malformed
    record or a byte that does not decode ends the range and is kept as
    the scan's `error`, not raised, so a later range's error cannot
    outrank it.
    """
    width = max(positions) + 1
    scan = _Scan([[] for _ in positions], [{} for _ in positions], [[] for _ in positions], bytearray())
    parts, index, rejects, drop = scan.parts, scan.index, scan.rejects, scan.drop
    row_no = 2
    try:
        while block := list(islice(records, BLOCK_ROWS)):
            lengths = np.fromiter(map(len, block), np.intp, len(block))
            short = np.flatnonzero((lengths > 0) & (lengths < width))
            if short.size:
                scan.error = (row_no + int(short[0]), "too few fields")
                return scan
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
    except UnicodeDecodeError as exc:
        scan.error = (None, _undecodable(fh, exc))
        return scan
    if bad:
        scan.error = (row_no, f"malformed CSV record: {bad[0]}")
    scan.records = row_no - 2
    return scan


def _undecodable(fh, exc: UnicodeDecodeError) -> str:
    # the text layer decodes the bytes in chunks, and exc.object is the
    # chunk holding the bad byte, which ends where the byte stream stands
    offset = fh.buffer.tell() - len(exc.object) + exc.start
    return f"byte {offset}: not valid UTF-8 ({exc.reason})"


def _read_range(byte_range: _ByteRange, positions, floats, missing) -> _Scan:
    """Scan a byte range after the first: what a forked reader runs.

    Each column's blocks are joined into one array, so the parent
    unpickles one per column and not one per block, each with its own
    array and buffer objects.
    """
    fh = _text(byte_range, "utf-8")
    bad: list[csv.Error] = []
    scan = _scan(fh, _records(fh, bad), bad, positions, floats, missing)
    scan.parts = [[np.concatenate(blocks)] if blocks else [] for blocks in scan.parts]
    return scan


def _records(fh, bad: list):
    """The CSV records of `fh`; a malformed one ends them, its csv.Error put in `bad`.

    The records before it are still yielded, so a short row among them
    counts first.
    """
    try:
        yield from csv.reader(fh)
    except csv.Error as exc:
        bad.append(exc)


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
    """A block of a float64 column's cells as float64, by one conversion where it can.

    The conversion of the raw cells stands when it succeeds, every value
    is finite and none equals a marker's own float value (`missing` maps
    each marker to it, or to None): numpy converts each cell with float(),
    which accepts only surrounding whitespace that str.strip also removes,
    so a cell whose stripped text is a marker either fails to convert or
    gives exactly that value. Otherwise each cell is stripped once and the
    markers set their rows in `drop`, where the block's rows are the last
    `len(cells)`; the other cells take one conversion, or, in a block where
    it fails, one float() each. A cell that is neither a marker nor a
    finite number goes to `rejects` with its row and stripped text.
    """
    with suppress(ValueError):
        values = np.asarray(cells, dtype=np.float64)
        clash = any((values == v).any() for v in missing.values() if v is not None)
        if np.isfinite(values).all() and not clash:
            return values
    size, first = len(cells), len(drop) - len(cells)
    stripped = [cell.strip() for cell in cells]
    marked = np.fromiter(map(missing.__contains__, stripped), bool, size)
    if marked.any():
        drop[first:] = (np.frombuffer(drop, bool, size, first) | marked).tobytes()
    rows = np.flatnonzero(~marked)
    kept = [stripped[i] for i in rows.tolist()]
    try:
        numbers = np.asarray(kept, dtype=np.float64)
    except ValueError:  # a cell that is no number: None, which reads as nan
        numbers = np.array([_number(cell) for cell in kept], dtype=np.float64)
    for k in np.flatnonzero(~np.isfinite(numbers)).tolist():
        rejects.append((first + int(rows[k]), kept[k]))
    values = np.full(size, np.nan)
    values[rows] = numbers
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
