"""Information tables, granulation schemes, discretization, and indiscernibility partitions.

An :class:`InformationTable` holds the universe U (rows 0..n-1), typed
attribute columns, and one designated categorical decision attribute.
Numeric attributes are granulated by equal-width binning over the observed
range at a chosen precision of ``b`` bits (2**b bins plus a missing bin);
categorical attributes, coded once when the table is built, by identity.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .reader import convert_cells, encoded, line_of, read_columns, scan


class _Missing:
    """Sentinel for a missing cell; a distinct category token for categoricals."""

    __slots__ = ()

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()

#: the tokens in a CSV cell that denote a missing value
_AS_MISSING = dict.fromkeys(("", "?"), MISSING)
#: the text written into an empty numeric field for np.loadtxt: it and float() read math.nan
_BLANK = b"+NaN"
#: arrays indexed by key stay below _DENSE * n slots: factorize's relabel, greedy counts
_DENSE = 8


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # "categorical" | "numeric"
    observed_range: tuple[float, float] | None = None  # numeric only


@dataclass(frozen=True)
class GranulationScheme:
    """Per-attribute bit precision; numeric attribute with b bits gets 2**b bins."""

    bits: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def uniform(cls, table: "InformationTable", bits: int,
                attrs: Sequence[str] | None = None) -> "GranulationScheme":
        """Apply one bits level to every numeric attribute (or the given subset)."""
        names = attrs if attrs is not None else [a.name for a in table.attributes]
        return cls({n: bits for n in names if table.attribute(n).kind == "numeric"})


class InformationTable:
    """Immutable universe of objects with condition attributes and one decision.

    It keeps its columns as given: a float64 ndarray per numeric attribute, and per
    categorical one the pair of its distinct tokens (a list) and each object's code
    among them (a read-only int64 ndarray, numbering the tokens by first occurrence).
    ``load_table`` and ``from_columns`` make their numeric arrays read-only too."""

    def __init__(self, attributes: Sequence[AttributeSpec],
                 columns: Mapping[str, Sequence], decision: str,
                 table_id: str = ""):
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise DataError("duplicate attribute names")
        if decision not in names:
            raise DataError(f"missing decision column {decision!r}")
        self.attributes = list(attributes)
        self.decision = decision
        self.table_id = table_id
        self._spec_by_name = {a.name: a for a in self.attributes}

        self._columns = {a.name: columns[a.name] for a in self.attributes}  # not copied
        lengths = set()
        for name, col in self._columns.items():
            if self._spec_by_name[name].kind == "numeric":
                if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
                    raise DataError(f"numeric column {name!r} is not a float64 array")
            elif not _is_coded(col):
                raise DataError(f"categorical column {name!r} is not a pair of distinct "
                                "tokens and their read-only int64 first-occurrence codes")
            lengths.add(len(col) if isinstance(col, np.ndarray) else len(col[1]))
        if len(lengths) != 1:
            raise DataError("columns have unequal lengths")
        self.n = lengths.pop()
        if self.n < 1:
            raise DataError("empty table: need at least one object")
        self._cells: dict[str, tuple] = {}  # from_columns' cells where one is not a str

        dec_spec = self._spec_by_name[decision]
        if dec_spec.kind != "categorical":
            raise DataError("decision attribute must be categorical")
        if MISSING in self._columns[decision][0]:
            raise DataError("decision column contains MISSING values")

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._spec_by_name[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    def column(self, name: str):
        """A numeric column's array, or a categorical one's cells as a new list."""
        if self.attribute(name).kind == "numeric":
            return self._columns[name]
        return list(self._cells[name]) if name in self._cells else _listed(*self._columns[name])

    @property
    def condition_attributes(self) -> list[AttributeSpec]:
        return [a for a in self.attributes if a.name != self.decision]

    @property
    def decision_labels(self) -> list:
        return self.column(self.decision)

    @property
    def decision_codes(self) -> np.ndarray:
        """Decision classes as read-only first-occurrence integer codes."""
        return self._columns[self.decision][1]

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence], decision: str,
                     kinds: Mapping[str, str] | None = None,
                     table_id: str = "") -> "InformationTable":
        """Build a table from in-memory columns, typing them like the CSV loader.

        MISSING and NaN are missing values; an infinity in a numeric column
        is a DataError. Integer and float ndarrays are copied in one step.
        ``kinds`` overrides the inferred kind of a condition column, as
        ``load_table``'s ``schema_hints`` do. ``column()`` returns a categorical
        column's cells as given where one is not a ``str``: ``1 == 1.0 == True``.
        """
        columns = {k: c if isinstance(c, np.ndarray) else list(c) for k, c in columns.items()}
        specs, typed = _typed_columns(columns, decision, kinds or {}, "row {}".format)
        table = cls(specs, typed, decision, table_id=table_id)
        table._cells = {name: tuple(columns[name]) for name, col in typed.items()
                        if type(col) is tuple and not all(type(t) is str for t in columns[name])}
        return table


def _typed_columns(columns: Mapping[str, Sequence], decision: str, kinds: Mapping[str, str],
                   where: Callable[[int], str]) -> tuple[list[AttributeSpec], dict]:
    """Specs and typed columns of ``columns``: the decision is categorical, a
    condition column takes its kind from ``kinds`` or infers it. A categorical
    column is coded once; a (tokens, codes) pair, coded on its bytes, is kept."""
    for name in kinds:
        if name not in columns:
            raise DataError(f"schema hint for unknown column {name!r}")
    specs, typed = [], {}
    for name, cells in columns.items():
        kind = "categorical" if name == decision or isinstance(cells, tuple) else kinds.get(name)
        if name in kinds and name != decision and kinds[name] not in ("categorical", "numeric"):
            raise DataError(f"invalid kind {kinds[name]!r} for column {name!r}")
        spec, values = _typed_column(name, cells, kind, where)
        if values is None:
            try:
                values = cells if isinstance(cells, tuple) else _coded(cells)
            except TypeError:  # the dict of tokens met an unhashable cell
                raise DataError(f"categorical column {name!r} has an unhashable cell") from None
        (values[1] if type(values) is tuple else values).flags.writeable = False
        specs.append(spec)
        typed[name] = values
    return specs, typed


def _typed_column(name: str, cells: Sequence, kind: str | None,
                  where: Callable[[int], str]) -> tuple[AttributeSpec, np.ndarray | None]:
    """Spec of one column, with its values as a new float64 array if it is
    numeric, or None for a categorical column (the caller codes its cells).

    ``kind`` None infers it: numeric iff some cell is not MISSING and every
    such cell parses with float(). NaN is missing. An infinity in a numeric
    column, or a cell a column declared numeric cannot parse, is a DataError
    at ``where(row)``. The range takes the first minimal and maximal values in
    row order, as Python's min and max do, so a zero keeps the sign it has first.
    """
    if kind == "categorical":
        return AttributeSpec(name, kind), None
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "fiu":
        values, bad = cells.astype(np.float64), None
    else:  # MISSING reads as NaN
        values, bad = convert_cells(float, cells, (MISSING,), math.nan)
        values = np.array(values, dtype=np.float64)
    if bad is not None and kind is None:
        return AttributeSpec(name, "categorical"), None
    infinite = np.flatnonzero(np.isinf(values))
    if len(infinite):
        row = int(infinite[0])
        raise DataError(f"column {name!r} has non-finite value {values[row]} "
                        f"at {where(row)}")
    if bad is not None:
        raise DataError(f"column {name!r} declared numeric but {where(bad)} "
                        f"has unparsable cell {cells[bad]!r}")
    present = values[~np.isnan(values)]
    if not len(present):
        if kind is None and all(cell is MISSING for cell in cells):
            return AttributeSpec(name, "categorical"), None
        return AttributeSpec(name, "numeric"), values
    rng = (float(present[present.argmin()]), float(present[present.argmax()]))
    return AttributeSpec(name, "numeric", rng), values


def load_table(csv_data: bytes | str, decision_name: str,
               schema_hints: Mapping[str, str] | None = None,
               table_id: str = "") -> InformationTable:
    """Parse a header-first CSV into an InformationTable.

    A column is numeric iff it has a non-missing cell and every such cell
    parses as a real number, unless ``schema_hints`` overrides its kind.
    Empty cells and ``?`` are MISSING; in a numeric column so is a NaN
    cell, and an infinite one is a DataError. The decision column must be
    total and is always categorical. A text in ``reader.scan``'s grammar is
    read from its bytes (see ``_read_plain``); any other text is decoded and
    read by ``read_columns`` and one float() call per numeric cell.
    """
    body = encoded(csv_data)
    read = _read_plain(body, {**(schema_hints or {}), decision_name: "categorical"})
    header, raw, blanks, ragged = read or read_columns(body)
    if header is None:
        raise DataError("empty file")
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    if decision_name not in header:
        raise DataError(f"missing decision column {decision_name!r}")
    if ragged is not None:
        raise DataError(f"ragged row at line {ragged[0]}: "
                        f"expected {len(header)} cells, got {ragged[1]}")
    if not len(raw[0]):
        raise DataError("empty file: no data rows")
    if read is None:  # each cell stripped, a missing token made MISSING
        raw = [list(map(_AS_MISSING.get, cells, cells))
               for cells in (list(map(str.strip, cells)) for cells in raw)]
    specs, typed = _typed_columns(dict(zip(header, raw)), decision_name, schema_hints or {},
                                  lambda row: f"line {line_of(row, blanks)}")
    return InformationTable(specs, typed, decision_name, table_id=table_id)


def _read_plain(body: bytes, kinds: Mapping[str, str]) -> tuple[list[str], list, list, None] | None:
    """``read_columns``' result for a table in ``reader.scan``'s grammar, its columns
    typed, or None where the csv path must read it.

    A column's kind is its hint in ``kinds`` (``_typed_columns`` rejects a bad one)
    or, as the csv path infers it, text if its first cell is neither missing nor a
    number. Text is coded on its bytes, then its distinct tokens are stripped, made
    MISSING if missing, and coded again. One np.loadtxt call reads the numeric
    columns, with ``_BLANK`` in each empty field. None where it rejects a field
    (``?``, a blank-only field, ``1_0``, non-ASCII, a word further down) or reads a
    column of NaN only (which the csv path may call categorical), or for a token too
    wide to code. No record is blank or spans lines, so ``line_of`` is exact here.
    """
    scanned = scan(body)
    if scanned is None:
        return None
    header, data, bounds = scanned
    raw, numeric, empty = [], [], []
    for c, name in enumerate(header):
        start, end = bounds(c)
        first = data[start[0]:end[0]].tobytes().decode("utf-8", "surrogatepass")
        bad = convert_cells(float, [first.strip()], _AS_MISSING)[1]  # the csv path's inference
        if kinds.get(name, "numeric" if bad is None else "categorical") != "numeric":
            fields = code_fields(data, start, end)
            if fields is None:
                return None
            tokens, ids = _coded([_AS_MISSING.get(t, t) for t in map(str.strip, fields[0])])
            raw.append((tokens, ids[fields[1]]))
        else:
            numeric.append(c)
            empty.append(start[start == end])
            raw.append(None)
    if numeric:
        at = np.sort(np.concatenate(empty)).tolist()
        filled = _BLANK.join(body[i:k] for i, k in zip([0] + at, at + [len(body)]))
        try:
            values = np.loadtxt(io.BytesIO(filled), dtype=np.float64, delimiter=",", comments=None,
                                skiprows=1, usecols=numeric, ndmin=2, encoding="latin-1")
        except ValueError:
            return None
        if np.isnan(values).all(axis=0).any():
            return None
        for j, c in enumerate(numeric):
            raw[c] = values[:, j]
    return header, raw, [], None


def factorize(tokens: Iterable) -> np.ndarray:
    """Integer codes for a token sequence, ordinals by first occurrence.

    An integer ndarray that already holds such codes is returned as int64
    without a copy. Any other is relabelled in one pass over max + 1 slots,
    once ``np.unique`` has ranked a range that is negative or reaches
    ``_DENSE * len(tokens)``. Other sequences go through a dict of tokens.
    """
    if (isinstance(tokens, np.ndarray) and tokens.ndim == 1
            and np.issubdtype(tokens.dtype, np.integer)):
        n, keys = len(tokens), tokens
        if not n or int(keys.min()) < 0 or int(keys.max()) >= _DENSE * n:
            _, keys = np.unique(tokens, return_inverse=True)  # ranks, below n
        elif keys[0] == 0 and (keys[1:] <= np.maximum.accumulate(keys)[:-1] + 1).all():
            return keys.astype(np.int64, copy=False)  # each at most one above all before it
        rows = np.arange(n)
        first = np.full(int(keys.max()) + 1 if n else 0, n, dtype=np.int64)
        np.minimum.at(first, keys, rows)  # each key's first row
        leaders = keys[first[keys] == rows]  # in row order
        first[leaders] = np.arange(len(leaders))  # now each key's id
        return first[keys]
    return _coded(tokens)[1]


def _is_coded(column) -> bool:
    """True for a categorical column as InformationTable keeps it: a list of distinct
    tokens, and read-only int64 codes that use every token and that factorize returns
    as they are (so 1-D first-occurrence codes)."""
    try:
        tokens, codes = column
        return (type(tokens) is list and codes.dtype == np.int64 and not codes.flags.writeable
                and len(set(tokens)) == len(tokens) and (not len(codes) or factorize(codes) is codes)
                and int(codes.max(initial=-1)) + 1 == len(tokens))
    except (ValueError, TypeError, AttributeError):  # not such a pair, or an unhashable token
        return False


def _listed(tokens: list, codes: np.ndarray) -> list:
    """The list of ``tokens[code]`` for each of ``codes``."""
    return np.fromiter(tokens, dtype=object, count=len(tokens))[codes].tolist()


def _coded(tokens: Iterable) -> tuple[list, np.ndarray]:
    """The distinct tokens in first-occurrence order, and each token's code among
    them, by one pass through a dict of tokens."""
    ids: dict = {}
    codes = np.array([ids.setdefault(t, len(ids)) for t in tokens], dtype=np.int64)
    return list(ids), codes


@dataclass(frozen=True)
class DiscreteView:
    """One int64 code array of length n per attribute under one granulation scheme."""

    source: InformationTable
    codes: Mapping[str, np.ndarray]  # attribute name -> its codes

    def codes_for(self, name: str) -> np.ndarray:
        try:
            return self.codes[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    @property
    def condition_names(self) -> list[str]:
        return [a.name for a in self.source.condition_attributes]


def discretize(table: InformationTable, scheme: GranulationScheme) -> DiscreteView:
    """Apply equal-width binning at the scheme's precision; see module docstring.

    Numeric value v with observed range [lo, hi] and b bits maps to
    floor((v-lo) / ((hi-lo)/2**b)), clamped to 2**b - 1 at the top edge;
    MISSING maps to the dedicated code 2**b. Categorical values map to the
    table's first-occurrence codes regardless of bits.
    """
    for name, b in scheme.bits.items():
        spec = table.attribute(name)
        if spec.kind != "numeric":
            raise DataError(f"scheme references non-numeric attribute {name!r}")
        if b < 0:
            raise DataError(f"negative bits for attribute {name!r}")
        if b > 62:  # the missing-bin code 2**b must fit in int64
            raise DataError(f"bits {b} for attribute {name!r} exceeds 62")

    codes = {}
    for spec in table.attributes:
        if spec.kind == "numeric":
            codes[spec.name] = _bin_numeric(table.column(spec.name), spec.observed_range,
                                            scheme.bits.get(spec.name, 0))
        else:
            codes[spec.name] = table._columns[spec.name][1]
    return DiscreteView(table, codes)


def _bin_numeric(values: np.ndarray, rng: tuple[float, float] | None,
                 bits: int) -> np.ndarray:
    nbins = 1 << bits
    out = np.full(values.shape, nbins, dtype=np.int64)  # missing bin by default
    mask = ~np.isnan(values)
    if rng is None or rng[0] == rng[1]:
        out[mask] = 0
        return out
    lo, hi = rng
    # t*2**b halves bin widths exactly as b grows (power-of-two scaling is
    # exact in binary floating point), which keeps levels nested. A range
    # wider than DBL_MAX is scaled by 1/2 first (exact for normal numbers);
    # t stays monotone in v and does not depend on b.
    if math.isfinite(hi - lo):
        t = (values[mask] - lo) / (hi - lo)
    else:
        t = (values[mask] / 2 - lo / 2) / (hi / 2 - lo / 2)
    codes = np.floor(t * nbins).astype(np.int64)
    out[mask] = np.clip(codes, 0, nbins - 1)
    return out


class Partition:
    """Equivalence classes of U; block ids assigned by first occurrence."""

    def __init__(self, block_of: np.ndarray):
        self.block_of = np.asarray(block_of, dtype=np.int64)
        self.n = len(self.block_of)
        self.block_count = int(self.block_of.max()) + 1 if self.n else 0

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies within a single block of other."""
        if self.n != other.n:
            return False
        pairs = np.unique(self.block_of * other.block_count + other.block_of)
        return len(pairs) == self.block_count

    @classmethod
    def from_labels(cls, labels: Iterable) -> "Partition":
        return cls(factorize(labels))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls(np.zeros(n, dtype=np.int64))


def refine(partition: Partition, columns: Iterable[np.ndarray]) -> Partition:
    """Split every block of ``partition`` by the non-negative codes of each column.

    A column of width w = ``int(col.max()).bit_length()`` joins the key as
    ``key << w | col``; columns are packed next to the block ids as many at
    a time as fit in 63 bits, and each packed key is relabelled to
    first-occurrence ids by ``factorize``, without a sort below ``_DENSE * n``.
    A column too wide to fit beside the block ids is factorized first,
    which fits for fewer than 2**31 rows.
    """
    keys, packed = partition.block_of, False  # packed: keys hold columns not yet relabelled
    used = (partition.block_count - 1).bit_length()  # bits the keys take
    for col in columns:
        width = int(col.max()).bit_length()
        if used + width > 63 and packed:
            keys, packed = factorize(keys), False
            used = int(keys.max()).bit_length()
        if used + width > 63:
            col = factorize(col)
            width = int(col.max()).bit_length()
        keys, used, packed = (keys << width) | col, used + width, True
    return Partition(factorize(keys)) if packed else partition


def code_fields(data: np.ndarray, start: np.ndarray,
                end: np.ndarray) -> tuple[list[str], np.ndarray] | None:
    """The distinct byte fields ``data[start:end]`` as ``str``, in first-occurrence
    order, and each field's code among them. ``data`` is UTF-8, and every field
    ends before the same byte, which none holds (``reader.scan``'s separators).

    Fields are coded byte position by position, each position one column for
    ``refine``, a field's end byte read past its end. So None is returned where
    the widest field is wider than the number of fields, or times that number
    more than ``_DENSE`` times the bytes: that bounds the passes and their work.
    """
    rows, widest = len(start), int((end - start).max())
    if widest > rows or widest * rows > _DENSE * len(data):
        return None
    byte_columns = (data[np.minimum(start + j, end)] for j in range(widest))
    codes = refine(Partition.single_block(rows), byte_columns).block_of
    first = np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))  # first rows
    return [data[i:k].tobytes().decode("utf-8", "surrogatepass") for i, k in
            zip(start[first].tolist(), end[first].tolist())], codes


def partition_by(view: DiscreteView, attrs: Sequence[str]) -> Partition:
    """Group objects whose code tuples over ``attrs`` coincide.

    Empty ``attrs`` yields the single-block partition.
    """
    table = view.source
    for name in attrs:
        table.attribute(name)
        if name == table.decision:
            raise DataError("cannot partition by the decision attribute")
    # each attribute once, in declaration order
    return refine(Partition.single_block(table.n),
                  [view.codes_for(a.name) for a in table.attributes if a.name in attrs])
