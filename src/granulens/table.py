"""Information tables, granulation schemes, discretization, and indiscernibility partitions.

An :class:`InformationTable` holds the universe U (rows 0..n-1), typed
attribute columns, and one designated categorical decision attribute.
Numeric attributes are granulated by equal-width binning over the observed
range at a chosen precision of ``b`` bits (2**b bins plus a missing bin);
categorical attributes always granulate by identity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .reader import convert_cells, decode_text, line_of, read_columns, read_typed


class _Missing:
    """Sentinel for a missing cell; a distinct category token for categoricals."""

    __slots__ = ()

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()

#: tokens in a CSV cell that denote a missing value
_MISSING_TOKENS = ("", "?")
_AS_MISSING = dict.fromkeys(_MISSING_TOKENS, MISSING)
#: read_typed's text for an empty cell: float() and np.loadtxt read it as math.nan
_BLANK = "+NaN"


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str  # "categorical" | "numeric"
    observed_range: tuple[float, float] | None = None  # numeric only


@dataclass(frozen=True)
class GranulationScheme:
    """Per-attribute bit precision; numeric attribute with b bits gets 2**b bins."""

    bits: Mapping[str, int] = field(default_factory=dict)

    def bits_for(self, name: str) -> int:
        return self.bits.get(name, 0)

    @classmethod
    def uniform(cls, table: "InformationTable", bits: int,
                attrs: Sequence[str] | None = None) -> "GranulationScheme":
        """Apply one bits level to every numeric attribute (or the given subset)."""
        names = attrs if attrs is not None else [a.name for a in table.attributes]
        return cls({n: bits for n in names if table.attribute(n).kind == "numeric"})


class InformationTable:
    """Immutable universe of objects with condition attributes and one decision."""

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

        lengths = {len(columns[n]) for n in names}
        if len(lengths) != 1:
            raise DataError("columns have unequal lengths")
        self.n = lengths.pop()
        if self.n < 1:
            raise DataError("empty table: need at least one object")

        self._columns: dict[str, object] = {}
        for spec in self.attributes:
            col = columns[spec.name]
            if spec.kind == "numeric":
                values, bad = _float_column(col, (MISSING,))
                if bad is not None:
                    raise _unparsable(spec.name, bad, col[bad])
                self._columns[spec.name] = values
            else:
                self._columns[spec.name] = list(col)

        dec_spec = self._spec_by_name[decision]
        if dec_spec.kind != "categorical":
            raise DataError("decision attribute must be categorical")
        if any(v is MISSING for v in self._columns[decision]):
            raise DataError("decision column contains MISSING values")

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._spec_by_name[name]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    def column(self, name: str):
        self.attribute(name)
        return self._columns[name]

    @property
    def condition_attributes(self) -> list[AttributeSpec]:
        return [a for a in self.attributes if a.name != self.decision]

    @property
    def decision_labels(self) -> list:
        return self._columns[self.decision]

    @cached_property
    def decision_codes(self) -> np.ndarray:
        """Decision classes as first-occurrence integer codes, factorized once."""
        codes = factorize(self.decision_labels)
        codes.flags.writeable = False  # shared by every caller
        return codes

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence], decision: str,
                     kinds: Mapping[str, str] | None = None,
                     table_id: str = "") -> "InformationTable":
        """Build a table from in-memory columns, inferring kinds like the CSV loader.

        MISSING and NaN are missing values; an infinity in a numeric column
        is a DataError. Integer and float ndarrays are copied in one step.
        """
        kinds = dict(kinds or {})
        specs, typed = [], {}
        for name, col in columns.items():
            kind = "categorical" if name == decision else (kinds.get(name) or None)
            spec, values = _typed_column(name, col, kind, (MISSING,), "row {}".format)
            specs.append(spec)
            typed[name] = col if values is None else values
        return cls(specs, typed, decision, table_id=table_id)


def _unparsable(name: str, row: int, cell) -> DataError:
    return DataError(f"column {name!r} declared numeric but row {row} "
                     f"has unparsable cell {cell!r}")


def _float_column(cells: Sequence, missing: tuple) -> tuple[np.ndarray, int | None]:
    """Cells as float64 with NaN for missing, and the first unparsable row or None."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "fiu":
        return cells.astype(np.float64), None
    values, bad = convert_cells(float, cells, missing, math.nan)
    return np.array(values, dtype=np.float64), bad


def _typed_column(name: str, cells: Sequence, kind: str | None, missing: tuple,
                  where: Callable[[int], str]) -> tuple[AttributeSpec, np.ndarray | None]:
    """Spec and float values of one column; values is None unless it is numeric.

    ``kind`` None infers it: numeric iff some cell is not in ``missing``
    and every such cell parses with float(). NaN is missing. An infinity
    in a numeric column is a DataError; ``where(row)`` names its place.
    The range takes the first minimal and maximal values in row order, as
    Python's min and max do, so a zero keeps the sign it has first.
    """
    if kind not in (None, "numeric"):
        return AttributeSpec(name, kind), None
    values, bad = _float_column(cells, missing)
    if bad is not None and kind is None:
        return AttributeSpec(name, "categorical"), None
    infinite = np.flatnonzero(np.isinf(values))
    if len(infinite):
        row = int(infinite[0])
        raise DataError(f"column {name!r} has non-finite value {values[row]} "
                        f"at {where(row)}")
    if bad is not None:
        raise _unparsable(name, bad, cells[bad])
    present = values[~np.isnan(values)]
    if not len(present):
        if kind is None and all(cell in missing for cell in cells):
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
    total and is always categorical. Each numeric cell is parsed once, by
    ``reader.read_typed`` or else by one float() call.
    """
    text = decode_text(csv_data)
    lines = re.match(r"([^\r\n]*)[\r\n]*([^\r\n]*)", text)
    header, blanks, ragged = lines[1].split(","), [], None
    # kinds from the first record of a text without quotes: a word there makes its
    # column categorical on the exact path too; a word further down fails the parse
    first = [] if '"' in text else lines[2].split(",")
    kinds = ["O" if name == decision_name or convert_cells(
        float, [cell.strip()], _MISSING_TOKENS)[1] is not None else "f8"
        for name, cell in zip(header, first + [""] * len(header))]
    raw = None if schema_hints else read_typed(text, header, kinds, _BLANK)
    as_missing = {**_AS_MISSING, _BLANK: MISSING}
    # an infinity is an error naming its line, which read_columns knows; a
    # column of blanks may be categorical
    if raw is None or any(np.isinf(col).any() or np.isnan(col).all()
                          for col in raw if col.dtype != object):
        header, raw, blanks, ragged = read_columns(text)
        as_missing = _AS_MISSING
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

    hints = dict(schema_hints or {})
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")

    specs, columns = [], {}
    for name, cells in zip(header, raw):
        if not isinstance(cells, np.ndarray) or cells.dtype == object:
            cells = list(map(str.strip, cells))
        kind = None
        if name == decision_name:
            kind = "categorical"
        elif name in hints:
            kind = hints[name]
            if kind not in ("categorical", "numeric"):
                raise DataError(f"invalid kind {kind!r} for column {name!r}")
        spec, values = _typed_column(
            name, cells, kind, _MISSING_TOKENS,
            lambda row: f"line {line_of(row, blanks)}")
        specs.append(spec)
        # a missing token maps to MISSING, any other cell to itself
        columns[name] = (list(map(as_missing.get, cells, cells))
                         if values is None else values)
    return InformationTable(specs, columns, decision_name, table_id=table_id)


def factorize(tokens: Iterable) -> np.ndarray:
    """Integer codes for a token sequence, ordinals by first occurrence.

    An integer ndarray that already holds such codes is returned as int64
    without a copy.
    """
    if (isinstance(tokens, np.ndarray) and tokens.ndim == 1
            and np.issubdtype(tokens.dtype, np.integer)):
        if _first_occurrence_coded(tokens):
            return tokens.astype(np.int64, copy=False)
        _, inverse = np.unique(tokens, return_inverse=True)
        return _first_occurrence_ids(inverse.astype(np.int64, copy=False))
    seen: dict = {}
    codes = []
    for t in tokens:
        code = seen.get(t)
        if code is None:
            code = seen[t] = len(seen)
        codes.append(code)
    return np.asarray(codes, dtype=np.int64)


@dataclass(frozen=True)
class DiscreteView:
    """Integer codes per (object, attribute) under one granulation scheme."""

    source: InformationTable
    scheme: GranulationScheme
    codes: np.ndarray  # shape (n, len(attributes)), int64
    _index: dict[str, int]

    def codes_for(self, name: str) -> np.ndarray:
        try:
            return self.codes[:, self._index[name]]
        except KeyError:
            raise DataError(f"unknown attribute {name!r}") from None

    @property
    def condition_names(self) -> list[str]:
        return [a.name for a in self.source.condition_attributes]


def discretize(table: InformationTable, scheme: GranulationScheme) -> DiscreteView:
    """Apply equal-width binning at the scheme's precision; see module docstring.

    Numeric value v with observed range [lo, hi] and b bits maps to
    floor((v-lo) / ((hi-lo)/2**b)), clamped to 2**b - 1 at the top edge;
    MISSING maps to the dedicated code 2**b. Categorical values map to
    first-occurrence ordinals regardless of bits.
    """
    for name, b in scheme.bits.items():
        spec = table.attribute(name)
        if spec.kind != "numeric":
            raise DataError(f"scheme references non-numeric attribute {name!r}")
        if b < 0:
            raise DataError(f"negative bits for attribute {name!r}")
        if b > 62:  # the missing-bin code 2**b must fit in int64
            raise DataError(f"bits {b} for attribute {name!r} exceeds 62")

    cols = []
    for spec in table.attributes:
        col = table.column(spec.name)
        if spec.kind == "numeric":
            cols.append(_bin_numeric(np.asarray(col), spec.observed_range,
                                     scheme.bits_for(spec.name)))
        else:
            cols.append(factorize(col))
    codes = np.column_stack(cols)
    index = {a.name: i for i, a in enumerate(table.attributes)}
    return DiscreteView(table, scheme, codes, index)


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

    @cached_property
    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self.block_of.tolist()):
            out[b].append(i)
        return out

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of, minlength=self.block_count)

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


def _first_occurrence_coded(codes: np.ndarray) -> bool:
    """True iff codes start at 0 and each is at most one above all before it."""
    if not len(codes) or codes[0] != 0 or codes.min() < 0:
        return False
    return bool((codes[1:] <= np.maximum.accumulate(codes)[:-1] + 1).all())


def _first_occurrence_ids(group_ids: np.ndarray) -> np.ndarray:
    """Relabel arbitrary group ids so ids follow first occurrence in object order."""
    n = len(group_ids)
    k = int(group_ids.max()) + 1 if n else 0
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, group_ids, np.arange(n))
    order = np.argsort(first, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return rank[group_ids]


def refine(partition: Partition, columns: Sequence[np.ndarray]) -> Partition:
    """Split every block of ``partition`` by the non-negative codes of each column.

    A column of width w = ``int(col.max()).bit_length()`` joins the key as
    ``key << w | col``; columns are packed next to the block ids as many at
    a time as fit in 63 bits, and each packed key is relabelled to
    first-occurrence ids by ``factorize``. A column too wide to fit beside
    the block ids is factorized first, which fits for fewer than 2**31 rows.
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
