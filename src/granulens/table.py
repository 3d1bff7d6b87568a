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

    def bits_for(self, name: str) -> int:
        return self.bits.get(name, 0)

    @classmethod
    def uniform(cls, table: "InformationTable", bits: int,
                attrs: Sequence[str] | None = None) -> "GranulationScheme":
        """Apply one bits level to every numeric attribute (or the given subset)."""
        names = attrs if attrs is not None else [a.name for a in table.attributes]
        return cls({n: bits for n in names if table.attribute(n).kind == "numeric"})


class InformationTable:
    """Immutable universe of objects with condition attributes and one decision.

    It keeps its columns as given: a float64 ndarray per numeric attribute, else a list."""

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

        self._columns = {a.name: columns[a.name] for a in self.attributes}  # not copied
        for name, col in self._columns.items():
            if self._spec_by_name[name].kind == "numeric":
                if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
                    raise DataError(f"numeric column {name!r} is not a float64 array")
            elif not isinstance(col, list):
                raise DataError(f"categorical column {name!r} is not a list")

        dec_spec = self._spec_by_name[decision]
        if dec_spec.kind != "categorical":
            raise DataError("decision attribute must be categorical")
        if MISSING in self._columns[decision]:
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

    @cached_property
    def _decision_texts(self) -> tuple[np.ndarray, dict]:
        """Each object's id among the ``str`` of the decision labels, and each str's id.

        When every distinct label is a ``str``, the ids are ``decision_codes``.
        Otherwise equal labels may differ in ``str`` (``1``, ``1.0``, ``True``),
        so the ``str`` of every label is coded.
        """
        labels = self.decision_labels
        distinct = [labels[i] for i in _first_rows(self.decision_codes)]
        if all(type(label) is str for label in distinct):
            texts, codes = distinct, self.decision_codes
        else:
            texts, codes = _coded(list(map(str, labels)))
        return codes, dict(zip(texts, range(len(texts))))

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence], decision: str,
                     kinds: Mapping[str, str] | None = None,
                     table_id: str = "") -> "InformationTable":
        """Build a table from in-memory columns, typing them like the CSV loader.

        MISSING and NaN are missing values; an infinity in a numeric column
        is a DataError. Integer and float ndarrays are copied in one step.
        ``kinds`` overrides the inferred kind of a condition column, as
        ``load_table``'s ``schema_hints`` do.
        """
        columns = {k: c if isinstance(c, np.ndarray) else list(c) for k, c in columns.items()}
        specs, typed = _typed_columns(columns, decision, kinds or {}, "row {}".format)
        return cls(specs, typed, decision, table_id=table_id)


def _typed_columns(columns: Mapping[str, Sequence], decision: str, kinds: Mapping[str, str],
                   where: Callable[[int], str]) -> tuple[list[AttributeSpec], dict]:
    """Specs and values (float64 arrays or lists) of ``columns``: the decision is
    categorical, a condition column takes its kind from ``kinds`` or infers it.
    A categorical list is kept as given, so the caller passes one it owns."""
    for name in kinds:
        if name not in columns:
            raise DataError(f"schema hint for unknown column {name!r}")
    specs, typed = [], {}
    for name, cells in columns.items():
        kind = "categorical" if name == decision else kinds.get(name)
        if name in kinds and kind not in ("categorical", "numeric"):
            raise DataError(f"invalid kind {kind!r} for column {name!r}")
        spec, values = _typed_column(name, cells, kind, where)
        specs.append(spec)
        typed[name] = values if values is not None else (
            list(cells) if isinstance(cells, np.ndarray) else cells)
    return specs, typed


def _typed_column(name: str, cells: Sequence, kind: str | None,
                  where: Callable[[int], str]) -> tuple[AttributeSpec, np.ndarray | None]:
    """Spec of one column, with its values as a new float64 array if it is
    numeric, or None for a categorical column (the caller keeps its cells).

    ``kind`` None infers it: numeric iff some cell is not MISSING and every
    such cell parses with float(). NaN is missing. An infinity in a numeric
    column is a DataError; ``where(row)`` names its place. The range takes
    the first minimal and maximal values in row order, as Python's min and
    max do, so a zero keeps the sign it has first.
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
        raise DataError(f"column {name!r} declared numeric but row {bad} "
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
    total and is always categorical. Each numeric cell is parsed once, by
    ``reader.read_typed`` or else by one float() call.
    """
    text = decode_text(csv_data)
    lines = re.match(r"([^\r\n]*)[\r\n]*([^\r\n]*)", text)
    header, blanks, ragged = lines[1].split(","), [], None
    # kinds from the first record: a word there makes its column categorical
    # on the exact path too; a word further down fails the parse
    kinds = ["O" if name == decision_name or convert_cells(
        float, [cell.strip()], _MISSING_TOKENS)[1] is not None else "f8"
        for name, cell in zip(header, lines[2].split(",") + [""] * len(header))]
    raw = None if schema_hints else read_typed(text, header, kinds, _BLANK)
    as_missing = {**_AS_MISSING, _BLANK: MISSING}
    if raw is None:
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

    columns = {}
    for name, cells in zip(header, raw):
        if not isinstance(cells, np.ndarray) or cells.dtype == object:
            cells = list(map(str.strip, cells))
            cells = list(map(as_missing.get, cells, cells))  # a missing token to MISSING
        columns[name] = cells
    specs, typed = _typed_columns(columns, decision_name, schema_hints or {},
                                  lambda row: f"line {line_of(row, blanks)}")
    return InformationTable(specs, typed, decision_name, table_id=table_id)


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
    seen: dict = {}
    codes = []
    for t in tokens:
        code = seen.get(t)
        if code is None:
            code = seen[t] = len(seen)
        codes.append(code)
    return np.asarray(codes, dtype=np.int64)


def _first_rows(codes: np.ndarray) -> list[int]:
    """The row where each of the first-occurrence ``codes`` first appears, in code order."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1)).tolist()


def _coded(tokens: Sequence) -> tuple[list, np.ndarray]:
    """The distinct tokens in first-occurrence order, and factorize's codes."""
    codes = factorize(tokens)
    return [tokens[i] for i in _first_rows(codes)], codes


@dataclass(frozen=True)
class DiscreteView:
    """One int64 code array of length n per attribute under one granulation scheme."""

    source: InformationTable
    scheme: GranulationScheme
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
    MISSING maps to the dedicated code 2**b. Categorical values map to
    first-occurrence ordinals regardless of bits, the decision's cached.
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
        col = table.column(spec.name)
        if spec.kind == "numeric":
            codes[spec.name] = _bin_numeric(np.asarray(col), spec.observed_range,
                                            scheme.bits_for(spec.name))
        else:
            codes[spec.name] = (table.decision_codes if spec.name == table.decision
                                else factorize(col))
    return DiscreteView(table, scheme, codes)


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
