"""Core domain types for observed-score test equating.

Scores live on consecutive-integer scales.  Covariates are either
categorical (declared levels) or continuous scores binned at ascending
thresholds.  Joint score-by-covariate probability tables and the
person-level datasets they are built from are validated on construction
and immutable afterwards, so they can be shared read-only across
parallel workers.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "KeqError",
    "ValidationError",
    "CsvFormatError",
    "ScoreScale",
    "Categorical",
    "Binned",
    "CovariateSpace",
    "ScoreDistribution",
    "JointProbabilityTable",
    "Dataset",
    "EquatingTable",
    "discretize",
    "tabulate_counts",
    "read_person_csv",
    "coerce_dataset",
    "substream",
]

# Probability vectors must sum to 1 within this tolerance; smaller drift
# (but above the renormalization floor) is silently rescaled away.
SUM_TOL = 1e-10
RENORM_FLOOR = 1e-12
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class KeqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KeqError):
    """A domain invariant was violated (bad probabilities, scores, levels...)."""


class CsvFormatError(KeqError):
    """A CSV file is structurally malformed.  Carries the 1-based line number
    and names the file, where known."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, key).

    Streams for distinct keys are statistically independent, so workers
    may consume them in any order (or in parallel) with identical results.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _normalized_probs(probs: np.ndarray, what: str) -> np.ndarray:
    if np.any(probs < 0):
        raise ValidationError(f"{what}: negative probability entries")
    total = float(probs.sum())
    drift = abs(total - 1.0)
    if drift > SUM_TOL:
        raise ValidationError(f"{what}: probabilities sum to {total!r}, not 1")
    if drift > RENORM_FLOOR:
        probs = probs / total
    return probs


@dataclass(frozen=True)
class ScoreScale:
    """Consecutive integer score points ``min..max`` inclusive."""

    min: int
    max: int

    def __post_init__(self):
        if not all(isinstance(b, (int, float, np.integer, np.floating)) and float(b).is_integer()
                   for b in (self.min, self.max)):
            raise ValidationError(
                f"score scale bounds must be integers, got [{self.min!r}, {self.max!r}]")
        object.__setattr__(self, "min", int(self.min))
        object.__setattr__(self, "max", int(self.max))
        if self.min > self.max:
            raise ValidationError(f"empty score scale [{self.min}, {self.max}]")

    @cached_property
    def points(self) -> np.ndarray:
        return _frozen_array(np.arange(self.min, self.max + 1), dtype=np.int64)

    @property
    def n_points(self) -> int:
        return self.max - self.min + 1

    def index_of(self, scores: np.ndarray) -> np.ndarray:
        return np.asarray(scores, dtype=np.int64) - self.min


@dataclass(frozen=True)
class Categorical:
    """Covariate with an explicit, ordered set of levels."""

    name: str
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValidationError(f"categorical {self.name!r} declares no levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValidationError(f"categorical {self.name!r} has duplicate levels")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_indices(self, values: np.ndarray) -> np.ndarray:
        """Each value's level index; an undeclared value is a ValidationError.

        Integer values against integer levels take one sorted lookup; every
        other column, and any column with an undeclared value, goes through
        a dict record by record."""
        values = np.asarray(values)
        found = _sorted_level_indices(self.levels, values)
        return found if found is not None else self._dict_level_indices(values)

    def _dict_level_indices(self, values: np.ndarray) -> np.ndarray:
        lookup = {level: i for i, level in enumerate(self.levels)}
        items = values.tolist()
        try:
            return np.fromiter(map(lookup.__getitem__, items), dtype=np.int64,
                               count=len(items))
        except KeyError:
            i, v = _first_missing(items, lookup)
            raise ValidationError(
                f"record {i}: undeclared level {v!r} for covariate {self.name!r}"
            ) from None


def _sorted_level_indices(levels: tuple, values: np.ndarray) -> np.ndarray | None:
    """The level index of each value by one sorted lookup, or None where the
    dict lookup must decide: values not of a signed integer type (or an
    unsigned one narrower than 64 bits), a level that is not an integer in
    the int64 range (a bool included), or a value that is no level."""
    kind, size = values.dtype.kind, values.dtype.itemsize
    if not (kind == "i" or (kind == "u" and size < 8)) or not all(
            isinstance(level, (int, np.integer)) and not isinstance(level, bool)
            and _INT64_MIN <= int(level) <= _INT64_MAX for level in levels):
        return None
    keys = np.array([int(level) for level in levels], dtype=np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    pos = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    if not np.array_equal(keys[pos], values):
        return None
    return order[pos]


@dataclass(frozen=True)
class Binned:
    """Continuous covariate cut into bins at ascending thresholds.

    Bins are left-closed/right-open; the final bin is closed at the top
    threshold.  Values below the first implied lower bound clamp into the
    first bin and values above the last threshold clamp into the last.
    """

    name: str
    thresholds: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ts)
        if len(ts) < 2:
            raise ValidationError(f"binned {self.name!r} needs at least 2 thresholds")
        if not all(np.isfinite(ts)):
            raise ValidationError(f"binned {self.name!r}: thresholds must be finite")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValidationError(f"binned {self.name!r}: thresholds must ascend")

    @property
    def n_levels(self) -> int:
        return len(self.thresholds)

    def level_indices(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            bad = int(np.argmax(~np.isfinite(values)))
            raise ValidationError(f"record {bad}: non-finite value for covariate {self.name!r}")
        return discretize(values, self.thresholds)


def discretize(value, thresholds) -> np.ndarray | int:
    """Map value(s) to 0-based bin indices per the :class:`Binned` rule."""
    ts = np.asarray(thresholds, dtype=float)
    scalar = np.isscalar(value) or np.ndim(value) == 0
    values = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValidationError("cannot discretize non-finite value")
    idx = np.minimum(np.searchsorted(ts, values, side="right"), len(ts) - 1)
    return int(idx[0]) if scalar else idx.astype(np.int64)


@dataclass(frozen=True)
class CovariateSpace:
    """Cross-product of covariate variables; cells indexed 0..L-1.

    Cell index runs with the *last* variable fastest, i.e. it is the
    mixed-radix number formed by the per-variable level indices.
    """

    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("covariate variable names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def n_cells(self) -> int:
        out = 1
        for v in self.variables:
            out *= v.n_levels
        return out

    def cells(self) -> list[tuple[int, ...]]:
        """All cells as tuples of per-variable level indices, in index order."""
        ranges = [range(v.n_levels) for v in self.variables]
        return list(itertools.product(*ranges))


@dataclass(frozen=True)
class ScoreDistribution:
    """Probability vector over the points of a score scale."""

    scale: ScoreScale
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.scale.n_points,):
            raise ValidationError(
                f"probs shape {probs.shape} does not match scale "
                f"({self.scale.n_points} points)"
            )
        probs = _normalized_probs(probs, "score distribution")
        object.__setattr__(self, "probs", _frozen_array(probs))

    @property
    def mean(self) -> float:
        return float(self.probs @ self.scale.points)

    @property
    def variance(self) -> float:
        x = self.scale.points.astype(float)
        return float(self.probs @ x**2 - self.mean**2)


@dataclass(frozen=True)
class JointProbabilityTable:
    """J x L joint probabilities of (score point, covariate cell)."""

    scale: ScoreScale
    covariates: CovariateSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        expect = (self.scale.n_points, self.covariates.n_cells)
        if probs.shape != expect:
            raise ValidationError(f"probs shape {probs.shape}, expected {expect}")
        probs = _normalized_probs(probs, "joint probability table")
        object.__setattr__(self, "probs", _frozen_array(probs))

    def covariate_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class Dataset:
    """Person-level scores plus raw covariate values.

    ``columns`` maps each covariate variable name to an array of raw
    values: levels for categorical variables, real numbers for binned
    ones (binned values may be non-integers, e.g. after an equating
    transformation has been applied to the column).  Each record's
    covariate cell index is computed once, on construction.

    A dataset never changes, so it keeps what is computed from it: its
    count table (``counts``) and whatever its callers store with
    ``cached``, such as the equating pipeline's presmoothed fit for each
    ``LoglinearSpec``.  The cache lives as long as the dataset object.  It
    is not pickled, so a copy (a worker process's, say) starts empty, as
    does every dataset made by ``take`` or ``restrict``.  A fit is not
    redone while its dataset lives: patching the fitter afterwards does
    not refit a dataset that was already fitted.
    """

    scale: ScoreScale
    covariates: CovariateSpace
    scores: np.ndarray
    columns: dict[str, np.ndarray]
    _cells: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores)
        if scores.dtype.kind == "f":
            if not np.all(scores == np.round(scores)):
                bad = int(np.argmax(scores != np.round(scores)))
                raise ValidationError(f"record {bad}: non-integer score {scores[bad]}")
        # Checked before the cast to int64, which would wrap inf, 1e30 or a
        # uint64 past 2**63 into the range.
        in_scale = (scores >= self.scale.min) & (scores <= self.scale.max)
        if not np.all(in_scale):
            bad = int(np.argmax(~in_scale))
            value = scores[bad]
            if scores.dtype.kind == "f" and abs(value) < 2.0**63:
                value = int(value)
            raise ValidationError(
                f"record {bad}: score {value} outside scale "
                f"[{self.scale.min}, {self.scale.max}]"
            )
        object.__setattr__(self, "scores", _frozen_array(scores, dtype=np.int64))
        cols = {}
        # The narrowest type that holds the cell count keeps the vector small.
        cells = np.zeros(len(scores), dtype=np.min_scalar_type(self.covariates.n_cells))
        for v in self.covariates.variables:
            if v.name not in self.columns:
                raise ValidationError(f"missing covariate column {v.name!r}")
            col = np.asarray(self.columns[v.name])
            if len(col) != len(scores):
                raise ValidationError(f"column {v.name!r} length mismatch")
            # Also the membership / finiteness check of the column's values.
            cells *= v.n_levels
            cells += v.level_indices(col).astype(cells.dtype)
            col = col.copy()
            col.setflags(write=False)
            cols[v.name] = col
        cells.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_cache", {})

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_cache"}

    def __setstate__(self, state):
        self.__dict__.update(state, _cache={})

    @property
    def n(self) -> int:
        return len(self.scores)

    def cell_indices(self) -> np.ndarray:
        """Covariate cell index of every record (all 0 without covariates)."""
        return self._cells

    def cached(self, key, compute):
        """``compute()``, called at most once per ``key`` for this dataset."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def counts(self) -> np.ndarray:
        """The read-only count table of ``tabulate_counts``, tabulated once."""
        return self.cached("counts", lambda: _frozen_array(tabulate_counts(self), np.int64))

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset from row indices (used by bootstrap resampling).

        The rows were validated when this dataset was built, so the new one
        is assembled from them directly, cell vector included.
        """
        scores, cells = self.scores[indices], self._cells[indices]
        columns = {k: c[indices] for k, c in self.columns.items()}
        for arr in (scores, cells, *columns.values()):
            arr.setflags(write=False)
        out = object.__new__(Dataset)
        for name, value in (("scale", self.scale), ("covariates", self.covariates),
                            ("scores", scores), ("columns", columns), ("_cells", cells),
                            ("_cache", {})):
            object.__setattr__(out, name, value)
        return out

    def restrict(self, names) -> "Dataset":
        """The same records with only the covariates named in ``names``."""
        space = CovariateSpace(
            tuple(v for v in self.covariates.variables if v.name in names)
        )
        return Dataset(self.scale, space, self.scores,
                       {name: self.columns[name] for name in space.names})


def tabulate_counts(dataset: Dataset) -> np.ndarray:
    """J x L integer count matrix of (score point, covariate cell)."""
    if dataset.n == 0:
        raise ValidationError("no records")
    j = dataset.scale.index_of(dataset.scores)
    l = dataset.cell_indices()
    J, L = dataset.scale.n_points, dataset.covariates.n_cells
    flat = np.bincount(j * L + l, minlength=J * L)
    return flat.reshape(J, L)


@dataclass(frozen=True)
class EquatingTable:
    """Equated value (and optional SEE) for every source score point."""

    source_scale: ScoreScale
    equated: np.ndarray
    see: np.ndarray | None = None
    method: str = "GKE"
    diagnostics: dict = field(default=None, compare=False, repr=False)
    mapping: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        eq = np.asarray(self.equated, dtype=float)
        if eq.shape != (self.source_scale.n_points,):
            raise ValidationError("equated vector does not match source scale")
        if np.any(np.diff(eq) < -1e-9):
            bad = int(np.argmax(np.diff(eq) < -1e-9))
            raise ValidationError(
                f"equated values decrease between score points "
                f"{self.source_scale.min + bad} and {self.source_scale.min + bad + 1}"
            )
        object.__setattr__(self, "equated", _frozen_array(eq))
        if self.see is not None:
            see = np.asarray(self.see, dtype=float)
            if see.shape != eq.shape:
                raise ValidationError("see vector does not match source scale")
            if np.any(see < 0):
                raise ValidationError("negative SEE")
            object.__setattr__(self, "see", _frozen_array(see))
        if self.diagnostics is None:
            object.__setattr__(self, "diagnostics", {})

    def with_see(self, see: np.ndarray) -> "EquatingTable":
        return EquatingTable(
            self.source_scale, self.equated, see, self.method,
            dict(self.diagnostics), self.mapping,
        )


# ---------------------------------------------------------------------------
# Person-level CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenColumn:
    """A dictionary-encoded text column: its distinct tokens, and for each
    record the index of its token."""

    tokens: tuple[str, ...]
    codes: np.ndarray

    @classmethod
    def encode(cls, values) -> "TokenColumn":
        """Distinct tokens in order of first appearance."""
        index: dict[str, int] = {}
        codes = np.fromiter((index.setdefault(v, len(index)) for v in values),
                            dtype=np.intp, count=len(values))
        return cls(tuple(index), codes)

    def first_record(self, token_mask: np.ndarray) -> int:
        """Index of the first record whose token is flagged in ``token_mask``."""
        return int(np.argmax(token_mask[self.codes]))


@dataclass(frozen=True)
class RawPersonTable:
    """Parsed person CSV: integer scores plus each covariate column's
    stripped tokens as a :class:`TokenColumn`."""

    scores: np.ndarray
    columns: dict[str, TokenColumn]

    @property
    def n(self) -> int:
        return len(self.scores)


# The columnar pass parses each covariate field as bytes of this fixed width;
# a field that fills it may have been cut, and its file goes to the row loop.
TOKEN_BYTES = 16
# Bytes whose files go to the row loop: quotes, carriage returns, control
# characters other than tab and newline, and everything outside ASCII.
_ROW_LOOP_BYTES = bytes([*range(0x09), *range(0x0B, 0x20), ord('"'), *range(0x7F, 0x100)])


def read_person_csv(path, score_column: str = "score",
                    covariate_columns: list[str] | None = None) -> RawPersonTable:
    """Read a person-level CSV (header row, one row per person).

    The file must be UTF-8 text with unique header names, a ``score``
    column of integers and one column per covariate; empty fields are
    rejected.  One leading byte-order mark, as spreadsheet programs write
    in "CSV UTF-8", is dropped.  ``covariate_columns`` restricts which
    columns are kept (default: all non-score columns).

    Plain files (ASCII without quotes or carriage returns, short tokens)
    are parsed in one ``np.loadtxt`` pass.  Every other file, and every
    file that pass finds anything wrong with, is read record by record
    with the ``csv`` module; only that row loop raises for the body.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    data = data[bom:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise CsvFormatError(f"not UTF-8 text: {exc.reason} at byte {bom + exc.start}",
                             line=line, path=path) from None
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        layout = _person_header(next(rows, None), path, score_column, covariate_columns)
        return _columnar_body(data, *layout) or _body_by_rows(rows, path, *layout)
    except csv.Error as exc:
        raise CsvFormatError(str(exc), line=rows.line_num, path=path) from None


def _person_header(header, path, score_column, covariate_columns):
    """Field count, score position and ``{covariate: position}`` of a header row."""
    if header is None:
        raise CsvFormatError("empty file", line=1, path=path)
    header = [h.strip() for h in header]
    seen = set()
    for h in header:
        if h in seen:
            raise CsvFormatError(f"duplicate column {h!r}", line=1, path=path)
        seen.add(h)
    if score_column not in header:
        raise CsvFormatError(f"missing column {score_column!r}", line=1, path=path)
    if covariate_columns is None:
        covariate_columns = [h for h in header if h != score_column]
    for c in covariate_columns:
        if c not in header:
            raise CsvFormatError(f"missing column {c!r}", line=1, path=path)
    return len(header), header.index(score_column), {c: header.index(c) for c in covariate_columns}


def _body_by_rows(rows, path, n_fields: int, score_pos: int, cov_pos: dict) -> RawPersonTable:
    """The records after the header, one ``csv`` row at a time (the reference
    reader, and the only one that reports malformed input)."""
    scores: list[int] = []
    columns: dict[str, list[str]] = {c: [] for c in cov_pos}
    for lineno, row in enumerate(rows, start=2):
        if len(row) != n_fields:
            raise CsvFormatError(f"expected {n_fields} fields, found {len(row)}",
                                 line=lineno, path=path)
        token = row[score_pos].strip()
        if token == "":
            raise CsvFormatError("missing score value", line=lineno, path=path)
        try:
            score = int(token)
        except ValueError:
            raise CsvFormatError(f"non-integer score {token!r}",
                                 line=lineno, path=path) from None
        if not _INT64_MIN <= score <= _INT64_MAX:
            raise CsvFormatError(f"score {token!r} outside the 64-bit integer range",
                                 line=lineno, path=path)
        scores.append(score)
        for c, pos in cov_pos.items():
            value = row[pos].strip()
            if value == "":
                raise CsvFormatError(f"missing value in column {c!r}",
                                     line=lineno, path=path)
            columns[c].append(value)
    if not scores:
        raise CsvFormatError("no data rows", line=2, path=path)
    return RawPersonTable(np.asarray(scores, dtype=np.int64),
                          {c: TokenColumn.encode(tokens) for c, tokens in columns.items()})


def _columnar_body(data: bytes, n_fields: int, score_pos: int,
                   cov_pos: dict) -> RawPersonTable | None:
    """The records after the header in one ``np.loadtxt`` pass, or None
    wherever the row loop might read the file differently: bytes it does
    not vouch for, a line longer than ``csv`` takes a field or ``int`` a
    numeral, fewer parsed rows than lines (``loadtxt`` skips blank ones),
    any ``loadtxt`` error or warning, a covariate field that fills
    ``TOKEN_BYTES`` or is empty once stripped."""
    if len(data.translate(None, _ROW_LOOP_BYTES)) != len(data) or score_pos in cov_pos.values():
        return None
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    n_lines = len(ends) - 1 + (not data.endswith(b"\n"))
    limit = csv.field_size_limit()
    # int() has no digit limit before Python 3.10.7, nor when it is set to 0.
    longest = min(limit, getattr(sys, "get_int_max_str_digits", lambda: 0)() or limit)
    if n_lines < 1 or np.diff(ends, prepend=-1, append=len(data)).max() > longest:
        return None
    fields = ["S1"] * n_fields
    fields[score_pos] = np.int64
    for pos in cov_pos.values():
        fields[pos] = f"S{TOKEN_BYTES}"
    body = io.StringIO(data[ends[0] + 1:].decode("ascii"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(body, dtype=[(f"f{i}", t) for i, t in enumerate(fields)],
                               delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    if len(table) < n_lines:
        return None
    columns = {}
    for name, pos in cov_pos.items():
        columns[name] = _token_column(table[f"f{pos}"])
        if columns[name] is None:
            return None
    return RawPersonTable(table[f"f{score_pos}"].copy(), columns)


def _token_column(field: np.ndarray) -> TokenColumn | None:
    """Stripped tokens of a fixed-width byte column, each distinct field
    decoded once; None if a field may have been cut or strips to empty."""
    field = np.ascontiguousarray(field)
    words = field.view(np.uint64).reshape(len(field), -1)
    if words[:, 1:].any():
        if field.view(np.uint8).reshape(len(field), -1)[:, -1].any():
            return None
        raw, codes = np.unique(field, return_inverse=True)
    else:
        # Fields of at most 8 bytes are one integer each, which sorts faster.
        raw, codes = np.unique(words[:, 0], return_inverse=True)
        raw = raw.view("S8")
    stripped = TokenColumn.encode([t.decode("ascii").strip() for t in raw.tolist()])
    if "" in stripped.tokens:
        return None
    return TokenColumn(stripped.tokens, stripped.codes[codes])


def coerce_dataset(raw: RawPersonTable, scale: ScoreScale,
                   covariates: CovariateSpace) -> Dataset:
    """Convert raw token columns to typed ones and build a validated Dataset.

    Each distinct token is converted once and the values are gathered by
    code; an error names the first record holding a bad token.  A token
    that names no declared level passes through unchanged, for the
    Dataset to reject."""
    columns: dict[str, np.ndarray] = {}
    for v in covariates.variables:
        col = raw.columns.get(v.name)
        if col is None:
            raise ValidationError(f"missing covariate column {v.name!r}")
        if isinstance(v, Binned):
            bad = np.array([not _is_float(t) for t in col.tokens], dtype=bool)
            if bad.any():
                i = col.first_record(bad)
                raise ValidationError(
                    f"record {i}: non-numeric value {col.tokens[col.codes[i]]!r} "
                    f"for binned covariate {v.name!r}"
                )
            values = np.array([float(t) for t in col.tokens], dtype=float)
        else:
            lookup = {str(level): level for level in v.levels}
            values = np.fromiter((lookup.get(t, t) for t in col.tokens), dtype=object,
                                 count=len(col.tokens))
        columns[v.name] = values[col.codes]
    return Dataset(scale, covariates, raw.scores, columns)


def _first_missing(items: list, lookup: dict) -> tuple[int, object]:
    """Index and value of the first item that is not a key of ``lookup``."""
    return next((i, v) for i, v in enumerate(items) if v not in lookup)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False
