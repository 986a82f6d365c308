"""Core domain types for observed-score test equating.

Scores live on consecutive-integer scales.  Covariates are either
categorical (declared levels) or continuous scores binned at ascending
thresholds.  Joint score-by-covariate probability tables and the
person-level datasets they are built from are validated on construction
and immutable afterwards, so they can be shared read-only across
parallel workers.
"""

from __future__ import annotations

import csv
import itertools
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
    "tabulate",
    "tabulate_counts",
    "read_person_csv",
    "coerce_dataset",
    "substream",
]

# Probability vectors must sum to 1 within this tolerance; smaller drift
# (but above the renormalization floor) is silently rescaled away.
SUM_TOL = 1e-10
RENORM_FLOOR = 1e-12


class KeqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KeqError):
    """A domain invariant was violated (bad probabilities, scores, levels...)."""


class CsvFormatError(KeqError):
    """A CSV file is structurally malformed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
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

    def level_indices(self, values: np.ndarray, what: str = "dataset") -> np.ndarray:
        lookup = {level: i for i, level in enumerate(self.levels)}
        items = np.asarray(values).tolist()
        try:
            return np.fromiter(map(lookup.__getitem__, items), dtype=np.int64,
                               count=len(items))
        except KeyError:
            i, v = _first_missing(items, lookup)
            raise ValidationError(
                f"{what}: record {i} has undeclared level {v!r} "
                f"for covariate {self.name!r}"
            ) from None


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
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValidationError(f"binned {self.name!r}: thresholds must ascend")

    @property
    def n_levels(self) -> int:
        return len(self.thresholds)

    def level_indices(self, values: np.ndarray, what: str = "dataset") -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            bad = int(np.argmax(~np.isfinite(values)))
            raise ValidationError(
                f"{what}: record {bad} has non-finite value for {self.name!r}"
            )
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

    def cell_index(self, level_idx: tuple[int, ...]) -> int:
        out = 0
        for v, i in zip(self.variables, level_idx):
            if not 0 <= i < v.n_levels:
                raise ValidationError(f"level index {i} out of range for {v.name!r}")
            out = out * v.n_levels + i
        return out


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

    def score_marginal(self) -> ScoreDistribution:
        return ScoreDistribution(self.scale, self.probs.sum(axis=1))

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
    """

    scale: ScoreScale
    covariates: CovariateSpace
    scores: np.ndarray
    columns: dict[str, np.ndarray]
    _cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scores = np.asarray(self.scores)
        if scores.dtype.kind == "f":
            if not np.all(scores == np.round(scores)):
                bad = int(np.argmax(scores != np.round(scores)))
                raise ValidationError(f"record {bad}: non-integer score {scores[bad]}")
        scores = scores.astype(np.int64)
        in_scale = (scores >= self.scale.min) & (scores <= self.scale.max)
        if not np.all(in_scale):
            bad = int(np.argmax(~in_scale))
            raise ValidationError(
                f"record {bad}: score {scores[bad]} outside scale "
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
            cells += v.level_indices(col, what="dataset").astype(cells.dtype)
            col = col.copy()
            col.setflags(write=False)
            cols[v.name] = col
        cells.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_cells", cells)

    @property
    def n(self) -> int:
        return len(self.scores)

    def cell_indices(self) -> np.ndarray:
        """Covariate cell index of every record (all 0 without covariates)."""
        return self._cells

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset from row indices (used by bootstrap resampling)."""
        return Dataset(
            self.scale,
            self.covariates,
            self.scores[indices],
            {k: c[indices] for k, c in self.columns.items()},
        )

    def restrict(self, names) -> "Dataset":
        """The same records with only the covariates named in ``names``."""
        space = CovariateSpace(
            tuple(v for v in self.covariates.variables if v.name in names)
        )
        return Dataset(self.scale, space, self.scores,
                       {name: self.columns[name] for name in space.names})

    def with_column(self, name: str, values: np.ndarray) -> "Dataset":
        if name not in self.columns:
            raise ValidationError(f"unknown covariate column {name!r}")
        cols = dict(self.columns)
        cols[name] = np.asarray(values)
        return Dataset(self.scale, self.covariates, self.scores, cols)


def tabulate_counts(dataset: Dataset) -> np.ndarray:
    """J x L integer count matrix of (score point, covariate cell)."""
    if dataset.n == 0:
        raise ValidationError("no records")
    j = dataset.scale.index_of(dataset.scores)
    l = dataset.cell_indices()
    J, L = dataset.scale.n_points, dataset.covariates.n_cells
    flat = np.bincount(j * L + l, minlength=J * L)
    return flat.reshape(J, L)


def tabulate(dataset: Dataset) -> JointProbabilityTable:
    """Empirical joint probability table: cell (j, l) = count / n."""
    counts = tabulate_counts(dataset)
    return JointProbabilityTable(dataset.scale, dataset.covariates, counts / dataset.n)


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
class RawPersonTable:
    """Parsed person CSV: integer scores plus raw string covariate columns."""

    scores: np.ndarray
    columns: dict[str, list[str]]

    @property
    def n(self) -> int:
        return len(self.scores)


def read_person_csv(path, score_column: str = "score",
                    covariate_columns: list[str] | None = None) -> RawPersonTable:
    """Read a person-level CSV (header row, one row per person).

    The file must carry a ``score`` column of integers plus one column per
    covariate; empty fields are rejected.  ``covariate_columns`` restricts
    which columns are kept (default: all non-score columns).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if score_column not in header:
            raise CsvFormatError(f"missing column {score_column!r}", line=1)
        if covariate_columns is None:
            covariate_columns = [h for h in header if h != score_column]
        for c in covariate_columns:
            if c not in header:
                raise CsvFormatError(f"missing column {c!r}", line=1)
        score_pos = header.index(score_column)
        cov_pos = {c: header.index(c) for c in covariate_columns}

        scores: list[int] = []
        columns: dict[str, list[str]] = {c: [] for c in covariate_columns}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"expected {len(header)} fields, found {len(row)}", line=lineno
                )
            token = row[score_pos].strip()
            if token == "":
                raise CsvFormatError("missing score value", line=lineno)
            try:
                scores.append(int(token))
            except ValueError:
                raise CsvFormatError(f"non-integer score {token!r}", line=lineno) from None
            for c, pos in cov_pos.items():
                value = row[pos].strip()
                if value == "":
                    raise CsvFormatError(f"missing value in column {c!r}", line=lineno)
                columns[c].append(value)
    if not scores:
        raise CsvFormatError("no data rows", line=2)
    return RawPersonTable(np.asarray(scores, dtype=np.int64), columns)


def coerce_dataset(raw: RawPersonTable, scale: ScoreScale,
                   covariates: CovariateSpace) -> Dataset:
    """Convert raw string columns to typed ones and build a validated Dataset."""
    columns: dict[str, np.ndarray] = {}
    for v in covariates.variables:
        tokens = raw.columns.get(v.name)
        if tokens is None:
            raise ValidationError(f"missing covariate column {v.name!r}")
        if isinstance(v, Binned):
            try:
                columns[v.name] = np.asarray([float(t) for t in tokens])
            except ValueError:
                bad = next(i for i, t in enumerate(tokens) if not _is_float(t))
                raise ValidationError(
                    f"record {bad}: non-numeric value {tokens[bad]!r} "
                    f"for binned covariate {v.name!r}"
                ) from None
        else:
            lookup = {str(level): level for level in v.levels}
            try:
                values = list(map(lookup.__getitem__, tokens))
            except KeyError:
                i, t = _first_missing(tokens, lookup)
                raise ValidationError(
                    f"record {i}: undeclared level {t!r} for covariate {v.name!r}"
                ) from None
            columns[v.name] = np.asarray(values, dtype=object)
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
