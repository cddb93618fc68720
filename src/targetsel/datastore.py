"""Flat-file containers: feature matrices and probability matrices.

Files are headerless CSV, one instance per line. They are parsed in bulk by
numpy's C reader; input it rejects, or that holds a non-finite value, is
re-read line by line so that the error names its line. Loaded containers are
immutable and safe to share across threads; they copy a writeable input array.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, EmptyInputError

ROW_SUM_TOL = 1e-6


def freeze(values):
    """Read-only C-contiguous float64 values: a read-only input is shared, any other copied."""
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        arr = np.ascontiguousarray(values, dtype=np.float64)
    else:
        arr = np.array(values, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d matrix of per-instance feature (or gradient-embedding) vectors.

    `factors` is None, or the pair (r, x) when the matrix was built by `outer`
    and row i is the flattened outer product r_i (x) x_i.
    """

    values: np.ndarray
    factors: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = freeze(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataFormatError(f"feature matrix must be 2-D and nonempty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataFormatError("feature matrix contains non-finite entries")
        object.__setattr__(self, "values", v)

    @classmethod
    def outer(cls, r, x):
        """The matrix of row-wise outer products r_i (x) x_i, keeping r and x as its factors."""
        r, x = freeze(r), freeze(x)
        if r.ndim != 2 or x.ndim != 2 or len(r) != len(x):
            raise DataFormatError(f"outer-product factors must be 2-D with equal rows, "
                                  f"got shapes {r.shape} and {x.shape}")
        values = (r[:, :, None] * x[:, None, :]).reshape(len(r), -1)
        values.setflags(write=False)  # shared, not copied: see freeze
        m = cls(values)  # finite values imply finite factors
        object.__setattr__(m, "factors", (r, x))
        return m

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def dims(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Row-stochastic n x C matrix of predicted class probabilities."""

    values: np.ndarray

    def __post_init__(self):
        v = freeze(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataFormatError("probability matrix must be 2-D and nonempty")
        if np.any(v < 0) or np.any(v > 1):
            bad = np.argwhere((v < 0) | (v > 1))[0]
            raise DataFormatError(
                f"probability entry out of [0,1] at row {bad[0]}, column {bad[1]}"
            )
        sums = v.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if off.size:
            raise DataFormatError(
                f"row {off[0]} sums to {sums[off[0]]:.8g}, expected 1 within {ROW_SUM_TOL}"
            )
        object.__setattr__(self, "values", v)

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def num_classes(self):
        return self.values.shape[1]


def _parse_csv(path):
    """Parse a headerless CSV of reals, enforcing rectangularity per line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}: ragged row at line {lineno}: "
                    f"expected {width} fields, got {len(fields)}"
                )
            try:
                row = [float(tok) for tok in fields]
            except ValueError as exc:
                raise DataFormatError(f"{path}: non-numeric token at line {lineno}: {exc}") from exc
            if not all(np.isfinite(row)):
                raise DataFormatError(f"{path}: non-finite value at line {lineno}")
            rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: file contains no data rows")
    return np.array(rows, dtype=np.float64)


def _read_csv(path):
    """Parse a headerless CSV of reals in bulk, falling back to `_parse_csv`.

    The line parser is the reference: it defines what is accepted and every
    error message. The bulk read is taken only when it succeeds with finite
    values; `comments=None` keeps '#' an ordinary (rejected) character.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on empty input
            values = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except (ValueError, UserWarning):
        values = None
    if values is None or not np.isfinite(values).all():
        values = _parse_csv(path)
    values.setflags(write=False)  # shared, not copied: see freeze
    return values


def load_features(path):
    """Load a FeatureMatrix from headerless CSV."""
    return FeatureMatrix(_read_csv(path))


def load_probabilities(path):
    """Load a row-stochastic ProbabilityMatrix from headerless CSV."""
    return ProbabilityMatrix(_read_csv(path))
