"""Dense similarity kernels between feature matrices.

Within-set kernels are square and exactly symmetric as numpy returns x @ x.T
(a rank-k update with one triangle mirrored into the other); cross-set kernels
are rectangular and transpose-consistent (build(a, b).T == build(b, a)).
The default pipeline uses cosine similarity with the shift-scale transform
s <- (1 + s) / 2, which maps similarities into [0, 1] with unit diagonal.
"""

import os
from dataclasses import dataclass

import numpy as np

from .datastore import freeze
from .errors import (ConfigurationError, DegenerateFeatureError, IndefiniteKernelError,
                     ShapeError, SizeError)

METRICS = ("cosine", "dot")
TRANSFORMS = ("none", "shift-scale", "clip")

TILE = 256  # block side for the exact symmetry check: a mirrored pair of tiles is 1 MiB


def _physical_memory():
    """Bytes of physical memory, or None where sysconf cannot report it."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None  # sysconf gives -1 for "indeterminate"


# No kernel may need more bytes than this; None disables the check.
MEMORY_LIMIT = _physical_memory()


@dataclass(frozen=True)
class KernelConfig:
    metric: str = "cosine"
    transform: str = "shift-scale"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigurationError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(
                f"unknown transform {self.transform!r}, expected one of {TRANSFORMS}"
            )


@dataclass(frozen=True)
class SimilarityKernel:
    """r x c matrix of pairwise similarities s_ij; a writeable input is copied."""

    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        v = freeze(self.values)
        if v.ndim != 2:
            raise ShapeError(f"kernel must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("kernel contains non-finite entries")
        if self.symmetric:
            if v.shape[0] != v.shape[1]:
                raise ShapeError("symmetric kernel must be square")
            if not all(np.array_equal(v[r, c], v[c, r].T) for r, c in _tile_pairs(len(v))):
                raise ShapeError("symmetric flag set on a non-symmetric matrix")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


def _tile_pairs(n):
    """Yield (rows, cols) slices of the TILE blocks on and above the diagonal of n x n."""
    for i in range(0, n, TILE):
        rows = slice(i, i + TILE)
        for j in range(i, n, TILE):
            yield rows, slice(j, j + TILE)


def _prepare_rows(x, metric, which):
    x = np.asarray(x, dtype=np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DegenerateFeatureError(
                f"zero-norm row {zero[0]} in {which} matrix under cosine metric"
            )
        return x / norms[:, None]
    return x


def _apply_transform(g, transform):
    """Apply the transform to g in place, make g read-only and return it."""
    if transform == "shift-scale":
        g += 1.0
        g /= 2.0
    elif transform == "clip":
        np.maximum(g, 0.0, out=g)
    g.setflags(write=False)  # shared, not copied: see datastore.freeze
    return g


def build_kernel(a, b, cfg=KernelConfig()):
    """Build the r x c similarity kernel between feature matrices a and b.

    When a and b hold identical values the result is flagged symmetric, is
    exactly symmetric as the matrix product returns it, and (under cosine) gets
    an exact unit diagonal before the transform, all in place: the peak is one
    n x n array.
    Cross kernels with r < c are computed as the transpose of the swapped
    problem so that build(a, b).T == build(b, a) holds entrywise.
    Raises SizeError, before allocating, when the 8·r·c bytes of the result
    exceed MEMORY_LIMIT.
    """
    if a.dims != b.dims:
        raise ShapeError(f"feature dimension mismatch: {a.dims} vs {b.dims}")
    out_bytes = 8 * a.rows * b.rows
    if MEMORY_LIMIT is not None and out_bytes > MEMORY_LIMIT:
        raise SizeError(
            f"a {a.rows} x {b.rows} kernel needs {out_bytes} bytes, more than the "
            f"{MEMORY_LIMIT} bytes of physical memory"
        )
    same = a is b or (a.rows == b.rows and np.array_equal(a.values, b.values))
    xa = _prepare_rows(a.values, cfg.metric, "left")
    if same:
        g = xa @ xa.T
        if cfg.metric == "cosine":
            np.fill_diagonal(g, 1.0)
        return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=True)
    if a.rows < b.rows:
        return SimilarityKernel(build_kernel(b, a, cfg).values.T, symmetric=False)
    xb = _prepare_rows(b.values, cfg.metric, "right")
    g = xa @ xb.T
    return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=False)


def cholesky_or_raise(matrix, context):
    """Cholesky factor (lower) of a symmetric matrix, or a diagnosable error."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteKernelError(
            f"{context}: kernel is not positive definite; increase the ridge"
        ) from exc
