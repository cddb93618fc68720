"""Dense similarity kernels between feature matrices.

Within-set kernels are square and exactly symmetric; cross-set kernels are
rectangular and transpose-consistent (build(a, b).T == build(b, a) entrywise).
The default pipeline uses cosine similarity with the shift-scale transform
s <- (1 + s) / 2, which maps similarities into [0, 1] with unit diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateFeatureError, IndefiniteKernelError, ShapeError

METRICS = ("cosine", "dot")
TRANSFORMS = ("none", "shift-scale", "clip")

DEFAULT_RIDGE = 1e-6


@dataclass(frozen=True)
class KernelConfig:
    metric: str = "cosine"
    transform: str = "shift-scale"
    psd_ridge: float = DEFAULT_RIDGE

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigurationError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(
                f"unknown transform {self.transform!r}, expected one of {TRANSFORMS}"
            )
        if self.psd_ridge < 0:
            raise ConfigurationError("psd_ridge must be nonnegative")


@dataclass(frozen=True)
class SimilarityKernel:
    """r x c matrix of pairwise similarities s_ij."""

    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError(f"kernel must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("kernel contains non-finite entries")
        if self.symmetric:
            if v.shape[0] != v.shape[1]:
                raise ShapeError("symmetric kernel must be square")
            if not np.array_equal(v, v.T):
                raise ShapeError("symmetric flag set on a non-symmetric matrix")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape


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
    if transform == "shift-scale":
        return (1.0 + g) / 2.0
    if transform == "clip":
        return np.maximum(g, 0.0)
    return g


def build_kernel(a, b, cfg=KernelConfig()):
    """Build the r x c similarity kernel between feature matrices a and b.

    When a and b hold identical values the result is flagged symmetric, made
    exactly symmetric, and (under cosine) given an exact unit diagonal before
    the transform. Cross kernels with r < c are computed as the transpose of
    the swapped problem so that build(a, b).T == build(b, a) holds entrywise.
    """
    if a.dims != b.dims:
        raise ShapeError(f"feature dimension mismatch: {a.dims} vs {b.dims}")
    same = a is b or (a.rows == b.rows and np.array_equal(a.values, b.values))
    xa = _prepare_rows(a.values, cfg.metric, "left")
    if same:
        g = xa @ xa.T
        g = (g + g.T) / 2.0
        if cfg.metric == "cosine":
            np.fill_diagonal(g, 1.0)
        return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=True)
    if a.rows < b.rows:
        return SimilarityKernel(build_kernel(b, a, cfg).values.T.copy(), symmetric=False)
    xb = _prepare_rows(b.values, cfg.metric, "right")
    g = xa @ xb.T
    return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=False)


def regularize_psd(kernel, ridge):
    """Return the kernel with `ridge` added to every diagonal entry."""
    if not kernel.symmetric:
        raise ShapeError("regularize_psd requires a symmetric within-set kernel")
    if ridge < 0:
        raise ShapeError("ridge must be nonnegative")
    if ridge == 0:
        return kernel
    v = kernel.values.copy()
    v[np.diag_indices_from(v)] += ridge
    return SimilarityKernel(v, symmetric=True)


def cholesky_or_raise(matrix, context):
    """Cholesky factor (lower) of a symmetric matrix, or a diagnosable error."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteKernelError(
            f"{context}: kernel is not positive definite; increase the ridge"
        ) from exc
