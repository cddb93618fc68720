"""Dense similarity kernels between feature matrices.

Within-set kernels are square and exactly symmetric as numpy returns x @ x.T
(a rank-k update with one triangle mirrored into the other); cross-set kernels
are rectangular and transpose-consistent (build(a, b).T == build(b, a)).
When both matrices carry outer-product factors (rows r_i (x) x_i, as gradient
embeddings do), the kernel is built from the factors instead:
<r_i (x) x_i, r_j (x) x_j> = (r_i . r_j)(x_i . x_j), so the Gram of the rows is
the elementwise product of two narrow Grams. It agrees with the product of
the flattened rows to a few ulps per entry, not bitwise.
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

# Block side of the exact symmetry check (a mirrored pair of tiles is 1 MiB)
# and row-panel height of kernels built from factors.
TILE = 256


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


def _check_norms(norms, which):
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateFeatureError(
            f"zero-norm row {zero[0]} in {which} matrix under cosine metric"
        )


def _prepare_rows(x, metric, which):
    x = np.asarray(x, dtype=np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        _check_norms(norms, which)
        return x / norms[:, None]
    return x


def _prepare_factors(factors, metric, which):
    """Factors (r, x) of an outer-product matrix, each row-normalized under cosine.

    |r_i (x) x_i| = |r_i| |x_i|, so a row has zero norm exactly when one of its
    factor rows has.
    """
    if metric != "cosine":
        return factors
    norms = [np.linalg.norm(f, axis=1) for f in factors]
    _check_norms(np.minimum(*norms), which)
    return tuple(f / nf[:, None] for f, nf in zip(factors, norms))


def _shared_factors(a, b):
    """True when a and b both carry outer-product factors of the same widths."""
    if a.factors is None or b.factors is None:
        return False
    return all(fa.shape[1] == fb.shape[1] for fa, fb in zip(a.factors, b.factors))


def _factored_gram(r, x):
    """(r @ r.T) * (x @ x.T), filled in row panels of TILE rows.

    Each diagonal block is the product of two rank-k updates, which numpy
    returns exactly symmetric; the panel right of it is written above the
    diagonal and its transpose below, so the whole result is exactly symmetric.
    """
    n = len(r)
    g = np.empty((n, n))
    for i in range(0, n, TILE):
        b, rest = slice(i, i + TILE), slice(i + TILE, n)
        block = r[b] @ r[b].T
        block *= x[b] @ x[b].T
        g[b, b] = block
        panel = r[b] @ r[rest].T
        panel *= x[b] @ x[rest].T
        g[b, rest] = panel
        g[rest, b] = panel.T
    return g


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
    n x n array (plus two TILE x n panels when it is built from factors).
    The factored path runs exactly when both a and b carry factors of the
    same widths; otherwise the rows' own product is used.
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
    factored = _shared_factors(a, b)
    if factored:
        ra, xa = _prepare_factors(a.factors, cfg.metric, "left")
    else:
        xa = _prepare_rows(a.values, cfg.metric, "left")
    if same:
        g = _factored_gram(ra, xa) if factored else xa @ xa.T
        if cfg.metric == "cosine":
            np.fill_diagonal(g, 1.0)
        return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=True)
    if a.rows < b.rows:
        return SimilarityKernel(build_kernel(b, a, cfg).values.T, symmetric=False)
    if factored:
        rb, xb = _prepare_factors(b.factors, cfg.metric, "right")
        g = ra @ rb.T
        g *= xa @ xb.T
    else:
        g = xa @ _prepare_rows(b.values, cfg.metric, "right").T
    return SimilarityKernel(_apply_transform(g, cfg.transform), symmetric=False)


def cholesky_or_raise(matrix, context):
    """Cholesky factor (lower) of a symmetric matrix, or a diagnosable error."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteKernelError(
            f"{context}: kernel is not positive definite; increase the ridge"
        ) from exc
