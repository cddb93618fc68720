"""Dense similarity kernels between feature matrices.

A kernel is built from the factors of each matrix's rows: an outer-product matrix (rows
r_i (x) x_i, as gradient embeddings are) keeps (r, x), and as
<r_i (x) x_i, r_j (x) x_j> = (r_i . r_j)(x_i . x_j) its Gram is the elementwise product of
two narrow Grams, within a few ulps per entry of the flattened rows' product, not bitwise;
any other matrix is its own single factor.
Within-set kernels are square and exactly symmetric as numpy returns x @ x.T
(a rank-k update with one triangle mirrored into the other); cross-set kernels
are rectangular and transpose-consistent (build(a, b).T == build(b, a)).
The default pipeline uses cosine similarity with the shift-scale transform
s <- (1 + s) / 2, which maps similarities into [0, 1] with unit diagonal.
One entrywise epilogue (unit diagonal under cosine, then the transform) finishes each kernel in
place, per panel from two factors, whose products are written into the kernel itself: beside it a
build holds the normalized factors and at most one TILE x TILE block. SimilarityKernel checks
finiteness and symmetry in one tile pass.
A within-set kernel can instead be served by rows (KernelRows), computed from the same factors
as read, when a selection reads few of them (rows_pay): within a few ulps of the built kernel,
not bitwise, and never n x n in memory. Both offer row(j), diagonal() and block(indices).
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

# A within-set kernel is served by rows while budget * total factor width is at most
# ROWS_WIDTH * rows: k rows cost about k * n * width, one n x n build about n^2 * (a + b * width),
# so the budget up to which rows are cheaper falls with the width. The README's crossover table
# (dsum, n = 2000) puts it at k = 500-1000 for 10+65-wide factors (k * 75 / 2000 = 18.8-37.5)
# and at k = 100-250 for 650-wide plain rows (32.5-81); 14 keeps rows below both.
ROWS_WIDTH = 14


def _check_size(rows, cols, what):
    """SizeError, before allocating, when a rows x cols float64 array exceeds MEMORY_LIMIT."""
    need = 8 * rows * cols
    if MEMORY_LIMIT is not None and need > MEMORY_LIMIT:
        raise SizeError(f"a {rows} x {cols} {what} needs {need} bytes, more than the "
                        f"{MEMORY_LIMIT} bytes of physical memory")


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
        mirror = self.symmetric and v.shape[0] == v.shape[1]
        mismatch = False
        # Non-finite entries are reported first; a mirror equal to a finite block
        # is finite. Comparing a transposed copy is faster than a transposed view.
        for block, image in _tiles(v, mirror):
            finite = np.isfinite(block).all()
            same = finite and (image is None or np.array_equal(block.T.copy(), image))
            if not (finite and (same or np.isfinite(image).all())):
                raise ShapeError("kernel contains non-finite entries")
            mismatch = mismatch or not same
        if self.symmetric and not mirror:
            raise ShapeError("symmetric kernel must be square")
        if mismatch:
            raise ShapeError("symmetric flag set on a non-symmetric matrix")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    def row(self, j):
        return self.values[j]

    def diagonal(self):
        return self.values.diagonal()

    def block(self, indices):
        return self.values[np.ix_(indices, indices)]


class KernelRows:
    """The within-set kernel of a feature matrix, with SimilarityKernel's shape, symmetric, row,
    diagonal and block, never built and keeping no rows: a selection reads each committed row
    once. Row j is the epilogue of the product over the factors f of the BLAS product f @ f[j],
    its entry j the diagonal's, checked finite and returned read-only: within a few ulps of
    build_kernel's row, not bitwise, nor symmetric with other rows. A block is the epilogue of
    its factor rows' Gram, exactly symmetric."""

    symmetric = True

    def __init__(self, a, cfg=KernelConfig()):
        self._factors = _prepare_factors(a.factors, cfg.metric, "left")
        self._cfg = cfg
        n = a.rows
        self.shape = (n, n)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries raise below
            self._raw = np.ones(n) if cfg.metric == "cosine" else np.prod(
                [np.einsum("ij,ij->i", f, f) for f in self._factors], axis=0)
        self._diagonal = _epilogue(self._raw.copy(), cfg)
        if not np.isfinite(self._diagonal).all():
            raise ShapeError("kernel contains non-finite entries")
        self._diagonal.setflags(write=False)

    @np.errstate(over="ignore", invalid="ignore")  # non-finite rows raise below
    def row(self, j):
        g = self._factors[0] @ self._factors[0][j]
        for f in self._factors[1:]:
            g *= f @ f[j]
        g[j] = self._raw[j]
        if not np.isfinite(_epilogue(g, self._cfg)).all():
            raise ShapeError("kernel contains non-finite entries")
        g.setflags(write=False)
        return g

    def diagonal(self):
        return self._diagonal

    @np.errstate(over="ignore", invalid="ignore")  # non-finite blocks raise below
    def block(self, indices):
        rows = [f[indices] for f in self._factors]
        g = _product(rows, rows)
        np.fill_diagonal(g, self._raw[indices])
        if not np.isfinite(_epilogue(g, self._cfg)).all():
            raise ShapeError("kernel contains non-finite entries")
        return g


def rows_pay(budget, a):
    """Whether the within-set kernel of a is cheaper served by rows (KernelRows) than built,
    for a selection that reads `budget` rows of it; see ROWS_WIDTH."""
    return budget * sum(f.shape[1] for f in a.factors) <= ROWS_WIDTH * a.rows


def _tiles(v, mirror):
    """Yield (block, image) pairs holding every entry of v: with mirror, each TILE block on
    or above the diagonal and the block its transpose must equal, else row panels and None."""
    for i in range(0, len(v), TILE):
        rows = slice(i, i + TILE)
        if not mirror:
            yield v[rows], None
        for j in range(i, len(v) if mirror else i, TILE):
            yield v[rows, j:j + TILE], v[j:j + TILE, rows]


def _equal_rows(a, b):
    """Whether a and b hold equal values, read only when their factors are not equal:
    equal factors make equal products."""
    return (len(a.factors) == len(b.factors) and all(map(np.array_equal, a.factors, b.factors))
            or np.array_equal(a.values, b.values))


@np.errstate(over="ignore")  # a norm beyond float range is taken again below
def _prepare_factors(factors, metric, which):
    """Factors of a matrix's rows, each row-normalized under cosine: (r, x) of an
    outer-product matrix, or the rows themselves as the single factor.

    A row whose norm underflows to 0 or overflows is first divided by its largest
    entry, which leaves a norm between 1 and the square root of its width if it is
    nonzero. |r_i (x) x_i| = |r_i| |x_i|, so a row has zero norm exactly when one of
    its factor rows has.
    """
    if metric != "cosine":
        return factors
    scaled = []
    for f in factors:
        nf = np.linalg.norm(f, axis=1)
        odd = (nf == 0.0) | (nf == np.inf)
        if odd.any():
            top = np.abs(f[odd]).max(axis=1, keepdims=True)
            top[top == 0.0] = 1.0  # a zero row stays zero
            f = f.copy()
            f[odd] /= top
            nf[odd] = np.linalg.norm(f[odd], axis=1)
        scaled.append((f, nf))
    zero = np.flatnonzero(np.minimum.reduce([nf for _, nf in scaled]) == 0.0)
    if zero.size:
        raise DegenerateFeatureError(f"zero-norm row {zero[0]} in {which} matrix under cosine metric")
    return tuple(f / nf[:, None] for f, nf in scaled)


def _product(fa, fb, out=None, spare=None):
    """(fa[0] @ fb[0].T) * (fa[1] @ fb[1].T) * ...: the Gram of the rows the factors span, in
    out if given; each later factor's product goes into spare when it has the same shape."""
    g = np.matmul(fa[0], fb[0].T, out=out)
    for f, h in zip(fa[1:], fb[1:]):
        g *= np.matmul(f, h.T, out=spare if spare is not None and spare.shape == g.shape else None)
    return g


def _factored_gram(factors, cfg):
    """The finished product of the factors with themselves, written in place in row panels of
    TILE rows: each diagonal block is a product of rank-k updates, which numpy returns exactly
    symmetric, and the panel right of it is mirrored below the diagonal. A later factor's product
    goes into the same columns of the next panel's rows, not yet written, when it fits there."""
    n = len(factors[0])
    g = np.empty((n, n))
    for i in range(0, n, TILE):
        b, rest = slice(i, i + TILE), slice(i + TILE, n)
        panel = [f[b] for f in factors]
        for cols, diagonal in ((b, True), (rest, False)):
            _product(panel, [f[cols] for f in factors], g[b, cols], g[i + TILE:i + 2 * TILE, cols])
            _epilogue(g[b, cols], cfg, diagonal)
        g[rest, b] = g[b, rest].T
    return g


def _epilogue(g, cfg, diagonal=False):
    """Finish block g in place: a unit diagonal under cosine if it holds the kernel's, then
    the transform. Each step is entrywise, so any split into blocks gives the same bytes."""
    if diagonal and cfg.metric == "cosine":
        np.fill_diagonal(g, 1.0)
    if cfg.transform == "shift-scale":
        g += 1.0
        g *= 0.5  # x * 0.5 and x / 2.0 both round the exact half of x: the same bytes
    elif cfg.transform == "clip":
        np.maximum(g, 0.0, out=g)
    return g


@np.errstate(over="ignore", invalid="ignore")  # SimilarityKernel rejects non-finite entries
def build_kernel(a, b, cfg=KernelConfig()):
    """Build the r x c similarity kernel between feature matrices a and b.

    When a and b hold identical values the result is flagged symmetric, is
    exactly symmetric as the matrix product returns it, and (under cosine) gets
    an exact unit diagonal before the transform, all in place: the peak is one
    n x n array and the normalized factors (and one TILE x TILE block from two).
    The factors of a and b are used when they are as many and of the same widths, else
    each matrix's values are its one factor; errors name a "left" or "right" matrix by
    the side it was passed on. A cross kernel with r < c is the transpose of the product
    with b's factors on the left, so that build(a, b).T == build(b, a) holds entrywise.
    Raises SizeError, before allocating, when the 8·r·c bytes of the result
    exceed MEMORY_LIMIT.
    """
    if a.dims != b.dims:
        raise ShapeError(f"feature dimension mismatch: {a.dims} vs {b.dims}")
    _check_size(a.rows, b.rows, "kernel")
    same = a is b or (a.rows == b.rows and _equal_rows(a, b))
    fa, fb = a.factors, b.factors
    if len(fa) != len(fb) or any(f.shape[1] != h.shape[1] for f, h in zip(fa, fb)):
        fa, fb = (a.values,), (b.values,)
    fa = _prepare_factors(fa, cfg.metric, "left")
    if same and len(fa) == 1:
        g = _epilogue(fa[0] @ fa[0].T, cfg, diagonal=True)
    elif same:
        g = _factored_gram(fa, cfg)
    else:
        fb = _prepare_factors(fb, cfg.metric, "right")
        g = _epilogue(_product(fa, fb) if a.rows >= b.rows else _product(fb, fa).T, cfg)
    g.setflags(write=False)  # shared, not copied: see datastore.freeze
    return SimilarityKernel(g, symmetric=same)


def cholesky_or_raise(matrix, context):
    """Cholesky factor (lower) of a symmetric matrix, or a diagnosable error."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteKernelError(
            f"{context}: kernel is not positive definite; increase the ridge"
        ) from exc
