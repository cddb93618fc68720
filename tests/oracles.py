"""Independent brute-force references for the set-function objectives.

Everything here is written with explicit double loops and cofactor
determinants so the reference shares no code path with the incremental
implementations it checks. Only usable at tiny sizes (n <= 8).

`ExactLogDet` gives the logdet and logdetmi gains in exact rational
arithmetic (stdlib `fractions`) from the library's own float kernels, ridge
and target solve `w`: each kernel's Schur residual is the exact ratio
det K[A+a] / det K[A], the pivot rule is the library's, and one `math.log`
rounds the gain. It is the reference that the library's naive log-det gains
are held to within 1e-10. `SolveLogDet` keeps the scalar log-det gain the
library computed before its gains read Cholesky residuals (a triangular solve
against the factor of the selected block), as the reference for the lazy loop
and the pivot rule at ridge 0.
`exhaustive_maximize` is the true optimum that greedy's `1 - 1/e` bound is
checked against. `train_softmax_reference` and `badge_select_reference` are
the training loop (in the library's class-row layout) and k-means++ loop the
library ran before it worked in place, and `within_set_kernel`, `cross_kernel`
and `factored_kernel` the kernel builds it ran before it finished each block in
place, all kept as the bit-for-bit references for those paths.
`train_softmax_rows_reference` is the same training loop with one row per
example, the layout the library trained in before; its weights are held to the
library's within round-off, its predictions exactly.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.linalg import solve_triangular

from targetsel.datastore import FeatureMatrix
from targetsel.errors import DivergenceError, IndefiniteKernelError, SizeError
from targetsel.harness import ToyModel, _softmax, _with_bias
from targetsel.kernel import TILE, KernelConfig, build_kernel, cholesky_or_raise
from targetsel.objectives import PIVOT_TOL, build_objective
from targetsel.optimizer import TIE_TOL, SelectionResult

MAX_EXHAUSTIVE_SUBSETS = 10**6


def det_cofactor(m):
    m = [list(row) for row in m]
    n = len(m)
    if n == 0:
        return 1.0
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += ((-1) ** j) * m[0][j] * det_cofactor(minor)
    return total


def inv_adjugate(m):
    n = len(m)
    d = det_cofactor(m)
    inv = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            inv[j][i] = ((-1) ** (i + j)) * det_cofactor(minor) / d
    return inv


def _ridged(mat, idx, eps):
    return [[mat[a][b] + (eps if a == b else 0.0) for b in idx] for a in idx]


def eval_reference(kind, indices, uu=None, ut=None, tt=None,
                   eta=1.0, gamma=1.0, lam=0.5, eps=0.0):
    """Direct-formula evaluation of any objective kind on an index set."""
    a_set = list(indices)
    if not a_set:
        return 0.0
    uu = None if uu is None else [list(r) for r in uu]
    ut = None if ut is None else [list(r) for r in ut]
    tt = None if tt is None else [list(r) for r in tt]
    if kind == "gcmi":
        return 2.0 * sum(ut[i][j] for i in a_set for j in range(len(ut[0])))
    if kind == "fl1mi":
        total = 0.0
        for i in range(len(uu)):
            cover = max(uu[i][j] for j in a_set)
            rel = eta * max(ut[i][j] for j in range(len(ut[0])))
            total += min(cover, rel)
        return total
    if kind == "fl2mi":
        m = len(ut[0])
        cover = sum(max(ut[j][i] for j in a_set) for i in range(m))
        rel = sum(max(ut[i][j] for j in range(m)) for i in a_set)
        return cover + eta * rel
    if kind == "logdetmi":
        s_a = _ridged(uu, a_set, eps)
        q = _ridged(tt, range(len(tt)), eps)
        q_inv = inv_adjugate(q)
        c = [ut[i] for i in a_set]
        m = len(q)
        cond = [
            [
                s_a[r][s]
                - eta * eta * sum(c[r][p] * q_inv[p][t] * c[s][t]
                                  for p in range(m) for t in range(m))
                for s in range(len(a_set))
            ]
            for r in range(len(a_set))
        ]
        return math.log(det_cofactor(s_a)) - math.log(det_cofactor(cond))
    if kind == "gcmi_div":
        return eval_reference("gcmi", a_set, ut=ut) + gamma * eval_reference(
            "dsum", a_set, uu=uu
        )
    if kind == "fl":
        return sum(max(uu[i][j] for j in a_set) for i in range(len(uu)))
    if kind == "gc":
        cut = sum(uu[i][j] for i in range(len(uu)) for j in a_set)
        red = sum(uu[i][j] for i in a_set for j in a_set)
        return cut - lam * red
    if kind == "logdet":
        return math.log(det_cofactor(_ridged(uu, a_set, eps)))
    if kind == "dsum":
        return sum(
            1.0 - uu[a_set[i]][a_set[j]]
            for i in range(len(a_set))
            for j in range(i + 1, len(a_set))
        )
    raise ValueError(f"unknown kind {kind!r}")


def random_kernels(rng, n, m, d=6, cfg=KernelConfig()):
    """Kernels from random features, by default cosine shift-scale ones: nonnegative,
    symmetric with unit diagonal, and PSD (strictly PD once ridged)."""
    pool = FeatureMatrix(rng.standard_normal((n, d)))
    target = FeatureMatrix(rng.standard_normal((m, d)))
    return (
        build_kernel(pool, pool, cfg),
        build_kernel(pool, target, cfg),
        build_kernel(target, target, cfg),
    )


def duplicate_row_kernels(seed):
    """Kernels of a 6-row pool whose rows 1 and 4 copy rows 0 and 2, and a
    2-row target, from 8-dim random features: at ridge 0 the pool kernel has
    rank 4, and so has the pool kernel conditioned on the target."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 8))
    x[1], x[4] = x[0], x[2]
    pool, target = FeatureMatrix(x), FeatureMatrix(rng.standard_normal((2, 8)))
    cfg = KernelConfig()
    return (
        build_kernel(pool, pool, cfg),
        build_kernel(pool, target, cfg),
        build_kernel(target, target, cfg),
    )


def _transformed(g, transform):
    if transform == "shift-scale":
        return (1.0 + g) / 2.0
    if transform == "clip":
        return np.maximum(g, 0.0)
    return g


def _rows(x, metric):
    x = np.asarray(x, dtype=np.float64)
    if metric == "cosine":
        return x / np.linalg.norm(x, axis=1)[:, None]
    return x


def within_set_kernel(x, cfg):
    """The within-set kernel by the full-array formula the library used before
    it worked in place: (g + g.T) / 2, then a unit diagonal under cosine, then
    the transform, each step allocating a fresh n x n array."""
    g = _rows(x, cfg.metric)
    g = g @ g.T
    g = (g + g.T) / 2.0
    if cfg.metric == "cosine":
        np.fill_diagonal(g, 1.0)
    return _transformed(g, cfg.transform)


def factored_kernel(a, b, cfg):
    """The kernel of two outer-product FeatureMatrix as the library built it
    before it finished each panel as it was computed: within a set, the factor
    Grams filled in row panels of TILE rows and mirrored below the diagonal,
    then a unit diagonal under cosine and the transform, each over the whole
    matrix; across sets, the product of the two factor Grams with the taller
    matrix on the left, then the transform."""
    if a is not b and len(a.factors[0]) < len(b.factors[0]):
        return factored_kernel(b, a, cfg).T.copy()
    ra, xa = (_rows(f, cfg.metric) for f in a.factors)
    if a is not b:
        rb, xb = (_rows(f, cfg.metric) for f in b.factors)
        return _transformed((ra @ rb.T) * (xa @ xb.T), cfg.transform)
    n = len(ra)
    g = np.empty((n, n))
    for i in range(0, n, TILE):
        blk, rest = slice(i, i + TILE), slice(i + TILE, n)
        block = ra[blk] @ ra[blk].T
        block *= xa[blk] @ xa[blk].T
        g[blk, blk] = block
        panel = ra[blk] @ ra[rest].T
        panel *= xa[blk] @ xa[rest].T
        g[blk, rest] = panel
        g[rest, blk] = panel.T
    if cfg.metric == "cosine":
        np.fill_diagonal(g, 1.0)
    return _transformed(g, cfg.transform)


def cross_kernel(x, y, cfg):
    """The cross kernel by the full-array formula, computed with the taller
    matrix on the left and transposed back when x has fewer rows."""
    if len(x) < len(y):
        return cross_kernel(y, x, cfg).T.copy()
    return _transformed(_rows(x, cfg.metric) @ _rows(y, cfg.metric).T, cfg.transform)


class SolveLogDet:
    """The scalar logdet/logdetmi gain as the library computed it before its
    gains read Cholesky residuals, kept as the reference for that path.

    Per kernel (the ridged pool kernel and, for logdetmi, the ridged
    conditioned kernel) it holds a lower Cholesky factor L of the selected
    block, and the gain of a comes from the Schur residual
    d = K_aa - |L^-1 K[A, a]|^2 as log d_1 - log d_2 (log d_1 alone for
    logdet). A candidate with d <= PIVOT_TOL times its ridged pool-kernel
    diagonal, in either kernel, is not a pivot: its gain is -inf, and
    committing it raises IndefiniteKernelError. A commit extends the pool
    factor by one row and refactorizes the conditioned factor. Offers the
    `n`, `selected`, `value`, `gains`, `gains_at` and `commit` that the greedy
    loops use; the batched two are loops over the scalar `gain`.
    """

    def __init__(self, spec):
        obj = build_objective(spec)
        self.n = obj.n
        uu, eps = spec.s_uu.values, obj.eps
        # (column K[A, a], diagonal, block K[A, A]) per kernel; the pool
        # kernel's factor grows by one row per commit and needs no block
        self.kernels = [(lambda sel, a: uu[sel, a], uu.diagonal() + eps, None)]
        if spec.kind == "logdetmi":
            w, e2 = obj.w, spec.eta**2

            def cond_block(rows, cols):
                return uu[np.ix_(rows, cols)] - e2 * (w[:, rows].T @ w[:, cols])

            def cond_matrix(idx):
                m = cond_block(idx, idx)
                m[np.diag_indices_from(m)] += eps
                return m

            self.kernels.append((lambda sel, a: cond_block(sel, [a])[:, 0],
                                 self.kernels[0][1] - e2 * (w**2).sum(axis=0), cond_matrix))
        self.selected, self.value = [], 0.0
        self.factors = [None] * len(self.kernels)

    def _schur(self, i, a):
        column, diag, _ = self.kernels[i]
        factor = self.factors[i]
        if factor is None:
            return diag[a], None
        w = solve_triangular(factor, column(self.selected, a), lower=True)
        return diag[a] - float(w @ w), w

    def gain(self, a):
        d = [self._schur(i, a)[0] for i in range(len(self.kernels))]
        if min(d) <= PIVOT_TOL * self.kernels[0][1][a]:
            return -np.inf
        return float(np.log(d[0]) - sum(np.log(x) for x in d[1:]))

    def gains_at(self, idx):
        return np.array([self.gain(int(a)) for a in idx])

    def gains(self):
        out = np.full(self.n, -np.inf)
        rest = [a for a in range(self.n) if a not in self.selected]
        out[rest] = self.gains_at(rest)
        return out

    def commit(self, a):
        g = self.gain(a)
        if g == -np.inf:
            raise IndefiniteKernelError(f"index {a} is not a pivot")
        idx = self.selected + [a]
        factors = self.factors
        d, w = self._schur(0, a)
        if factors[0] is None:
            factors[0] = np.array([[np.sqrt(d)]])
        else:
            k = len(factors[0])
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k], grown[k, :k], grown[k, k] = factors[0], w, np.sqrt(d)
            factors[0] = grown
        for i in range(1, len(self.kernels)):
            factors[i] = cholesky_or_raise(self.kernels[i][2](idx), "conditioned kernel")
        self.selected.append(a)
        self.value += g


def det_exact(m):
    """Determinant of a square list of Fractions by exact Gaussian elimination."""
    m = [list(row) for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            for j in range(c + 1, len(m)):
                m[r][j] -= f * m[c][j]
    return det


class ExactLogDet:
    """The logdet/logdetmi gain in exact rational arithmetic, as the reference
    for the library's floating-point gains.

    It reads the library's own float inputs: the pool kernel, the ridge `eps`
    and, for logdetmi, the target solve `w`. Every one converts exactly to a
    Fraction, and so do the ridged pool kernel K_1 = uu + eps I and the
    conditioned kernel K_2 = uu - eta^2 w^T w + eps I built from them. The
    Schur residual of a candidate a in kernel K is the exact ratio
    r = det K[A+a] / det K[A]. A candidate with r <= PIVOT_TOL times its
    ridged pool-kernel diagonal, in either kernel, is not a pivot: its gain is
    -inf, and committing it raises IndefiniteKernelError. Otherwise the gain is
    math.log of r_1 (logdet) or of r_1 / r_2 (logdetmi), rounded once. Offers
    the `n`, `selected`, `value`, `gain` and `commit` of a scalar greedy loop;
    usable at tiny sizes only (n <= 8).
    """

    def __init__(self, spec):
        obj = build_objective(spec)
        self.n = obj.n
        eps = Fraction(obj.eps)
        uu = [[Fraction(x) for x in row] for row in spec.s_uu.values.tolist()]
        pool = [[x + eps * (a == b) for b, x in enumerate(row)] for a, row in enumerate(uu)]
        self.kernels = [pool]
        if spec.kind == "logdetmi":
            w = [[Fraction(x) for x in row] for row in obj.w.tolist()]
            e2 = Fraction(spec.eta) ** 2
            self.kernels.append([[x - e2 * sum(col[a] * col[b] for col in w)
                                  for b, x in enumerate(row)] for a, row in enumerate(pool)])
        self.floor = [Fraction(PIVOT_TOL) * pool[a][a] for a in range(self.n)]
        self.selected, self.value = [], 0.0
        # the determinant of each kernel's selected block, 1 for the empty block
        self.dets = [Fraction(1)] * len(self.kernels)

    def residuals(self, a):
        """Per kernel, det K[A+a] and the exact Schur residual det K[A+a] / det K[A]."""
        idx = self.selected + [a]
        dets = [det_exact([[k[r][c] for c in idx] for r in idx]) for k in self.kernels]
        return dets, [d / base for d, base in zip(dets, self.dets)]

    def gain(self, a):
        ratios = self.residuals(a)[1]
        if min(ratios) <= self.floor[a]:
            return -math.inf
        return math.log(ratios[0] / math.prod(ratios[1:]))

    def commit(self, a):
        g = self.gain(a)
        if g == -math.inf:
            raise IndefiniteKernelError(f"index {a} is not a pivot")
        self.dets = self.residuals(a)[0]
        self.selected.append(a)
        self.value += g


def exhaustive_maximize(spec, k):
    """True optimum over all subsets of size at most k.

    Ties are broken toward the lexicographically smallest index tuple, with
    smaller subsets enumerated first.
    """
    obj = build_objective(spec)
    n = obj.n
    k = min(k, n)
    total = sum(math.comb(n, r) for r in range(k + 1))
    if total > MAX_EXHAUSTIVE_SUBSETS:
        raise SizeError(
            f"{total} subsets exceed the exhaustive-search limit of {MAX_EXHAUSTIVE_SUBSETS}"
        )
    best_set = ()
    best_val = 0.0
    evals = 1  # the empty set
    for r in range(1, k + 1):
        for subset in combinations(range(n), r):
            val = obj.evaluate(subset)
            evals += 1
            if val > best_val + TIE_TOL:
                best_val = val
                best_set = subset
    prefix = [obj.evaluate(best_set[: i + 1]) for i in range(len(best_set))]
    gains = [float(g) for g in np.diff([0.0] + prefix)]
    return SelectionResult(
        selected=list(best_set),
        gains=gains,
        total_value=best_val,
        evaluations=evals,
        truncated=False,
    )


def train_softmax_reference(split, cfg):
    """Full-batch gradient descent on cross-entropy, one fresh array per step, in the
    library's class-row layout: the logits are `w @ xb.T` (the transpose made contiguous,
    as the library multiplies it) and the softmax runs down each column. The epoch loop
    `harness.train_softmax` runs, without its in-place buffer."""
    xb = _with_bias(split.x)
    xbt = np.ascontiguousarray(xb.T)
    n = xb.shape[0]
    y = split.y
    w = np.zeros((cfg.num_classes, xb.shape[1]))
    onehot = np.zeros((cfg.num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    for _ in range(cfg.max_epochs):
        p = _softmax(w @ xbt)
        loss = -np.log(np.maximum(p[y, np.arange(n)], 1e-300)).mean()
        if not np.isfinite(loss):
            raise DivergenceError("training loss diverged; reduce learn_rate")
        if (p.argmax(axis=0) == y).mean() >= cfg.train_acc_threshold:
            break
        grad = (p - onehot) @ xb / n
        w = w - cfg.learn_rate * grad
    if not np.all(np.isfinite(w)):
        raise DivergenceError("weights diverged; reduce learn_rate")
    return ToyModel(w)


def _row_softmax(z):
    """Softmax along each row of z (one row per example), as a fresh array."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def train_softmax_rows_reference(split, cfg):
    """The epoch loop with one row per example, `xb @ w.T` and a softmax along rows:
    the layout `harness.train_softmax` trained in before its logits had one row per
    class. Its weights differ from the library's by round-off only."""
    xb = _with_bias(split.x)
    n = xb.shape[0]
    y = split.y
    w = np.zeros((cfg.num_classes, xb.shape[1]))
    onehot = np.zeros((n, cfg.num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(cfg.max_epochs):
        p = _row_softmax(xb @ w.T)
        loss = -np.log(np.maximum(p[np.arange(n), y], 1e-300)).mean()
        if not np.isfinite(loss):
            raise DivergenceError("training loss diverged; reduce learn_rate")
        if (p.argmax(axis=1) == y).mean() >= cfg.train_acc_threshold:
            break
        grad = (p - onehot).T @ xb / n
        w = w - cfg.learn_rate * grad
    if not np.all(np.isfinite(w)):
        raise DivergenceError("weights diverged; reduce learn_rate")
    return ToyModel(w)


def predict_proba_rows_reference(model, x):
    """Class probabilities in the row-per-example layout: `xb @ w.T`, softmax along rows."""
    return _row_softmax(_with_bias(x) @ model.weights.T)


def badge_select_reference(embeddings, k, seed):
    """k-means++ seeding with whole-matrix squared distances: the draw order
    `baselines.badge_select` gave before it computed distances in blocks."""
    x = embeddings.values
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    if k == 0:
        return []
    chosen = [int(rng.integers(n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(rng.choice(np.setdiff1d(np.arange(n), chosen)))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((x - x[nxt]) ** 2).sum(axis=1))
    return chosen
