"""Set-function objectives and incremental marginal gains.

Covers the mutual-information objectives over a pool/target kernel pair
(gcmi, fl1mi, fl2mi, logdetmi, gcmi_div) and the plain pool-only functions
(fl, gc, logdet, dsum). Every objective supports evaluation from scratch, and
each instance grows one selection with incremental caches (running max
vectors, relevance sums, Cholesky residuals) so greedy selection pays far
less than a full re-evaluation per candidate.

Conventions: the empty set evaluates to 0 for every kind; max over an empty
index set is 0; the empty determinant is 1.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, IndefiniteKernelError
from .kernel import KernelRows, _check_size, cholesky_or_raise

KINDS = ("gcmi", "fl1mi", "fl2mi", "logdetmi", "gcmi_div", "fl", "gc", "logdet", "dsum")

# Which of the pool/pool, pool/target, target/target kernels each kind needs, made in this order.
KERNEL_REQUIREMENTS = {
    "gcmi": ("ut",),
    "fl1mi": ("uu", "ut"),
    "fl2mi": ("ut",),
    "logdetmi": ("uu", "ut", "tt"),
    "gcmi_div": ("uu", "ut"),
    "fl": ("uu",),
    "gc": ("uu",),
    "logdet": ("uu",),
    "dsum": ("uu",),
}

# Kinds whose greedy gains are safe for lazy (stale-bound) evaluation.
# dsum is diversity (not submodular) and gcmi_div contains it; logdetmi has
# increasing-gain counterexamples on valid PSD kernels, so its bounds are
# unsound too.
SUBMODULAR_KINDS = frozenset(KINDS) - {"dsum", "gcmi_div", "logdetmi"}

# Kinds that read the pool kernel only through row(j) of committed indices, diagonal() and
# evaluate's block(indices), so their s_uu may be a kernel.KernelRows.
ROW_KINDS = frozenset({"logdetmi", "gcmi_div", "logdet", "dsum"})

PAD_COLUMNS = 64  # see CholeskyResiduals.__init__
# A log-det candidate is a pivot while its Schur residual d, in every kernel,
# exceeds PIVOT_TOL times its ridged pool diagonal (conditioned entries are
# pool entries less a target term, so their round-off is on the pool's scale).
# d/diag is round-off (1e-16, either sign) for a duplicate at ridge 0, 1e-6 on
# an all-equal kernel at the default ridge, and at least 0.21 (logdet) and
# 3.4e-3 (logdetmi) on default-protocol seeds 0-15 at budget 100.
PIVOT_TOL = 1e-10  # at least four decades inside each end
OVERFLOW = "a gain or the total is beyond float range; rescale the features or lower gamma"


def check_parameters(eta, gamma, lambda_gc, ridge):
    """Reject a negative or non-finite eta, gamma or ridge or eta^2, or lambda_gc outside [0, 1]."""
    for name, value in (("eta", eta), ("gamma", gamma), ("ridge", ridge)):
        if not 0.0 <= value <= sys.float_info.max:  # NaN, inf and integers beyond float range
            raise ConfigurationError(f"{name} must be finite and nonnegative")
    if float(eta) * float(eta) == float("inf"):  # where eta ** 2 raises OverflowError
        raise ConfigurationError(f"eta = {eta!r} is too large: its square is not finite")
    if not 0.0 <= lambda_gc <= 1.0:
        raise ConfigurationError("lambda_gc must lie in [0, 1]")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which set function to maximize, its parameters, and its kernels."""

    kind: str
    s_uu: object = None
    s_ut: object = None
    s_tt: object = None
    eta: float = 1.0
    gamma: float = 1.0
    lambda_gc: float = 0.5
    ridge: float = 1e-6

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown objective kind {self.kind!r}")
        check_parameters(self.eta, self.gamma, self.lambda_gc, self.ridge)
        for name in KERNEL_REQUIREMENTS[self.kind]:
            if getattr(self, f"s_{name}") is None:
                raise ConfigurationError(f"objective {self.kind!r} requires the {name} kernel")
        if self.s_uu is not None and not self.s_uu.symmetric:
            raise ConfigurationError("pool kernel must be symmetric")
        if isinstance(self.s_uu, KernelRows) and self.kind not in ROW_KINDS:
            raise ConfigurationError(f"objective {self.kind!r} reads the whole pool kernel")
        if self.s_tt is not None and not self.s_tt.symmetric:
            raise ConfigurationError("target kernel must be symmetric")
        if self.s_uu is not None and self.s_ut is not None:
            if self.s_uu.shape[0] != self.s_ut.shape[0]:
                raise ConfigurationError("pool and cross kernels disagree on pool size")
        if self.s_tt is not None and self.s_ut is not None:
            if self.s_tt.shape[0] != self.s_ut.shape[1]:
                raise ConfigurationError("target and cross kernels disagree on target size")


class Objective:
    """Base: from-scratch evaluation plus the incremental gains of one selection.

    An instance grows one selection, `selected` with its `value`, by `commit`.
    Each kind writes its marginal gain once, as `gains_at(idx)`, elementwise
    in idx: an int gives one gain, a slice or an array of unselected indices
    the gain of each index in it, so `gain`, `gains` and lazy greedy's
    re-scores run the same arithmetic. A gain of -inf marks a candidate that
    cannot be added, such as a non-pivot of a log-det kind, whose `commit`
    rejects it and changes nothing.
    """

    lazy_safe = True
    # False where stale bounds save lazy greedy nothing: every gain moves with
    # each commit, or none ever does, so naive greedy's one pass per step wins
    lazy_pays = True
    chunk = sys.maxsize  # candidates per gains_at call in gains

    def __init__(self, spec):
        self.spec = spec
        self.n = (spec.s_uu if spec.s_uu is not None else spec.s_ut).shape[0]
        self.selected = []
        self.value = 0.0

    def evaluate(self, indices):
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate index in evaluation set")
        for a in indices:
            self._check_bounds(a)
        if not indices:
            return 0.0
        return self._evaluate(indices)

    def gain(self, a):
        self._check_candidate(a)
        return float(self.gains_at(a))

    def gains(self):
        """Marginal gain of every candidate at once; -inf at selected indices."""
        out = np.empty(self.n)
        for start in range(0, self.n, self.chunk):
            rows = slice(start, start + self.chunk)
            out[rows] = self.gains_at(rows)
        out[self.selected] = -np.inf
        return out

    def commit(self, a):
        self._check_candidate(a)
        g = float(self.gains_at(a))
        self._commit(a, self.value + g)
        self.selected.append(a)
        self.value += g

    def _commit(self, a, total):
        """Refuse a total beyond float range; each kind calls this before it folds a in."""
        if not abs(total) <= sys.float_info.max:  # NaN or an infinity
            raise DivergenceError(OVERFLOW)

    def _check_bounds(self, a):
        if not 0 <= a < self.n:
            raise IndexError(f"index {a} outside ground set of size {self.n}")

    def _check_candidate(self, a):
        self._check_bounds(a)
        if a in self.selected:
            raise ValueError(f"index {a} already selected")


class _RunningMax(Objective):
    """Keeps cur, the elementwise max of self.rows over the selected set. The first gain has
    no max to exceed, so a negative row entry (or fl1mi cap) lets a later gain exceed it."""

    chunk = 256  # bounds each gains_at call's temporaries to 256 rows

    def _cover(self, idx):
        """The running max with row(s) idx folded in."""
        if not self.selected:
            return self.rows[idx]
        return np.maximum(self.cur, self.rows[idx])

    def _commit(self, a, total):
        super()._commit(a, total)
        self.cur = self._cover(a)


class _RunningSum(Objective):
    """Keeps sel_sim, the sum of pool-kernel rows over the selected set."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu
        self.sel_sim = np.zeros(self.n)

    def _commit(self, a, total):
        super()._commit(a, total)
        self.sel_sim += self.uu.row(a)


class GraphCutMI(Objective):
    """2 * sum_{i in A} sum_{j in Q} s_ij; modular in A."""

    lazy_pays = False

    def __init__(self, spec):
        super().__init__(spec)
        self.row2 = 2.0 * spec.s_ut.values.sum(axis=1)

    def _evaluate(self, indices):
        return float(self.row2[indices].sum())

    def gains_at(self, idx):
        return self.row2[idx]


class FacilityLocationMI1(_RunningMax):
    """sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_uu.values
        self.q = spec.eta * spec.s_ut.values.max(axis=1)
        self.lazy_safe = min(self.rows.min(), self.q.min()) >= 0

    def _evaluate(self, indices):
        cur = self.rows[indices].max(axis=0)
        return float(np.minimum(cur, self.q).sum())

    def gains_at(self, idx):
        return np.minimum(self._cover(idx), self.q).sum(axis=-1) - self.value


class FacilityLocationMI2(_RunningMax):
    """Bidirectional representation: target coverage plus eta * pool relevance."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_ut.values
        self.rowmax = self.rows.max(axis=1)
        self.lazy_safe = self.rows.min() >= 0

    def _evaluate(self, indices):
        cover = self.rows[indices, :].max(axis=0).sum()
        return float(cover + self.spec.eta * self.rowmax[indices].sum())

    def gains_at(self, idx):
        rel = self.spec.eta * self.rowmax[idx]
        base = self.cur.sum() if self.selected else 0.0
        return self._cover(idx).sum(axis=-1) - base + rel


class _ResidualLogDet(Objective):
    """Gains of the log-det kinds, read from one CholeskyResiduals per kernel.

    `residuals` holds the ridged pool kernel's first, then any that a subclass
    appends, and `_columns(a)` gives each its column a. The gain of a is log
    d[a] for the first kernel minus log d[a] for each later one. A candidate
    that is not a pivot (d <= PIVOT_TOL times the pool kernel's diagonal, in
    any kernel) has gain -inf, and once no unselected candidate is a pivot
    every gain raises IndefiniteKernelError, with `remark` added when the last
    kernel has no pivot left. A commit is folded into every kernel when it is
    made, reading its pool row once, so each residual's t is len(selected); a
    commit of a non-pivot raises IndefiniteKernelError and changes nothing.
    """

    remark = ""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu
        self.eps = spec.ridge
        diag = self.uu.diagonal() + self.eps
        self.residuals = [CholeskyResiduals(diag, "pool kernel", PIVOT_TOL * diag)]
        self.logs = None  # log d of each kernel's residuals; None from a commit to the next read

    def _evaluate(self, indices):
        s_a = self.uu.block(indices) + self.eps * np.eye(len(indices))
        return float(_logdet(s_a, PIVOT_TOL * s_a.diagonal(), "pool kernel"))

    def gains_at(self, idx):
        logs = self._logs()
        out = logs[0][idx]
        for log_d in logs[1:]:
            out = out - log_d[idx]
        return out

    def _commit(self, a, total):
        for r in self.residuals:  # before any kernel folds a in
            if r.d[a] <= r.floor[a]:
                raise IndefiniteKernelError(
                    f"index {a} is not a pivot of the {r.name}; increase the ridge")
        super()._commit(a, total)
        for r, e in zip(self.residuals, self._columns(a)):
            r.fold(a, e)
        self.logs = None

    def _columns(self, a):
        """Column a of each kernel, as new arrays: here the ridged pool kernel's."""
        col = self.uu.row(a).copy()
        col[a] += self.eps
        return [col]

    def _logs(self):
        """log d of each kernel's residuals. At a non-pivot the first kernel's log is -inf and
        every other one 0, so its gain is -inf."""
        if self.logs is None:
            pivots = [r.d > r.floor for r in self.residuals]  # one mask per kernel
            for mask in pivots:
                mask[self.selected] = False
            pivot = np.logical_and.reduce(pivots)
            if not pivot.any():
                raise IndefiniteKernelError(
                    f"no candidate is a pivot: the kernel rank reached is {len(self.selected)}"
                    "; lower the budget or increase the ridge"
                    + ("" if pivots[-1].any() else self.remark))
            self.logs = [np.log(r.d, out=np.zeros(len(r.d)), where=pivot) for r in self.residuals]
            self.logs[0][~pivot] = -np.inf
        return self.logs


class LogDetMI(_ResidualLogDet):
    """log det(S_A) - log det(S_A - eta^2 S_AQ S_Q^-1 S_AQ^T), both ridged.

    Not lazy-safe: marginal gains of this mutual-information form can grow as
    the selection grows (counterexamples exist on valid PSD kernels even at
    eta=1), so stale upper bounds would be unsound.
    """

    lazy_safe = False

    def __init__(self, spec):
        super().__init__(spec)
        l_q = cholesky_or_raise(
            spec.s_tt.values + self.eps * np.eye(spec.s_tt.shape[0]), "target kernel"
        )
        # w columns satisfy S_AQ S_Q^-1 S_AQ^T = W[:,A]^T W[:,A]; forward
        # substitution keeps every selection on numpy's one BLAS thread pool
        b = spec.s_ut.values.T
        self.w = np.empty(b.shape)
        for i in range(len(b)):
            self.w[i] = (b[i] - l_q[i, :i] @ self.w[:i]) / l_q[i, i]
        pool = self.residuals[0]
        self.residuals.append(CholeskyResiduals(
            pool.diag - spec.eta**2 * (self.w**2).sum(axis=0), "conditioned kernel", pool.floor))
        if spec.eta > 1:
            self.remark = "; eta > 1 can make S_A - eta^2 S_AQ S_Q^-1 S_QA indefinite"

    def _columns(self, a):
        """The ridged pool column, then column a of S - eta^2 W^T W + eps I."""
        pool = super()._columns(a)
        return pool + [pool[0] - self.spec.eta**2 * (self.w.T @ self.w[:, a])]

    def _evaluate(self, indices):
        cond = self.uu.block(indices) - self.spec.eta**2 * (
            self.w[:, indices].T @ self.w[:, indices])
        cond[np.diag_indices_from(cond)] += self.eps
        return super()._evaluate(indices) - float(
            _logdet(cond, self.residuals[0].floor[indices], "conditioned kernel", self.remark))


class FacilityLocation(_RunningMax):
    """sum_i max_{j in A} s_ij over the pool kernel."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_uu.values
        self.lazy_safe = self.rows.min() >= 0

    def _evaluate(self, indices):
        return float(self.rows[indices].max(axis=0).sum())

    def gains_at(self, idx):
        return self._cover(idx).sum(axis=-1) - self.value


class GraphCut(_RunningSum):
    """sum_{i in V, j in A} s_ij - lambda * sum_{i,j in A} s_ij."""

    lazy_pays = False

    def __init__(self, spec):
        super().__init__(spec)
        self.colsum = spec.s_uu.values.sum(axis=0)
        self.diag = self.uu.diagonal()

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        return float(self.colsum[idx].sum() - self.spec.lambda_gc * self.uu.block(idx).sum())

    def gains_at(self, idx):
        return self.colsum[idx] - self.spec.lambda_gc * (2.0 * self.sel_sim[idx] + self.diag[idx])


class LogDet(_ResidualLogDet):
    """log det(S_A + eps I) over the pool kernel."""

    lazy_pays = False


class DisparitySum(_RunningSum):
    """sum_{i<j in A} (1 - s_ij); diversity, not submodular."""

    lazy_safe = False

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        k = len(idx)
        return float(k * (k - 1) / 2.0 - np.triu(self.uu.block(idx), 1).sum())

    def gains_at(self, idx):
        return len(self.selected) - self.sel_sim[idx]


class GraphCutMIDiversity(DisparitySum):
    """gcmi plus gamma times disparity-sum over the pool kernel.

    The diversity term has increasing gains, so the combined function is not
    submodular and stale lazy bounds are unsound.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self.row2 = 2.0 * spec.s_ut.values.sum(axis=1)

    def _evaluate(self, indices):
        return float(self.row2[indices].sum() + self.spec.gamma * super()._evaluate(indices))

    def gains_at(self, idx):
        return self.row2[idx] + self.spec.gamma * super().gains_at(idx)


class CholeskyResiduals:
    """Schur residuals of every candidate against a growing committed set.

    The incremental Cholesky of Chen, Zhang & Zhou, "Fast Greedy MAP Inference
    for Determinantal Point Processes" (NeurIPS 2018). For a PD kernel K and a
    committed set A with lower Cholesky factor L, it keeps E = L^-1 K[A, :],
    one row per committed index, and d_i = K_ii - |E[:, i]|^2, so that
    log d_i = log det K[A + i] - log det K[A]. Folding in one committed index
    costs O(n |A|) given its kernel column, which the caller computes: K is
    read only by those columns, so a pool kernel served by rows
    (kernel.KernelRows) is never built. E is one zero-filled store of rows,
    doubled from 8 rows, at most n. It is the only factor state of logdet and
    logdetmi: their scalar gains, batched gains and commits all read it.
    """

    def __init__(self, diag, name, floor):
        self.diag = diag
        self.name = name
        self.floor = floor  # a pivot's residual must exceed this
        self.d = diag.copy()
        # The rows of E are zero-padded to a multiple of PAD_COLUMNS columns, so
        # that BLAS runs every real column through the same full-block code and
        # candidates that tie exactly keep tying in floating point.
        self.width = -(-len(diag) // PAD_COLUMNS) * PAD_COLUMNS
        self.rows = np.zeros((0, self.width))
        self.t = 0  # committed indices folded in so far

    def fold(self, j, e):
        """Fold in committed pivot j, given e = K[:, j] as a new array, which it overwrites."""
        t, n = self.t, len(self.d)
        e -= (self.rows[:t, j] @ self.rows[:t])[:n]
        e /= np.sqrt(self.d[j])
        if t == len(self.rows):
            size = min(max(8, 2 * t), n)
            _check_size(size, self.width, "block of Schur residual rows")  # before allocating
            self.rows = np.concatenate([self.rows, np.zeros((size - t, self.width))])
        self.rows[t, :n] = e
        self.d -= e * e
        self.t += 1


def _logdet(m, floor, name, remark=""):
    """slogdet's log det m, under the greedy loops' pivot rule: IndefiniteKernelError, with
    remark added, when m has no Cholesky factor or a squared pivot of it is at most floor."""
    try:
        if not (np.linalg.cholesky(m).diagonal() ** 2 <= floor).any():
            return np.linalg.slogdet(m)[1]
    except np.linalg.LinAlgError:
        pass
    raise IndefiniteKernelError(
        f"the {name} on this set has a non-pivot; increase the ridge{remark}")


_CLASSES = {
    "gcmi": GraphCutMI,
    "fl1mi": FacilityLocationMI1,
    "fl2mi": FacilityLocationMI2,
    "logdetmi": LogDetMI,
    "gcmi_div": GraphCutMIDiversity,
    "fl": FacilityLocation,
    "gc": GraphCut,
    "logdet": LogDet,
    "dsum": DisparitySum,
}


def build_objective(spec):
    return _CLASSES[spec.kind](spec)


def evaluate(spec, indices):
    """Objective value of an index set, computed from scratch."""
    return build_objective(spec).evaluate(indices)
