"""Set-function objectives and incremental marginal gains.

Covers the mutual-information objectives over a pool/target kernel pair
(gcmi, fl1mi, fl2mi, logdetmi, gcmi_div) and the plain pool-only functions
(fl, gc, logdet, dsum). Every objective supports evaluation from scratch and
an incremental state (running max vectors, relevance sums, Cholesky
residuals) so greedy selection pays far less than a full re-evaluation per
candidate.

Conventions: the empty set evaluates to 0 for every kind; max over an empty
index set is 0; the empty determinant is 1.
"""

import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigurationError, IndefiniteKernelError
from .kernel import cholesky_or_raise

KINDS = ("gcmi", "fl1mi", "fl2mi", "logdetmi", "gcmi_div", "fl", "gc", "logdet", "dsum")

# Which of the pool/pool, pool/target, target/target kernels each kind needs.
KERNEL_REQUIREMENTS = {
    "gcmi": frozenset({"ut"}),
    "fl1mi": frozenset({"uu", "ut"}),
    "fl2mi": frozenset({"ut"}),
    "logdetmi": frozenset({"uu", "ut", "tt"}),
    "gcmi_div": frozenset({"ut", "uu"}),
    "fl": frozenset({"uu"}),
    "gc": frozenset({"uu"}),
    "logdet": frozenset({"uu"}),
    "dsum": frozenset({"uu"}),
}

# Kinds whose greedy gains are safe for lazy (stale-bound) evaluation.
# dsum is diversity (not submodular) and gcmi_div contains it; logdetmi has
# increasing-gain counterexamples on valid PSD kernels, so its bounds are
# unsound too.
SUBMODULAR_KINDS = frozenset(KINDS) - {"dsum", "gcmi_div", "logdetmi"}

PAD_COLUMNS = 64  # see CholeskyResiduals.__init__


def check_parameters(eta, gamma, lambda_gc, ridge):
    """Reject a negative or non-finite eta, gamma or ridge, or lambda_gc outside [0, 1]."""
    if not (np.all(np.isfinite([eta, gamma, ridge])) and min(eta, gamma, ridge) >= 0):
        raise ConfigurationError("eta, gamma and ridge must be finite and nonnegative")
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
        kernels = {"uu": self.s_uu, "ut": self.s_ut, "tt": self.s_tt}
        for name in KERNEL_REQUIREMENTS[self.kind]:
            if kernels[name] is None:
                raise ConfigurationError(f"objective {self.kind!r} requires the {name} kernel")
        if self.s_uu is not None and not self.s_uu.symmetric:
            raise ConfigurationError("pool kernel must be symmetric")
        if self.s_tt is not None and not self.s_tt.symmetric:
            raise ConfigurationError("target kernel must be symmetric")
        if self.s_uu is not None and self.s_ut is not None:
            if self.s_uu.shape[0] != self.s_ut.shape[0]:
                raise ConfigurationError("pool and cross kernels disagree on pool size")
        if self.s_tt is not None and self.s_ut is not None:
            if self.s_tt.shape[0] != self.s_ut.shape[1]:
                raise ConfigurationError("target and cross kernels disagree on target size")


@dataclass
class ObjectiveState:
    """Selected indices plus the per-kind incremental caches."""

    selected: list = field(default_factory=list)
    value: float = 0.0
    aux: dict = field(default_factory=dict)


class Objective:
    """Base: from-scratch evaluation plus incremental gain/commit.

    Each kind writes its marginal gain once, as `_gain(state, idx)`,
    elementwise in idx: an int gives one gain, a slice the gain of each index
    in it, so `gain` and `gains` run the same arithmetic. A nan gain marks a
    candidate the incremental state cannot score, which is evaluated from
    scratch instead.
    """

    lazy_safe = True
    # False where stale bounds save lazy greedy nothing: every gain moves with
    # each commit, or none ever does, so naive greedy's one pass per step wins
    lazy_pays = True
    chunk = sys.maxsize  # candidates per _gain call in gains

    def __init__(self, spec):
        self.spec = spec
        self.n = (spec.s_uu if spec.s_uu is not None else spec.s_ut).shape[0]

    def evaluate(self, indices):
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate index in evaluation set")
        for a in indices:
            self._check_bounds(a)
        if not indices:
            return 0.0
        return self._evaluate(indices)

    def new_state(self):
        return ObjectiveState()

    def gain(self, state, a):
        self._check_candidate(state, a)
        return self._scalar_gain(state, a)

    def gains(self, state):
        """Marginal gain of every candidate at once; -inf at selected indices."""
        out = np.empty(self.n)
        for start in range(0, self.n, self.chunk):
            rows = slice(start, start + self.chunk)
            out[rows] = self._gain(state, rows)
        out[state.selected] = -np.inf
        return self._nan_from_scratch(state, out, np.arange(self.n))

    def gains_at(self, state, idx):
        """Marginal gains of the unselected candidates in the index array idx,
        from one _gain call."""
        return self._nan_from_scratch(state, np.array(self._gain(state, idx), dtype=float), idx)

    def _nan_from_scratch(self, state, out, idx):
        # out[i] is the gain of idx[i]; a nan one is evaluated from scratch
        for i in np.flatnonzero(np.isnan(out)):
            out[i] = self._from_scratch(state, int(idx[i]))
        return out

    def commit(self, state, a):
        self._check_candidate(state, a)
        g = self._scalar_gain(state, a)
        self._commit(state, a)
        state.selected.append(a)
        state.value += g
        return state

    def _scalar_gain(self, state, a):
        g = float(self._gain(state, a))
        return g if g == g else self._from_scratch(state, a)

    def _from_scratch(self, state, a):
        return self.evaluate(state.selected + [a]) - state.value

    def _commit(self, state, a):
        pass

    def _check_bounds(self, a):
        if not 0 <= a < self.n:
            raise IndexError(f"index {a} outside ground set of size {self.n}")

    def _check_candidate(self, state, a):
        self._check_bounds(a)
        if a in state.selected:
            raise ValueError(f"index {a} already selected")


class _RunningMax(Objective):
    """Keeps aux["cur"], the elementwise max of self.rows over the selected set."""

    chunk = 256  # bounds each _gain call's temporaries to 256 rows

    def _cover(self, state, idx):
        """The running max with row(s) idx folded in."""
        if not state.selected:
            return self.rows[idx]
        return np.maximum(state.aux["cur"], self.rows[idx])

    def _commit(self, state, a):
        state.aux["cur"] = self._cover(state, a)


class _RunningSum(Objective):
    """Keeps aux["sel_sim"], the sum of pool-kernel rows over the selected set."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values

    def new_state(self):
        return ObjectiveState(aux={"sel_sim": np.zeros(self.n)})

    def _commit(self, state, a):
        state.aux["sel_sim"] += self.uu[a]


class GraphCutMI(Objective):
    """2 * sum_{i in A} sum_{j in Q} s_ij; modular in A."""

    lazy_pays = False

    def __init__(self, spec):
        super().__init__(spec)
        self.row2 = 2.0 * spec.s_ut.values.sum(axis=1)

    def _evaluate(self, indices):
        return float(self.row2[indices].sum())

    def _gain(self, state, idx):
        return self.row2[idx]


class FacilityLocationMI1(_RunningMax):
    """sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_uu.values
        self.q = spec.eta * spec.s_ut.values.max(axis=1)

    def _evaluate(self, indices):
        cur = self.rows[indices].max(axis=0)
        return float(np.minimum(cur, self.q).sum())

    def _gain(self, state, idx):
        return np.minimum(self._cover(state, idx), self.q).sum(axis=-1) - state.value


class FacilityLocationMI2(_RunningMax):
    """Bidirectional representation: target coverage plus eta * pool relevance."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_ut.values
        self.rowmax = self.rows.max(axis=1)

    def _evaluate(self, indices):
        cover = self.rows[indices, :].max(axis=0).sum()
        return float(cover + self.spec.eta * self.rowmax[indices].sum())

    def _gain(self, state, idx):
        rel = self.spec.eta * self.rowmax[idx]
        base = state.aux["cur"].sum() if state.selected else 0.0
        return self._cover(state, idx).sum(axis=-1) - base + rel


class _ResidualLogDet(Objective):
    """Gains of the log-det kinds, read from CholeskyResiduals in state.aux.

    Subclasses set `kernels`, one (column, diag, name) triple per kernel; the
    gain of a is log d[a] for the first kernel minus log d[a] for each later
    one. A commit keeps no factor: the next sync folds it in. A residual that
    lost positivity numerically (d <= 0) has a nan log, so its candidate is
    evaluated from scratch.
    """

    def _gain(self, state, idx):
        logs = _synced_logs(state, self.kernels)
        out = logs[0][idx]
        for log_d in logs[1:]:
            out = out - log_d[idx]
        return out


class LogDetMI(_ResidualLogDet):
    """log det(S_A) - log det(S_A - eta^2 S_AQ S_Q^-1 S_AQ^T), both ridged.

    Not lazy-safe: marginal gains of this mutual-information form can grow as
    the selection grows (counterexamples exist on valid PSD kernels even at
    eta=1), so stale upper bounds would be unsound.
    """

    lazy_safe = False

    def __init__(self, spec):
        from scipy.linalg import solve_triangular  # imported here: only log-det kinds need it

        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.eps = spec.ridge
        l_q = cholesky_or_raise(
            spec.s_tt.values + self.eps * np.eye(spec.s_tt.shape[0]), "target kernel"
        )
        # w columns satisfy S_AQ S_Q^-1 S_AQ^T = W[:,A]^T W[:,A]
        self.w = solve_triangular(l_q, spec.s_ut.values.T, lower=True)
        pool_diag = self.uu.diagonal() + self.eps
        # partials over arrays, not bound methods: a reference back to self
        # would keep every kernel alive until the cyclic garbage collector ran
        self.kernels = (
            (partial(_ridged_column, self.uu, self.eps), pool_diag, "pool kernel"),
            (partial(_conditioned_column, self.uu, self.eps, spec.eta, self.w),
             pool_diag - spec.eta**2 * (self.w**2).sum(axis=0), "conditioned kernel"),
        )

    def _evaluate(self, indices):
        s_a = self.uu[np.ix_(indices, indices)] + self.eps * np.eye(len(indices))
        cond = self.uu[np.ix_(indices, indices)] - self.spec.eta**2 * (
            self.w[:, indices].T @ self.w[:, indices]
        )
        cond[np.diag_indices_from(cond)] += self.eps
        return float(_logdet(s_a) - _logdet(cond))


class FacilityLocation(_RunningMax):
    """sum_i max_{j in A} s_ij over the pool kernel."""

    def __init__(self, spec):
        super().__init__(spec)
        self.rows = spec.s_uu.values

    def _evaluate(self, indices):
        return float(self.rows[indices].max(axis=0).sum())

    def _gain(self, state, idx):
        return self._cover(state, idx).sum(axis=-1) - state.value


class GraphCut(_RunningSum):
    """sum_{i in V, j in A} s_ij - lambda * sum_{i,j in A} s_ij."""

    lazy_pays = False

    def __init__(self, spec):
        super().__init__(spec)
        self.colsum = self.uu.sum(axis=0)
        self.diag = self.uu.diagonal()

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        return float(
            self.colsum[idx].sum() - self.spec.lambda_gc * self.uu[np.ix_(idx, idx)].sum()
        )

    def _gain(self, state, idx):
        sel_sim = state.aux["sel_sim"][idx]
        return self.colsum[idx] - self.spec.lambda_gc * (2.0 * sel_sim + self.diag[idx])


class LogDet(_ResidualLogDet):
    """log det(S_A + eps I) over the pool kernel."""

    lazy_pays = False

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.eps = spec.ridge
        self.kernels = ((partial(_ridged_column, self.uu, self.eps),
                         self.uu.diagonal() + self.eps, "pool kernel"),)

    def _evaluate(self, indices):
        return float(_logdet(self.uu[np.ix_(indices, indices)] + self.eps * np.eye(len(indices))))


class DisparitySum(_RunningSum):
    """sum_{i<j in A} (1 - s_ij); diversity, not submodular."""

    lazy_safe = False

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        k = len(idx)
        return float(k * (k - 1) / 2.0 - np.triu(self.uu[np.ix_(idx, idx)], 1).sum())

    def _gain(self, state, idx):
        return len(state.selected) - state.aux["sel_sim"][idx]


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

    def _gain(self, state, idx):
        return self.row2[idx] + self.spec.gamma * super()._gain(state, idx)


class CholeskyResiduals:
    """Schur residuals of every candidate against a growing committed set.

    The incremental Cholesky of Chen, Zhang & Zhou, "Fast Greedy MAP Inference
    for Determinantal Point Processes" (NeurIPS 2018). For a PD kernel K and a
    committed set A with lower Cholesky factor L, it keeps E = L^-1 K[A, :],
    one row per committed index, and d_i = K_ii - |E[:, i]|^2, so that
    log d_i = log det K[A + i] - log det K[A]. Folding in one committed index
    costs one kernel column and O(n |A|); K itself is never materialized.
    It is the only factor state of logdet and logdetmi: their scalar gains,
    batched gains and commits all read it, and commits are folded in lazily,
    by the next sync.
    """

    def __init__(self, column, diag, name):
        self.column = column  # j -> K[:, j] as a new array
        self.diag = diag
        self.name = name
        self.d = diag.copy()
        # The rows of E are zero-padded to a multiple of PAD_COLUMNS columns, so
        # that BLAS runs every real column through the same full-block code and
        # candidates that tie exactly keep tying in floating point.
        self.width = -(-len(diag) // PAD_COLUMNS) * PAD_COLUMNS
        self.rows = np.zeros((0, self.width))
        self.t = 0  # committed indices folded in so far

    def sync(self, selected):
        """Fold in the indices committed since the last call; returns d."""
        n = len(self.d)
        while self.t < len(selected):
            t, j = self.t, selected[self.t]
            if self.d[j] <= 0:
                # the pivot lost positive definiteness numerically
                self._refactor(selected[: t + 1])
                continue
            e = self.column(j)
            e -= (self.rows[:t, j] @ self.rows[:t])[:n]
            e /= np.sqrt(self.d[j])
            if t == len(self.rows):
                grown = np.zeros((max(8, 2 * t), self.width))
                grown[:t] = self.rows
                self.rows = grown
            self.rows[t, :n] = e
            self.d -= e * e
            self.t += 1
        return self.d

    def _refactor(self, chosen):
        from scipy.linalg import solve_triangular

        block = np.array([self.column(j) for j in chosen])
        factor = cholesky_or_raise(block[:, chosen], self.name)
        e = solve_triangular(factor, block, lower=True)
        self.rows = np.zeros((len(chosen), self.width))
        self.rows[:, : len(self.d)] = e
        self.d = self.diag - (e**2).sum(axis=0)
        self.t = len(chosen)


def _logdet(m):
    sign, ld = np.linalg.slogdet(m)
    if sign <= 0:
        raise IndefiniteKernelError("log-det evaluation hit a non-PD matrix; increase the ridge")
    return ld


def _ridged_column(kernel, eps, j):
    """Column j of a symmetric kernel plus eps I, as a new array."""
    col = kernel[j].copy()
    col[j] += eps
    return col


def _conditioned_column(kernel, eps, eta, w, j):
    """Column j of kernel - eta^2 W^T W + eps I, as a new array."""
    return _ridged_column(kernel, eps, j) - eta**2 * (w.T @ w[:, j])


def _synced_logs(state, kernels):
    """log d of the residuals of each (column, diag, name) kernel, nan where
    d <= 0; kept in state.aux and brought up to date with state.selected."""
    aux = state.aux
    if "residuals" not in aux:
        aux["residuals"] = [CholeskyResiduals(*k) for k in kernels]
    if aux.get("synced") != len(state.selected):
        ds = [r.sync(state.selected) for r in aux["residuals"]]
        aux["logs"] = [np.log(d, out=np.full(len(d), np.nan), where=d > 0) for d in ds]
        aux["synced"] = len(state.selected)
    return aux["logs"]


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
