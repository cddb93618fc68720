"""Set-function objectives and incremental marginal gains.

Covers the mutual-information objectives over a pool/target kernel pair
(gcmi, fl1mi, fl2mi, logdetmi, gcmi_div) and the plain pool-only functions
(fl, gc, logdet, dsum). Every objective supports evaluation from scratch and
an incremental state (running max vectors, relevance sums, Cholesky factors)
so greedy selection pays far less than a full re-evaluation per candidate.

Conventions: the empty set evaluates to 0 for every kind; max over an empty
index set is 0; the empty determinant is 1.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import solve_triangular

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
        if self.eta < 0 or self.gamma < 0 or self.ridge < 0:
            raise ConfigurationError("eta, gamma and ridge must be nonnegative")
        if not 0.0 <= self.lambda_gc <= 1.0:
            raise ConfigurationError("lambda_gc must lie in [0, 1]")
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

    @property
    def ground_size(self):
        if self.s_uu is not None:
            return self.s_uu.shape[0]
        return self.s_ut.shape[0]


@dataclass
class ObjectiveState:
    """Selected indices plus the per-kind incremental caches."""

    selected: list = field(default_factory=list)
    value: float = 0.0
    aux: dict = field(default_factory=dict)


class Objective:
    """Base: from-scratch evaluation plus incremental gain/commit."""

    lazy_safe = True

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.ground_size

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
        return self._gain(state, a)

    def gains(self, state):
        """Marginal gain of every candidate at once; -inf at selected indices."""
        free = np.ones(self.n, dtype=bool)
        free[state.selected] = False
        out = self._gains(state, free)
        out[~free] = -np.inf
        return out

    def commit(self, state, a):
        self._check_candidate(state, a)
        g = self._gain(state, a)
        self._commit(state, a)
        state.selected.append(a)
        state.value += g
        return state

    def _gains(self, state, free):
        out = np.empty(self.n)
        out[free] = [self._gain(state, int(a)) for a in np.flatnonzero(free)]
        return out

    def _check_bounds(self, a):
        if not 0 <= a < self.n:
            raise IndexError(f"index {a} outside ground set of size {self.n}")

    def _check_candidate(self, state, a):
        self._check_bounds(a)
        if a in state.selected:
            raise ValueError(f"index {a} already selected")


class GraphCutMI(Objective):
    """2 * sum_{i in A} sum_{j in Q} s_ij; modular in A."""

    def __init__(self, spec):
        super().__init__(spec)
        self.row2 = 2.0 * spec.s_ut.values.sum(axis=1)

    def _evaluate(self, indices):
        return float(self.row2[indices].sum())

    def _gain(self, state, a):
        return float(self.row2[a])

    def _commit(self, state, a):
        pass


class FacilityLocationMI1(Objective):
    """sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.q = spec.eta * spec.s_ut.values.max(axis=1)

    def _evaluate(self, indices):
        cur = self.uu[:, indices].max(axis=1)
        return float(np.minimum(cur, self.q).sum())

    def _gain(self, state, a):
        if not state.selected:
            return float(np.minimum(self.uu[:, a], self.q).sum())
        cur = np.maximum(state.aux["cur"], self.uu[:, a])
        return float(np.minimum(cur, self.q).sum()) - state.value

    def _commit(self, state, a):
        if not state.selected:
            state.aux["cur"] = self.uu[:, a].copy()
        else:
            np.maximum(state.aux["cur"], self.uu[:, a], out=state.aux["cur"])


class FacilityLocationMI2(Objective):
    """Bidirectional representation: target coverage plus eta * pool relevance."""

    def __init__(self, spec):
        super().__init__(spec)
        self.ut = spec.s_ut.values
        self.rowmax = self.ut.max(axis=1)

    def _evaluate(self, indices):
        cover = self.ut[indices, :].max(axis=0).sum()
        return float(cover + self.spec.eta * self.rowmax[indices].sum())

    def _gain(self, state, a):
        rel = self.spec.eta * self.rowmax[a]
        if not state.selected:
            return float(self.ut[a].sum() + rel)
        curq = state.aux["curq"]
        return float(np.maximum(curq, self.ut[a]).sum() - curq.sum() + rel)

    def _commit(self, state, a):
        if not state.selected:
            state.aux["curq"] = self.ut[a].copy()
        else:
            np.maximum(state.aux["curq"], self.ut[a], out=state.aux["curq"])


class LogDetMI(Objective):
    """log det(S_A) - log det(S_A - eta^2 S_AQ S_Q^-1 S_AQ^T), both ridged.

    Not lazy-safe: marginal gains of this mutual-information form can grow as
    the selection grows (counterexamples exist on valid PSD kernels even at
    eta=1), so stale upper bounds would be unsound.
    """

    lazy_safe = False

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.eps = spec.ridge
        l_q = cholesky_or_raise(
            spec.s_tt.values + self.eps * np.eye(spec.s_tt.shape[0]), "target kernel"
        )
        # w columns satisfy S_AQ S_Q^-1 S_AQ^T = W[:,A]^T W[:,A]
        self.w = solve_triangular(l_q, spec.s_ut.values.T, lower=True)
        self.pool_diag = self.uu.diagonal() + self.eps
        self.cond_diag = self.pool_diag - spec.eta**2 * (self.w**2).sum(axis=0)

    def _cond_block(self, rows, cols):
        return self.uu[np.ix_(rows, cols)] - self.spec.eta**2 * (
            self.w[:, rows].T @ self.w[:, cols]
        )

    def _cond_matrix(self, indices):
        m = self._cond_block(indices, indices)
        m[np.diag_indices_from(m)] += self.eps
        return m

    def _evaluate(self, indices):
        s_a = self.uu[np.ix_(indices, indices)] + self.eps * np.eye(len(indices))
        sign1, ld1 = np.linalg.slogdet(s_a)
        sign2, ld2 = np.linalg.slogdet(self._cond_matrix(indices))
        if sign1 <= 0 or sign2 <= 0:
            raise IndefiniteKernelError("log-det evaluation hit a non-PD matrix; increase the ridge")
        return float(ld1 - ld2)

    def _schur(self, factor, column, diag):
        if factor is None:
            return diag, None
        w = solve_triangular(factor, column, lower=True)
        return diag - float(w @ w), w

    def _gain(self, state, a):
        sel = state.selected
        d1, _ = self._schur(state.aux.get("l1"), self.uu[sel, a], self.uu[a, a] + self.eps)
        d2, _ = self._schur(
            state.aux.get("l2"), self._cond_block(sel, [a])[:, 0], self.cond_diag[a]
        )
        if d1 <= 0 or d2 <= 0:
            # rank-one extension failed numerically; refactorize from scratch
            return self.evaluate(sel + [a]) - state.value
        return float(np.log(d1) - np.log(d2))

    def _cond_column(self, j):
        return _ridged_column(self.uu, self.eps, j) - self.spec.eta**2 * (
            self.w.T @ self.w[:, j]
        )

    def _gains(self, state, free):
        d1, d2 = _synced_residuals(state, (
            (partial(_ridged_column, self.uu, self.eps), self.pool_diag, "pool kernel"),
            (self._cond_column, self.cond_diag, "conditioned kernel"),
        ))
        ok = free & (d1 > 0) & (d2 > 0)
        out = np.empty(self.n)
        out[ok] = np.log(d1[ok]) - np.log(d2[ok])
        for a in np.flatnonzero(free & ~ok):
            out[a] = self._gain(state, int(a))
        return out

    def _commit(self, state, a):
        sel = state.selected
        d1, w1 = self._schur(state.aux.get("l1"), self.uu[sel, a], self.uu[a, a] + self.eps)
        if d1 <= 0:
            raise IndefiniteKernelError("pool kernel lost positive definiteness; increase the ridge")
        state.aux["l1"] = _extend_cholesky(state.aux.get("l1"), w1, d1)
        state.aux["l2"] = cholesky_or_raise(self._cond_matrix(sel + [a]), "conditioned kernel")


class GraphCutMIDiversity(Objective):
    """gcmi plus gamma times disparity-sum over the pool kernel.

    The diversity term has increasing gains, so the combined function is not
    submodular and stale lazy bounds are unsound.
    """

    lazy_safe = False

    def __init__(self, spec):
        super().__init__(spec)
        self.row2 = 2.0 * spec.s_ut.values.sum(axis=1)
        self.uu = spec.s_uu.values

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        pair = len(idx) * (len(idx) - 1) / 2.0 - np.triu(self.uu[np.ix_(idx, idx)], 1).sum()
        return float(self.row2[idx].sum() + self.spec.gamma * pair)

    def _gain(self, state, a):
        sel_sim = state.aux["sel_sim"][a] if state.selected else 0.0
        div = len(state.selected) - sel_sim
        return float(self.row2[a] + self.spec.gamma * div)

    def _gains(self, state, free):
        sel_sim = state.aux["sel_sim"] if state.selected else np.zeros(self.n)
        return self.row2 + self.spec.gamma * (len(state.selected) - sel_sim)

    def _commit(self, state, a):
        if not state.selected:
            state.aux["sel_sim"] = self.uu[:, a].copy()
        else:
            state.aux["sel_sim"] += self.uu[:, a]


class FacilityLocation(Objective):
    """sum_i max_{j in A} s_ij over the pool kernel."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values

    def _evaluate(self, indices):
        return float(self.uu[:, indices].max(axis=1).sum())

    def _gain(self, state, a):
        if not state.selected:
            return float(self.uu[:, a].sum())
        return float(np.maximum(state.aux["cur"], self.uu[:, a]).sum()) - state.value

    def _commit(self, state, a):
        if not state.selected:
            state.aux["cur"] = self.uu[:, a].copy()
        else:
            np.maximum(state.aux["cur"], self.uu[:, a], out=state.aux["cur"])


class GraphCut(Objective):
    """sum_{i in V, j in A} s_ij - lambda * sum_{i,j in A} s_ij."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.colsum = self.uu.sum(axis=0)

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        return float(
            self.colsum[idx].sum() - self.spec.lambda_gc * self.uu[np.ix_(idx, idx)].sum()
        )

    def _gain(self, state, a):
        sel_sim = state.aux["sel_sim"][a] if state.selected else 0.0
        return float(self.colsum[a] - self.spec.lambda_gc * (2.0 * sel_sim + self.uu[a, a]))

    def _commit(self, state, a):
        if not state.selected:
            state.aux["sel_sim"] = self.uu[:, a].copy()
        else:
            state.aux["sel_sim"] += self.uu[:, a]


class LogDet(Objective):
    """log det(S_A + eps I) over the pool kernel."""

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values
        self.eps = spec.ridge
        self.diag = self.uu.diagonal() + self.eps

    def _evaluate(self, indices):
        m = self.uu[np.ix_(indices, indices)] + self.eps * np.eye(len(indices))
        sign, ld = np.linalg.slogdet(m)
        if sign <= 0:
            raise IndefiniteKernelError("log-det evaluation hit a non-PD matrix; increase the ridge")
        return float(ld)

    def _gain(self, state, a):
        factor = state.aux.get("l")
        diag = self.uu[a, a] + self.eps
        if factor is None:
            return float(np.log(diag))
        w = solve_triangular(factor, self.uu[state.selected, a], lower=True)
        d = diag - float(w @ w)
        if d <= 0:
            return self.evaluate(state.selected + [a]) - state.value
        return float(np.log(d))

    def _gains(self, state, free):
        (d,) = _synced_residuals(
            state, ((partial(_ridged_column, self.uu, self.eps), self.diag, "pool kernel"),)
        )
        ok = free & (d > 0)
        out = np.empty(self.n)
        out[ok] = np.log(d[ok])
        for a in np.flatnonzero(free & ~ok):
            out[a] = self._gain(state, int(a))
        return out

    def _commit(self, state, a):
        factor = state.aux.get("l")
        diag = self.uu[a, a] + self.eps
        if factor is None:
            state.aux["l"] = np.array([[np.sqrt(diag)]])
            return
        w = solve_triangular(factor, self.uu[state.selected, a], lower=True)
        d = diag - float(w @ w)
        if d <= 0:
            state.aux["l"] = cholesky_or_raise(
                self.uu[np.ix_(state.selected + [a], state.selected + [a])]
                + self.eps * np.eye(len(state.selected) + 1),
                "pool kernel",
            )
        else:
            state.aux["l"] = _extend_cholesky(factor, w, d)


class DisparitySum(Objective):
    """sum_{i<j in A} (1 - s_ij); diversity, not submodular."""

    lazy_safe = False

    def __init__(self, spec):
        super().__init__(spec)
        self.uu = spec.s_uu.values

    def _evaluate(self, indices):
        idx = np.asarray(indices)
        k = len(idx)
        return float(k * (k - 1) / 2.0 - np.triu(self.uu[np.ix_(idx, idx)], 1).sum())

    def _gain(self, state, a):
        if not state.selected:
            return 0.0
        return float(len(state.selected) - state.aux["sel_sim"][a])

    def _gains(self, state, free):
        if not state.selected:
            return np.zeros(self.n)
        return len(state.selected) - state.aux["sel_sim"]

    def _commit(self, state, a):
        if not state.selected:
            state.aux["sel_sim"] = self.uu[:, a].copy()
        else:
            state.aux["sel_sim"] += self.uu[:, a]


class CholeskyResiduals:
    """Schur residuals of every candidate against a growing committed set.

    The incremental Cholesky of Chen, Zhang & Zhou, "Fast Greedy MAP Inference
    for Determinantal Point Processes" (NeurIPS 2018). For a PD kernel K and a
    committed set A with lower Cholesky factor L, it keeps E = L^-1 K[A, :],
    one row per committed index, and d_i = K_ii - |E[:, i]|^2, so that
    log d_i = log det K[A + i] - log det K[A]. Folding in one committed index
    costs one kernel column and O(n |A|); K itself is never materialized.
    """

    def __init__(self, column, diag, name):
        self.column = column  # j -> K[:, j] as a new array
        self.diag = diag
        self.name = name
        self.d = diag.copy()
        self.rows = np.empty((0, len(diag)))
        self.t = 0  # committed indices folded in so far

    def sync(self, selected):
        """Fold in the indices committed since the last call; returns d."""
        while self.t < len(selected):
            t, j = self.t, selected[self.t]
            if self.d[j] <= 0:
                # the pivot lost positive definiteness numerically
                self._refactor(selected[: t + 1])
                continue
            e = self.column(j)
            e -= self.rows[:t, j] @ self.rows[:t]
            e /= np.sqrt(self.d[j])
            if t == len(self.rows):
                grown = np.empty((max(8, 2 * t), len(self.d)))
                grown[:t] = self.rows
                self.rows = grown
            self.rows[t] = e
            self.d -= e * e
            self.t += 1
        return self.d

    def _refactor(self, chosen):
        block = np.array([self.column(j) for j in chosen])
        factor = cholesky_or_raise(block[:, chosen], self.name)
        self.rows = solve_triangular(factor, block, lower=True)
        self.d = self.diag - (self.rows**2).sum(axis=0)
        self.t = len(chosen)


def _ridged_column(kernel, eps, j):
    """Column j of a symmetric kernel plus eps I, as a new array."""
    col = kernel[j].copy()
    col[j] += eps
    return col


def _synced_residuals(state, kernels):
    """Residual arrays for each (column, diag, name) kernel, kept in state.aux
    and brought up to date with state.selected."""
    if "residuals" not in state.aux:
        state.aux["residuals"] = [CholeskyResiduals(*k) for k in kernels]
    return [r.sync(state.selected) for r in state.aux["residuals"]]


def _extend_cholesky(factor, w, d):
    """Append one row/column to a lower Cholesky factor via its Schur scalar."""
    if factor is None:
        return np.array([[np.sqrt(d)]])
    k = factor.shape[0]
    out = np.zeros((k + 1, k + 1))
    out[:k, :k] = factor
    out[k, :k] = w
    out[k, k] = np.sqrt(d)
    return out


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


def marginal_gain(spec, state, a, objective=None):
    """eval(A + {a}) - eval(A), computed incrementally from the state caches."""
    obj = objective if objective is not None else build_objective(spec)
    return obj.gain(state, a)


def commit(spec, state, a, objective=None):
    """Append `a` to the state and update its caches."""
    obj = objective if objective is not None else build_objective(spec)
    return obj.commit(state, a)
