"""Cardinality-constrained greedy maximization, naive and lazy.

Lazy greedy (Minoux's accelerated greedy) keeps an upper bound on every
candidate's gain in one array, all stale after each commit, and while the
highest bound is stale re-scores the LAZY_BLOCK highest stale ones per call.
Under submodularity it returns the exact same index sequence as naive greedy,
including the lowest-index tie rule (gains equal within 1e-12 absolute).
Budgets are fixed: selection never stops early on zero or negative gains.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .objectives import OVERFLOW, build_objective

TIE_TOL = 1e-12
LAZY_BLOCK = 32  # stale bounds re-scored by one gains_at call


@dataclass
class SelectionResult:
    """Ordered selection with per-step gains and bookkeeping."""

    selected: list
    gains: list
    total_value: float
    evaluations: int
    truncated: bool = False


def _naive_greedy(obj, k):
    gains = []
    evals = 0
    for _ in range(k):
        step_gains = obj.gains()
        evals += obj.n - len(obj.selected)
        top = step_gains.max()
        if not np.isfinite(obj.value + top):  # a log-det kind raises before every gain is -inf
            raise DivergenceError(OVERFLOW)
        winner = int(np.flatnonzero(step_gains >= top - TIE_TOL)[0])
        gains.append(float(step_gains[winner]))
        obj.commit(winner)
    return gains, evals


def _stale_block(bound, stale):
    """The LAZY_BLOCK highest stale bounds, lowest index first among equals."""
    idx = np.flatnonzero(stale)
    b, j = bound[idx], max(len(idx) - LAZY_BLOCK, 0)
    cut = np.partition(b, j)[j]  # the LAZY_BLOCK-th highest, or the lowest
    take = b > cut
    take[np.flatnonzero(b == cut)[:LAZY_BLOCK - np.count_nonzero(take)]] = True
    return idx[take]


def _lazy_greedy(obj, k):
    gains = []
    bound = obj.gains()  # -inf once selected
    stale = np.zeros(obj.n, dtype=bool)
    evals = obj.n
    for _ in range(k):
        top = int(np.argmax(bound))
        # when every bound is -inf argmax may land on a selected index: re-score the stale ones
        while stale[top] or bound[top] == -np.inf and stale.any():
            block = _stale_block(bound, stale)
            bound[block], stale[block] = obj.gains_at(block), False
            evals += len(block)
            top = int(np.argmax(bound))
        floor = bound[top] - TIE_TOL  # stale bounds of lower index this close may still win
        near = np.flatnonzero(stale[:top] & (bound[:top] >= floor))
        if len(near):
            bound[near], stale[near] = obj.gains_at(near), False
            evals += len(near)
        if not obj.value + bound[:top + 1].max() < np.inf:  # NaN or inf; commit refuses -inf
            raise DivergenceError(OVERFLOW)
        winner = int(np.flatnonzero(bound[:top + 1] >= floor)[0])
        gains.append(float(bound[winner]))
        obj.commit(winner)
        bound[winner] = -np.inf
        stale[:] = True
        stale[obj.selected] = False
    return gains, evals


@np.errstate(over="ignore", invalid="ignore")  # a non-finite gain raises DivergenceError
def greedy_maximize(spec, budget):
    """Greedy-maximize the objective under a cardinality budget.

    Returns min(budget, ground set size) indices; when the budget exceeds the
    ground set the result is flagged truncated. Lazy greedy runs when the objective
    is lazy_safe (fl, fl1mi and fl2mi only on nonnegative kernels) and lazy_pays,
    naive greedy otherwise: stale bounds are unsound for non-submodular gains, and
    save nothing where every gain moves with each commit or none ever does.
    """
    if budget < 0:
        raise ConfigurationError("budget must be nonnegative")
    obj = build_objective(spec)
    k = min(budget, obj.n)
    loop = _lazy_greedy if obj.lazy_safe and obj.lazy_pays and k > 0 else _naive_greedy
    gains, evals = loop(obj, k)
    return SelectionResult(
        selected=obj.selected,
        gains=gains,
        total_value=obj.value,
        evaluations=evals,
        truncated=budget > obj.n,
    )

