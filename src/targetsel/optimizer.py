"""Cardinality-constrained maximization: naive greedy, lazy greedy, exhaustive.

Lazy greedy keeps stale upper bounds in a max-heap and re-evaluates popped
candidates until the top is fresh; under submodularity it returns the exact
same index sequence as naive greedy, including the lowest-index tie rule
(gains equal within 1e-12 absolute). Budgets are fixed: selection never stops
early on zero or negative gains.
"""

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import ConfigurationError, SizeError
from .objectives import build_objective

TIE_TOL = 1e-12

MAX_EXHAUSTIVE_SUBSETS = 10**6

ALGORITHMS = ("naive", "lazy", "exhaustive")


@dataclass(frozen=True)
class SelectionConfig:
    budget: int
    algorithm: str = "lazy"

    def __post_init__(self):
        if self.budget < 0:
            raise ConfigurationError("budget must be nonnegative")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class SelectionResult:
    """Ordered selection with per-step gains and bookkeeping."""

    selected: list
    gains: list
    total_value: float
    evaluations: int
    truncated: bool = False


def _naive_greedy(obj, k):
    state = obj.new_state()
    gains = []
    evals = 0
    for _ in range(k):
        step_gains = obj.gains(state)
        evals += obj.n - len(state.selected)
        winner = int(np.flatnonzero(step_gains >= step_gains.max() - TIE_TOL)[0])
        gains.append(float(step_gains[winner]))
        obj.commit(state, winner)
    return state, gains, evals


def _lazy_greedy(obj, k):
    state = obj.new_state()
    gains = []
    evals = 0
    heap = []  # (-bound, index, stamp); stamp = |selected| when the bound was computed
    for a in range(obj.n):
        heap.append((-obj.gain(state, a), a, 0))
    evals = obj.n
    heapq.heapify(heap)
    for _ in range(k):
        stamp = len(state.selected)
        while True:
            negb, idx, st = heapq.heappop(heap)
            if st == stamp:
                best_gain = -negb
                entries = [(negb, idx, st)]
                break
            g = obj.gain(state, idx)
            evals += 1
            heapq.heappush(heap, (-g, idx, stamp))
        # candidates still bounded above the tie window may claim a lower index
        while heap and -heap[0][0] >= best_gain - TIE_TOL:
            negb, idx, st = heapq.heappop(heap)
            if idx < entries[0][1] and st != stamp:
                g = obj.gain(state, idx)
                evals += 1
                negb, st = -g, stamp
            entries.append((negb, idx, st))
        fresh = [(idx, -negb) for negb, idx, st in entries
                 if st == stamp and -negb >= best_gain - TIE_TOL]
        winner, winner_gain = min(fresh)
        for negb, idx, st in entries:
            if idx != winner:
                heapq.heappush(heap, (negb, idx, st))
        obj.commit(state, winner)
        gains.append(winner_gain)
    return state, gains, evals


def greedy_maximize(spec, cfg):
    """Greedy-maximize the objective under a cardinality budget.

    Returns min(budget, ground set size) indices; when the budget exceeds the
    ground set the result is flagged truncated.
    """
    obj = build_objective(spec)
    truncated = cfg.budget > obj.n
    k = min(cfg.budget, obj.n)
    algorithm = cfg.algorithm
    if algorithm == "lazy" and not obj.lazy_safe:
        algorithm = "naive"  # stale bounds are unsound for non-submodular gains
    if algorithm == "exhaustive":
        result = exhaustive_maximize(spec, k)
        result.truncated = truncated
        return result
    if algorithm == "lazy" and k > 0:
        state, gains, evals = _lazy_greedy(obj, k)
    else:
        state, gains, evals = _naive_greedy(obj, k)
    return SelectionResult(
        selected=list(state.selected),
        gains=gains,
        total_value=state.value,
        evaluations=evals,
        truncated=truncated,
    )


def exhaustive_maximize(spec, k):
    """True optimum over all subsets of size at most k (test oracle).

    Ties are broken toward the lexicographically smallest index tuple, with
    smaller subsets enumerated first.
    """
    obj = build_objective(spec)
    n = obj.n
    k = min(k, n)
    total = sum(comb(n, r) for r in range(k + 1))
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
