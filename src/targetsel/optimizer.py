"""Cardinality-constrained greedy maximization, naive and lazy.

Lazy greedy keeps stale upper bounds in a max-heap and re-evaluates popped
candidates, up to LAZY_BLOCK stale ones per call, until the top is fresh
(Minoux's accelerated greedy); under submodularity it returns the exact same
index sequence as naive greedy, including the lowest-index tie rule (gains
equal within 1e-12 absolute). Budgets are fixed: selection never stops early
on zero or negative gains.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .objectives import build_objective

TIE_TOL = 1e-12
LAZY_BLOCK = 32  # stale heap entries re-scored by one gains_at call


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
    # (-bound, index, stamp); stamp = |selected| when the bound was computed
    heap = [(-g, a, 0) for a, g in enumerate(obj.gains(state).tolist())]
    evals = obj.n
    heapq.heapify(heap)
    for _ in range(k):
        stamp = len(state.selected)
        while heap[0][2] != stamp:
            block = []
            while heap and heap[0][2] != stamp and len(block) < LAZY_BLOCK:
                block.append(heapq.heappop(heap)[1])
            for a, g in zip(block, obj.gains_at(state, np.array(block)).tolist()):
                heapq.heappush(heap, (-g, a, stamp))
            evals += len(block)
        negb, idx, st = heapq.heappop(heap)
        best_gain = -negb
        entries = [(negb, idx, st)]
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


def greedy_maximize(spec, budget):
    """Greedy-maximize the objective under a cardinality budget.

    Returns min(budget, ground set size) indices; when the budget exceeds the
    ground set the result is flagged truncated. Lazy greedy runs when the
    objective is lazy_safe and lazy_pays, naive greedy otherwise: stale bounds
    are unsound for non-submodular gains, and save nothing where every gain
    moves with each commit or none ever does.
    """
    if budget < 0:
        raise ConfigurationError("budget must be nonnegative")
    obj = build_objective(spec)
    k = min(budget, obj.n)
    loop = _lazy_greedy if obj.lazy_safe and obj.lazy_pays and k > 0 else _naive_greedy
    state, gains, evals = loop(obj, k)
    return SelectionResult(
        selected=list(state.selected),
        gains=gains,
        total_value=state.value,
        evaluations=evals,
        truncated=budget > obj.n,
    )

