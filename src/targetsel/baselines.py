"""Non-submodular selection baselines: random, uncertainty sampling (entropy),
targeted uncertainty sampling, and k-means++ seeding over gradient embeddings.

All baselines are deterministic given their inputs and seed, and report their
output through the same SelectionResult container as the greedy optimizers.
"""

import numpy as np

from .errors import ShapeError, SizeError
from .optimizer import SelectionResult


def _check_budget(k, n):
    if k < 0:
        raise SizeError("budget must be nonnegative")
    if k > n:
        raise SizeError(f"budget {k} exceeds pool size {n}")


def _top_k(scores, k):
    """The k highest-scoring indices, lowest index first among exact ties."""
    chosen = np.argsort(-scores, kind="stable")[:k]
    return SelectionResult(
        selected=[int(i) for i in chosen],
        gains=[float(scores[i]) for i in chosen],
        total_value=float(scores[chosen].sum()),
        evaluations=len(scores),
    )


def random_select(n, k, seed):
    """k distinct indices drawn uniformly without replacement."""
    _check_budget(k, n)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=k, replace=False)
    return SelectionResult(
        selected=[int(i) for i in chosen],
        gains=[0.0] * k,
        total_value=0.0,
        evaluations=0,
    )


def entropy_scores(probs):
    """Shannon entropy per row, with 0 * log 0 = 0."""
    from scipy.special import xlogy  # imported here: only us and tus pay for scipy.special

    return -xlogy(probs.values, probs.values).sum(axis=1)


def uncertainty_select(probs, k):
    """Top-k pool instances by predictive entropy."""
    _check_budget(k, probs.rows)
    return _top_k(entropy_scores(probs), k)


def targeted_uncertainty_select(probs, s_ut, k):
    """Top-k by entropy times max similarity to the target set."""
    if probs.rows != s_ut.shape[0]:
        raise ShapeError(
            f"probability rows ({probs.rows}) disagree with cross-kernel rows ({s_ut.shape[0]})"
        )
    _check_budget(k, probs.rows)
    return _top_k(entropy_scores(probs) * s_ut.values.max(axis=1), k)


BADGE_BLOCK = 64  # rows per squared-distance block: its temporaries stay in cache


def _squared_distances(x, center, buf, out):
    """((x - center) ** 2).sum(axis=1) into out, BADGE_BLOCK rows at a time
    through buf; each row is still summed by one contiguous reduction."""
    for start in range(0, len(x), BADGE_BLOCK):
        rows = x[start:start + BADGE_BLOCK]
        block = buf[:len(rows)]
        np.subtract(rows, center, out=block)
        np.square(block, out=block)
        np.add.reduce(block, axis=1, out=out[start:start + len(rows)])
    return out


def badge_select(embeddings, k, seed):
    """k-means++ seeding over embedding rows; returns centers in draw order.

    The next center is drawn with probability proportional to squared distance
    to the nearest chosen center; if every distance is zero the draw falls back
    to uniform over the unchosen indices.
    """
    x = embeddings.values
    n = x.shape[0]
    _check_budget(k, n)
    rng = np.random.default_rng(seed)
    chosen = []
    if k == 0:
        return SelectionResult(selected=[], gains=[], total_value=0.0, evaluations=0)
    first = int(rng.integers(n))
    chosen.append(first)
    buf = np.empty((min(n, BADGE_BLOCK), x.shape[1]))
    d2 = _squared_distances(x, x[first], buf, np.empty(n))
    new = np.empty(n)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            pool = np.setdiff1d(np.arange(n), chosen)
            nxt = int(rng.choice(pool))
        chosen.append(nxt)
        np.minimum(d2, _squared_distances(x, x[nxt], buf, new), out=d2)
    return SelectionResult(
        selected=chosen,
        gains=[0.0] * k,
        total_value=0.0,
        evaluations=n * k,
    )
