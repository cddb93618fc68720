"""Non-submodular selection baselines: random, uncertainty sampling (entropy),
targeted uncertainty sampling, and k-means++ seeding over gradient embeddings
(BADGE, Ash et al., ICLR 2020).

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


def _drawn(chosen, evaluations):
    """A selection of randomly drawn indices: no gains and no value."""
    return SelectionResult(selected=[int(i) for i in chosen], gains=[0.0] * len(chosen),
                           total_value=0.0, evaluations=evaluations)


def random_select(n, k, seed):
    """k distinct indices drawn uniformly without replacement."""
    _check_budget(k, n)
    return _drawn(np.random.default_rng(seed).choice(n, size=k, replace=False), 0)


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


def _factored_distances(r, x):
    """c -> squared distances of the rows r_i (x) x_i to row c:
    |r_i|^2|x_i|^2 + |r_c|^2|x_c|^2 - 2(r_i.r_c)(x_i.x_c), clamped at 0. At copies of
    row c, where the dense path gives exactly 0, the expansion leaves round-off,
    so rows within round-off of 0 that equal row c in both factors get exactly 0."""
    sq = np.einsum("ij,ij->i", r, r) * np.einsum("ij,ij->i", x, x)

    def distances(c):
        scale = sq + sq[c]
        out = np.maximum(scale - 2.0 * (r @ r[c]) * (x @ x[c]), 0.0)
        near = np.flatnonzero(out <= 1e-12 * scale)
        out[near[(r[near] == r[c]).all(axis=1) & (x[near] == x[c]).all(axis=1)]] = 0.0
        return out
    return distances


def badge_select(embeddings, k, seed):
    """k-means++ seeding over embedding rows; returns centers in draw order.

    The next center is drawn with probability proportional to squared distance
    to the nearest chosen center; if every distance is zero the draw falls back
    to uniform over the unchosen indices. Distances come from the outer-product
    factors when the embeddings carry them, else from the dense rows.
    """
    n = embeddings.rows
    _check_budget(k, n)
    rng = np.random.default_rng(seed)
    if k == 0:
        return _drawn([], 0)
    if embeddings.factors is not None:
        distances = _factored_distances(*embeddings.factors)
    else:
        x = embeddings.values
        buf = np.empty((min(n, BADGE_BLOCK), x.shape[1]))
        distances = lambda c: _squared_distances(x, x[c], buf, np.empty(n))
    chosen = [int(rng.integers(n))]
    d2 = distances(chosen[0])
    while len(chosen) < k:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(rng.choice(np.setdiff1d(np.arange(n), chosen)))
        chosen.append(nxt)
        np.minimum(d2, distances(nxt), out=d2)
    return _drawn(chosen, n * k)
