"""Non-submodular selection baselines: random, uncertainty sampling (entropy),
targeted uncertainty sampling, and k-means++ seeding over gradient embeddings
(BADGE, Ash et al., ICLR 2020), whose squared distances are expanded from the
factors of the rows, as the kernels are: (r, x) of an outer product, or the rows.

All baselines are deterministic given their inputs and seed, and report their
output through the same SelectionResult container as the greedy optimizers.
"""

import numpy as np

from .errors import DegenerateFeatureError, ShapeError, SizeError
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


def _factored_distances(factors):
    """c -> squared distances to row c, expanded from the factors (r, x) or (rows,) of the
    rows: prod |f_i|^2 + prod |f_c|^2 - 2 prod f_i.f_c over the factors f, clamped at 0.
    At copies of row c the expansion leaves round-off where the exact distance is 0,
    so rows within round-off of 0 that equal row c in every factor get exactly 0.
    While every prod |f_i|^2 is at most a quarter of the float range, none of it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # a larger one raises below
        sq = np.multiply.reduce([np.einsum("ij,ij->i", f, f) for f in factors])
    huge = np.flatnonzero(~(sq <= np.finfo(np.float64).max / 4))
    if huge.size:
        raise DegenerateFeatureError(f"row {huge[0]} is too large for badge's squared distances")

    def distances(c):
        scale = sq + sq[c]
        out = np.maximum(scale - 2.0 * np.multiply.reduce([f @ f[c] for f in factors]), 0.0)
        near = np.flatnonzero(out <= 1e-12 * scale)
        out[near[np.logical_and.reduce([(f[near] == f[c]).all(axis=1) for f in factors])]] = 0.0
        return out
    return distances


def badge_select(embeddings, k, seed):
    """k-means++ seeding over embedding rows; returns centers in draw order.

    The next center is drawn with probability proportional to squared distance
    to the nearest chosen center; if every distance is zero the draw falls back
    to uniform over the unchosen indices. Distances come from the embeddings'
    factors: (r, x) of gradient embeddings, or the values of any other matrix.
    """
    n = embeddings.rows
    _check_budget(k, n)
    rng = np.random.default_rng(seed)
    if k == 0:
        return _drawn([], 0)
    distances = _factored_distances(embeddings.factors)
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
