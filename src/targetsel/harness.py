"""Desk-scale class-imbalance experiment.

Synthetic Gaussian classes, a softmax-regression base model trained on a
split that underrepresents two randomly picked target classes, subset
selection from an unlabeled lake using gradient-embedding kernels, and
retraining on the augmented labeled set. Reports per-method gains in
target-class and overall test accuracy.
"""

import statistics
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from . import baselines
from .datastore import FeatureMatrix, ProbabilityMatrix
from .errors import ConfigurationError, DivergenceError, check_field_types
from .kernel import KernelConfig, KernelRows, build_kernel, rows_pay
from .objectives import KERNEL_REQUIREMENTS, KINDS, ROW_KINDS, ObjectiveSpec, check_parameters
from .optimizer import greedy_maximize

BASELINE_KINDS = ("random", "us", "tus", "badge")
METHODS = KINDS + BASELINE_KINDS


@dataclass(frozen=True)
class ExperimentConfig:
    num_classes: int = 10
    feature_dim: int = 64
    rare_train_count: int = 5
    common_train_count: int = 100
    lake_size: int = 2000
    target_set_size: int = 15
    budget: int = 100
    test_per_class: int = 100
    class_separation: float = 3.25
    pair_separation: float = 1.1
    learn_rate: float = 0.5
    max_epochs: int = 400
    train_acc_threshold: float = 0.99
    eta: float = 1.0
    gamma: float = 1.0
    lambda_gc: float = 0.5
    ridge: float = 1e-6
    seeds: tuple = tuple(range(10))
    target_classes: tuple = None  # fixed pair; None -> drawn per seed

    def __post_init__(self):
        # Every check runs here, before run_experiment generates any data.
        check_field_types(self)
        check_parameters(self.eta, self.gamma, self.lambda_gc, self.ridge)
        finite = ("class_separation", "pair_separation", "train_acc_threshold")
        if not np.all(np.isfinite([getattr(self, name) for name in finite])):
            raise ConfigurationError(f"{', '.join(finite)} must be finite")
        if self.num_classes < 2:
            raise ConfigurationError("need at least two classes")
        if self.feature_dim < 2 * ((self.num_classes + 1) // 2):  # see _class_means
            raise ConfigurationError("feature_dim must be at least num_classes rounded up to even")
        train = (self.rare_train_count, self.common_train_count)
        if min(train) < 0 or sum(train) < 1 or min(self.target_set_size, self.test_per_class) < 1:
            raise ConfigurationError("every split needs a positive size; train counts nonnegative")
        if self.lake_size < self.num_classes:
            raise ConfigurationError("lake_size too small to cover every class")
        if min(self.budget, self.max_epochs) < 0 or not self.learn_rate > 0:
            raise ConfigurationError("budget and max_epochs must be nonnegative, learn_rate positive")
        if self.budget > 0 and self.target_set_size >= self.budget:
            raise ConfigurationError("target_set_size must be smaller than the budget")
        seeds = self.seeds
        if not (_is_int_tuple(seeds) and seeds and min(seeds) >= 0 and len(set(seeds)) == len(seeds)):
            raise ConfigurationError(f"seeds must be distinct nonnegative integers, got {seeds!r}")
        pair = self.target_classes
        if pair is not None and not (_is_int_tuple(pair) and len(set(pair)) == len(pair) == 2
                                     and all(0 <= c < self.num_classes for c in pair)):
            raise ConfigurationError("target classes must be two distinct valid class ids")


def _is_int_tuple(value):
    return isinstance(value, tuple) and all(
        isinstance(v, Integral) and not isinstance(v, bool) for v in value)


@dataclass(frozen=True)
class LabeledSplit:
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class SyntheticData:
    train: LabeledSplit
    lake: LabeledSplit  # labels present but hidden from selection
    target: LabeledSplit
    test: LabeledSplit
    target_classes: tuple


@dataclass(frozen=True)
class ToyModel:
    """Softmax regression weights, one row per class, bias in the last column."""

    weights: np.ndarray


def _class_means(cfg):
    # Classes sit in pairs: each pair shares a coarse axis direction scaled by
    # class_separation and the two members split along a second axis by
    # +/- pair_separation. Every class then has one close neighbor, so an
    # imperfect model stays uncertain near many boundaries, not only near the
    # underrepresented ones.
    means = np.zeros((cfg.num_classes, cfg.feature_dim))
    half = (cfg.num_classes + 1) // 2
    for cls in range(cfg.num_classes):
        pair, side = divmod(cls, 2)
        means[cls, pair] = cfg.class_separation
        means[cls, half + pair] = cfg.pair_separation * (1.0 if side == 0 else -1.0)
    return means


def _sample_split(rng, means, counts):
    xs, ys = [], []
    for c, count in enumerate(counts):
        if count:
            xs.append(means[c] + rng.standard_normal((count, means.shape[1])))
            ys.append(np.full(count, c, dtype=np.int64))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return LabeledSplit(x[perm], y[perm])


def synthetic_generate(cfg, seed):
    """Draw the train/lake/target/test splits for one experiment run.

    The two target classes are picked from the seeded generator unless pinned
    in the config; the train split carries only `rare_train_count` examples of
    each of them.
    """
    rng = np.random.default_rng(seed)
    c = cfg.num_classes
    if cfg.target_classes is not None:
        targets = tuple(cfg.target_classes)
        rng.choice(c, size=2, replace=False)  # keep the stream aligned either way
    else:
        targets = tuple(int(t) for t in rng.choice(c, size=2, replace=False))
    means = _class_means(cfg)
    train_counts = [
        cfg.rare_train_count if cls in targets else cfg.common_train_count for cls in range(c)
    ]
    lake_per_class, extra = divmod(cfg.lake_size, c)
    lake_counts = [lake_per_class + (1 if cls < extra else 0) for cls in range(c)]
    half, odd = divmod(cfg.target_set_size, 2)
    target_counts = [0] * c
    target_counts[targets[0]] = half + odd
    target_counts[targets[1]] = half
    train = _sample_split(rng, means, train_counts)
    lake = _sample_split(rng, means, lake_counts)
    target = _sample_split(rng, means, target_counts)
    test = _sample_split(rng, means, [cfg.test_per_class] * c)
    return SyntheticData(train, lake, target, test, targets)


def _with_bias(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _softmax(z):
    """Softmax down each column of z (a row per class, a column per example), written over z."""
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z


def predict_proba(model, x):
    return np.ascontiguousarray(_softmax(model.weights @ _with_bias(x).T).T)


@np.errstate(over="ignore", invalid="ignore")  # divergence raises DivergenceError
def train_softmax(split, cfg):
    """Full-batch gradient descent on cross-entropy from zero-initialized weights.

    Runs until train accuracy reaches cfg.train_acc_threshold or max_epochs.
    Deterministic: no randomness enters the optimization.
    """
    xb = _with_bias(split.x)
    xbt = xb.T.copy()
    n = xb.shape[0]
    w = np.zeros((cfg.num_classes, xb.shape[1]))
    onehot = np.zeros((cfg.num_classes, n))
    onehot[split.y, np.arange(n)] = 1.0
    for _ in range(cfg.max_epochs):
        p = _softmax(w @ xbt)
        # a column total lies in [1, C] or is nan, which makes the whole column nan, and the
        # cross-entropy of the probabilities is non-finite exactly when a total is nan
        if np.isnan(p[0]).any():
            raise DivergenceError("training loss diverged; reduce learn_rate")
        if np.count_nonzero(p.argmax(axis=0) == split.y) / n >= cfg.train_acc_threshold:
            break
        p -= onehot
        grad = p @ xb
        grad /= n
        w = w - cfg.learn_rate * grad
    if not np.all(np.isfinite(w)):
        raise DivergenceError("weights diverged; reduce learn_rate")
    return ToyModel(w)


def gradient_embeddings(model, x, labels=None):
    """Last-layer loss gradients (p - e_y) (x) [x;1], flattened per instance,
    as a FeatureMatrix that keeps both factors (see FeatureMatrix.outer).

    With labels=None the label is hypothesized as the model's argmax
    prediction; pass true labels for the target set: one integer class in
    [0, C) per row of x.
    """
    xb = _with_bias(np.asarray(x, dtype=np.float64))
    if xb.shape[1] != model.weights.shape[1]:
        raise ConfigurationError(
            f"feature dim {xb.shape[1] - 1} does not match model dim {model.weights.shape[1] - 1}"
        )
    p = np.ascontiguousarray(_softmax(model.weights @ xb.T).T)
    if labels is None:
        y = p.argmax(axis=1)
    else:
        y = np.asarray(labels)
        if (y.shape != (len(p),) or not np.issubdtype(y.dtype, np.integer)
                or y.size and (y.min() < 0 or y.max() >= p.shape[1])):
            raise ConfigurationError(f"labels must be {len(p)} integers in [0, {p.shape[1]}), "
                                     f"one per row of x; got dtype {y.dtype} and shape {y.shape}")
    p[np.arange(len(y)), y] -= 1.0
    return FeatureMatrix.outer(p, xb)


def _accuracies(model, test, target_classes):
    pred = predict_proba(model, test.x).argmax(axis=1)
    overall = float((pred == test.y).mean())
    mask = np.isin(test.y, target_classes)
    target = float((pred[mask] == test.y[mask]).mean())
    return target, overall


class KernelCache:
    """Build each of the lake/target kernels at most once per seed."""

    def __init__(self, lake_emb, target_emb, kcfg=None):
        self.lake_emb = lake_emb
        self.target_emb = target_emb
        self.kcfg = kcfg or KernelConfig()
        self._built = {}

    def get(self, name):
        if name not in self._built:
            pairs = {
                "uu": (self.lake_emb, self.lake_emb),
                "ut": (self.lake_emb, self.target_emb),
                "tt": (self.target_emb, self.target_emb),
            }
            self._built[name] = build_kernel(*pairs[name], self.kcfg)
        return self._built[name]


def select_indices(method, cfg, lake_emb, target_emb, probs, seed, kernels=None):
    """Dispatch one selection method over the lake. Returns a SelectionResult;
    every method clamps the budget to the lake and flags a clamped one truncated."""
    kernels = kernels or KernelCache(lake_emb, target_emb)
    k = min(cfg.budget, lake_emb.rows)
    if method in KINDS:
        # Where rows pay, the kinds that read few pool-kernel rows get rows of their own, which
        # go with the selection: no kernel the cache holds changes what they read.
        rows = method in ROW_KINDS and rows_pay(k, lake_emb)
        spec = ObjectiveSpec(method, **{f"s_{name}": KernelRows(lake_emb, kernels.kcfg)
                                        if rows and name == "uu" else kernels.get(name)
                                        for name in KERNEL_REQUIREMENTS[method]},
                             eta=cfg.eta, gamma=cfg.gamma, lambda_gc=cfg.lambda_gc, ridge=cfg.ridge)
        return greedy_maximize(spec, cfg.budget)
    if method == "random":
        result = baselines.random_select(lake_emb.rows, k, seed)
    elif method == "us":
        result = baselines.uncertainty_select(probs, k)
    elif method == "tus":
        result = baselines.targeted_uncertainty_select(probs, kernels.get("ut"), k)
    elif method == "badge":
        result = baselines.badge_select(lake_emb, k, seed)
    else:
        raise ConfigurationError(f"unknown selection method {method!r}")
    result.truncated = cfg.budget > lake_emb.rows
    return result


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    methods: list
    entries: dict  # method -> list of per-seed dicts
    aggregates: dict = field(default_factory=dict)

    def to_dict(self):
        cfg = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in vars(self.config).items()}
        return {
            "config": cfg,
            "methods": list(self.methods),
            "entries": self.entries,
            "aggregates": self.aggregates,
        }


DEFAULT_METHODS = ["fl2mi", "logdetmi", "gcmi_div", "random", "us"]


def run_experiment(cfg, methods=None):
    """Run the full selection-and-retrain protocol over every (seed, method)."""
    methods = list(DEFAULT_METHODS if methods is None else methods)
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ConfigurationError(f"unknown selection method {method!r}")
        if method in methods[:i]:
            raise ConfigurationError(f"method {method!r} is listed twice")
    entries = {m: [] for m in methods}
    for seed in cfg.seeds:
        data = synthetic_generate(cfg, seed)
        base = train_softmax(data.train, cfg)
        base_target, base_overall = _accuracies(base, data.test, data.target_classes)
        lake_emb = gradient_embeddings(base, data.lake.x)
        target_emb = gradient_embeddings(base, data.target.x, data.target.y)
        probs = ProbabilityMatrix(predict_proba(base, data.lake.x))
        kernels = KernelCache(lake_emb, target_emb)
        for method in methods:
            result = select_indices(method, cfg, lake_emb, target_emb, probs, seed, kernels)
            chosen = np.array(result.selected, dtype=np.int64)
            aug = LabeledSplit(np.vstack([data.train.x, data.lake.x[chosen]]),
                               np.concatenate([data.train.y, data.lake.y[chosen]]))
            retrained = train_softmax(aug, cfg)
            post_target, post_overall = _accuracies(retrained, data.test, data.target_classes)
            entries[method].append({
                "seed": int(seed),
                "target_classes": list(data.target_classes),
                "base_target_accuracy": base_target,
                "base_overall_accuracy": base_overall,
                "target_gain": post_target - base_target,
                "overall_gain": post_overall - base_overall,
                "selected_target_class_count": int(np.isin(data.lake.y[chosen], data.target_classes).sum()),
            })
    aggregates = {}
    for method in methods:
        tg = [e["target_gain"] for e in entries[method]]
        og = [e["overall_gain"] for e in entries[method]]
        aggregates[method] = {
            "median_target_gain": statistics.median(tg),
            "mean_target_gain": statistics.fmean(tg),
            "median_overall_gain": statistics.median(og),
            "mean_overall_gain": statistics.fmean(og),
        }
    return ExperimentReport(cfg, methods, entries, aggregates)


def config_from_dict(raw):
    """Build an ExperimentConfig from a JSON-style dict (tuples from lists)."""
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"unknown experiment config keys: {sorted(unknown)}")
    fixed = dict(raw)
    for key in ("seeds", "target_classes"):
        if isinstance(fixed.get(key), list):
            fixed[key] = tuple(fixed[key])
    return replace(ExperimentConfig(), **fixed)
