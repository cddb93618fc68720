"""Command-line entry points.

`targetsel select` runs one subset selection over CSV feature files and
writes a JSON report; `targetsel experiment` runs the synthetic imbalance
protocol end to end. Exit codes: 0 success, 2 input/format error,
3 configuration error, 4 numerical failure.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__, baselines, harness
from .datastore import load_features, load_probabilities
from .errors import (
    ConfigurationError,
    DataFormatError,
    DegenerateFeatureError,
    DivergenceError,
    EmptyInputError,
    IndefiniteKernelError,
    ShapeError,
    SizeError,
    check_numeric_fields,
)
from .kernel import KernelConfig, build_kernel
from .objectives import KERNEL_REQUIREMENTS, KINDS, ObjectiveSpec
from .optimizer import SelectionConfig, greedy_maximize

METHODS = KINDS + harness.BASELINE_KINDS

EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines a selection run's output."""

    method: str
    budget: int
    unlabeled: str
    target: str = None
    probs: str = None
    eta: float = 1.0
    gamma: float = 1.0
    lambda_gc: float = 0.5
    ridge: float = 1e-6
    metric: str = "cosine"
    transform: str = "shift-scale"
    algorithm: str = "lazy"
    seed: int = 0
    version: str = __version__

    def __post_init__(self):
        check_numeric_fields(self)
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.budget < 0:
            raise ConfigurationError("budget must be nonnegative")


def _needs_target(method):
    if method in KINDS:
        return "ut" in KERNEL_REQUIREMENTS[method] or "tt" in KERNEL_REQUIREMENTS[method]
    return method == "tus"


def _load_target(manifest):
    if manifest.target is None:
        raise ConfigurationError(f"method {manifest.method!r} requires a target file")
    try:
        return load_features(manifest.target)
    except EmptyInputError as exc:
        raise ConfigurationError(
            f"method {manifest.method!r} requires a nonempty target set: {exc}"
        ) from exc


def run_select(manifest):
    """Execute the selection a manifest describes; returns a SelectionResult."""
    pool = load_features(manifest.unlabeled)
    method = manifest.method
    if method in KINDS:
        kcfg = KernelConfig(metric=manifest.metric, transform=manifest.transform,
                            psd_ridge=manifest.ridge)
        need = KERNEL_REQUIREMENTS[method]
        target = _load_target(manifest) if _needs_target(method) else None
        spec = ObjectiveSpec(
            kind=method,
            s_uu=build_kernel(pool, pool, kcfg) if "uu" in need else None,
            s_ut=build_kernel(pool, target, kcfg) if "ut" in need else None,
            s_tt=build_kernel(target, target, kcfg) if "tt" in need else None,
            eta=manifest.eta,
            gamma=manifest.gamma,
            lambda_gc=manifest.lambda_gc,
            ridge=manifest.ridge,
        )
        cfg = SelectionConfig(budget=manifest.budget, algorithm=manifest.algorithm,
                              rng_seed=manifest.seed)
        return greedy_maximize(spec, cfg)
    if method == "random":
        result = baselines.random_select(pool.rows, min(manifest.budget, pool.rows),
                                         manifest.seed)
    elif method == "badge":
        result = baselines.badge_select(pool, min(manifest.budget, pool.rows), manifest.seed)
    else:
        if manifest.probs is None:
            raise ConfigurationError(f"method {method!r} requires a probability file")
        probs = load_probabilities(manifest.probs)
        k = min(manifest.budget, probs.rows)
        if method == "us":
            result = baselines.uncertainty_select(probs, k)
        else:
            target = _load_target(manifest)
            kcfg = KernelConfig(metric=manifest.metric, transform=manifest.transform)
            result = baselines.targeted_uncertainty_select(
                probs, build_kernel(pool, target, kcfg), k
            )
    result.truncated = manifest.budget > pool.rows
    return result


def build_report(manifest, result, wall_time_ms):
    return {
        "manifest": asdict(manifest),
        "selected": [int(i) for i in result.selected],
        "gains": [float(g) for g in result.gains],
        "total_value": float(result.total_value),
        "evaluations": int(result.evaluations),
        "truncated": bool(result.truncated),
        "wall_time_ms": wall_time_ms,
    }


def _write_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _manifest_from_args(args):
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            raw = raw.get("manifest", raw)
        if not isinstance(raw, dict):
            raise ConfigurationError(f"manifest {args.manifest} is not a JSON object")
        version = raw.pop("version", __version__)
        if version != __version__:
            print(f"warning: manifest was written by targetsel {version}; "
                  f"replaying with {__version__}", file=sys.stderr)
        try:
            return RunManifest(**raw)
        except TypeError as exc:  # missing or unknown manifest keys
            raise ConfigurationError(f"invalid manifest {args.manifest}: {exc}") from exc
    if args.method is None or args.unlabeled is None:
        raise ConfigurationError("--method and --unlabeled are required without --manifest")
    return RunManifest(
        method=args.method,
        budget=args.budget,
        unlabeled=args.unlabeled,
        target=args.target,
        probs=args.probs,
        eta=args.eta,
        gamma=args.gamma,
        lambda_gc=args.lambda_gc,
        ridge=args.ridge,
        metric=args.metric,
        transform=args.transform,
        algorithm=args.algorithm,
        seed=args.seed,
    )


def _cmd_select(args):
    manifest = _manifest_from_args(args)
    start = time.perf_counter()
    result = run_select(manifest)
    wall_ms = (time.perf_counter() - start) * 1000.0
    _write_json(build_report(manifest, result, wall_ms), args.out)
    return 0


def _cmd_experiment(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = {}
    methods = raw.pop("methods", None)
    if args.methods:
        methods = args.methods.split(",")
    cfg = harness.config_from_dict(raw)
    report = harness.run_experiment(cfg, methods)
    _write_json(report.to_dict(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="targetsel",
        description="Targeted data subset selection with submodular mutual information",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run one subset selection over CSV inputs")
    sel.add_argument("--method", choices=METHODS)
    sel.add_argument("--budget", type=int, default=10)
    sel.add_argument("--unlabeled", help="CSV of pool feature rows")
    sel.add_argument("--target", help="CSV of target feature rows")
    sel.add_argument("--probs", help="CSV of predicted class probabilities (us/tus)")
    sel.add_argument("--eta", type=float, default=1.0)
    sel.add_argument("--gamma", type=float, default=1.0)
    sel.add_argument("--lambda-gc", dest="lambda_gc", type=float, default=0.5)
    sel.add_argument("--ridge", type=float, default=1e-6)
    sel.add_argument("--metric", choices=("cosine", "dot"), default="cosine")
    sel.add_argument("--transform", choices=("none", "shift-scale", "clip"),
                     default="shift-scale")
    sel.add_argument("--algorithm", choices=("naive", "lazy", "exhaustive"), default="lazy")
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--manifest", help="JSON manifest (or prior report) to re-run")
    sel.add_argument("--out", help="report path; '-' or omitted for stdout")
    sel.set_defaults(func=_cmd_select)

    exp = sub.add_parser("experiment", help="run the synthetic imbalance protocol")
    exp.add_argument("--config", help="JSON experiment config (may include 'methods')")
    exp.add_argument("--methods", help="comma-separated method list override")
    exp.add_argument("--out", help="report path; '-' or omitted for stdout")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, ShapeError, SizeError, DegenerateFeatureError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IndefiniteKernelError, DivergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
