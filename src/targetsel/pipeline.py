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
from dataclasses import asdict, dataclass, fields

from . import __version__, harness
from .datastore import load_features, load_probabilities
from .errors import (ConfigurationError, DataFormatError, EmptyInputError, ShapeError,
                     TargetselError, check_field_types)
from .kernel import METRICS, TRANSFORMS, KernelConfig
from .objectives import KERNEL_REQUIREMENTS, check_parameters


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
    seed: int = 0
    version: str = __version__

    def __post_init__(self):
        # Every check runs here, before run_select opens any input.
        check_field_types(self)
        if self.method not in harness.METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if min(self.budget, self.seed) < 0:
            raise ConfigurationError("budget and seed must be nonnegative")
        check_parameters(self.eta, self.gamma, self.lambda_gc, self.ridge)
        KernelConfig(metric=self.metric, transform=self.transform)


def _needs_target(method):
    return method == "tus" or bool({"ut", "tt"}.intersection(KERNEL_REQUIREMENTS.get(method, ())))


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
    probs = target = None
    if method in ("us", "tus"):
        if manifest.probs is None:
            raise ConfigurationError(f"method {method!r} requires a probability file")
        probs = load_probabilities(manifest.probs)
        if probs.rows != pool.rows:
            raise ShapeError(f"probability file has {probs.rows} rows but the pool has {pool.rows}")
    if _needs_target(method):
        target = _load_target(manifest)
    kcfg = KernelConfig(metric=manifest.metric, transform=manifest.transform)
    return harness.select_indices(method, manifest, pool, target, probs, manifest.seed,
                                  harness.KernelCache(pool, target, kcfg))


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
    # the select parser's dests are the manifest's field names; RunManifest holds the defaults
    return RunManifest(**{f.name: getattr(args, f.name) for f in fields(RunManifest)
                          if f.name != "version" and getattr(args, f.name) is not None})


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
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {args.config} is not a JSON object")
    methods = raw.pop("methods", None)
    if not (methods is None or isinstance(methods, list)):
        raise ConfigurationError("config methods must be a list of method names")
    if args.methods:
        methods = args.methods.split(",")
    if args.seeds is not None:
        raw["seeds"] = args.seeds
    if args.budget is not None:
        raw["budget"] = args.budget
    cfg = harness.config_from_dict(raw)
    start = time.perf_counter()
    report = harness.run_experiment(cfg, methods)
    _write_json(report.to_dict(), args.out)
    # Per-seed target-class gains and their median, one row per method.
    header = f"{'method':>10} | " + " ".join(f"s{seed:<5}" for seed in cfg.seeds) + " | median"
    print(f"seeds={list(cfg.seeds)}  budget={cfg.budget}  lake={cfg.lake_size}  "
          f"classes={cfg.num_classes}  ({time.perf_counter() - start:.1f}s)",
          header, "-" * len(header), sep="\n", file=sys.stderr)
    for method in report.methods:
        gains = " ".join(f"{e['target_gain']:+.3f}" for e in report.entries[method])
        median = report.aggregates[method]["median_target_gain"]
        print(f"{method:>10} | {gains} | {median:+.4f}", file=sys.stderr)
    return 0


def _int_list(text):
    return [int(part) for part in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="targetsel",
        description="Targeted data subset selection with submodular mutual information",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run one subset selection over CSV inputs")
    sel.add_argument("--method", choices=harness.METHODS)
    sel.add_argument("--budget", type=int, default=10)
    sel.add_argument("--unlabeled", help="CSV of pool feature rows")
    sel.add_argument("--target", help="CSV of target feature rows")
    sel.add_argument("--probs", help="CSV of predicted class probabilities (us/tus)")
    sel.add_argument("--eta", type=float)
    sel.add_argument("--gamma", type=float)
    sel.add_argument("--lambda-gc", dest="lambda_gc", type=float)
    sel.add_argument("--ridge", type=float)
    sel.add_argument("--metric", choices=METRICS)
    sel.add_argument("--transform", choices=TRANSFORMS)
    sel.add_argument("--seed", type=int)
    sel.add_argument("--manifest", help="JSON manifest (or prior report) to re-run")
    sel.add_argument("--out", help="report path; '-' or omitted for stdout")
    sel.set_defaults(func=_cmd_select)

    exp = sub.add_parser("experiment", help="run the synthetic imbalance protocol")
    exp.add_argument("--config", help="JSON experiment config (may include 'methods')")
    exp.add_argument("--methods", help="comma-separated method list override")
    exp.add_argument("--seeds", type=_int_list, help="comma-separated seed override, e.g. 0,1,2")
    exp.add_argument("--budget", type=int, help="labeling budget override")
    exp.add_argument("--out", help="report path; '-' or omitted for stdout")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TargetselError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # errors from outside the toolkit exit as the toolkit error they amount to
        error = exc if isinstance(exc, TargetselError) else (
            ConfigurationError if isinstance(exc, json.JSONDecodeError) else DataFormatError)
        print(f"{error.prefix}: {exc}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
