"""The benchmark's workloads and the checks on each operation's output.

Every workload runs on one seed of the default experiment protocol (lake
2000, embedding dimension 650, 15 target rows, budget 100). The benchmark
generates that seed's data itself, through the library's own generator, base
training and gradient embeddings, and hands the library only those inputs.

- cli_select: `pipeline.main(["select", ...])` over CSV files written during
  set-up; the methods cycle through fl2mi, gcmi, tus, us and random. Parsing
  the 2000 x 650 pool dominates and the optimizer does little.
- naive_greedy: `harness.select_indices` on in-memory embeddings with a fresh
  kernel cache; a cycle is one logdetmi selection and then gcmi_div and dsum
  in turn FAST_REPEATS times each, the kinds that always run naive greedy.
  No CSV and no training.
- experiment: one protocol seed of `harness.run_experiment` over every lazily
  maximized kind and every baseline. Training and lazy greedy dominate.

A selection fails its check when its indices are not `budget` distinct
in-range indices, when its total_value differs from `objectives.evaluate` on
its own indices by more than REL_TOL relative, or when its indices differ
from the reference recorded for that workload, protocol seed and method. An
experiment operation also fails when a per-entry gain differs from the
reference.
"""

import dataclasses
import json
import os
import shutil
import statistics

import numpy as np

from targetsel import harness, objectives, pipeline
from targetsel.datastore import ProbabilityMatrix

REL_TOL = 1e-9
GAIN_TOL = 1e-12  # the optimizer's TIE_TOL

SMI_KINDS = ("gcmi", "fl1mi", "fl2mi", "logdetmi", "gcmi_div")
FAST_REPEATS = 5  # naive_greedy's gcmi_div and dsum selections per logdetmi one


@dataclasses.dataclass
class Protocol:
    """One protocol seed's data, base model and the inputs derived from it."""

    cfg: object
    seed: int
    data: object
    base: object
    lake_emb: object
    target_emb: object
    probs: object


def prepare(cfg, seed):
    """Generate, train and embed exactly as `harness.run_experiment` does for one seed."""
    data = harness.synthetic_generate(cfg, seed)
    base = harness.train_softmax(data.train, cfg)
    return Protocol(
        cfg, seed, data, base,
        lake_emb=harness.gradient_embeddings(base, data.lake.x),
        target_emb=harness.gradient_embeddings(base, data.target.x, data.target.y),
        probs=ProbabilityMatrix(harness.predict_proba(base, data.lake.x)),
    )


def _objective_spec(kind, cfg, kernels):
    need = objectives.KERNEL_REQUIREMENTS[kind]
    return objectives.ObjectiveSpec(
        kind=kind,
        s_uu=kernels.get("uu") if "uu" in need else None,
        s_ut=kernels.get("ut") if "ut" in need else None,
        s_tt=kernels.get("tt") if "tt" in need else None,
        eta=cfg.eta, gamma=cfg.gamma, lambda_gc=cfg.lambda_gc, ridge=cfg.ridge,
    )


class Workload:
    """A closed loop of operations over one protocol seed.

    `cycle` lists the operations in the order they repeat. `references`
    maps each method to its recorded output; it is None while references
    are being recorded, and every other check still applies then.
    """

    name = None
    cycle = ()

    def __init__(self, cfg, seed, references, workdir):
        self.cfg = cfg
        self.seed = seed
        self.references = references
        self.workdir = workdir
        self.protocol = None
        self.outputs = {}  # method -> last output, for recording
        self._verified = {}

    def setup(self):
        self.protocol = prepare(self.cfg, self.seed)

    def op(self, method):
        raise NotImplementedError

    def check(self, method, outcome):
        """Problems found in one operation's output; empty when it passes."""
        raise NotImplementedError

    def target_gain_median(self):
        """Median target-class gain of the SMI selections; only the experiment retrains."""
        return 0.0

    def close(self):
        pass

    def _check_selection(self, method, selected, total_value, kernels):
        problems = []
        k, n = self.cfg.budget, self.cfg.lake_size
        if (len(selected) != k or len(set(selected)) != k
                or not all(isinstance(i, (int, np.integer)) and 0 <= i < n for i in selected)):
            problems.append(f"{method}: selection is not {k} distinct indices in [0, {n})")
        elif method in objectives.KINDS:
            key = (method, tuple(selected))
            if key not in self._verified:
                spec = _objective_spec(method, self.cfg, kernels)
                self._verified[key] = objectives.evaluate(spec, selected)
            value = self._verified[key]
            if abs(total_value - value) > REL_TOL * abs(value):
                problems.append(f"{method}: total_value {total_value!r} != evaluate {value!r}")
        if self.references is not None:
            ref = self.references.get(method)
            if ref is None:
                problems.append(f"{method}: no reference recorded")
            elif list(selected) != ref["selected"]:
                at = next((i for i, (a, b) in enumerate(zip(selected, ref["selected"])) if a != b),
                          min(len(selected), len(ref["selected"])))
                problems.append(f"{method}: selection differs from the reference at position {at}")
        self.outputs[method] = {"selected": list(selected)}
        return problems


class CliSelect(Workload):
    name = "cli_select"
    cycle = ("fl2mi", "gcmi", "tus", "us", "random")

    def setup(self):
        super().setup()
        os.makedirs(self.workdir, exist_ok=True)
        p = self.protocol
        self.files = {}
        for name, values in (("unlabeled", p.lake_emb.values), ("target", p.target_emb.values),
                             ("probs", p.probs.values)):
            path = os.path.join(self.workdir, f"{name}.csv")
            np.savetxt(path, values, fmt="%.17g", delimiter=",")
            self.files[name] = path
        self.report_path = os.path.join(self.workdir, "report.json")
        self._kernels = harness.KernelCache(p.lake_emb, p.target_emb)

    def op(self, method):
        argv = ["select", "--method", method, "--budget", str(self.cfg.budget),
                "--seed", str(self.seed), "--out", self.report_path]
        for name, path in self.files.items():
            argv += [f"--{name}", path]
        return pipeline.main(argv)

    def check(self, method, outcome):
        if outcome != 0:
            return [f"{method}: exit code {outcome}"]
        with open(self.report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        return self._check_selection(method, report["selected"], report["total_value"],
                                     self._kernels)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run's directory is still there
            pass


class NaiveGreedy(Workload):
    name = "naive_greedy"
    # logdetmi takes about 35 times as long as the other two kinds, so they
    # repeat within a cycle to give the median latency more than one sample.
    cycle = ("logdetmi",) + ("gcmi_div", "dsum") * FAST_REPEATS

    def op(self, method):
        # The same fresh cache select_indices would make, kept for the check.
        p = self.protocol
        kernels = harness.KernelCache(p.lake_emb, p.target_emb)
        return harness.select_indices(method, self.cfg, p.lake_emb, p.target_emb, p.probs,
                                      self.seed, kernels), kernels

    def check(self, method, outcome):
        result, kernels = outcome
        return self._check_selection(method, result.selected, result.total_value, kernels)


class Experiment(Workload):
    name = "experiment"
    cycle = ("run_experiment",)
    methods = ("gcmi", "fl1mi", "fl2mi", "fl", "gc", "logdet", "us", "tus", "random", "badge")

    def op(self, method):
        # Selections are made inside run_experiment; a pass-through around the
        # harness's dispatch keeps each result and its kernels for the checks.
        captured = []
        dispatch = harness.select_indices

        def capture(name, cfg, lake_emb, target_emb, probs, seed, kernels=None):
            result = dispatch(name, cfg, lake_emb, target_emb, probs, seed, kernels)
            captured.append((name, result, kernels))
            return result

        harness.select_indices = capture
        try:
            report = harness.run_experiment(dataclasses.replace(self.cfg, seeds=(self.seed,)),
                                            list(self.methods))
        finally:
            harness.select_indices = dispatch
        return report, captured

    def check(self, method, outcome):
        report, captured = outcome
        problems = []
        if [name for name, _, _ in captured] != list(self.methods):
            problems.append(f"made selections {[name for name, _, _ in captured]}")
        for name, result, kernels in captured:
            problems += self._check_selection(name, result.selected, result.total_value, kernels)
        for name in self.methods:
            entry = report.entries[name][0]
            gains = {g: entry[g] for g in ("target_gain", "overall_gain")}
            self.outputs.setdefault(name, {}).update(gains)
            ref = (self.references or {}).get(name)
            if ref is not None and any(abs(gains[g] - ref[g]) > GAIN_TOL for g in gains):
                problems.append(f"{name}: gains {gains} differ from the reference")
        return problems

    def target_gain_median(self):
        return statistics.median(self.outputs[m]["target_gain"]
                                 for m in self.methods if m in SMI_KINDS)


WORKLOADS = {w.name: w for w in (CliSelect, NaiveGreedy, Experiment)}
