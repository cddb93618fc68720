"""Span tracing of the targetsel layers, installed from outside the library.

The tracer replaces each public function of the seven library modules with a
wrapper that records a span (name, layer, start, end, parent, operation id)
and puts the original back on uninstall. Modules import each other's
functions by name, so every module attribute that refers to a wrapped
function is replaced, not only the defining one.

`Objective.gain` runs hundreds of thousands of times per greedy call, so its
calls are not kept as spans: each one adds its count and time to the span it
ran under and to the current unit. `Objective.commit` and everything else get
a full span. Spans are kept in memory and written out as JSON lines at the
end of the run.
"""

import json
import os
import statistics
import time

LAYERS = ("datastore", "kernel", "objectives", "optimizer", "baselines", "harness", "pipeline")

BASELINE_FUNCTIONS = {
    "baselines.random_select": "random",
    "baselines.uncertainty_select": "us",
    "baselines.targeted_uncertainty_select": "tus",
    "baselines.badge_select": "badge",
}
LOAD_FUNCTIONS = ("datastore.load_features", "datastore.load_probabilities",
                  "datastore.load_labels")
KERNEL_LABELS = ("uu", "ut", "tt")
GAIN = "objectives.Objective.gain"
COMMIT = "objectives.Objective.commit"
# Private, but where a report is written, so it is wrapped for pipeline.report_s.
REPORT_WRITER = "_write_json"


class Span:
    __slots__ = ("sid", "unit", "name", "layer", "start", "end", "parent", "child_s",
                 "gain_calls", "gain_s", "attrs")

    def __init__(self, sid, unit, name, layer, start, parent):
        self.sid = sid
        self.unit = unit
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.gain_calls = 0
        self.gain_s = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_dict(self):
        out = {"id": self.sid, "op": self.unit.uid, "name": self.name, "layer": self.layer,
               "start": self.start, "end": self.end, "parent": self.parent}
        if self.gain_calls:
            out["aggregated"] = {"name": GAIN, "calls": self.gain_calls, "total_s": self.gain_s}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Unit:
    """One traced operation (kind "op") or set-up repetition (kind "setup")."""

    def __init__(self, uid, kind, cycle):
        self.uid = uid
        self.kind = kind
        self.cycle = cycle
        self.spans = []
        self.gain_calls = 0
        self.gain_s = 0.0


def _attributes(name, args, result, pool_rows):
    """Per-call facts the layer metrics need, read from arguments and results."""
    if name in LOAD_FUNCTIONS:
        return {"bytes": os.path.getsize(args[0])}
    if name == "kernel.build_kernel":
        rows, cols = result.shape
        if not result.symmetric:
            label = "ut"
        else:
            label = "uu" if rows == pool_rows else "tt"
        return {"kernel": label, "bytes_out": 8 * rows * cols}
    if name == "optimizer.greedy_maximize":
        return {"kind": args[0].kind, "evaluations": int(result.evaluations),
                "selected": len(result.selected)}
    return {}


class Tracer:
    """Records spans while installed and while a unit is open."""

    def __init__(self, modules, objective_class, pool_rows):
        self.modules = modules
        self.objective_class = objective_class
        self.pool_rows = pool_rows
        self.units = []
        self._unit = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, module in self.modules.items():
            names = [n for n, v in vars(module).items()
                     if callable(v) and getattr(v, "__module__", None) == module.__name__
                     and not isinstance(v, type) and not n.startswith("_")]
            if layer == "pipeline":
                names.append(REPORT_WRITER)
            for n in names:
                fn = getattr(module, n)
                wrappers[fn] = self._wrap(fn, f"{layer}.{n}", layer)
        for module in self.modules.values():
            for n, v in list(vars(module).items()):
                if callable(v) and not isinstance(v, type) and v in wrappers:
                    self._saved.append((module, n, v))
                    setattr(module, n, wrappers[v])
        cls = self.objective_class
        gain, commit = cls.__dict__["gain"], cls.__dict__["commit"]
        self._saved += [(cls, "gain", gain), (cls, "commit", commit)]
        cls.gain = self._wrap_gain(gain)
        cls.commit = self._wrap(commit, COMMIT, "objectives")

    def uninstall(self):
        while self._saved:
            owner, n, v = self._saved.pop()
            setattr(owner, n, v)

    def _wrap(self, fn, name, layer):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            unit = tracer._unit
            if unit is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(tracer._next_id, unit, name, layer, clock(),
                        stack[-1].sid if stack else None)
            tracer._next_id += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
                unit.spans.append(span)
            span.attrs = _attributes(name, args, result, tracer.pool_rows)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gain(self, fn):
        tracer = self
        clock = time.perf_counter

        def gain(*args, **kwargs):
            unit = tracer._unit
            if unit is None:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            dt = clock() - start
            unit.gain_calls += 1
            unit.gain_s += dt
            stack = tracer._stack
            if stack:
                top = stack[-1]
                top.child_s += dt
                top.gain_calls += 1
                top.gain_s += dt
            return result

        gain.__wrapped__ = fn
        return gain

    # -- units -------------------------------------------------------------

    def begin(self, uid, kind, cycle=None):
        self._unit = Unit(uid, kind, cycle)
        self._stack = []
        self.units.append(self._unit)

    def end(self):
        self._unit = None

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for unit in self.units:
                for span in sorted(unit.spans, key=lambda s: s.start):
                    fh.write(json.dumps(span.to_dict()) + "\n")


# -- metrics ---------------------------------------------------------------

def _is_kernel_build(span, by_id):
    """An outermost build_kernel span (build_kernel calls itself for r < c)."""
    if span.name != "kernel.build_kernel":
        return False
    parent = by_id.get(span.parent)
    return parent is None or parent.name != span.name


def _unit_times(unit):
    """Seconds per time metric spent inside one unit."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    by_id = {s.sid: s for s in unit.spans}
    for s in unit.spans:
        if s.name in LOAD_FUNCTIONS:
            add("datastore.load_s", s.duration)
        elif _is_kernel_build(s, by_id):
            add(f"kernel.build_s.{s.attrs['kernel']}", s.duration)
        elif s.name == COMMIT:
            add("objectives.commit_s", s.duration)
        elif s.name == "optimizer.greedy_maximize":
            add(f"optimizer.greedy_s.{s.attrs['kind']}", s.duration)
        elif s.name in BASELINE_FUNCTIONS:
            add(f"baselines.select_s.{BASELINE_FUNCTIONS[s.name]}", s.duration)
        elif s.name == "harness.train_softmax":
            add("harness.train_s", s.duration)
        elif s.name == "harness.gradient_embeddings":
            add("harness.embed_s", s.duration)
        elif s.name == "harness.synthetic_generate":
            add("harness.generate_s", s.duration)
        elif s.name == "pipeline.run_select":
            add("pipeline.run_select_s", s.duration)
            add("pipeline.self_s", s.self_s)
        elif s.name in ("pipeline.build_report", f"pipeline.{REPORT_WRITER}"):
            add("pipeline.report_s", s.duration)
        # pipeline.self_s is the dispatch cost inside run_select (above);
        # every other layer's self time is all of its spans' own time.
        if s.layer != "pipeline":
            add(f"{s.layer}.self_s", s.self_s)
    if unit.gain_calls:
        add("objectives.gain_s", unit.gain_s)
        add("objectives.self_s", unit.gain_s)
    return out


def _cycle_counts(units, kinds):
    counts = {"datastore.bytes_read": 0, "kernel.builds": 0, "kernel.bytes_out": 0,
              "objectives.gain_calls": 0, "harness.train_calls": 0}
    selected = {k: 0 for k in kinds}
    for k in kinds:
        counts[f"optimizer.evaluations.{k}"] = 0
    for unit in units:
        counts["objectives.gain_calls"] += unit.gain_calls
        by_id = {s.sid: s for s in unit.spans}
        for s in unit.spans:
            if s.name in LOAD_FUNCTIONS:
                counts["datastore.bytes_read"] += s.attrs["bytes"]
            elif _is_kernel_build(s, by_id):
                counts["kernel.builds"] += 1
                counts["kernel.bytes_out"] += s.attrs["bytes_out"]
            elif s.name == "optimizer.greedy_maximize":
                counts[f"optimizer.evaluations.{s.attrs['kind']}"] += s.attrs["evaluations"]
                selected[s.attrs["kind"]] += s.attrs["selected"]
            elif s.name == "harness.train_softmax":
                counts["harness.train_calls"] += 1
    return counts, selected


def time_metric_names(kinds):
    names = ["datastore.load_s"]
    names += [f"kernel.build_s.{k}" for k in KERNEL_LABELS]
    names += ["objectives.gain_s", "objectives.commit_s"]
    names += [f"optimizer.greedy_s.{k}" for k in kinds]
    names += [f"baselines.select_s.{b}" for b in BASELINE_FUNCTIONS.values()]
    names += ["harness.train_s", "harness.embed_s", "harness.generate_s"]
    names += ["pipeline.run_select_s", "pipeline.report_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names


def layer_metrics(units, kinds):
    """Per-layer figures from the traced units.

    Times are the mean, over the operations in which the metric occurs, of
    the operation's total; a metric that occurs only in set-up takes the
    mean over set-up repetitions, and one that never occurs is 0. Whole
    cycles are traced, so for a layer that every operation uses the mean
    per operation is its share of throughput. Counts are the totals of
    one cycle of operations, which repeat exactly for a given seed; the
    second value returned says whether every traced cycle gave the same.
    """
    per_unit = [_unit_times(u) for u in units]
    op_times = [t for t, u in zip(per_unit, units) if u.kind == "op"]
    values = {}
    for name in time_metric_names(kinds):
        seen = [t[name] for t in op_times if name in t] or [t[name] for t in per_unit if name in t]
        values[name] = statistics.fmean(seen) if seen else 0.0
    ops = [u for u in units if u.kind == "op"]
    cycles = sorted({u.cycle for u in ops})
    per_cycle = [_cycle_counts([u for u in ops if u.cycle == c], kinds) for c in cycles]
    counts, selected = per_cycle[0]
    repeat = all(pc == per_cycle[0] for pc in per_cycle)
    values.update(counts)
    for k in kinds:
        evals = counts[f"optimizer.evaluations.{k}"]
        values[f"optimizer.useful_ratio.{k}"] = selected[k] / evals if evals else 0.0
    load_s = sum(t.get("datastore.load_s", 0.0) for t in op_times)
    read = sum(c["datastore.bytes_read"] for c, _ in per_cycle)
    values["datastore.mb_per_s"] = read / load_s / 1e6 if load_s else 0.0
    return values, repeat
