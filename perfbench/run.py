#!/usr/bin/env python3
"""Benchmark of the targetsel library, driven from outside in one process.

    python3 perfbench/run.py --workload {cli_select,naive_greedy,experiment} \\
        --seed N --seconds S --trace {0,1}

One client runs a closed loop: it waits for each operation before starting
the next, and runs whole cycles of the workload's operations for about S
seconds (always at least one cycle). BLAS threads stay at their default.

With --trace 0 the result carries the end-to-end metrics of that loop. With
--trace 1 the loop runs twice, untraced and then traced, and the result
carries the per-layer metrics of the traced loop plus the tracing overhead
(traced minus untraced); the spans go to .perfbench_out/ in the checkout.

The second-to-last line of output is a JSON object of details: the
environment record, the latency tail percentile and sample count, per-method
latencies and any failed checks. The last line is the result:
{"correct", "attempted", "failed", "metrics"}.

The workload seed picks protocol seed `seed % protocol_seeds` of the
references in references.json, so every run can be checked against the
selections recorded there.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(kinds):
    """Unit of every per-layer metric, in report order."""
    units = {name: "s" for name in tracing.time_metric_names(kinds)}
    units.update({
        "datastore.bytes_read": "B",
        "datastore.mb_per_s": "MB/s",
        "kernel.builds": "count",
        "kernel.bytes_out": "B",
        "objectives.gain_calls": "count",
        "harness.train_calls": "count",
        "harness.target_gain_median": "accuracy",
        "trace.overhead_latency_p50_ms": "ms",
        "trace.overhead_throughput_ops_per_s": "1/s",
    })
    for k in kinds:
        units[f"optimizer.evaluations.{k}"] = "count"
        units[f"optimizer.useful_ratio.{k}"] = "ratio"
    return units


def load_program(root):
    """Import the library from root/src and the benchmark modules; False if absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "targetsel", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import targetsel

    return os.path.dirname(os.path.abspath(targetsel.__file__)) == os.path.join(src, "targetsel")


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that percentile to lie above the median, the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


class Window:
    """Latencies and check results of one closed-loop measurement."""

    def __init__(self, label):
        self.label = label
        self.latencies = []
        self.by_method = {}
        self.failures = []
        self.cycles = 0

    @property
    def throughput(self):
        return len(self.latencies) / sum(self.latencies)

    @property
    def p50(self):
        return statistics.median(self.latencies)

    def summary(self):
        value, pct = tail(self.latencies)
        return {
            "operations": len(self.latencies),
            "cycles": self.cycles,
            "latency_p50_ms": self.p50 * 1e3,
            "latency_tail_ms": value * 1e3,
            "latency_tail_percentile": round(pct, 2),
            "latency_samples": len(self.latencies),
            "method_latency_p50_ms": {m: statistics.median(v) * 1e3
                                      for m, v in self.by_method.items()},
            "latencies_ms": [round(v * 1e3, 3) for v in self.latencies],
        }


def measure(workload, seconds, label, tracer=None):
    """Run whole cycles until the next one would end after `seconds`."""
    clock = time.perf_counter
    window = Window(label)
    start = clock()
    while True:
        for j, method in enumerate(workload.cycle):
            uid = f"{label}-{window.cycles}-{j}"
            if tracer:
                tracer.begin(uid, "op", window.cycles)
            t0 = clock()
            try:
                outcome, error = workload.op(method), None
            except Exception:  # a failing operation is counted, and the loop goes on
                outcome, error = None, traceback.format_exc(limit=3)
            latency = clock() - t0
            if tracer:
                tracer.end()
            window.latencies.append(latency)
            window.by_method.setdefault(method, []).append(latency)
            if error is None:
                try:
                    problems = workload.check(method, outcome)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc(limit=3)]
            else:
                problems = ["operation raised: " + error]
            # An experiment's outcome holds its kernels; free them before the next operation.
            outcome = None
            if problems:
                window.failures.append({"op": uid, "method": method, "problems": problems})
        window.cycles += 1
        elapsed = clock() - start
        if elapsed + elapsed / window.cycles > seconds:
            return window


def run(name, seed, seconds, trace, import_s, cfg, references, protocol_seed, trace_path=None):
    """Set up, measure and check one workload; returns (result, details)."""
    import environment
    import workloads
    from targetsel import baselines, datastore, harness, kernel, objectives, optimizer, pipeline

    layers = {"datastore": datastore, "kernel": kernel, "objectives": objectives,
              "optimizer": optimizer, "baselines": baselines, "harness": harness,
              "pipeline": pipeline}
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    workload = workloads.WORKLOADS[name](cfg, protocol_seed, references, workdir)
    tracer = tracing.Tracer(layers, objectives.Objective, cfg.lake_size) if trace else None
    clock = time.perf_counter
    setup_times = []
    windows = []
    try:
        if tracer:
            tracer.install()
        for r in range(SETUP_REPEATS):
            if tracer:
                tracer.begin(f"setup-{r}", "setup")
            t0 = clock()
            workload.setup()
            setup_times.append(clock() - t0)
            if tracer:
                tracer.end()
        if tracer:
            tracer.uninstall()
        windows.append(measure(workload, seconds, "untraced"))
        if tracer:
            tracer.install()
            windows.append(measure(workload, seconds, "traced", tracer))
            tracer.uninstall()
            gain_median = workload.target_gain_median()
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()

    untraced = windows[0]
    failures = [f for w in windows for f in w.failures]
    attempted = sum(len(w.latencies) for w in windows)
    details = {
        "workload": name,
        "environment": environment.record(ROOT, seed, protocol_seed),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "windows": {w.label: w.summary() for w in windows},
        "failures": failures[:20],
    }
    if trace:
        traced = windows[1]
        values, repeat = tracing.layer_metrics(tracer.units, objectives.KINDS)
        values["harness.target_gain_median"] = gain_median
        values["trace.overhead_latency_p50_ms"] = (traced.p50 - untraced.p50) * 1e3
        values["trace.overhead_throughput_ops_per_s"] = traced.throughput - untraced.throughput
        units = per_layer_units(objectives.KINDS)
        details["counters_repeat_across_cycles"] = repeat
        if trace_path:
            tracer.write(trace_path)
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_ops_per_s": untraced.throughput,
            "latency_p50_ms": untraced.p50 * 1e3,
            "latency_tail_ms": tail(untraced.latencies)[0] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f["op"] for f in failures}),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, details


def load_references(path, cfg):
    """The recorded references, after checking they were made at this configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    expected = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "seeds"}
    if refs["config"] != json.loads(json.dumps(expected)):
        raise ValueError(f"{path} was recorded at another protocol configuration")
    return refs


def parse_args(argv):
    parser = argparse.ArgumentParser(description="targetsel benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cli_select", "naive_greedy", "experiment"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not load_program(ROOT):
        print(f"error: the targetsel sources are not under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (numpy, scipy and every library module)
    from targetsel import harness

    import_s = time.perf_counter() - t0

    cfg = harness.ExperimentConfig()
    try:
        refs = load_references(REFERENCES, cfg)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot use the references: {exc}", file=sys.stderr)
        return 2
    protocol_seed = args.seed % refs["protocol_seeds"]
    trace_path = os.path.join(ROOT, ".perfbench_out",
                              f"trace-{args.workload}-seed{args.seed}.jsonl")
    result, details = run(args.workload, args.seed, args.seconds, args.trace, import_s, cfg,
                          refs[args.workload][str(protocol_seed)], protocol_seed, trace_path)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
