#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

For each workload it records references in-process, then checks that:
- an untraced and a traced run pass every output check and report every
  metric BENCHMARK.json names, with the unit it gives;
- the exact counters repeat across two traced runs of the same seed;
- a reference with two indices swapped makes an operation fail.
"""

import copy
import dataclasses
import json
import os
import sys

import run
from record_references import record

TINY = dict(num_classes=4, feature_dim=8, rare_train_count=3, common_train_count=20,
            lake_size=60, target_set_size=5, budget=8, test_per_class=20, max_epochs=150)
SEED = 3
COUNT_UNITS = ("count", "B")


def _check(failures, ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def _named_metrics(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    if not run.load_program(run.ROOT):
        print("error: the targetsel sources are not in this checkout", file=sys.stderr)
        return 2
    import workloads
    from targetsel import harness

    cfg = dataclasses.replace(harness.ExperimentConfig(), **TINY)
    failures = []
    for name in workloads.WORKLOADS:
        refs = record(name, cfg, SEED)
        result, _ = run.run(name, SEED, 0, 0, 0.0, cfg, refs, SEED)
        _check(failures, result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: untraced run passes its checks")
        reported = {m: v["unit"] for m, v in result["metrics"].items()}
        _check(failures, reported == _named_metrics(False),
               f"{name}: every end-to-end metric appears with its unit")

        traced = [run.run(name, SEED, 0, 1, 0.0, cfg, refs, SEED) for _ in range(2)]
        _check(failures, all(r["correct"] for r, _ in traced),
               f"{name}: traced runs pass their checks")
        reported = {m: v["unit"] for m, v in traced[0][0]["metrics"].items()}
        _check(failures, reported == _named_metrics(True),
               f"{name}: every per-layer metric appears with its unit")
        counters = [{m: v["value"] for m, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                    for r, _ in traced]
        _check(failures, counters[0] == counters[1] and any(counters[0].values()),
               f"{name}: exact counters repeat across two runs of the same seed")
        _check(failures, all(d["counters_repeat_across_cycles"] for _, d in traced),
               f"{name}: exact counters repeat across cycles")

        swapped = copy.deepcopy(refs)
        method = sorted(swapped)[0]
        sel = swapped[method]["selected"]
        sel[0], sel[1] = sel[1], sel[0]
        result, details = run.run(name, SEED, 0, 0, 0.0, cfg, swapped, SEED)
        _check(failures, not result["correct"] and result["failed"] >= 1
               and any(method in p for f in details["failures"] for p in f["problems"]),
               f"{name}: a reference with one swapped index registers as a failed operation")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
