#!/usr/bin/env python3
"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/record_references.py

For every workload and each of the first PROTOCOL_SEEDS protocol seeds it
runs one cycle of the workload's operations, with every check except the
reference comparison, and writes each method's selected indices (and, for the experiment, its
per-entry gains) to perfbench/references.json. Record again only when a
change of selections is intended; a speed-up must leave them as they are.
"""

import dataclasses
import json
import os
import sys

import run

PROTOCOL_SEEDS = 16


def record(name, cfg, protocol_seed):
    """One cycle of a workload without references; returns its outputs by method."""
    import workloads

    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{name}-{os.getpid()}")
    workload = workloads.WORKLOADS[name](cfg, protocol_seed, None, workdir)
    try:
        workload.setup()
        window = run.measure(workload, 0, "record")
    finally:
        workload.close()
    if window.failures:
        raise RuntimeError(f"{name} seed {protocol_seed} failed its checks: {window.failures}")
    return workload.outputs


def main():
    if not run.load_program(run.ROOT):
        print("error: the targetsel sources are not in this checkout", file=sys.stderr)
        return 2
    from targetsel import harness
    import workloads

    cfg = harness.ExperimentConfig()
    config = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "seeds"}
    lines = ["{", f' "config": {json.dumps(config)},',
             f' "protocol_seeds": {PROTOCOL_SEEDS},']
    names = list(workloads.WORKLOADS)
    for i, name in enumerate(names):
        lines.append(f' "{name}": {{')
        for p in range(PROTOCOL_SEEDS):
            outputs = record(name, cfg, p)
            print(f"{name} seed {p}: {sorted(outputs)}", file=sys.stderr, flush=True)
            sep = "," if p < PROTOCOL_SEEDS - 1 else ""
            lines.append(f'  "{p}": {json.dumps(outputs, sort_keys=True)}{sep}')
        lines.append(" }" + ("," if i < len(names) - 1 else ""))
    lines.append("}")
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
