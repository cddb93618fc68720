"""Time one dsum selection on the built pool kernel and on kernel rows, at several budgets.

    PYTHONPATH=src python3 tools/dsum_crossover.py [--seed 0] [--repeats 5]

The pool is a default-protocol seed's gradient-embedding lake (2000 rows): once with its
10+65-wide outer-product factors, once as the same 650-wide values without factors. The
built path times build_kernel plus greedy selection; the rows path times a KernelRows plus
greedy selection. Both run in one process, alternating, and each cell is the median over
--repeats in milliseconds. It prints a Markdown table in which the path kernel.rows_pay
picks is bold.
"""

import argparse
import statistics
import time

from targetsel import harness
from targetsel.datastore import FeatureMatrix
from targetsel.kernel import KernelConfig, KernelRows, build_kernel, rows_pay
from targetsel.objectives import ObjectiveSpec
from targetsel.optimizer import greedy_maximize

BUDGETS = (10, 100, 250, 500, 1000, 1999)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    cfg, kcfg = harness.ExperimentConfig(), KernelConfig()
    data = harness.synthetic_generate(cfg, args.seed)
    lake = harness.gradient_embeddings(harness.train_softmax(data.train, cfg), data.lake.x)
    inputs = {"10+65-wide factors": lake, "650-wide plain rows": FeatureMatrix(lake.values)}
    paths = {"built": lambda a, k: build_kernel(a, a, kcfg), "rows": lambda a, k: KernelRows(a, kcfg)}
    print("| input | path | " + " | ".join(f"k = {k}" for k in BUDGETS) + " |")
    print("| --- | --- | " + " | ".join("---:" for _ in BUDGETS) + " |")
    for label, a in inputs.items():
        times = {path: [] for path in paths}
        for k in BUDGETS:
            runs = {path: [] for path in paths}
            for _ in range(args.repeats):
                for path, make in paths.items():
                    start = time.perf_counter()
                    greedy_maximize(ObjectiveSpec("dsum", s_uu=make(a, k)), k)
                    runs[path].append(1e3 * (time.perf_counter() - start))
            for path in paths:
                times[path].append(statistics.median(runs[path]))
        for path in paths:
            cells = [f"**{t:.1f}**" if (path == "rows") == rows_pay(k, a) else f"{t:.1f}"
                     for k, t in zip(BUDGETS, times[path])]
            print(f"| {label} | {path} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
