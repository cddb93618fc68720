"""Paired fresh-process benchmark runs of two source trees.

    python3 tools/benchpairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --plan naive_greedy:3:10:30 --plan naive_greedy:11:5:30 --out BENCH_x.json

Each tree is a checkout of the repository (for example a `git archive` of the parent
commit and a copy of the change). Each --plan entry is WORKLOAD:SEED:PAIRS:SECONDS. For
each pair the script runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, in a fresh process with the tree as working directory and
BLAS threads at their defaults; pair i runs the parent first when i is even, the change
first when odd. Each run's last output line (the result) is kept verbatim and its
second-to-last line (the details) without the per-operation `latencies_ms` lists.
After the pairs, each invocation runs the Tier-1 tests,
`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`, twice in each tree,
as two entries under "tier1" in ABBA order: the first entry runs parent first when the
entries already there are even in number, change first when odd, and the second entry
runs the trees in the other order, so each tree runs once in each position. Each entry
keeps each side's wall seconds, pytest's summary counts (passed, failed, ...) and exit
code.

Per workload and end-to-end metric the output gives both sides' median and inclusive
quartiles, the change's wins (strictly better, in the direction BENCHMARK.json gives), the
median difference in parent interquartile distances, and the median's relative change.
The output file is rewritten after every pair, so an interrupted run keeps what it has;
with --append the plan's workloads are added after those an earlier run wrote there.
Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def parse_plan(text):
    workload, seed, pairs, seconds = text.split(":")
    return workload, int(seed), int(pairs), float(seconds)


def run_once(tree, workload, seed, seconds):
    """One fresh-process benchmark run in tree: its details (without per-operation
    latencies), its result line verbatim, and when it finished."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    details = json.loads(lines[-2])
    for window in details["details"].get("windows", {}).values():
        window.pop("latencies_ms", None)
    return {"details": details, "result": json.loads(lines[-1]), "finished": time.time()}


def run_tier1(tree):
    """One Tier-1 run in tree: its wall seconds, pytest's summary counts and exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().rsplit("\n", 1)[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"wall_s": wall, "counts": counts, "exit_code": proc.returncode}


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs, better):
    """Per end-to-end metric: both sides' quartiles, the change's wins and the median shift."""
    summary = {}
    for metric, direction in better.items():
        got = [(p["parent"]["result"]["metrics"].get(metric, {}).get("value"),
                p["change"]["result"]["metrics"].get(metric, {}).get("value")) for p in pairs]
        got = [(a, b) for a, b in got if a is not None and b is not None]
        if not got:
            continue
        parent, change = quartiles([a for a, _ in got]), quartiles([b for _, b in got])
        sign = 1.0 if direction == "higher" else -1.0
        iqr = parent["q3"] - parent["q1"]
        shift = change["median"] - parent["median"]
        summary[metric] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (b - a) > 0 for a, b in got),
            "pairs": len(got),
            "median_diff_over_parent_iqr": shift / iqr if iqr else None,
            "median_change_rel": shift / parent["median"] if parent["median"] else None,
        }
    return summary


def claim_line(entry, metric):
    s = entry["summary"].get(metric)
    if s is None:
        return f"{entry['workload']} {metric} at seed {entry['seed']}: not reported"
    iqr = s["median_diff_over_parent_iqr"]
    rel = s["median_change_rel"]
    return (f"{entry['workload']} {metric} at seed {entry['seed']} ({s['pairs']} pairs): "
            f"{s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
            f"({s['change_wins']}/{s['pairs']} wins"
            + (f", {rel:+.1%}" if rel is not None else "")
            + (f", {abs(iqr):.1f} parent interquartile distances" if iqr is not None else "")
            + ")")


def verdict_line(entry):
    sides = {}
    for side in ("parent", "change"):
        runs = [p[side]["result"] for p in entry["pairs"]]
        sides[side] = (all(r.get("correct") is True for r in runs),
                       sum(r.get("failed", 0) for r in runs))
    return (f"{entry['workload']} seed {entry['seed']}: every run correct on the parent side: "
            f"{sides['parent'][0]} ({sides['parent'][1]} failed ops), on the change side: "
            f"{sides['change'][0]} ({sides['change'][1]} failed ops)")


def tier1_line(entry):
    def side(run):
        counts = ", ".join(f"{n} {word}" for word, n in run["counts"].items()) or "no summary"
        return f"{run['wall_s']:.1f} s ({counts}; exit {run['exit_code']})"
    return (f"Tier-1 wall time, {entry['first']} first: parent {side(entry['parent'])}, "
            f"change {side(entry['change'])}")


def environment(entry):
    env = entry["details"]["details"].get("environment", {})
    blas = env.get("blas", {})
    return {"nproc": env.get("nproc"), "python": env.get("python"), "numpy": env.get("numpy"),
            "scipy": env.get("scipy"), "blas": [f"{k}: {v}" for k, v in blas.items()],
            "machine": os.uname().machine}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit's source tree")
    parser.add_argument("--change", required=True, help="the change's source tree")
    parser.add_argument("--plan", required=True, action="append", type=parse_plan,
                        help="WORKLOAD:SEED:PAIRS:SECONDS; may be repeated")
    parser.add_argument("--claim", action="append", default=[],
                        help="metric to state in the notes for every workload; may be repeated")
    parser.add_argument("--note", action="append", default=[], help="a note to keep verbatim")
    parser.add_argument("--append", action="store_true",
                        help="keep the workloads and notes already in --out and add these")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    report = {"environment": None, "plan": [],
              "order": "pair i runs the parent first when i is even, the change first when odd",
              "workloads": [], "tier1": [], "notes": []}
    if args.append and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    report["plan"] += [list(p) for p in args.plan]
    report.setdefault("tier1", [])
    kept, kept_tier1 = len(report["workloads"]), len(report["tier1"])
    notes = report["notes"][:]

    def write():
        added = report["workloads"][kept:]
        report["notes"] = notes + list(args.note) + [verdict_line(e) for e in added] + [
            claim_line(e, m) for e in added for m in args.claim or better] + [
            tier1_line(t) for t in report["tier1"][kept_tier1:]]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for workload, seed, pairs, seconds in args.plan:
        entry = {"workload": workload, "seed": seed, "seconds": seconds, "pairs": [],
                 "summary": {}}
        report["workloads"].append(entry)
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(trees[side], workload, seed, seconds) for side in order}
            entry["pairs"].append({"parent": pair["parent"], "change": pair["change"]})
            entry["summary"] = summarize(entry["pairs"], better)
            report["environment"] = report["environment"] or environment(pair["parent"])
            write()
            print(f"{workload} seed {seed} pair {i + 1}/{pairs}: " + ", ".join(
                f"{m} {pair['parent']['result']['metrics'][m]['value']:.4g} -> "
                f"{pair['change']['result']['metrics'][m]['value']:.4g}"
                for m in (args.claim or better) if m in pair["parent"]["result"]["metrics"]),
                file=sys.stderr, flush=True)
    for _ in range(2):  # the second entry's parity takes the other order: ABBA
        order = ("parent", "change") if len(report["tier1"]) % 2 == 0 else ("change", "parent")
        runs = {side: run_tier1(trees[side]) for side in order}
        report["tier1"].append({"first": order[0], "parent": runs["parent"],
                                "change": runs["change"]})
        write()
        print(tier1_line(report["tier1"][-1]), file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
