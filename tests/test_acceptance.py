"""Acceptance suite: one test per shipping criterion.

Each test prints a single `ACCEPTANCE <n>: PASS/FAIL` line (visible with
`pytest -s` or on failure) and asserts the criterion at its stated tolerance.
Criterion 4 measures diminishing returns for the log-det mutual-information
objective at eta=1 too. That objective is not submodular (it has genuine
increasing-gain counterexamples on valid PSD kernels, see the lazy_safe notes
in targetsel.objectives), so its violations are counted and reported, while
the assertion covers the kinds the program declares submodular.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from targetsel.datastore import FeatureMatrix
from targetsel.harness import ExperimentConfig, run_experiment, synthetic_generate, train_softmax
from targetsel.kernel import SimilarityKernel
from targetsel.objectives import (
    KINDS, SUBMODULAR_KINDS, ObjectiveSpec, build_objective, evaluate,
)
from targetsel.optimizer import _naive_greedy, greedy_maximize
from targetsel.pipeline import RunManifest, build_report, main, run_select
from targetsel import baselines

from oracles import eval_reference, exhaustive_maximize, random_kernels


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def make_spec(kind, uu, ut, tt, **kw):
    from targetsel.objectives import KERNEL_REQUIREMENTS

    need = KERNEL_REQUIREMENTS[kind]
    return ObjectiveSpec(
        kind=kind,
        s_uu=uu if "uu" in need else None,
        s_ut=ut if "ut" in need else None,
        s_tt=tt if "tt" in need else None,
        **kw,
    )


def test_criterion_1_approximation_bound():
    """Greedy achieves (1 - 1/e) of the exhaustive optimum on 200 instances."""
    rng = np.random.default_rng(101)
    factor = 1.0 - 1.0 / math.e
    worst = math.inf
    for _ in range(200):
        uu, ut, tt = random_kernels(rng, n=10, m=3, d=12)
        for kind in ("fl", "gcmi", "fl1mi", "fl2mi"):
            spec = make_spec(kind, uu, ut, tt)
            greedy = greedy_maximize(spec, 3)
            exact = exhaustive_maximize(spec, 3)
            worst = min(worst, greedy.total_value - factor * exact.total_value)
    report(1, worst >= -1e-9,
           f"min(greedy - (1-1/e)*opt) = {worst:.3e} over 800 kind-instances")


def test_criterion_2_lazy_naive_identity():
    """greedy_maximize and naive greedy select identical index sequences on
    every kind. greedy_maximize runs lazy greedy only where the objective is
    lazy_safe and lazy_pays (fl, fl1mi and fl2mi), so for the other kinds this
    compares naive greedy with itself. Both loops run directly on every
    lazy_safe kind in test_optimizer.py (TestLazyNaiveIdentity, TestLazyBlocks)."""
    rng = np.random.default_rng(202)
    mismatches = 0
    instances = 0
    for _ in range(12):
        uu, ut, tt = random_kernels(rng, n=9, m=3, d=8)
        for kind in KINDS:
            spec = make_spec(kind, uu, ut, tt)
            lazy = greedy_maximize(spec, 4)
            naive = build_objective(spec)
            _naive_greedy(naive, 4)
            instances += 1
            mismatches += lazy.selected != naive.selected
    report(2, mismatches == 0,
           f"{mismatches} mismatches over {instances} instances (all kinds)")


def test_criterion_3_formula_oracles():
    """Every kind matches an independent brute-force formula on 500 instances,
    and the fixed worked examples hold."""
    rng = np.random.default_rng(303)
    worst = 0.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        # feature dim comfortably above n keeps the log-det instances well
        # conditioned, so a 1e-8 agreement check is meaningful in doubles
        uu, ut, tt = random_kernels(rng, n, m, d=n + 6)
        k = int(rng.integers(1, n + 1))
        idx = sorted(rng.choice(n, size=k, replace=False).tolist())
        for kind in KINDS:
            eps = 1e-6 if kind in ("logdet", "logdetmi") else 0.0
            spec = make_spec(kind, uu, ut, tt, ridge=eps)
            got = evaluate(spec, idx)
            want = eval_reference(kind, idx, uu=uu.values, ut=ut.values,
                                  tt=tt.values, eps=eps)
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
            checked += 1

    ut_small = SimilarityKernel(np.array([[0.5, 0.2], [0.1, 0.4]]))
    uu3 = SimilarityKernel(np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]),
                           symmetric=True)
    q3 = SimilarityKernel(np.array([[0.3], [0.6], [0.2]]))
    one = SimilarityKernel(np.array([[1.0]]), symmetric=True)
    fixed = [
        (ObjectiveSpec(kind="gcmi", s_ut=ut_small), [0], 1.4),
        (ObjectiveSpec(kind="fl2mi", s_ut=ut_small), [0], 1.2),
        (ObjectiveSpec(kind="fl1mi", s_uu=uu3, s_ut=q3), [1], 0.8),
        (ObjectiveSpec(kind="logdetmi", s_uu=one, s_tt=one,
                       s_ut=SimilarityKernel(np.array([[0.6]])), ridge=0.0),
         [0], -math.log(1.0 - 0.36)),
        (ObjectiveSpec(kind="fl", s_uu=uu3), [0], 1.2),
        (ObjectiveSpec(kind="gc", s_uu=uu3), [0], 0.7),
        (ObjectiveSpec(kind="logdet", s_uu=uu3, ridge=0.0), [0, 1], math.log(0.99)),
        (ObjectiveSpec(kind="dsum", s_uu=uu3), [0, 1], 0.9),
    ]
    fixed_ok = all(evaluate(s, idx) == pytest.approx(want, rel=1e-6)
                   for s, idx, want in fixed)
    report(3, worst <= 1e-8 and fixed_ok,
           f"max relative error {worst:.3e} on {checked} instances; "
           f"fixed examples {'ok' if fixed_ok else 'FAILED'}")


def test_criterion_4_submodularity_suite():
    """Diminishing returns gain(j|X) >= gain(j|Y) - 1e-9 for X subset Y, over
    >=1000 random triples per kind, including logdetmi at eta=1.

    Every kind's violations are counted and reported. Zero violations are
    asserted for the kinds the program declares submodular: those whose
    objective is lazy_safe (greedy_maximize trusts stale lazy bounds only for
    them) or that are in SUBMODULAR_KINDS. The two declarations must agree,
    and every declared kind must be one the sweep measures. logdetmi is
    declared non-submodular, so its violations are information, not a
    failure.
    """
    rng = np.random.default_rng(404)
    kinds = ("fl", "gc", "logdet", "gcmi", "fl1mi", "fl2mi", "logdetmi")
    violations = {k: 0 for k in kinds}
    worst = {k: 0.0 for k in kinds}
    triples_per_kind = 1000
    triples_per_instance = 10
    for _ in range(triples_per_kind // triples_per_instance):
        n = int(rng.integers(4, 9))
        uu, ut, tt = random_kernels(rng, n, m=3, d=n + 2)
        specs = {k: make_spec(k, uu, ut, tt) for k in kinds}
        for _ in range(triples_per_instance):
            j = int(rng.integers(n))
            rest = [i for i in range(n) if i != j]
            y_size = int(rng.integers(1, len(rest) + 1))
            y_set = sorted(rng.choice(rest, size=y_size, replace=False).tolist())
            x_size = int(rng.integers(0, y_size + 1))
            x_set = sorted(rng.choice(y_set, size=x_size, replace=False).tolist())
            for kind in kinds:
                spec = specs[kind]
                gain_x = evaluate(spec, x_set + [j]) - evaluate(spec, x_set)
                gain_y = evaluate(spec, y_set + [j]) - evaluate(spec, y_set)
                if gain_x < gain_y - 1e-9:
                    violations[kind] += 1
                    worst[kind] = max(worst[kind], gain_y - gain_x)
    # lazy_safe is per kind on nonnegative kernels (fl, fl1mi and fl2mi are not lazy_safe on
    # a negative entry), so the last instance's cosine shift-scale kernels serve to build each
    lazy_safe = {k for k in KINDS if build_objective(make_spec(k, uu, ut, tt)).lazy_safe}
    declared = lazy_safe | SUBMODULAR_KINDS
    agree = lazy_safe == SUBMODULAR_KINDS
    failing = [k for k in kinds if k in declared and violations[k]]
    unswept = sorted(declared - set(kinds))
    detail = ", ".join(f"{k}:{violations[k]}" for k in kinds)
    report(4, agree and not failing and not unswept,
           f"violations per kind over {triples_per_kind} triples each [{detail}]"
           + (f"; worst logdetmi deficit {worst['logdetmi']:.3e}"
              if violations["logdetmi"] else "")
           + f"; declared submodular with violations: {failing or 'none'}"
           + (f"; declared submodular but not swept: {unswept}" if unswept else "")
           + ("" if agree else
              f"; lazy_safe {sorted(lazy_safe)} != SUBMODULAR_KINDS "
              f"{sorted(SUBMODULAR_KINDS)}"))


def test_criterion_5_gcmi_top_k():
    """gcmi greedy equals top-k cross-kernel row sums, lowest index first on ties."""
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 12))
        _, ut, _ = random_kernels(rng, n, m=int(rng.integers(1, 4)))
        k = int(rng.integers(1, n + 1))
        spec = ObjectiveSpec(kind="gcmi", s_ut=ut)
        got = greedy_maximize(spec, k).selected
        sums = ut.values.sum(axis=1)
        expect = sorted(range(n), key=lambda i: (-sums[i], i))[:k]
        ok = ok and got == expect
    report(5, ok, "gcmi greedy == top-k row sums on 100 random instances")


def test_criterion_6_end_to_end_ordering():
    """On the default synthetic protocol the SMI methods beat random and at
    least match uncertainty sampling in median target-class gain."""
    result = run_experiment(ExperimentConfig(),
                            ["fl2mi", "logdetmi", "gcmi_div", "random", "us"])
    med = {m: result.aggregates[m]["median_target_gain"] for m in result.methods}
    ok = all(med[m] > 0 and med[m] > med["random"] and med[m] >= med["us"]
             for m in ("fl2mi", "logdetmi", "gcmi_div"))
    detail = ", ".join(f"{m}={med[m]:+.4f}" for m in result.methods)
    report(6, ok, f"median target gains: {detail}")


def test_criterion_7_budget_zero_null_effect():
    """Budget 0 changes nothing: gain exactly 0 for every method and seed."""
    cfg = ExperimentConfig(
        num_classes=4, feature_dim=8, rare_train_count=2, common_train_count=12,
        lake_size=40, target_set_size=4, budget=0, test_per_class=6,
        class_separation=3.0, pair_separation=1.0, max_epochs=150, seeds=(0, 1, 2),
    )
    methods = list(KINDS) + ["random", "us", "tus", "badge"]
    result = run_experiment(cfg, methods)
    bad = [
        (m, e["seed"])
        for m in methods
        for e in result.entries[m]
        if e["target_gain"] != 0.0 or e["overall_gain"] != 0.0
    ]
    report(7, not bad, f"nonzero budget-0 gains: {bad or 'none'} "
                       f"({len(methods)} methods x {len(cfg.seeds)} seeds)")


def test_criterion_8_cli_fidelity(tmp_path):
    """CLI reports match in-process results bit-exactly for 20 random manifests;
    malformed input exits 2, missing target exits 3."""
    rng = np.random.default_rng(808)
    methods = itertools.cycle(list(KINDS) + ["random", "badge"])
    mismatches = []
    for i in range(20):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        pool = tmp_path / f"pool{i}.csv"
        target = tmp_path / f"target{i}.csv"
        pool.write_text("\n".join(",".join("%.17g" % v for v in row)
                                  for row in rng.standard_normal((n, d))) + "\n")
        target.write_text("\n".join(",".join("%.17g" % v for v in row)
                                    for row in rng.standard_normal((2, d))) + "\n")
        manifest = RunManifest(method=next(methods), budget=int(rng.integers(1, n)),
                               unlabeled=str(pool), target=str(target),
                               seed=int(rng.integers(1000)))
        lib = build_report(manifest, run_select(manifest), 0.0)
        out = tmp_path / f"out{i}.json"
        code = main(["select", "--method", manifest.method,
                     "--budget", str(manifest.budget),
                     "--unlabeled", str(pool), "--target", str(target),
                     "--seed", str(manifest.seed), "--out", str(out)])
        cli = json.loads(out.read_text())
        same = (code == 0
                and cli["selected"] == lib["selected"]
                and cli["gains"] == lib["gains"]
                and cli["total_value"] == lib["total_value"])
        if not same:
            mismatches.append(manifest.method)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnot,numbers\n")
    code_bad = main(["select", "--method", "fl", "--budget", "1",
                     "--unlabeled", str(bad)])
    ok_pool = tmp_path / "ok.csv"
    ok_pool.write_text("1.0,2.0\n3.0,4.0\n")
    code_missing = main(["select", "--method", "fl2mi", "--budget", "1",
                         "--unlabeled", str(ok_pool)])
    ok = not mismatches and code_bad == 2 and code_missing == 3
    report(8, ok, f"mismatches={mismatches or 'none'}, malformed exit={code_bad}, "
                  f"missing-target exit={code_missing}")


def test_criterion_9_determinism():
    """Every seeded operation is bit-reproducible across invocations."""
    cfg = ExperimentConfig(
        num_classes=4, feature_dim=8, rare_train_count=2, common_train_count=12,
        lake_size=40, target_set_size=4, budget=8, test_per_class=6,
        class_separation=3.0, pair_separation=1.0, max_epochs=150, seeds=(0, 1),
    )
    checks = {}
    checks["random_select"] = (
        baselines.random_select(50, 10, seed=7).selected
        == baselines.random_select(50, 10, seed=7).selected
    )
    emb = FeatureMatrix(np.random.default_rng(0).standard_normal((30, 4)))
    checks["badge_select"] = (
        baselines.badge_select(emb, 8, seed=9).selected
        == baselines.badge_select(emb, 8, seed=9).selected
    )
    a, b = synthetic_generate(cfg, 3), synthetic_generate(cfg, 3)
    checks["synthetic_generate"] = (
        np.array_equal(a.train.x, b.train.x)
        and np.array_equal(a.lake.y, b.lake.y)
        and a.target_classes == b.target_classes
    )
    checks["train_softmax"] = np.array_equal(
        train_softmax(a.train, cfg).weights, train_softmax(b.train, cfg).weights
    )
    checks["run_experiment"] = (
        run_experiment(cfg, ["fl2mi", "random"]).to_dict()
        == run_experiment(cfg, ["fl2mi", "random"]).to_dict()
    )
    failed = [name for name, ok in checks.items() if not ok]
    report(9, not failed, f"non-reproducible operations: {failed or 'none'}")
