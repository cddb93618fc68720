import itertools
import pickle
import types
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from oracles import (
    ExactLogDet,
    SolveLogDet,
    duplicate_row_kernels,
    eval_reference,
    random_kernels,
)
from targetsel import harness, kernel
from targetsel.datastore import FeatureMatrix
from targetsel.errors import ConfigurationError, DivergenceError, IndefiniteKernelError, SizeError
from targetsel.kernel import KernelConfig, SimilarityKernel, build_kernel, cholesky_or_raise
from targetsel.objectives import (
    KINDS,
    OVERFLOW,
    PIVOT_TOL,
    ROW_KINDS,
    CholeskyResiduals,
    ObjectiveSpec,
    build_objective,
    evaluate,
)
from targetsel.optimizer import TIE_TOL, _lazy_greedy, _naive_greedy, greedy_maximize

UT = SimilarityKernel(np.array([[0.5, 0.2], [0.1, 0.4]]))
UU3 = SimilarityKernel(np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]),
                       symmetric=True)
# per-row target maxima [0.3, 0.6, 0.2] realized as a single-column cross kernel
UT3 = SimilarityKernel(np.array([[0.3], [0.6], [0.2]]))


def spec_for(kind, **kw):
    defaults = {
        "gcmi": dict(s_ut=UT),
        "fl2mi": dict(s_ut=UT),
        "fl1mi": dict(s_uu=UU3, s_ut=UT3),
        "gcmi_div": dict(s_uu=UU3, s_ut=UT3),
        "fl": dict(s_uu=UU3),
        "gc": dict(s_uu=UU3),
        "logdet": dict(s_uu=UU3, ridge=0.0),
        "dsum": dict(s_uu=UU3),
    }[kind]
    defaults.update(kw)
    return ObjectiveSpec(kind, **defaults)


def random_spec(rng, kind, n=6, m=3, ridge=1e-6, **params):
    uu, ut, tt = random_kernels(rng, n, m)
    return ObjectiveSpec(
        kind,
        s_uu=uu if "uu" in _needs(kind) else None,
        s_ut=ut if "ut" in _needs(kind) else None,
        s_tt=tt if "tt" in _needs(kind) else None,
        ridge=ridge,
        **params,
    )


def _needs(kind):
    from targetsel.objectives import KERNEL_REQUIREMENTS
    return KERNEL_REQUIREMENTS[kind]


class TestEvalExamples:
    def test_gcmi(self):
        s = spec_for("gcmi")
        assert evaluate(s, [0]) == pytest.approx(1.4)
        assert evaluate(s, [0, 1]) == pytest.approx(2.4)

    def test_fl2mi(self):
        s = spec_for("fl2mi")
        assert evaluate(s, [0]) == pytest.approx(1.2)
        assert evaluate(s, [0, 1]) == pytest.approx(1.8)

    def test_fl1mi(self):
        assert evaluate(spec_for("fl1mi"), [1]) == pytest.approx(0.8)

    def test_logdetmi_singleton(self):
        s = ObjectiveSpec(
            "logdetmi",
            s_uu=SimilarityKernel(np.array([[1.0]]), symmetric=True),
            s_ut=SimilarityKernel(np.array([[0.6]])),
            s_tt=SimilarityKernel(np.array([[1.0]]), symmetric=True),
            ridge=0.0,
        )
        assert evaluate(s, [0]) == pytest.approx(-np.log(1 - 0.36), abs=1e-6)
        assert evaluate(s, [0]) == pytest.approx(0.446287, abs=1e-6)

    def test_logdetmi_zero_cross_is_zero(self):
        s = ObjectiveSpec(
            "logdetmi",
            s_uu=UU3,
            s_ut=SimilarityKernel(np.zeros((3, 2))),
            s_tt=SimilarityKernel(np.eye(2), symmetric=True),
            ridge=1e-9,
        )
        for subset in ([0], [1, 2], [0, 1, 2]):
            assert evaluate(s, subset) == pytest.approx(0.0, abs=1e-12)

    def test_fl(self):
        assert evaluate(spec_for("fl"), [0]) == pytest.approx(1.2)

    def test_gc(self):
        assert evaluate(spec_for("gc"), [0]) == pytest.approx(0.7)

    def test_logdet_pair(self):
        assert evaluate(spec_for("logdet"), [0, 1]) == pytest.approx(np.log(0.99), abs=1e-9)
        assert evaluate(spec_for("logdet"), [0, 1]) == pytest.approx(-0.010050, abs=1e-6)

    def test_dsum(self):
        assert evaluate(spec_for("dsum"), [0, 1]) == pytest.approx(0.9)
        assert evaluate(spec_for("dsum"), [2]) == 0.0

    def test_empty_set_is_zero_for_every_kind(self, rng=np.random.default_rng(7)):
        for kind in KINDS:
            assert evaluate(random_spec(rng, kind), []) == 0.0


class TestMarginalGainExamples:
    def test_gcmi_from_empty(self):
        s = spec_for("gcmi")
        obj = build_objective(s)
        assert obj.gain(1) == pytest.approx(1.0)

    def test_fl2mi_incremental(self):
        s = spec_for("fl2mi")
        obj = build_objective(s)
        obj.commit(0)
        assert obj.gain(1) == pytest.approx(0.6)

    def test_dsum_incremental(self):
        s = spec_for("dsum")
        obj = build_objective(s)
        obj.commit(0)
        assert obj.gain(1) == pytest.approx(0.9)

    def test_duplicate_and_bounds_errors(self):
        obj = build_objective(spec_for("fl"))
        obj.commit(0)
        with pytest.raises(ValueError, match="already selected"):
            obj.gain(0)
        with pytest.raises(IndexError):
            obj.gain(5)

    def test_gain_matches_eval_difference(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            s = random_spec(rng, kind)
            obj = build_objective(s)
            for a in (2, 0, 4):
                g = obj.gain(a)
                expect = obj.evaluate(obj.selected + [a]) - obj.evaluate(obj.selected)
                assert g == pytest.approx(expect, abs=1e-8, rel=1e-8), kind
                obj.commit(a)


class TestCommit:
    def test_fl_running_max_cache(self):
        obj = build_objective(spec_for("fl"))
        obj.commit(0)
        np.testing.assert_allclose(obj.cur, [1.0, 0.1, 0.1])

    def test_commit_order_does_not_change_value(self):
        rng = np.random.default_rng(11)
        for kind in KINDS:
            s = random_spec(rng, kind)
            o1, o2 = build_objective(s), build_objective(s)
            o1.commit(1)
            o1.commit(3)
            o2.commit(3)
            o2.commit(1)
            assert o1.value == pytest.approx(o2.value, rel=1e-10, abs=1e-10), kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_objectives_share_no_selection(self, kind):
        # commits on one objective leave another built from the same spec with
        # its empty selection, its value and its caches, attribute for attribute
        spec = random_spec(np.random.default_rng(KINDS.index(kind)), kind)
        first, second = build_objective(spec), build_objective(spec)
        fresh = second.gains()
        before = pickle.dumps(vars(second))
        first.commit(1)
        first.commit(3)
        first.gains()
        assert second.selected == [] and second.value == 0.0
        assert pickle.dumps(vars(second)) == before
        np.testing.assert_array_equal(second.gains(), fresh)

    @pytest.mark.parametrize("kind", sorted(set(KINDS) - {"logdet", "logdetmi"}))
    def test_commit_beyond_float_range_raises_and_changes_nothing(self, kind):
        # rows (1e154, i) under the dot metric: every kernel entry is 1e308, so the
        # first commit's total is beyond float range, or for dsum (1e308 less per
        # selected pair) the third one's; a direct commit raises the greedy loops'
        # error and leaves the selection, the value and every cache as they were
        cfg = KernelConfig(metric="dot", transform="none")
        pool = FeatureMatrix(np.array([[1e154, float(i)] for i in range(4)]))
        uu, ut = build_kernel(pool, pool, cfg), build_kernel(pool, FeatureMatrix(pool.values[:1]), cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            obj = build_objective(ObjectiveSpec(kind, s_uu=uu, s_ut=ut))
            committed = 2 if kind == "dsum" else 0
            for a in range(committed):
                obj.commit(a)
            before = pickle.dumps(vars(obj))
            with pytest.raises(DivergenceError) as err:
                obj.commit(committed)
        assert str(err.value) == OVERFLOW
        assert pickle.dumps(vars(obj)) == before
        assert obj.selected == list(range(committed)) and np.isfinite(obj.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["gc", "gcmi", "fl", "dsum"])
    def test_evaluate_beyond_float_range_raises_without_warnings(self, kind):
        # the pool of the commit test above: from scratch, these sums came out nan (gc),
        # inf (gcmi, fl) or -inf (dsum), with numpy RuntimeWarnings on the way
        cfg = KernelConfig(metric="dot", transform="none")
        pool = FeatureMatrix(np.array([[1e154, float(i)] for i in range(4)]))
        uu, ut = build_kernel(pool, pool, cfg), build_kernel(pool, FeatureMatrix(pool.values[:1]), cfg)
        with pytest.raises(DivergenceError) as err:
            evaluate(ObjectiveSpec(kind, s_uu=uu, s_ut=ut), [0, 1, 2])
        assert str(err.value) == OVERFLOW

    def test_cache_consistency_random_sequences(self):
        rng = np.random.default_rng(19)
        for kind in KINDS:
            tol = 1e-8 if "logdet" in kind else 1e-10
            for _ in range(20):
                s = random_spec(rng, kind, n=7)
                obj = build_objective(s)
                for a in rng.permutation(7)[: rng.integers(1, 6)]:
                    obj.commit(int(a))
                    scratch = obj.evaluate(obj.selected)
                    assert obj.value == pytest.approx(scratch, rel=tol, abs=tol), kind


class TestAgainstBruteForce:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_instances(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(40):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            uu, ut, tt = random_kernels(rng, n, m)
            eps = 1e-4 if "logdet" in kind else 0.0
            s = ObjectiveSpec(
                kind,
                s_uu=uu if "uu" in _needs(kind) else None,
                s_ut=ut if "ut" in _needs(kind) else None,
                s_tt=tt if "tt" in _needs(kind) else None,
                eta=float(rng.uniform(0, 2)) if kind != "logdetmi" else 1.0,
                gamma=float(rng.uniform(0, 2)),
                lambda_gc=float(rng.uniform(0, 0.5)),
                ridge=eps,
            )
            size = int(rng.integers(1, n + 1))
            subset = list(rng.permutation(n)[:size])
            got = evaluate(s, subset)
            want = eval_reference(
                kind, subset, uu=uu.values, ut=ut.values, tt=tt.values,
                eta=s.eta, gamma=s.gamma, lam=s.lambda_gc, eps=eps,
            )
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


def check_diminishing_returns(kind, trials, rng, tol=1e-9):
    """Sample X subset Y subset V minus {j} and verify gain(j|X) >= gain(j|Y)."""
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        s = random_spec(rng, kind, n=n, m=int(rng.integers(1, 4)),
                        ridge=1e-6 if "logdet" in kind else 0.0)
        j = int(rng.integers(n))
        rest = [i for i in range(n) if i != j]
        y = [i for i in rest if rng.random() < 0.6]
        x = [i for i in y if rng.random() < 0.5]
        gain_x = evaluate(s, x + [j]) - evaluate(s, x)
        gain_y = evaluate(s, y + [j]) - evaluate(s, y)
        if gain_x < gain_y - tol:
            violations += 1
    return violations


SUBMODULAR_CHECK_KINDS = ("fl", "gc", "logdet", "gcmi", "fl1mi", "fl2mi")


class TestProperties:
    @pytest.mark.parametrize("kind", SUBMODULAR_CHECK_KINDS)
    def test_diminishing_returns(self, kind):
        rng = np.random.default_rng(101)
        assert check_diminishing_returns(kind, 200, rng) == 0

    def test_logdetmi_has_increasing_gain_counterexamples(self):
        # The log-det mutual-information form is not submodular in the
        # selection, even at eta=1 on exactly-PSD kernels. This pins the
        # fact (and justifies running it with naive greedy only) by finding
        # violations well beyond numerical noise.
        rng = np.random.default_rng(101)
        violations = check_diminishing_returns("logdetmi", 200, rng, tol=1e-6)
        assert violations > 0

    def test_gcmi_is_modular(self):
        rng = np.random.default_rng(5)
        s = random_spec(rng, "gcmi", n=6)
        j = 5
        for x, y in [([], [1, 2]), ([3], [1, 3, 4]), ([0, 2], [0, 2, 4])]:
            gain_x = evaluate(s, x + [j]) - evaluate(s, x)
            gain_y = evaluate(s, y + [j]) - evaluate(s, y)
            assert gain_x == pytest.approx(gain_y, abs=1e-12)

    @pytest.mark.parametrize("kind", ["fl", "gcmi", "fl1mi", "fl2mi"])
    def test_monotone_on_nonnegative_kernels(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = random_spec(rng, kind, n=6)
            subset = [i for i in range(6) if rng.random() < 0.5]
            j = int(rng.choice([i for i in range(6) if i not in subset]))
            assert evaluate(s, subset + [j]) - evaluate(s, subset) >= -1e-9

    @pytest.mark.parametrize("kind", ["gcmi", "fl1mi", "fl2mi", "logdetmi"])
    def test_mi_nonnegative_at_default_eta(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(50):
            s = random_spec(rng, kind, n=6, ridge=1e-6)
            subset = [i for i in range(6) if rng.random() < 0.5] or [0]
            assert evaluate(s, subset) >= -1e-9

    def test_fl2mi_affine_in_eta(self):
        rng = np.random.default_rng(31)
        uu, ut, tt = random_kernels(rng, 6, 3)
        subset = [0, 2, 5]
        vals = [evaluate(ObjectiveSpec("fl2mi", s_ut=ut, eta=e), subset) for e in (0.0, 1.0, 2.0)]
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], abs=1e-12)

    def test_eval_is_order_insensitive(self):
        rng = np.random.default_rng(37)
        for kind in KINDS:
            s = random_spec(rng, kind, n=5)
            for perm in itertools.permutations([0, 2, 4]):
                assert evaluate(s, list(perm)) == pytest.approx(
                    evaluate(s, [0, 2, 4]), rel=1e-12, abs=1e-12
                )


class TestPivotRule:
    """At the default ridge (1e-6) every Schur residual is at least about the
    ridge, four decades above PIVOT_TOL, so the pivot rule rejects no ridged
    candidate: rank-deficient pools (feature dim at most n - 2, so the
    shift-scaled cosine kernel has rank below n, with whole groups of
    identical rows at dim 1) fill up with every gain finite."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["logdet", "logdetmi"]), st.integers(0, 2**32 - 1),
           st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2))))
    def test_rank_deficient_pool_fills_at_default_ridge(self, kind, seed, shape):
        n, d = shape
        # a single-row target for logdetmi
        uu, ut, tt = random_kernels(np.random.default_rng(seed), n, 1, d=d)
        mi = kind == "logdetmi"
        spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if mi else None, s_tt=tt if mi else None)
        loops = (_naive_greedy,) if mi else (_naive_greedy, _lazy_greedy)
        for loop in loops:
            obj = build_objective(spec)
            gains, _ = loop(obj, n)
            assert sorted(obj.selected) == list(range(n))
            assert np.all(np.isfinite(gains))


class TestEvaluatePivotRule:
    """evaluate factors the whole block under the greedy loops' pivot rule, so
    at ridge 0 the sign of round-off no longer decides between a value and an
    error: a set that holds both copies of a row raises on every seed."""

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_duplicate_rows_at_ridge_zero(self, kind):
        mi = kind == "logdetmi"
        for seed in range(40):
            uu, ut, tt = duplicate_row_kernels(seed)
            spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if mi else None,
                                 s_tt=tt if mi else None, ridge=0.0)
            for both_copies in ([0, 1, 3], [1, 0], [2, 3, 4], [5, 4, 0, 2]):
                with pytest.raises(IndefiniteKernelError):
                    evaluate(spec, both_copies)
            want = eval_reference(kind, [0, 2, 3], uu=uu.values, ut=ut.values,
                                  tt=tt.values, eps=0.0)
            assert evaluate(spec, [0, 2, 3]) == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_singular_set_has_one_message(self, kind):
        # the pivot of the second copy is round-off of either sign: a tiny
        # positive one and a failed Cholesky must read the same
        mi = kind == "logdetmi"
        for seed in range(8):
            uu, ut, tt = duplicate_row_kernels(seed)
            spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if mi else None,
                                 s_tt=tt if mi else None, ridge=0.0)
            with pytest.raises(IndefiniteKernelError) as err:
                evaluate(spec, [0, 1, 3])
            assert str(err.value) == (
                "the pool kernel on this set has a non-pivot; increase the ridge")

    def test_target_row_copy_at_ridge_zero(self):
        # a pool row that is also a target row has a conditioned residual of
        # round-off, so no set holding it evaluates, on any seed
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 8))
            pool, target = FeatureMatrix(x), FeatureMatrix(np.vstack([x[2], rng.standard_normal(8)]))
            cfg = KernelConfig()
            spec = ObjectiveSpec("logdetmi", s_uu=build_kernel(pool, pool, cfg),
                                 s_ut=build_kernel(pool, target, cfg),
                                 s_tt=build_kernel(target, target, cfg), ridge=0.0)
            for holding_it in ([2], [0, 2], [3, 2, 5]):
                with pytest.raises(IndefiniteKernelError, match="conditioned kernel"):
                    evaluate(spec, holding_it)
            assert np.isfinite(evaluate(spec, [0, 3, 5]))


class TestSpecValidation:
    def test_missing_kernel(self):
        with pytest.raises(ConfigurationError, match="requires"):
            ObjectiveSpec("fl1mi", s_ut=UT3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSpec("nope", s_uu=UU3)

    def test_negative_eta(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSpec("fl2mi", s_ut=UT, eta=-1.0)

    def test_lambda_range(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSpec("gc", s_uu=UU3, lambda_gc=1.5)


def scalar_naive_greedy(obj, k):
    """Reference naive greedy: one scalar gain per remaining candidate per step."""
    remaining = list(range(obj.n))
    gains = []
    for _ in range(k):
        step = [obj.gain(a) for a in remaining]
        best = max(step)
        winner, g = next((a, g) for a, g in zip(remaining, step) if g >= best - TIE_TOL)
        obj.commit(winner)
        remaining.remove(winner)
        gains.append(g)
    return obj.selected, gains


def with_chunk_edges(test):
    """Add explicit examples of the running-max kinds, whose gains run in
    256-row chunks, at ground sizes on both sides of one and two chunks."""
    for kind, n in itertools.product(("fl", "fl1mi", "fl2mi"), (255, 256, 257, 515)):
        test = example(kind, n, n, 2)(test)
    return test


class TestBatchedGains:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.integers(1, 3))
    @with_chunk_edges
    def test_gains_match_scalar_and_evaluate(self, kind, seed, n, m):
        rng = np.random.default_rng(seed)
        params = dict(eta=rng.uniform(0, 1 if kind == "logdetmi" else 2),
                      gamma=rng.uniform(0, 2), lambda_gc=rng.uniform(0, 1))
        obj = build_objective(random_spec(rng, kind, n=n, m=m, **params))
        # commit a random sequence, asking for batched gains at random steps so
        # that the residuals both fold in one index and catch up on several; at
        # a chunk-edge size, commit four and check every selection
        edge = n > 8
        for a in rng.permutation(n)[: 4 if edge else rng.integers(0, n)]:
            if edge or rng.random() < 0.5:
                self._check_gains(obj)
            obj.commit(int(a))
        self._check_gains(obj)

    @staticmethod
    def _check_gains(obj):
        # every kind writes its gain once, elementwise in the candidate index,
        # so each batched gain runs the scalar gain's arithmetic and is exact
        got = obj.gains()
        base = obj.evaluate(obj.selected)
        assert got.shape == (obj.n,)
        for a in range(obj.n):
            if a in obj.selected:
                assert got[a] == -np.inf
                continue
            assert got[a] == obj.gain(a)
            fresh = obj.evaluate(obj.selected + [a]) - base
            assert got[a] == pytest.approx(fresh, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_naive_greedy_matches_scalar_reference(self, kind):
        # the log-det kinds' scalar gain reads the batched path's residuals, so
        # their reference is the exact gain from the same float kernels and w
        reference = ExactLogDet if "logdet" in kind else build_objective
        rng = np.random.default_rng(KINDS.index(kind))
        for _ in range(10):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n + 1))
            spec = random_spec(rng, kind, n=n)
            obj = build_objective(spec)
            naive_gains, evals = _naive_greedy(obj, k)
            selected, gains = scalar_naive_greedy(reference(spec), k)
            assert obj.selected == selected
            assert naive_gains == pytest.approx(gains, rel=1e-10, abs=1e-10)
            assert evals == sum(n - i for i in range(k))

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_scalar_gain_after_commits_only(self, kind):
        # no gains call in between: each scalar gain folds in the last commit
        rng = np.random.default_rng(53 + KINDS.index(kind))
        for _ in range(15):
            n = int(rng.integers(3, 8))
            uu, ut, tt = random_kernels(rng, n, 2)
            spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if kind == "logdetmi" else None,
                                 s_tt=tt if kind == "logdetmi" else None, ridge=1e-4)
            obj = build_objective(spec)
            order = [int(a) for a in rng.permutation(n)]
            c = int(rng.integers(1, n))
            for a in order[:c]:
                obj.commit(a)
            sel = list(obj.selected)
            ref_base = eval_reference(kind, sel, uu=uu.values, ut=ut.values, tt=tt.values,
                                      eps=spec.ridge)
            assert obj.value == pytest.approx(ref_base, rel=1e-8, abs=1e-8)
            for a in order[c:]:
                g = obj.gain(a)
                assert g == pytest.approx(obj.evaluate(sel + [a]) - obj.evaluate(sel),
                                          rel=1e-8, abs=1e-8)
                ref = eval_reference(kind, sel + [a], uu=uu.values, ut=ut.values,
                                     tt=tt.values, eps=spec.ridge)
                assert g == pytest.approx(ref - ref_base, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_duplicate_rows_at_ridge_zero(self, kind):
        # At ridge 0 a copy of a selected row leaves a residual of round-off,
        # which is not a pivot: on every seed four rows complete without both
        # copies of a row, and a fifth raises, in the library and its reference
        for seed in range(8):
            uu, ut, tt = duplicate_row_kernels(seed)
            spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if kind == "logdetmi" else None,
                                 s_tt=tt if kind == "logdetmi" else None, ridge=0.0)
            for k in (3, 4):
                obj = build_objective(spec)
                gains, _ = _naive_greedy(obj, k)
                selected, ref_gains = scalar_naive_greedy(SolveLogDet(spec), k)
                assert obj.selected == selected, (seed, k)
                assert gains == pytest.approx(ref_gains, rel=1e-10, abs=1e-10)
                assert np.all(np.isfinite(gains))
                assert not {0, 1} <= set(selected) and not {2, 4} <= set(selected)
            for k in (5, 6):
                with pytest.raises(IndefiniteKernelError, match="rank reached is 4;"):
                    _naive_greedy(build_objective(spec), k)
                with pytest.raises(IndefiniteKernelError, match="not a pivot"):
                    scalar_naive_greedy(SolveLogDet(spec), k)

    def test_target_row_copy_at_ridge_zero(self):
        # Row 2 is also a target row, so at ridge 0 its conditioned residual is
        # round-off, 0 or a few 1e-16: measured against the pool diagonal it
        # is never a pivot, whatever its sign or size, and three other rows
        # complete in the library and its reference alike
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 8))
            pool = FeatureMatrix(x)
            target = FeatureMatrix(np.vstack([x[2], rng.standard_normal(8)]))
            cfg = KernelConfig()
            spec = ObjectiveSpec("logdetmi", s_uu=build_kernel(pool, pool, cfg),
                                 s_ut=build_kernel(pool, target, cfg),
                                 s_tt=build_kernel(target, target, cfg), ridge=0.0)
            obj = build_objective(spec)
            gains, _ = _naive_greedy(obj, 3)
            selected, ref_gains = scalar_naive_greedy(SolveLogDet(spec), 3)
            assert obj.selected == selected and 2 not in selected, seed
            assert gains == pytest.approx(ref_gains, rel=1e-10, abs=1e-10)
            assert max(gains) < 10

    def test_non_pivot_commit_raises(self):
        # committing an index whose residual is at most PIVOT_TOL times its
        # diagonal is a typed error that names the kernel, and folds nothing in
        singular = SimilarityKernel(np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]]), symmetric=True)
        obj = build_objective(ObjectiveSpec("logdet", s_uu=singular, ridge=0.0))
        obj.commit(0)
        with pytest.raises(IndefiniteKernelError, match="index 1 is not a pivot of the pool kernel"):
            obj.commit(1)
        assert obj.selected == [0] and obj.residuals[0].t == 1
        # a library caller committing a copy of a selected row directly
        uu, ut, tt = duplicate_row_kernels(0)
        obj = build_objective(ObjectiveSpec("logdetmi", s_uu=uu, s_ut=ut, s_tt=tt, ridge=0.0))
        obj.commit(0)
        with pytest.raises(IndefiniteKernelError, match="not a pivot of the pool kernel"):
            obj.commit(1)
        assert obj.selected == [0] and [r.t for r in obj.residuals] == [1, 1]

    def test_conditioned_non_pivot_commit_raises_and_changes_nothing(self):
        # Row 2 is also a target row, so at ridge 0 it is a pivot of the pool
        # kernel but not of the conditioned one: a commit of it raises before
        # either kernel folds it in, and the objective reads on as before
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 8))
            pool = FeatureMatrix(x)
            target = FeatureMatrix(np.vstack([x[2], rng.standard_normal(8)]))
            cfg = KernelConfig()
            obj = build_objective(ObjectiveSpec(
                "logdetmi", s_uu=build_kernel(pool, pool, cfg), s_ut=build_kernel(pool, target, cfg),
                s_tt=build_kernel(target, target, cfg), ridge=0.0))
            with pytest.raises(IndefiniteKernelError,
                               match="index 2 is not a pivot of the conditioned kernel"):
                obj.commit(2)
            assert obj.selected == [] and [r.t for r in obj.residuals] == [0, 0], seed
            gains = obj.gains()
            assert gains[2] == -np.inf and np.isfinite(np.delete(gains, 2)).all(), seed

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_refused_commit_changes_nothing(self, kind):
        # At ridge 0 rows 1 and 4 copy rows 0 and 2, so once those are selected
        # the copies have gain -inf: committing one directly raises, names its
        # kernel, and leaves the selection, the value and every residual as
        # they were, so greedy goes on as for an objective that never saw it
        mi = kind == "logdetmi"
        for seed in range(8):
            uu, ut, tt = duplicate_row_kernels(seed)
            spec = ObjectiveSpec(kind, s_uu=uu, s_ut=ut if mi else None,
                                 s_tt=tt if mi else None, ridge=0.0)
            obj, fresh = build_objective(spec), build_objective(spec)
            for a in (0, 2):
                obj.commit(a)
                fresh.commit(a)
            gains = obj.gains()
            assert list(np.flatnonzero(gains == -np.inf)) == [0, 1, 2, 4], seed
            for a in (1, 4):
                state = (list(obj.selected), obj.value, [r.t for r in obj.residuals],
                         [r.d.tobytes() for r in obj.residuals])
                with pytest.raises(IndefiniteKernelError,
                                   match=f"^index {a} is not a pivot of the pool kernel;"):
                    obj.commit(a)
                assert (list(obj.selected), obj.value, [r.t for r in obj.residuals],
                        [r.d.tobytes() for r in obj.residuals]) == state, (seed, a)
            assert _naive_greedy(obj, 2) == _naive_greedy(fresh, 2), seed
            assert obj.selected == fresh.selected and obj.value == fresh.value, seed

    def test_residual_rows_beyond_memory_limit_raise(self, monkeypatch):
        # E grows from 8 rows by doubling, at most n: 8, 16, then all 20 (not 32), each row
        # padded to 64 columns
        n = 20
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 16 * 64)  # 16 rows, not 20
        res = CholeskyResiduals(np.ones(n), "test kernel", PIVOT_TOL * np.ones(n))
        for j in range(16):
            res.fold(j, np.eye(n)[j])
            assert res.rows.shape == (8 if j < 8 else 16, 64)
        with pytest.raises(SizeError,
                           match="a 20 x 64 block of Schur residual rows needs 10240 bytes"):
            res.fold(16, np.eye(n)[16])
        assert res.t == 16


class TestTargetSolve:
    """LogDetMI.w, forward substitution on the ridged target factor, against
    scipy's triangular solve and against its own system."""

    @staticmethod
    def _check(spec):
        w = build_objective(spec).w
        b = spec.s_ut.values.T
        l_q = cholesky_or_raise(spec.s_tt.values + spec.ridge * np.eye(len(b)), "target kernel")
        assert np.abs(w - solve_triangular(l_q, b, lower=True)).max() <= 1e-13 * np.abs(w).max()
        # the backward error of forward substitution: m ulps of |L| |w| per entry
        bound = len(b) * np.finfo(float).eps * (np.abs(l_q) @ np.abs(w))
        assert np.all(np.abs(l_q @ w - b) <= bound)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_spec(self, seed):
        rng = np.random.default_rng(seed)
        self._check(random_spec(rng, "logdetmi", n=int(rng.integers(3, 9)),
                                m=int(rng.integers(1, 7))))

    def test_protocol_seed(self):
        # the spec that select_indices builds for logdetmi at protocol seed 0
        cfg = harness.ExperimentConfig()
        data = harness.synthetic_generate(cfg, 0)
        base = harness.train_softmax(data.train, cfg)
        kernels = harness.KernelCache(harness.gradient_embeddings(base, data.lake.x),
                                      harness.gradient_embeddings(base, data.target.x,
                                                                  data.target.y))
        self._check(ObjectiveSpec("logdetmi", s_uu=kernels.get("uu"), s_ut=kernels.get("ut"),
                                  s_tt=kernels.get("tt"), eta=cfg.eta, ridge=cfg.ridge))


class TestExactLogDet:
    """The exact log-det reference, checked where its answer is known."""

    @staticmethod
    def _spec(kind, uu, ut, tt, **kw):
        return ObjectiveSpec(kind, s_uu=uu, s_ut=ut if kind == "logdetmi" else None,
                             s_tt=tt if kind == "logdetmi" else None, **kw)

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_duplicate_row_copy_is_not_a_pivot(self, kind):
        # at ridge 0 the copy of a selected row has an exact residual of 0 where
        # the float kernel holds both rows bit for bit, and of a few ulps where
        # rounding set them apart: its gain is -inf either way
        exact_copies = 0
        for seed in range(8):
            uu, ut, tt = duplicate_row_kernels(seed)
            spec = self._spec(kind, uu, ut, tt, ridge=0.0)
            for a, copy in ((0, 1), (1, 0), (2, 4), (4, 2)):
                ref = ExactLogDet(spec)
                ref.commit(a)
                assert ref.gain(copy) == -np.inf, (seed, a)
                if np.array_equal(uu.values[a], uu.values[copy]):
                    exact_copies += 1
                    assert ref.residuals(copy)[1] == [0] * len(ref.kernels)
                with pytest.raises(IndefiniteKernelError, match="not a pivot"):
                    ref.commit(copy)
        assert exact_copies > 0

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_gains_match_eval_reference(self, kind):
        # at the default ridge every gain is the difference of two cofactor
        # evaluations, along a random commit order
        rng = np.random.default_rng(71 + KINDS.index(kind))
        for _ in range(4):
            n = int(rng.integers(3, 6))
            uu, ut, tt = random_kernels(rng, n, 2)
            spec = self._spec(kind, uu, ut, tt)
            ref = ExactLogDet(spec)

            def value(idx):
                return eval_reference(kind, idx, uu=uu.values, ut=ut.values, tt=tt.values,
                                      eta=spec.eta, eps=spec.ridge)

            for a in rng.permutation(n).tolist():
                expected = value(ref.selected + [a]) - value(ref.selected)
                assert ref.gain(a) == pytest.approx(expected, rel=1e-9, abs=1e-9)
                ref.commit(a)
            assert ref.value == pytest.approx(value(ref.selected), rel=1e-9, abs=1e-9)


class TestKernelRowsObjectives:
    """The kinds in ROW_KINDS read the pool kernel only by row, diagonal and block, so the
    pool kernel served by rows (kernel.KernelRows) must give the built kernel's selections,
    gains within TIE_TOL, and from-scratch values that match the reference formulas."""

    @staticmethod
    def pool_and_target(seed, n, d):
        rng = np.random.default_rng(seed)
        return (FeatureMatrix(rng.standard_normal((n, d))),
                FeatureMatrix(rng.standard_normal((4, d))))

    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    @pytest.mark.parametrize("budget,side", [(10, "rows"), (11, "uu")])
    def test_select_indices_matches_built_kernel(self, kind, budget, side):
        # 30 rows of width 3 * ROWS_WIDTH: rows pay up to budget 10, the built kernel above
        params = dict(eta=1.0, gamma=0.7, lambda_gc=0.5, ridge=1e-6)
        cfg = types.SimpleNamespace(budget=budget, **params)
        for seed in range(5):
            pool, target = self.pool_and_target(seed, 30, 3 * kernel.ROWS_WIDTH)
            kernels = harness.KernelCache(pool, target)
            got = harness.select_indices(kind, cfg, pool, target, None, seed, kernels)
            assert ("uu" in kernels._built) == (side == "uu")
            full = greedy_maximize(ObjectiveSpec(kind, **{
                f"s_{name}": build_kernel(*{"uu": (pool, pool), "ut": (pool, target),
                                            "tt": (target, target)}[name])
                for name in _needs(kind)}, **params), budget)
            assert got.selected == full.selected, (kind, seed)
            assert max(abs(a - b) for a, b in zip(got.gains, full.gains)) <= TIE_TOL
            assert got.total_value == pytest.approx(full.total_value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    def test_evaluate_on_rows_matches_reference(self, kind):
        rng = np.random.default_rng(11)
        for seed in range(6):
            pool, target = self.pool_and_target(seed, 8, 6)
            uu, ut, tt = (build_kernel(a, b) for a, b in
                          ((pool, pool), (pool, target), (target, target)))
            spec = ObjectiveSpec(kind, s_uu=kernel.KernelRows(pool),
                                 s_ut=ut if "ut" in _needs(kind) else None,
                                 s_tt=tt if "tt" in _needs(kind) else None,
                                 gamma=0.7, ridge=1e-3)
            subset = list(rng.permutation(8)[:int(rng.integers(1, 6))])
            want = eval_reference(kind, subset, uu=uu.values, ut=ut.values, tt=tt.values,
                                  gamma=0.7, eps=1e-3)
            assert evaluate(spec, subset) == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("kind", sorted(set(KINDS) - ROW_KINDS - {"gcmi", "fl2mi"}))
    def test_whole_kernel_kinds_reject_rows(self, kind):
        pool, target = self.pool_and_target(0, 5, 3)
        with pytest.raises(ConfigurationError, match="reads the whole pool kernel"):
            ObjectiveSpec(kind, s_uu=kernel.KernelRows(pool), s_ut=build_kernel(pool, target))
