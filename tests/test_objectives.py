import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_reference, random_kernels
from targetsel.datastore import FeatureMatrix
from targetsel.errors import ConfigurationError, IndefiniteKernelError, TargetselError
from targetsel.kernel import KernelConfig, SimilarityKernel, build_kernel
from targetsel.objectives import (
    KINDS,
    CholeskyResiduals,
    Objective,
    ObjectiveSpec,
    build_objective,
    commit,
    evaluate,
    marginal_gain,
)
from targetsel.optimizer import TIE_TOL, SelectionConfig, greedy_maximize

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
        assert obj.gain(obj.new_state(), 1) == pytest.approx(1.0)

    def test_fl2mi_incremental(self):
        s = spec_for("fl2mi")
        obj = build_objective(s)
        state = obj.new_state()
        obj.commit(state, 0)
        assert obj.gain(state, 1) == pytest.approx(0.6)

    def test_dsum_incremental(self):
        s = spec_for("dsum")
        obj = build_objective(s)
        state = obj.new_state()
        obj.commit(state, 0)
        assert obj.gain(state, 1) == pytest.approx(0.9)

    def test_duplicate_and_bounds_errors(self):
        obj = build_objective(spec_for("fl"))
        state = obj.new_state()
        obj.commit(state, 0)
        with pytest.raises(ValueError, match="already selected"):
            obj.gain(state, 0)
        with pytest.raises(IndexError):
            obj.gain(state, 5)

    def test_gain_matches_eval_difference(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            s = random_spec(rng, kind)
            obj = build_objective(s)
            state = obj.new_state()
            for a in (2, 0, 4):
                g = obj.gain(state, a)
                expect = obj.evaluate(state.selected + [a]) - obj.evaluate(state.selected)
                assert g == pytest.approx(expect, abs=1e-8, rel=1e-8), kind
                obj.commit(state, a)


class TestCommit:
    def test_fl_running_max_cache(self):
        obj = build_objective(spec_for("fl"))
        state = obj.new_state()
        obj.commit(state, 0)
        np.testing.assert_allclose(state.aux["cur"], [1.0, 0.1, 0.1])

    def test_commit_order_does_not_change_value(self):
        rng = np.random.default_rng(11)
        for kind in KINDS:
            s = random_spec(rng, kind)
            obj = build_objective(s)
            s1, s2 = obj.new_state(), obj.new_state()
            obj.commit(s1, 1)
            obj.commit(s1, 3)
            obj.commit(s2, 3)
            obj.commit(s2, 1)
            assert s1.value == pytest.approx(s2.value, rel=1e-10, abs=1e-10), kind

    def test_cache_consistency_random_sequences(self):
        rng = np.random.default_rng(19)
        for kind in KINDS:
            tol = 1e-8 if "logdet" in kind else 1e-10
            for _ in range(20):
                s = random_spec(rng, kind, n=7)
                obj = build_objective(s)
                state = obj.new_state()
                for a in rng.permutation(7)[: rng.integers(1, 6)]:
                    obj.commit(state, int(a))
                    scratch = obj.evaluate(state.selected)
                    assert state.value == pytest.approx(scratch, rel=tol, abs=tol), kind


class TestAgainstBruteForce:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_instances(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
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

    def test_module_level_helpers(self):
        s = spec_for("fl")
        state = commit(s, build_objective(s).new_state(), 0)
        assert marginal_gain(s, state, 1) == pytest.approx(
            evaluate(s, [0, 1]) - evaluate(s, [0]), abs=1e-10
        )


def scalar_naive_greedy(obj, k):
    """Reference naive greedy: one scalar gain per remaining candidate per step."""
    state = obj.new_state()
    remaining = list(range(obj.n))
    gains = []
    for _ in range(k):
        step = [obj.gain(state, a) for a in remaining]
        best = max(step)
        winner, g = next((a, g) for a, g in zip(remaining, step) if g >= best - TIE_TOL)
        obj.commit(state, winner)
        remaining.remove(winner)
        gains.append(g)
    return state.selected, gains


def outcome(run):
    """A run's result, or the type of the toolkit error it raised."""
    try:
        return run()
    except TargetselError as exc:
        return type(exc)


# gcmi_div and dsum vectorize the scalar arithmetic elementwise, and the other
# non-log-det kinds loop over the scalar gain, so their batched gains are
# exact; logdet and logdetmi reach the same residuals by another route.
BATCHED_TOL = {"logdet": 1e-8, "logdetmi": 1e-8}


class TestBatchedGains:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.integers(1, 3))
    def test_gains_match_scalar_and_evaluate(self, kind, seed, n, m):
        rng = np.random.default_rng(seed)
        params = dict(eta=rng.uniform(0, 1 if kind == "logdetmi" else 2),
                      gamma=rng.uniform(0, 2), lambda_gc=rng.uniform(0, 1))
        obj = build_objective(random_spec(rng, kind, n=n, m=m, **params))
        tol = BATCHED_TOL.get(kind, 0.0)
        state = obj.new_state()
        # commit a random sequence, asking for batched gains at random steps so
        # that the residual state both folds in one index and catches up on several
        for a in rng.permutation(n)[: rng.integers(0, n)]:
            if rng.random() < 0.5:
                self._check_state(obj, state, tol)
            obj.commit(state, int(a))
        self._check_state(obj, state, tol)

    @staticmethod
    def _check_state(obj, state, tol):
        got = obj.gains(state)
        base = obj.evaluate(state.selected)
        assert got.shape == (obj.n,)
        for a in range(obj.n):
            if a in state.selected:
                assert got[a] == -np.inf
                continue
            scalar = obj.gain(state, a)
            if tol:
                assert got[a] == pytest.approx(scalar, rel=tol, abs=tol)
            else:
                assert got[a] == scalar
            fresh = obj.evaluate(state.selected + [a]) - base
            assert got[a] == pytest.approx(fresh, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_naive_greedy_matches_scalar_reference(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for _ in range(10):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n + 1))
            spec = random_spec(rng, kind, n=n)
            res = greedy_maximize(spec, SelectionConfig(budget=k, algorithm="naive"))
            selected, gains = scalar_naive_greedy(build_objective(spec), k)
            assert res.selected == selected
            assert res.gains == pytest.approx(gains, rel=1e-10, abs=1e-10)
            assert res.evaluations == sum(n - i for i in range(k))

    @pytest.mark.parametrize("kind", ["logdet", "logdetmi"])
    def test_duplicate_rows_at_ridge_zero(self, kind, monkeypatch):
        # Duplicate pool rows make the kernels singular at ridge 0, so
        # residuals reach d <= 0 and the scalar fallback, which re-evaluates
        # from scratch, decides: both paths agree on the selection or the error.
        fallbacks = []
        evaluate_once = Objective.evaluate

        def counted(obj, indices):
            fallbacks.append(indices)
            return evaluate_once(obj, indices)

        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 8))
            x[1], x[4] = x[0], x[2]
            pool, target = FeatureMatrix(x), FeatureMatrix(rng.standard_normal((2, 8)))
            spec = ObjectiveSpec(
                kind, s_uu=build_kernel(pool, pool, KernelConfig()),
                s_ut=build_kernel(pool, target, KernelConfig()) if kind == "logdetmi" else None,
                s_tt=build_kernel(target, target, KernelConfig()) if kind == "logdetmi" else None,
                ridge=0.0,
            )
            for k in range(3, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(Objective, "evaluate", counted)
                    batched = outcome(lambda: greedy_maximize(
                        spec, SelectionConfig(budget=k, algorithm="naive")).selected)
                scalar = outcome(lambda: scalar_naive_greedy(build_objective(spec), k)[0])
                assert batched == scalar, (seed, k)
        assert fallbacks

    def test_nonpositive_pivot_refactorizes(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((6, 4))
        kernel = x @ x.T + 0.1 * np.eye(6)
        res = CholeskyResiduals(lambda j: kernel[j].copy(), kernel.diagonal(), "test kernel")
        res.sync([0])
        res.d[3] = 0.0  # as if round-off had taken the pivot's residual to zero
        d = res.sync([0, 3])
        a = [0, 3]
        exact = kernel.diagonal() - np.einsum(
            "ij,ij->j", kernel[a], np.linalg.solve(kernel[np.ix_(a, a)], kernel[a]))
        np.testing.assert_allclose(d, exact, atol=1e-12)
        # a committed block that is not positive definite is a typed error
        singular = np.ones((3, 3))
        res = CholeskyResiduals(lambda j: singular[j].copy(), singular.diagonal(), "test kernel")
        res.sync([0])
        with pytest.raises(IndefiniteKernelError, match="test kernel"):
            res.sync([0, 1])
