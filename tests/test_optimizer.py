import gc
import weakref
import zlib

import numpy as np
import pytest

from oracles import SolveLogDet, exhaustive_maximize, random_kernels
from targetsel.datastore import FeatureMatrix
from targetsel.errors import ConfigurationError, IndefiniteKernelError, SizeError
from targetsel.kernel import KernelConfig, SimilarityKernel, build_kernel
from targetsel.objectives import (
    KERNEL_REQUIREMENTS,
    KINDS,
    SUBMODULAR_KINDS,
    Objective,
    ObjectiveSpec,
    build_objective,
)
from targetsel.optimizer import LAZY_BLOCK, _lazy_greedy, _naive_greedy, greedy_maximize


def random_spec(rng, kind, n=8, m=3):
    uu, ut, tt = random_kernels(rng, n, m)
    need = KERNEL_REQUIREMENTS[kind]
    return ObjectiveSpec(
        kind,
        s_uu=uu if "uu" in need else None,
        s_ut=ut if "ut" in need else None,
        s_tt=tt if "tt" in need else None,
        ridge=1e-6,
    )


class TestGreedyExamples:
    def test_gcmi_top_k_by_row_sum(self):
        ut = SimilarityKernel(np.array([[0.7], [0.5], [0.9]]))
        spec = ObjectiveSpec("gcmi", s_ut=ut)
        res = greedy_maximize(spec, 2)
        assert res.selected == [2, 0]
        assert res.gains == pytest.approx([1.8, 1.4])
        assert res.total_value == pytest.approx(3.2)

    def test_zero_budget(self):
        ut = SimilarityKernel(np.array([[0.7], [0.5]]))
        res = greedy_maximize(ObjectiveSpec("gcmi", s_ut=ut), 0)
        assert res.selected == [] and res.total_value == 0.0

    def test_all_equal_ties_lowest_index(self):
        uu = SimilarityKernel(np.full((4, 4), 1.0), symmetric=True)
        res = greedy_maximize(ObjectiveSpec("fl", s_uu=uu), 2)
        assert res.selected == [0, 1]

    def test_negative_budget_is_config_error(self):
        ut = SimilarityKernel(np.array([[0.7], [0.5]]))
        with pytest.raises(ConfigurationError, match="budget must be nonnegative"):
            greedy_maximize(ObjectiveSpec("gcmi", s_ut=ut), -1)

    def test_budget_above_ground_set_truncates(self):
        # fl2mi runs lazy greedy and gcmi_div, which is not lazy_safe, naive
        ut = SimilarityKernel(np.array([[0.7], [0.5]]))
        uu = SimilarityKernel(np.array([[1.0, 0.2], [0.2, 1.0]]), symmetric=True)
        for spec in (ObjectiveSpec("fl2mi", s_ut=ut), ObjectiveSpec("gcmi_div", s_uu=uu, s_ut=ut)):
            res = greedy_maximize(spec, 5)
            assert sorted(res.selected) == [0, 1]
            assert res.truncated, spec.kind

    def test_negative_gains_still_fill_budget(self):
        uu = SimilarityKernel(np.full((3, 3), 1.0), symmetric=True)
        spec = ObjectiveSpec("gc", s_uu=uu, lambda_gc=0.5)
        res = greedy_maximize(spec, 3)
        assert len(res.selected) == 3


class TestLazyNaiveIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_lazy_safe_chooses_loop(self, kind):
        # lazy greedy runs exactly when stale bounds are sound for the
        # objective and save it work: for fl, fl1mi and fl2mi
        spec = random_spec(np.random.default_rng(37), kind)
        obj = build_objective(spec)
        lazy = obj.lazy_safe and obj.lazy_pays
        assert lazy == (kind in ("fl", "fl1mi", "fl2mi"))
        state, gains, evals = (_lazy_greedy if lazy else _naive_greedy)(obj, 4)
        res = greedy_maximize(spec, 4)
        assert (res.selected, res.gains, res.evaluations) == (state.selected, gains, evals)

    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_selections(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(25):
            spec = random_spec(rng, kind, n=int(rng.integers(4, 10)))
            k = int(rng.integers(1, 5))
            state, naive_gains, naive_evals = _naive_greedy(build_objective(spec), k)
            obj = build_objective(spec)
            # stale bounds are unsound where the kind is not lazy_safe
            lazy, lazy_gains, lazy_evals = (_lazy_greedy if obj.lazy_safe else _naive_greedy)(obj, k)
            assert state.selected == lazy.selected
            assert naive_gains == pytest.approx(lazy_gains, abs=1e-12)
            assert lazy_evals <= naive_evals

    def test_lazy_identity_under_exact_ties(self):
        uu = SimilarityKernel(np.full((6, 6), 1.0), symmetric=True)
        for kind in ("fl", "gc"):
            spec = ObjectiveSpec(kind, s_uu=uu)
            state, _, _ = _naive_greedy(build_objective(spec), 3)
            assert state.selected == _lazy_greedy(build_objective(spec), 3)[0].selected


class TestLazyBlocks:
    """Lazy greedy re-scores up to LAZY_BLOCK stale bounds per gains_at call.
    Ground sets of 128 and more hold several blocks, so these instances
    separate the block path from naive greedy, which the n <= 10 ones cannot."""

    @pytest.mark.parametrize("kind", sorted(SUBMODULAR_KINDS))
    def test_large_instances_match_naive(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
        for n in (4 * LAZY_BLOCK, 4 * LAZY_BLOCK + 5, 300):
            spec = random_spec(rng, kind, n=n, m=5)
            obj = build_objective(spec)
            blocks = []
            gains_at = obj.gains_at
            obj.gains_at = lambda state, idx: blocks.append(len(idx)) or gains_at(state, idx)
            lazy, lazy_gains, lazy_evals = _lazy_greedy(obj, 12)
            naive, naive_gains, naive_evals = _naive_greedy(build_objective(spec), 12)
            assert lazy.selected == naive.selected
            assert lazy_gains == naive_gains and lazy.value == naive.value
            assert lazy_evals <= naive_evals
            assert max(blocks) == LAZY_BLOCK, blocks

    @pytest.mark.parametrize("kind", sorted(SUBMODULAR_KINDS))
    def test_all_equal_kernels(self, kind):
        # every gain ties at every step, so both loops take the lowest index
        n = 4 * LAZY_BLOCK + 3
        need = KERNEL_REQUIREMENTS[kind]
        spec = ObjectiveSpec(
            kind,
            s_uu=SimilarityKernel(np.ones((n, n)), symmetric=True) if "uu" in need else None,
            s_ut=SimilarityKernel(np.ones((n, 4))) if "ut" in need else None,
        )
        lazy, lazy_gains, _ = _lazy_greedy(build_objective(spec), 10)
        naive, naive_gains, _ = _naive_greedy(build_objective(spec), 10)
        assert lazy.selected == naive.selected
        assert lazy_gains == naive_gains
        assert lazy.selected == list(range(10))

    # logdet's residuals go through one BLAS product per commit, over rows
    # padded to a multiple of PAD_COLUMNS, so no column is rounded apart
    @pytest.mark.parametrize("n", (128, 131, 300, 2000))
    @pytest.mark.parametrize("loop", (_lazy_greedy, _naive_greedy), ids=("lazy", "naive"))
    def test_logdet_all_equal_order(self, n, loop):
        spec = ObjectiveSpec("logdet", s_uu=SimilarityKernel(np.ones((n, n)), symmetric=True))
        state, _, _ = loop(build_objective(spec), 10)
        assert state.selected == list(range(10))


class TestLazyLogDetScalarPath:
    """Lazy logdet reads its scalar gains from the Cholesky residuals; the
    solve-based scalar gain they replaced is the reference."""

    def test_matches_solve_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, n + 1))
            self.assert_matches(random_spec(rng, "logdet", n=n), k)
        for n in (4 * LAZY_BLOCK, 150):  # several LAZY_BLOCK blocks per re-score
            self.assert_matches(random_spec(rng, "logdet", n=n), 8)

    @staticmethod
    def assert_matches(spec, k):
        res, res_gains, res_evals = _lazy_greedy(build_objective(spec), k)
        state, gains, evals = _lazy_greedy(SolveLogDet(spec), k)
        assert res.selected == state.selected
        assert res_evals == evals
        assert res_gains == pytest.approx(gains, rel=1e-10, abs=1e-10)

    def test_duplicate_rows_at_ridge_zero(self, monkeypatch):
        # At ridge 0 duplicate pool rows leave residuals at or near zero, so
        # lazy scalar gains reach the from-scratch fallback; they must end as
        # the batched naive path does: the same selection or the same error.
        fallbacks = []
        evaluate_once = Objective.evaluate

        def counted(obj, indices):
            fallbacks.append(indices)
            return evaluate_once(obj, indices)

        def outcome(run):
            try:
                return run()
            except IndefiniteKernelError as exc:
                return type(exc)

        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((6, 8))
            x[1], x[4] = x[0], x[2]
            pool = FeatureMatrix(x)
            spec = ObjectiveSpec("logdet", s_uu=build_kernel(pool, pool, KernelConfig()),
                                 ridge=0.0)
            for k in range(3, 7):
                with monkeypatch.context() as patch:
                    patch.setattr(Objective, "evaluate", counted)
                    lazy = outcome(lambda: _lazy_greedy(build_objective(spec), k)[0].selected)
                naive = outcome(lambda: _naive_greedy(build_objective(spec), k)[0].selected)
                assert lazy == naive, (seed, k)
        assert fallbacks


class TestResultInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    def test_total_is_sum_of_gains(self, kind):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, kind)
        res = greedy_maximize(spec, 4)
        assert res.total_value == pytest.approx(sum(res.gains), rel=1e-8, abs=1e-8)
        assert len(set(res.selected)) == len(res.selected) == 4

    @pytest.mark.parametrize("kind", sorted(SUBMODULAR_KINDS))
    def test_greedy_gains_non_increasing(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_spec(rng, kind)
            res = greedy_maximize(spec, 5)
            diffs = np.diff(res.gains)
            assert np.all(diffs <= 1e-9), kind

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernels_freed_without_cycle_collector(self, kind):
        # a selection leaves no reference cycle holding its kernels, so a
        # caller that drops them frees them at once, not at the next gc pass
        spec = random_spec(np.random.default_rng(3), kind)
        kernels = [weakref.ref(k) for k in (spec.s_uu, spec.s_ut, spec.s_tt) if k is not None]
        gc.disable()
        try:
            _naive_greedy(build_objective(spec), 4)
            greedy_maximize(spec, 4)
            del spec
            assert all(k() is None for k in kernels)
        finally:
            gc.enable()

    def test_determinism(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng, "fl1mi")
        a = greedy_maximize(spec, 3)
        b = greedy_maximize(spec, 3)
        assert a.selected == b.selected and a.gains == b.gains
        assert a.total_value == b.total_value


class TestExhaustive:
    def test_modular_matches_greedy(self):
        rng = np.random.default_rng(19)
        spec = random_spec(rng, "gcmi", n=7)
        greedy = greedy_maximize(spec, 3)
        oracle = exhaustive_maximize(spec, 3)
        assert sorted(greedy.selected) == sorted(oracle.selected)

    def test_full_budget_selects_everything_monotone(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, "fl", n=5)
        oracle = exhaustive_maximize(spec, 5)
        assert sorted(oracle.selected) == [0, 1, 2, 3, 4]

    def test_approximation_bound_fl(self):
        rng = np.random.default_rng(29)
        bound = 1.0 - 1.0 / np.e
        for _ in range(20):
            spec = random_spec(rng, "fl", n=8)
            greedy = greedy_maximize(spec, 3)
            oracle = exhaustive_maximize(spec, 3)
            assert greedy.total_value >= bound * oracle.total_value - 1e-9

    def test_size_limit(self):
        rng = np.random.default_rng(31)
        uu, _, _ = random_kernels(rng, 60, 2)
        spec = ObjectiveSpec("fl", s_uu=uu)
        with pytest.raises(SizeError):
            exhaustive_maximize(spec, 12)

    def test_lexicographic_tie_break(self):
        uu = SimilarityKernel(np.full((4, 4), 1.0), symmetric=True)
        oracle = exhaustive_maximize(ObjectiveSpec("fl", s_uu=uu), 2)
        # every singleton scores 4.0 and nothing improves on it
        assert oracle.selected == [0]
        assert oracle.total_value == pytest.approx(4.0)
