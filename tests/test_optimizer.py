import gc
import weakref
import zlib

import numpy as np
import pytest

from oracles import SolveLogDet, duplicate_row_kernels, exhaustive_maximize, random_kernels
from targetsel.errors import ConfigurationError, IndefiniteKernelError, SizeError
from targetsel.kernel import KernelConfig, SimilarityKernel
from targetsel.objectives import (
    KERNEL_REQUIREMENTS,
    KINDS,
    SUBMODULAR_KINDS,
    Objective,
    ObjectiveSpec,
    build_objective,
)
from targetsel.optimizer import (
    LAZY_BLOCK,
    TIE_TOL,
    _lazy_greedy,
    _naive_greedy,
    _stale_block,
    greedy_maximize,
)


def count_blocks(obj):
    """The lengths of the index arrays that lazy greedy passes to obj.gains_at,
    as a list that grows while obj selects; gains and commits pass slices and ints."""
    blocks = []
    gains_at = obj.gains_at

    def counted(idx):
        if isinstance(idx, np.ndarray):
            blocks.append(len(idx))
        return gains_at(idx)

    obj.gains_at = counted
    return blocks


def random_spec(rng, kind, n=8, m=3, cfg=KernelConfig()):
    uu, ut, tt = random_kernels(rng, n, m, cfg=cfg)
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
        gains, evals = (_lazy_greedy if lazy else _naive_greedy)(obj, 4)
        res = greedy_maximize(spec, 4)
        assert (res.selected, res.gains, res.evaluations) == (obj.selected, gains, evals)

    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_selections(self, kind):
        # Signed kernels (no transform, or the dot metric) give fl, fl1mi and fl2mi a first
        # gain below later ones, so they are not lazy_safe there; lazy greedy re-scores every
        # stale bound of a ground set within one block, so those ground sets are larger.
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        signed = (LAZY_BLOCK + 1, 2 * LAZY_BLOCK)
        for cfg, sizes in ((KernelConfig(), (4, 10)), (KernelConfig(transform="none"), signed),
                           (KernelConfig("dot", "none"), signed)):
            for _ in range(25):
                spec = random_spec(rng, kind, n=int(rng.integers(*sizes)), cfg=cfg)
                k = int(rng.integers(1, 5))
                naive = build_objective(spec)
                naive_gains, naive_evals = _naive_greedy(naive, k)
                lazy = build_objective(spec)
                # stale bounds are unsound where the instance is not lazy_safe
                loop = _lazy_greedy if lazy.lazy_safe else _naive_greedy
                lazy_gains, lazy_evals = loop(lazy, k)
                res = greedy_maximize(spec, k)
                assert naive.selected == lazy.selected == res.selected
                assert naive_gains == pytest.approx(lazy_gains, abs=1e-12)
                assert naive_gains == pytest.approx(res.gains, abs=1e-12)
                assert max(lazy_evals, res.evaluations) <= naive_evals

    def test_lazy_identity_under_exact_ties(self):
        uu = SimilarityKernel(np.full((6, 6), 1.0), symmetric=True)
        for kind in ("fl", "gc"):
            spec = ObjectiveSpec(kind, s_uu=uu)
            naive, lazy = build_objective(spec), build_objective(spec)
            _naive_greedy(naive, 3)
            _lazy_greedy(lazy, 3)
            assert naive.selected == lazy.selected


class TestLazyBlocks:
    """Lazy greedy re-scores up to LAZY_BLOCK stale bounds per gains_at call.
    Ground sets of 128 and more hold several blocks, so these instances
    separate the block path from naive greedy, which the n <= 10 ones cannot."""

    @pytest.mark.parametrize("kind", sorted(SUBMODULAR_KINDS))
    def test_large_instances_match_naive(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
        for n in (4 * LAZY_BLOCK, 4 * LAZY_BLOCK + 5, 300):
            spec = random_spec(rng, kind, n=n, m=5)
            lazy, naive = build_objective(spec), build_objective(spec)
            blocks = count_blocks(lazy)
            lazy_gains, lazy_evals = _lazy_greedy(lazy, 12)
            naive_gains, naive_evals = _naive_greedy(naive, 12)
            assert lazy.selected == naive.selected
            assert lazy_gains == naive_gains and lazy.value == naive.value
            assert lazy_evals <= naive_evals
            assert max(blocks) == LAZY_BLOCK, blocks

    @pytest.mark.parametrize("kind", sorted(SUBMODULAR_KINDS))
    def test_all_equal_kernels(self, kind, monkeypatch):
        # every gain ties at every step (a plateau), so both loops take the
        # lowest index; lazy greedy re-scores in blocks of at most LAZY_BLOCK
        # and never calls the scalar Objective.gain
        scalar = []
        monkeypatch.setattr(Objective, "gain", lambda self, a: scalar.append(a))
        n = 4 * LAZY_BLOCK + 3
        need = KERNEL_REQUIREMENTS[kind]
        spec = ObjectiveSpec(
            kind,
            s_uu=SimilarityKernel(np.ones((n, n)), symmetric=True) if "uu" in need else None,
            s_ut=SimilarityKernel(np.ones((n, 4))) if "ut" in need else None,
        )
        lazy, naive = build_objective(spec), build_objective(spec)
        blocks = count_blocks(lazy)
        lazy_gains, lazy_evals = _lazy_greedy(lazy, 10)
        naive_gains, naive_evals = _naive_greedy(naive, 10)
        assert lazy.selected == naive.selected
        assert lazy_gains == naive_gains
        assert lazy.selected == list(range(10))
        assert 0 < max(blocks) <= LAZY_BLOCK, blocks
        assert lazy_evals <= naive_evals
        assert greedy_maximize(spec, 10).selected == lazy.selected
        assert scalar == []

    def test_block_takes_lowest_index_among_equal_bounds(self):
        # 34 stale bounds tie at the top: the block is the 32 lowest of them,
        # so a plateau's lowest index is re-scored in the first block
        bound = np.array([3.0, 1.0, 2.0, 2.0, -np.inf] + [2.0] * LAZY_BLOCK)
        stale = np.arange(len(bound)) > 0
        assert _stale_block(bound, stale).tolist() == [2, 3] + list(range(5, LAZY_BLOCK + 3))
        # with no more than LAZY_BLOCK stale bounds, the block is all of them
        assert _stale_block(bound[:6], stale[:6]).tolist() == [1, 2, 3, 4, 5]

    # logdet's residuals go through one BLAS product per commit, over rows
    # padded to a multiple of PAD_COLUMNS, so no column is rounded apart
    @pytest.mark.parametrize("n", (128, 131, 300, 2000))
    @pytest.mark.parametrize("loop", (_lazy_greedy, _naive_greedy), ids=("lazy", "naive"))
    def test_logdet_all_equal_order(self, n, loop):
        spec = ObjectiveSpec("logdet", s_uu=SimilarityKernel(np.ones((n, n)), symmetric=True))
        obj = build_objective(spec)
        loop(obj, 10)
        assert obj.selected == list(range(10))


class TableObjective:
    """Stub objective whose gains after t commits are row t of a table."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.n = self.table.shape[1]
        self.calls = []  # the index arrays passed to gains_at
        self.selected, self.value = [], 0.0

    def gains(self):
        out = self.table[len(self.selected)].copy()
        out[self.selected] = -np.inf
        return out

    def gains_at(self, idx):
        self.calls.append(list(idx))
        return self.table[len(self.selected)][idx]

    def commit(self, a):
        self.value += self.table[len(self.selected)][a]
        self.selected.append(a)


class TestLazyTieWindow:
    """After a commit, index 1's stale bound sits within TIE_TOL below the
    LAZY_BLOCK stale bounds of indices 2 and up, which the first block
    re-scores to a fresh top at index 2. Index 1 may still claim the step:
    only its own re-score, in one more gains_at call, decides."""

    @pytest.mark.parametrize("rescored, winner", ((5.0 - TIE_TOL / 2, 1), (4.0, 2)),
                             ids=("still-ties", "falls-out"))
    def test_stale_near_tie(self, rescored, winner):
        n = LAZY_BLOCK + 2
        first = [10.0, 5.0 - TIE_TOL / 2] + [5.0] * LAZY_BLOCK
        second = [0.0, rescored] + [5.0] * LAZY_BLOCK
        lazy, naive = TableObjective([first, second]), TableObjective([first, second])
        lazy_gains, lazy_evals = _lazy_greedy(lazy, 2)
        naive_gains, naive_evals = _naive_greedy(naive, 2)
        assert lazy.selected == naive.selected == [0, winner]
        assert lazy_gains == naive_gains == [10.0, second[winner]]
        assert lazy.calls == [list(range(2, n)), [1]]
        assert lazy_evals == n + LAZY_BLOCK + 1 <= naive_evals


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
        res, ref = build_objective(spec), SolveLogDet(spec)
        res_gains, res_evals = _lazy_greedy(res, k)
        gains, evals = _lazy_greedy(ref, k)
        assert res.selected == ref.selected
        assert res_evals == evals
        assert res_gains == pytest.approx(gains, rel=1e-10, abs=1e-10)

    def test_exhausted_after_fresh_non_pivots(self):
        # rows 0 and 1 are equal, so at ridge 0 the kernel has rank 2. Index 1
        # is re-scored to a fresh -inf in step 1, so after the second commit
        # every bound is -inf; lazy greedy must still re-score the stale
        # index 1 and raise, never take selected index 0 as the top.
        uu = SimilarityKernel(np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]),
                              symmetric=True)
        spec = ObjectiveSpec("logdet", s_uu=uu, ridge=0.0)
        obj = build_objective(spec)
        _lazy_greedy(obj, 2)
        assert obj.selected == [0, 2]
        for loop in (_lazy_greedy, _naive_greedy):
            with pytest.raises(IndefiniteKernelError, match="rank reached is 2;"):
                loop(build_objective(spec), 3)

    def test_duplicate_rows_at_ridge_zero(self):
        # At ridge 0 rows 1 and 4 copy rows 0 and 2, so the pool kernel has
        # rank 4 and a copy of a selected row is not a pivot: lazy greedy,
        # naive greedy and the solve reference pick the same four rows with
        # the same gains on every seed, and all three raise on a fifth.
        for seed in range(8):
            uu, _, _ = duplicate_row_kernels(seed)
            spec = ObjectiveSpec("logdet", s_uu=uu, ridge=0.0)
            for k in (3, 4):
                lazy, naive, ref = build_objective(spec), build_objective(spec), SolveLogDet(spec)
                lazy_gains, _ = _lazy_greedy(lazy, k)
                naive_gains, _ = _naive_greedy(naive, k)
                ref_gains, _ = _lazy_greedy(ref, k)
                assert lazy.selected == naive.selected == ref.selected, (seed, k)
                assert lazy_gains == naive_gains
                assert lazy_gains == pytest.approx(ref_gains, rel=1e-10, abs=1e-10)
                assert not {0, 1} <= set(lazy.selected) and not {2, 4} <= set(lazy.selected)
            for k in (5, 6):
                for loop in (_lazy_greedy, _naive_greedy):
                    with pytest.raises(IndefiniteKernelError, match="rank reached is 4;"):
                        loop(build_objective(spec), k)
                with pytest.raises(IndefiniteKernelError, match="not a pivot"):
                    _lazy_greedy(SolveLogDet(spec), k)


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
