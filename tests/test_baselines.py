import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import badge_select_reference
from targetsel.baselines import (
    badge_select,
    entropy_scores,
    random_select,
    targeted_uncertainty_select,
    uncertainty_select,
)
from targetsel.datastore import FeatureMatrix, ProbabilityMatrix
from targetsel.errors import ShapeError, SizeError
from targetsel.kernel import SimilarityKernel


class TestRandomSelect:
    def test_full_pool(self):
        res = random_select(5, 5, seed=3)
        assert sorted(res.selected) == [0, 1, 2, 3, 4]

    def test_zero_budget(self):
        assert random_select(5, 0, seed=3).selected == []

    def test_seed_determinism(self):
        assert random_select(50, 10, seed=7).selected == random_select(50, 10, seed=7).selected

    def test_over_budget(self):
        with pytest.raises(SizeError):
            random_select(3, 4, seed=0)

    def test_no_duplicates(self):
        sel = random_select(20, 15, seed=1).selected
        assert len(set(sel)) == 15


class TestUncertaintySelect:
    def test_entropy_ordering(self):
        probs = ProbabilityMatrix(np.array([[0.5, 0.5], [1.0, 0.0], [0.9, 0.1]]))
        res = uncertainty_select(probs, 1)
        assert res.selected == [0]
        assert res.gains[0] == pytest.approx(np.log(2))

    def test_one_hot_ties_lowest_index(self):
        probs = ProbabilityMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        assert uncertainty_select(probs, 2).selected == [0, 1]

    def test_uniform_row_entropy(self):
        c = 7
        probs = ProbabilityMatrix(np.full((1, c), 1.0 / c))
        assert entropy_scores(probs)[0] == pytest.approx(np.log(c))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_class_permutation(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet(np.ones(4), size=8)
        perm = rng.permutation(4)
        a = uncertainty_select(ProbabilityMatrix(raw), 3)
        b = uncertainty_select(ProbabilityMatrix(raw[:, perm]), 3)
        assert a.selected == b.selected


class TestTargetedUncertaintySelect:
    def test_similarity_reweights_scores(self):
        probs = ProbabilityMatrix(np.array([[0.5, 0.5], [1.0, 0.0], [0.9, 0.1]]))
        s_ut = SimilarityKernel(np.array([[0.1], [1.0], [1.0]]))
        res = targeted_uncertainty_select(probs, s_ut, 1)
        assert res.selected == [2]
        assert res.gains[0] == pytest.approx(entropy_scores(probs)[2])

    def test_zero_similarity_ties(self):
        probs = ProbabilityMatrix(np.full((4, 2), 0.5))
        s_ut = SimilarityKernel(np.zeros((4, 1)))
        assert targeted_uncertainty_select(probs, s_ut, 2).selected == [0, 1]

    def test_zero_budget(self):
        probs = ProbabilityMatrix(np.full((2, 2), 0.5))
        s_ut = SimilarityKernel(np.ones((2, 1)))
        assert targeted_uncertainty_select(probs, s_ut, 0).selected == []

    def test_row_mismatch(self):
        probs = ProbabilityMatrix(np.full((2, 2), 0.5))
        s_ut = SimilarityKernel(np.ones((3, 1)))
        with pytest.raises(ShapeError):
            targeted_uncertainty_select(probs, s_ut, 1)


class TestBadgeSelect:
    def test_far_point_is_forced(self):
        emb = FeatureMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]]))
        # whichever point is drawn first, the other cluster follows with
        # certainty because duplicates carry zero squared distance
        for seed in range(10):
            sel = badge_select(emb, 2, seed=seed).selected
            assert 2 in sel or sel[0] == 2

    def test_identical_points_fall_back_to_uniform(self):
        emb = FeatureMatrix(np.zeros((4, 2)))
        sel = badge_select(emb, 2, seed=5).selected
        assert len(set(sel)) == 2

    def test_single_draw(self):
        emb = FeatureMatrix(np.arange(10.0).reshape(5, 2))
        assert len(badge_select(emb, 1, seed=0).selected) == 1

    def test_determinism_and_uniqueness(self):
        rng = np.random.default_rng(0)
        emb = FeatureMatrix(rng.standard_normal((30, 4)))
        a = badge_select(emb, 10, seed=9)
        b = badge_select(emb, 10, seed=9)
        assert a.selected == b.selected
        assert len(set(a.selected)) == 10

    def test_zero_distance_points_never_redrawn(self):
        emb = FeatureMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [9.0, 1.0]]))
        for seed in range(20):
            sel = badge_select(emb, 3, seed=seed).selected
            assert not (0 in sel and 1 in sel)


class TestBadgeBlocks:
    """badge_select on plain rows, which are their own single factor: the draws
    must equal the whole-matrix reference's."""

    @pytest.mark.parametrize("seed", range(5))
    def test_selections_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        emb = FeatureMatrix(rng.standard_normal((200, 40)) * rng.uniform(0.1, 3.0, size=(200, 1)))
        assert badge_select(emb, 50, seed).selected == badge_select_reference(emb, 50, seed)

    def test_copies_of_a_center_get_exactly_zero(self):
        # 3 clusters of 40 exact copies, at scales three decades apart: after one
        # center per cluster every distance is 0 and the draws fall back to
        # uniform, as in the reference, where round-off left by the expansion
        # would weight some copies
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((3, 40)) * np.array([[1e-3], [1.0], [1e3]])
        emb = FeatureMatrix(np.repeat(rows, 40, axis=0))
        for seed in range(50):
            sel = badge_select(emb, 10, seed).selected
            assert sel == badge_select_reference(emb, 10, seed), seed
            assert {i // 40 for i in sel[:3]} == {0, 1, 2}

    def test_zero_distance_fallback_across_blocks(self):
        # 130 identical rows: every distance is zero, so every draw after the
        # first is uniform over the unchosen rows
        emb = FeatureMatrix(np.ones((130, 3)))
        for seed in range(3):
            sel = badge_select(emb, 20, seed).selected
            assert sel == badge_select_reference(emb, 20, seed)
            assert len(set(sel)) == 20


def outer_pool(rng, n, classes=4, dims=6):
    """A factored pool shaped like gradient embeddings: rows (p - e_y) (x) [x;1]."""
    p = rng.dirichlet(np.ones(classes), size=n)
    p[np.arange(n), rng.integers(classes, size=n)] -= 1.0
    return p, np.hstack([rng.standard_normal((n, dims)), np.ones((n, 1))])


class TestBadgeFactored:
    """badge_select computes the distances of a factored pool from its factors;
    the dense rows of the same pool, in the whole-matrix reference, must give
    the same draws."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        r, x = outer_pool(rng, 150)
        r *= 10.0 ** rng.uniform(-1.0, 1.0, size=(150, 1))  # row scales over two decades
        emb = FeatureMatrix.outer(r, x)
        assert badge_select(emb, 40, seed).selected == badge_select_reference(
            FeatureMatrix(emb.values), 40, seed)

    def test_copies_of_a_center_get_exactly_zero(self):
        # 3 clusters of 40 exact copies: after one center per cluster every
        # distance is 0 and the draws fall back to uniform, as on the dense path,
        # where round-off left by the expansion would weight some copies
        rng = np.random.default_rng(7)
        r, x = outer_pool(rng, 3)
        emb = FeatureMatrix.outer(np.repeat(r, 40, axis=0), np.repeat(x, 40, axis=0))
        for seed in range(50):
            sel = badge_select(emb, 10, seed).selected
            assert sel == badge_select_reference(FeatureMatrix(emb.values), 10, seed), seed
            assert {i // 40 for i in sel[:3]} == {0, 1, 2}

    def test_identical_pool_falls_back_to_uniform(self):
        r, x = outer_pool(np.random.default_rng(3), 1)
        emb = FeatureMatrix.outer(np.repeat(r, 30, axis=0), np.repeat(x, 30, axis=0))
        for seed in range(5):
            sel = badge_select(emb, 12, seed).selected
            assert sel == badge_select_reference(FeatureMatrix(emb.values), 12, seed)
            assert len(set(sel)) == 12
