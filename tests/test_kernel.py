import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsel import kernel
from targetsel.datastore import FeatureMatrix
from targetsel.errors import DegenerateFeatureError, ShapeError, SizeError
from targetsel.kernel import KernelConfig, SimilarityKernel, build_kernel, regularize_psd


def fm(rows):
    return FeatureMatrix(np.array(rows, dtype=float))


class TestBuildKernel:
    def test_orthogonal_cosine(self):
        k = build_kernel(fm([[1, 0]]), fm([[0, 1]]), KernelConfig(transform="none"))
        assert k.values[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_shift_scale(self):
        k = build_kernel(fm([[1, 0]]), fm([[0, 1]]), KernelConfig())
        assert k.values[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("transform", ["none", "shift-scale", "clip"])
    def test_parallel_vectors(self, transform):
        k = build_kernel(fm([[2, 0]]), fm([[1, 0]]), KernelConfig(transform=transform))
        assert k.values[0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            build_kernel(fm([[1, 0]]), fm([[1, 0, 0]]), KernelConfig())

    def test_zero_norm_row_names_index(self):
        with pytest.raises(DegenerateFeatureError, match="row 1"):
            build_kernel(fm([[1, 0], [0, 0]]), fm([[1, 0]]), KernelConfig())

    def test_dot_metric(self):
        k = build_kernel(fm([[2, 0]]), fm([[3, 1]]), KernelConfig(metric="dot", transform="none"))
        assert k.values[0, 0] == pytest.approx(6.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6))
    def test_within_set_unit_diagonal_and_range(self, seed, n, d):
        rng = np.random.default_rng(seed)
        a = FeatureMatrix(rng.standard_normal((n, d)) + 0.01)
        k = build_kernel(a, a, KernelConfig())
        assert k.symmetric
        np.testing.assert_array_equal(k.values, k.values.T)
        np.testing.assert_array_equal(np.diag(k.values), np.ones(n))
        assert np.all(k.values >= 0.0) and np.all(k.values <= 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7), st.integers(1, 5))
    def test_transpose_consistency(self, seed, r, c, d):
        rng = np.random.default_rng(seed)
        a = FeatureMatrix(rng.standard_normal((r, d)))
        b = FeatureMatrix(rng.standard_normal((c, d)))
        ab = build_kernel(a, b, KernelConfig())
        ba = build_kernel(b, a, KernelConfig())
        np.testing.assert_array_equal(ab.values.T, ba.values)


def unknown_sysconf_name(name):
    raise ValueError(f"unrecognized configuration name {name}")


class TestMemoryGuard:
    A = fm([[1, 0], [0, 1]])
    B = fm([[1, 0], [0, 1], [1, 1]])

    def test_limit_is_physical_memory(self):
        if not hasattr(os, "sysconf"):
            pytest.skip("no sysconf on this platform")
        assert kernel.MEMORY_LIMIT == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

    @pytest.mark.parametrize("swap", [False, True])
    def test_kernel_beyond_limit_raises_with_size(self, monkeypatch, swap):
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 2 * 3 - 1)
        a, b = (self.B, self.A) if swap else (self.A, self.B)
        with pytest.raises(SizeError, match="needs 48 bytes"):
            build_kernel(a, b)

    def test_kernel_at_limit_builds(self, monkeypatch):
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 2 * 3)
        assert build_kernel(self.A, self.B).shape == (2, 3)

    def test_within_set_kernel_counts_square(self, monkeypatch):
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 3 * 3 - 1)
        with pytest.raises(SizeError, match="3 x 3"):
            build_kernel(self.B, self.B)

    def test_no_guard_without_sysconf(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf", raising=False)
        assert kernel._physical_memory() is None
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", None)
        assert build_kernel(self.A, self.B).shape == (2, 3)

    @pytest.mark.parametrize("sysconf", [
        unknown_sysconf_name,
        lambda name: -1 if name == "SC_PHYS_PAGES" else 4096,  # "indeterminate"
    ])
    def test_no_guard_when_sysconf_cannot_tell(self, monkeypatch, sysconf):
        monkeypatch.setattr(os, "sysconf", sysconf)
        assert kernel._physical_memory() is None


class TestRegularizePsd:
    def test_identity_ridge(self):
        k = SimilarityKernel(np.eye(2), symmetric=True)
        out = regularize_psd(k, 1e-6)
        np.testing.assert_allclose(np.diag(out.values), [1.000001, 1.000001])

    def test_zero_ridge_unchanged(self):
        k = SimilarityKernel(np.eye(2), symmetric=True)
        assert regularize_psd(k, 0.0) is k

    def test_rank_one_plus_ridge_eigenvalues(self):
        k = SimilarityKernel(np.ones((2, 2)), symmetric=True)
        out = regularize_psd(k, 0.5)
        np.testing.assert_allclose(out.values, [[1.5, 1.0], [1.0, 1.5]])
        assert np.linalg.eigvalsh(out.values).min() == pytest.approx(0.5)

    def test_requires_symmetric(self):
        with pytest.raises(ShapeError):
            regularize_psd(SimilarityKernel(np.array([[1.0, 0.5]])), 0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_cholesky_succeeds_after_ridge(self, seed, n):
        rng = np.random.default_rng(seed)
        a = FeatureMatrix(rng.standard_normal((n, n + 2)))
        k = build_kernel(a, a, KernelConfig())
        ridged = regularize_psd(k, 1e-6)
        factor = np.linalg.cholesky(ridged.values)
        assert np.all(np.diag(factor) > 0)
