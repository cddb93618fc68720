import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsel import kernel
from targetsel.datastore import FeatureMatrix
from targetsel.errors import DegenerateFeatureError, ShapeError, SizeError
from targetsel.kernel import (METRICS, TILE, TRANSFORMS, KernelConfig, SimilarityKernel,
                              build_kernel)

from oracles import cross_kernel, within_set_kernel

# Sizes around the tile edges: one entry, one short of a tile, exactly one,
# one over, and two full tiles plus a partial one.
TILE_EDGE_SIZES = (1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3)
CONFIGS = [KernelConfig(metric=m, transform=t) for m, t in itertools.product(METRICS, TRANSFORMS)]


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


class TestAgainstFullArrayFormula:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(TILE_EDGE_SIZES), st.integers(1, 12))
    def test_within_set_same_bytes(self, cfg, seed, n, d):
        x = np.random.default_rng(seed).standard_normal((n, d))
        k = build_kernel(FeatureMatrix(x), FeatureMatrix(x.copy()), cfg)
        assert k.symmetric
        assert k.values.tobytes() == within_set_kernel(x, cfg).tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(TILE_EDGE_SIZES),
           st.sampled_from(TILE_EDGE_SIZES), st.integers(1, 12))
    def test_cross_same_bytes(self, cfg, seed, r, c, d):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((r, d)), rng.standard_normal((c, d))
        k = build_kernel(FeatureMatrix(x), FeatureMatrix(y), cfg)
        assert k.values.tobytes() == cross_kernel(x, y, cfg).tobytes()


# build_kernel keeps xa @ xa.T as numpy returns it, with nothing averaging the
# two triangles, so the product itself must be exactly symmetric.
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", TILE_EDGE_SIZES)
@pytest.mark.parametrize("d", (1, 65, 650))
def test_within_set_product_is_exactly_symmetric(metric, n, d):
    a = FeatureMatrix(np.random.default_rng(1000 * n + d).standard_normal((n, d)))
    xa = kernel._prepare_rows(a.values, metric, "left")
    g = xa @ xa.T
    assert g.tobytes() == g.T.tobytes()


class TestSymmetryCheck:
    N = 2 * TILE + 3

    @pytest.fixture(scope="class")
    def symmetric(self):
        x = np.random.default_rng(0).standard_normal((self.N, self.N))
        return (x + x.T) / 2.0

    def test_symmetric_matrix_accepted(self, symmetric):
        assert SimilarityKernel(symmetric, symmetric=True).symmetric

    # Every tile pair on and above the diagonal, including the diagonal tiles
    # and the 3 x 3 partial tile in the corner, with the change above or below
    # the diagonal.
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("bi,bj", [(i, j) for i in range(3) for j in range(i, 3)])
    def test_one_changed_entry_is_rejected(self, symmetric, bi, bj, lower):
        r, c = bi * TILE + 1, bj * TILE + 2
        if lower:
            r, c = c, r
        m = symmetric.copy()
        m[r, c] = np.nextafter(m[r, c], np.inf)
        with pytest.raises(ShapeError, match="non-symmetric"):
            SimilarityKernel(m, symmetric=True)


def test_within_set_build_allocates_one_square_array():
    n = 1200
    a = FeatureMatrix(np.random.default_rng(0).standard_normal((n, 8)))
    tracemalloc.start()
    try:
        k = build_kernel(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.shape == (n, n)
    assert peak < 1.5 * 8 * n * n


class TestCallerArray:
    def test_read_only_input_is_shared(self):
        m = np.eye(2)
        m.setflags(write=False)
        assert np.shares_memory(SimilarityKernel(m, symmetric=True).values, m)

    def test_read_only_strided_input_is_copied_contiguous(self):
        m = np.arange(6.0).reshape(2, 3).T
        m.setflags(write=False)
        v = SimilarityKernel(m).values
        assert v.flags.c_contiguous and not v.flags.writeable
        assert np.array_equal(v, m)
