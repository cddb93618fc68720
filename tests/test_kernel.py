import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsel import harness, kernel
from targetsel.datastore import FeatureMatrix
from targetsel.errors import DegenerateFeatureError, ShapeError, SizeError
from targetsel.kernel import (METRICS, TILE, TRANSFORMS, KernelConfig, SimilarityKernel,
                              build_kernel)

from oracles import cross_kernel, factored_kernel, within_set_kernel

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

    @pytest.mark.parametrize("scale", [5e-324, 1.7e308])
    def test_tiny_and_huge_rows_get_their_cosine(self, scale):
        # the norm of (scale, scale) underflows to 0 or overflows; divided by its largest
        # entry first, the row has the norm of (1, 1)
        cfg = KernelConfig(transform="none")
        want = build_kernel(fm([[1, 1], [1, 0]]), fm([[1, 1], [1, 0]]), cfg).values
        a = fm([[scale, scale], [1, 0]])
        for got in (build_kernel(a, a, cfg).values, kernel.KernelRows(a, cfg).block([0, 1])):
            assert_within_ulps(got, want, a, a, "cosine")

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
    xa, = kernel._prepare_factors((a.values,), metric, "left")
    g = xa @ xa.T
    assert g.tobytes() == g.T.tobytes()


# Sizes for kernels built from outer-product factors: one row, fewer than a
# tile, more than one tile but not a multiple of it, and more than two tiles.
FACTORED_SIZES = (1, 7, TILE + 5, 2 * TILE + 3)
FACTORED_ULPS = 16  # entries of factored and dense kernels agree to this many eps


def outer_pair(seed, n, zero_row=None):
    """A gradient-embedding-shaped outer-product matrix (10 x 65 factors, the
    second with a bias column) and the plain matrix of the same values; the
    first factor's row zero_row is zero, as for a one-hot prediction."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, 10))
    if zero_row is not None:
        r[zero_row] = 0.0
    x = np.hstack([rng.standard_normal((n, 64)), np.ones((n, 1))])
    a = FeatureMatrix.outer(r, x)
    return a, FeatureMatrix(a.values)


def assert_within_ulps(factored, dense, a, b, metric):
    """|factored - dense| <= FACTORED_ULPS eps, scaled by |a_i| |b_j| under dot."""
    scale = 1.0
    if metric == "dot":
        scale = np.outer(np.linalg.norm(a.values, axis=1), np.linalg.norm(b.values, axis=1))
    err = np.abs(factored - dense) / scale
    assert err.max() <= FACTORED_ULPS * np.finfo(float).eps, err.max()


class TestFactoredKernels:
    """Kernels of two outer-product matrices are built from their factor Grams;
    they must agree with the dense product of the same values to a few ulps
    and keep every exact property of the dense kernel."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @pytest.mark.parametrize("n", FACTORED_SIZES)
    def test_within_set_matches_dense(self, cfg, n):
        for seed in range(3):
            a, plain = outer_pair(seed, n)
            k = build_kernel(a, a, cfg)
            assert k.symmetric
            assert k.values.tobytes() == k.values.T.tobytes()
            if cfg.metric == "cosine":
                assert np.all(np.diag(k.values) == 1.0)
            assert_within_ulps(k.values, build_kernel(plain, plain, cfg).values, a, a,
                               cfg.metric)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @pytest.mark.parametrize("n", FACTORED_SIZES)
    def test_within_set_same_bytes_as_whole_matrix_epilogue(self, cfg, n):
        for seed in range(3):
            a, _ = outer_pair(seed, n)
            assert build_kernel(a, a, cfg).values.tobytes() == factored_kernel(a, a, cfg).tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @pytest.mark.parametrize("r,c", [(1, 1), (7, TILE + 5), (2 * TILE + 3, 15)])
    def test_cross_same_bytes_as_whole_matrix_epilogue(self, cfg, r, c):
        a, _ = outer_pair(r, r)
        b, _ = outer_pair(c + 1, c)
        assert build_kernel(a, b, cfg).values.tobytes() == factored_kernel(a, b, cfg).tobytes()

    def test_protocol_pool_kernel_same_bytes(self):
        # The 2000 x 2000 pool kernel of protocol seed 0, as every experiment builds it.
        cfg = harness.ExperimentConfig()
        data = harness.synthetic_generate(cfg, 0)
        lake = harness.gradient_embeddings(harness.train_softmax(data.train, cfg), data.lake.x)
        k = build_kernel(lake, lake)
        assert k.shape == (cfg.lake_size, cfg.lake_size)
        assert k.values.tobytes() == factored_kernel(lake, lake, KernelConfig()).tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @pytest.mark.parametrize("r,c", [(1, 1), (7, TILE + 5), (2 * TILE + 3, 15)])
    def test_cross_matches_dense_and_transposes(self, cfg, r, c):
        a, plain_a = outer_pair(r, r)
        b, plain_b = outer_pair(c + 1, c)
        ab = build_kernel(a, b, cfg).values
        assert ab.tobytes() == build_kernel(b, a, cfg).values.T.tobytes()
        assert_within_ulps(ab, build_kernel(plain_a, plain_b, cfg).values, a, b, cfg.metric)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    def test_mixed_pair_takes_dense_path(self, cfg):
        a, plain_a = outer_pair(0, TILE + 5)
        b, plain_b = outer_pair(1, 15)
        for x, y, dense in ((a, plain_a, (plain_a, plain_a)), (a, plain_b, (plain_a, plain_b)),
                            (plain_b, a, (plain_b, plain_a))):
            expected = build_kernel(*dense, cfg).values.tobytes()
            assert build_kernel(x, y, cfg).values.tobytes() == expected

    def test_unequal_factor_widths_take_dense_path(self):
        rng = np.random.default_rng(0)
        a = FeatureMatrix.outer(rng.standard_normal((6, 2)), rng.standard_normal((6, 6)))
        b = FeatureMatrix.outer(rng.standard_normal((5, 3)), rng.standard_normal((5, 4)))
        expected = build_kernel(FeatureMatrix(a.values), FeatureMatrix(b.values)).values
        assert build_kernel(a, b).values.tobytes() == expected.tobytes()

    def test_equal_factors_flag_symmetric_without_values(self):
        rng = np.random.default_rng(0)
        r, x = rng.standard_normal((TILE + 5, 10)), rng.standard_normal((TILE + 5, 65))
        a, twin = FeatureMatrix.outer(r, x), FeatureMatrix.outer(r.copy(), x.copy())
        k = build_kernel(a, twin)
        assert k.symmetric and k.values.tobytes() == build_kernel(a, a).values.tobytes()
        assert "values" not in vars(a) and "values" not in vars(twin)

    def test_unequal_factors_of_equal_values_flag_symmetric(self):
        # (2r) (x) (x/2) equals r (x) x entry for entry: the values decide, as for plain rows
        rng = np.random.default_rng(0)
        r, x = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
        a, b = FeatureMatrix.outer(r, x), FeatureMatrix.outer(2.0 * r, x / 2.0)
        assert a.values.tobytes() == b.values.tobytes()
        assert build_kernel(a, b).symmetric

    @pytest.mark.parametrize("zero_row", [0, 5, TILE + 4])
    def test_one_hot_prediction_row_is_degenerate(self, zero_row):
        a, plain_a = outer_pair(0, TILE + 5, zero_row=zero_row)
        b, plain_b = outer_pair(1, 15)
        # the error names the side the caller passed the degenerate matrix on
        for pair, dense, side in (((a, a), (plain_a, plain_a), "left"),
                                  ((a, b), (plain_a, plain_b), "left"),
                                  ((b, a), (plain_b, plain_a), "right")):
            with pytest.raises(DegenerateFeatureError) as dense_err:
                build_kernel(*dense)
            with pytest.raises(DegenerateFeatureError, match=f"row {zero_row} in {side} ") as err:
                build_kernel(*pair)
            assert str(err.value) == str(dense_err.value)

    def test_size_error_unchanged(self, monkeypatch):
        a, plain_a = outer_pair(0, 3)
        b, plain_b = outer_pair(1, 2)
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 2 * 3 - 1)
        for pair, dense in (((a, b), (plain_a, plain_b)), ((b, a), (plain_b, plain_a)),
                            ((a, a), (plain_a, plain_a))):
            with pytest.raises(SizeError) as dense_err:
                build_kernel(*dense)
            with pytest.raises(SizeError) as err:
                build_kernel(*pair)
            assert str(err.value) == str(dense_err.value)


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

    # A non-finite entry in any tile, above or below the diagonal, with the
    # symmetric flag set or not.
    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("bi,bj", [(i, j) for i in range(3) for j in range(i, 3)])
    def test_non_finite_entry_is_rejected(self, symmetric, bi, bj, lower, bad, flag):
        r, c = bi * TILE + 1, bj * TILE + 2
        if lower:
            r, c = c, r
        m = symmetric.copy()
        m[r, c] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            SimilarityKernel(m, symmetric=flag)

    def test_non_finite_is_reported_before_asymmetry(self, symmetric):
        # the mismatch is in the first tile pair, the nan in the last one
        m = symmetric.copy()
        m[0, 1] = np.nextafter(m[0, 1], np.inf)
        m[-1, -1] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            SimilarityKernel(m, symmetric=True)

    def test_non_finite_is_reported_before_non_square(self):
        m = np.ones((2 * TILE + 3, TILE))
        m[-1, 0] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            SimilarityKernel(m, symmetric=True)
        with pytest.raises(ShapeError, match="must be square"):
            SimilarityKernel(np.ones((2 * TILE + 3, TILE)), symmetric=True)


def test_within_set_build_allocates_one_square_array():
    n = 1200
    plain = FeatureMatrix(np.random.default_rng(0).standard_normal((n, 8)))
    factored, _ = outer_pair(0, n)  # adds its normalized factors and TILE x TILE blocks
    for a in (plain, factored):
        tracemalloc.start()
        try:
            k = build_kernel(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.shape == (n, n)
        assert peak < 1.5 * 8 * n * n


@pytest.mark.parametrize("n", (TILE + 5, 3 * TILE + 5))
def test_factored_build_holds_no_panel_beside_the_kernel(n):
    # Each row panel's products are written into the kernel itself: beyond it and the
    # normalized factors, a build holds TILE x TILE blocks at most, never a TILE x n panel.
    a, _ = outer_pair(0, n)
    tracemalloc.start()
    try:
        k = build_kernel(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= k.values.nbytes + sum(f.nbytes for f in a.factors) + 2 * TILE * TILE * 8


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


class TestKernelRows:
    """KernelRows serves the within-set kernel by rows computed from the factors and not kept:
    each row agrees with build_kernel's to a few ulps and holds the diagonal's entry, a block
    is exactly symmetric with the diagonal's bytes, and every row is checked as it is computed."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.metric}-{c.transform}")
    @pytest.mark.parametrize("n", (1, 7, TILE + 5))
    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "plain"])
    def test_rows_match_built_kernel(self, cfg, n, factored):
        for seed in range(3):
            a = outer_pair(seed, n)[0 if factored else 1]
            rows = kernel.KernelRows(a, cfg)
            built = build_kernel(a, a, cfg).values
            order = np.random.default_rng(seed).permutation(n)  # rows in any order
            got = np.empty((n, n))
            for j in order:
                got[j] = rows.row(j)
            assert rows.shape == (n, n) and rows.symmetric
            assert rows.diagonal().tobytes() == np.diag(got).tobytes()
            if cfg.metric == "cosine":
                assert np.all(rows.diagonal() == 1.0)
            assert_within_ulps(got, built, a, a, cfg.metric)
            idx = order[: (n + 1) // 2]
            block = rows.block(idx)
            assert block.tobytes() == block.T.tobytes()
            assert np.diag(block).tobytes() == rows.diagonal()[idx].tobytes()
            sub = FeatureMatrix(a.values[idx])
            assert_within_ulps(block, built[np.ix_(idx, idx)], sub, sub, cfg.metric)

    def test_rows_are_read_only_and_repr_builds_nothing(self):
        # no row is kept: each read computes the row again, to the same bytes
        a, _ = outer_pair(0, 9)
        rows = kernel.KernelRows(a)
        repr(rows)
        first = rows.row(4)
        assert not first.flags.writeable
        again = rows.row(4)
        assert again is not first and again.tobytes() == first.tobytes()
        second = rows.row(5)
        assert not second.flags.writeable and second.tobytes() == rows.row(5).tobytes()
        assert rows.row(4).tobytes() == first.tobytes()

    def test_zero_norm_row_raises_on_construction(self):
        with pytest.raises(DegenerateFeatureError, match="zero-norm row 1 in left matrix"):
            kernel.KernelRows(fm([[1, 0], [0, 0]]))

    def test_non_finite_diagonal_raises_on_construction(self):
        with pytest.raises(ShapeError, match="kernel contains non-finite entries"):
            kernel.KernelRows(fm([[1e200, 0], [0, 1]]), KernelConfig(metric="dot"))

    def test_non_finite_row_raises(self):
        rows = kernel.KernelRows(fm([[1, 0], [1, 1], [0, 1]]), KernelConfig(metric="dot"))
        rows._factors = (np.array([[1e200, 0], [1e200, 1], [0, 1]]),)
        with pytest.raises(ShapeError, match="kernel contains non-finite entries"):
            rows.row(1)
        with pytest.raises(ShapeError, match="kernel contains non-finite entries"):
            rows.block([0, 1])

    def test_rule_weighs_budget_by_total_factor_width(self):
        a, plain = outer_pair(0, 40)  # factor widths 10 + 65, or 650 plain
        top = kernel.ROWS_WIDTH * 40
        assert kernel.rows_pay(top // 75, a) and not kernel.rows_pay(top // 75 + 1, a)
        assert kernel.rows_pay(top // 650, plain) and not kernel.rows_pay(top // 650 + 1, plain)
