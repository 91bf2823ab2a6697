import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcache_sim import l1_norm, maxpool1d, stable_topk
from flowcache_sim.errors import InvalidInput
from flowcache_sim.numerics import l1_norms

# independently computed: scalar loop over default_rng(42).random(1000)
L1_1000_UNIFORMS_SEED42 = 497.17783852843127

finite_vectors = arrays(
    np.float64, st.integers(1, 32),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


class TestL1Norm:
    def test_definition(self):
        assert l1_norm(np.array([1.0, -2.0, 3.0])) == 6.0

    def test_zeros_any_shape(self):
        assert l1_norm(np.zeros((3, 4, 5))) == 0.0

    def test_frozen_uniform_draws(self):
        draws = np.random.default_rng(42).random(1000)
        assert l1_norm(draws) == pytest.approx(L1_1000_UNIFORMS_SEED42, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            l1_norm(np.array([]))

    @pytest.mark.parametrize("x", [[1.0, np.nan], [np.inf, 0.0], [-np.inf],
                                   [1e308, 1e308]])
    def test_non_finite_names_stage(self, x):
        # the norm is the finiteness check of the array it measures
        with pytest.raises(InvalidInput,
                           match="euler_step produced a non-finite value"), \
                np.errstate(over="ignore"):
            l1_norm(np.array(x), "euler_step")

    @pytest.mark.parametrize("shape", [(8, 4, 6, 6), (2, 2, 2, 2), (16, 4, 16, 16), (3, 5, 7, 9)])
    def test_row_norms_equal_per_chunk_norms(self, shape):
        # a window's norms in one row-wise reduction have each chunk's own bits
        rng = np.random.default_rng(list(shape))
        for window in range(1, 8):
            chunks = [rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
                      for _ in range(window)]
            rows = np.stack(chunks)
            per_chunk = [np.abs(x).sum() for x in chunks]
            assert np.abs(rows.reshape(window, -1)).sum(axis=1).tolist() == per_chunk
            assert l1_norms(rows) == per_chunk == [l1_norm(x) for x in chunks]

    def test_row_norms_name_the_stage_of_any_bad_row(self):
        rows = np.ones((3, 2, 2))
        rows[1, 0, 1] = np.inf
        with pytest.raises(InvalidInput, match="ideal_velocity produced a non-finite value"):
            l1_norms(rows, "ideal_velocity")
        with pytest.raises(InvalidInput, match="empty"):
            l1_norms(np.ones((0, 4)))

    @given(x=finite_vectors, c=st.floats(-100, 100, allow_nan=False))
    def test_absolute_homogeneity(self, x, c):
        scaled = l1_norm(c * x)
        assert scaled == pytest.approx(abs(c) * l1_norm(x), rel=1e-12, abs=1e-12)


class TestMaxPool:
    def test_hand_window_trace(self):
        np.testing.assert_array_equal(maxpool1d(np.array([1.0, 3.0, 2.0]), 3),
                                      [3.0, 3.0, 3.0])

    def test_kernel_one_is_identity(self):
        x = np.array([-2.0, 5.0, 0.5])
        np.testing.assert_array_equal(maxpool1d(x, 1), x)

    def test_all_negative_padding(self):
        # ignore-out-of-range padding: zero padding would corrupt these maxima
        x = np.array([-5.0, -7.0, -6.0])
        np.testing.assert_array_equal(maxpool1d(x, 3), [-5.0, -5.0, -6.0])

    def test_brute_force_oracle(self):
        x = np.random.default_rng(7).normal(size=64)
        kernel = 5
        expected = np.array([
            x[max(0, j - 2):j + 3].max() for j in range(64)])
        np.testing.assert_array_equal(maxpool1d(x, kernel), expected)

    def test_pools_last_axis_row_wise(self):
        x = np.random.default_rng(8).normal(size=(2, 3, 11))
        for kernel in (1, 3, 5):
            out = maxpool1d(x, kernel)
            for i in range(2):
                for j in range(3):
                    np.testing.assert_array_equal(out[i, j],
                                                  maxpool1d(x[i, j], kernel))

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_window_scan_oracle(self, kernel, length):
        # includes radii wider than the row
        x = np.random.default_rng(length).normal(size=(2, length))
        r = kernel // 2
        expected = np.array([[row[max(0, j - r):j + r + 1].max()
                              for j in range(length)] for row in x])
        np.testing.assert_array_equal(maxpool1d(x, kernel), expected)

    def test_scalar_rejected(self):
        with pytest.raises(InvalidInput):
            maxpool1d(np.float64(1.0), 3)

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_row_rejected(self, shape):
        for kernel in (1, 3):
            with pytest.raises(InvalidInput):
                maxpool1d(np.zeros(shape), kernel)

    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidInput):
            maxpool1d(np.zeros(4), 2)

    @given(x=finite_vectors, kernel=st.sampled_from([1, 3, 5, 7]))
    def test_dominates_input(self, x, kernel):
        out = maxpool1d(x, kernel)
        assert out.shape == x.shape
        assert (out >= x).all()


class TestStableTopK:
    def test_tie_break_toward_lower_index(self):
        assert list(stable_topk(np.array([0.1, 0.5, 0.5, 0.2]), 2)) == [1, 2]

    def test_total_selection(self):
        scores = np.random.default_rng(0).random(17)
        assert list(stable_topk(scores, 17)) == list(range(17))

    def test_sort_oracle_large(self):
        scores = np.random.default_rng(5).random(4096)
        got = list(stable_topk(scores, 128))
        expected = sorted(sorted(range(4096),
                                 key=lambda i: (-scores[i], i))[:128])
        assert got == expected

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInput):
            stable_topk(np.zeros(3), 4)

    def test_not_1d_rejected(self):
        with pytest.raises(InvalidInput) as info:
            stable_topk(np.zeros((2, 3)), 1)
        assert str(info.value) == "stable_topk expects a 1-D score vector"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a partition ranks NaN above every score, so a NaN would change the ids silently
        scores = np.array([0.5, bad, 0.1, 0.9])
        for k in (1, 4):
            with pytest.raises(InvalidInput) as info:
                stable_topk(scores, k)
            assert str(info.value) == "stable_topk needs finite scores"

    @settings(max_examples=300)
    @given(scores=st.lists(st.one_of(st.integers(-3, 3).map(float),
                                     st.sampled_from([0.0, -0.0])), min_size=1, max_size=40))
    def test_equals_the_stable_full_sort(self, scores):
        # integer values tie heavily and -0.0 ties 0.0: the partition's tie fill must
        # pick the lowest indices, as the stable sort on negated scores does, at every k
        s = np.array(scores)
        for k in range(1, len(s) + 1):
            assert np.array_equal(stable_topk(s, k), np.sort(np.argsort(-s, kind="stable")[:k]))

    @given(data=st.data(), shift=st.integers(-50, 50))
    def test_shift_invariance(self, data, shift):
        # dyadic grid values + integer shifts keep float addition exact, so
        # score gaps and ties survive the shift unchanged
        n = data.draw(st.integers(1, 24))
        grid = data.draw(st.lists(st.integers(-256, 256), min_size=n,
                                  max_size=n))
        x = np.array(grid, dtype=np.float64) / 32.0
        k = data.draw(st.integers(1, n))
        assert list(stable_topk(x, k)) == list(stable_topk(x + shift, k))
