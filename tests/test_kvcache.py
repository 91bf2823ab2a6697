import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import (KVBuffer, KVPlan, combined_score,
                           granularity_aggregate, importance,
                           pooled_importance, redundancy_fast, select_tokens)
from flowcache_sim.errors import DegenerateInput, InvalidConfig, InvalidInput
from flowcache_sim.kvcache import pool_queries_by_frame
from flowcache_sim.numerics import maxpool1d, softmax_
from flowcache_sim.trace import RunTrace
from flowcache_sim.verify import redundancy_naive


def cfg(**kw):
    return KVPlan(**kw)


def importance_oracle(queries, keys, window):
    """Three-loop attention oracle with explicit head grouping."""
    l_q, h_q, d = queries.shape
    l_k, h_k, _ = keys.shape
    group = h_q // h_k
    rows = queries[-min(window, l_q):]
    out = np.zeros((h_k, l_k))
    for h in range(h_k):
        count = 0
        for q_row in rows:
            for g in range(group):
                q = q_row[h * group + g]
                logits = np.array([q @ keys[j, h] / math.sqrt(d)
                                   for j in range(l_k)])
                e = np.exp(logits - logits.max())
                out[h] += e / e.sum()
                count += 1
        out[h] /= count
    return out


def batched_importance(queries, keys, window):
    """All key heads' logits in one matmul: the expression the per-head loop replaced."""
    l_q, h_q, d = queries.shape
    h_k = keys.shape[1]
    group = h_q // h_k
    w = min(window, l_q)
    rows = (queries[-w:].reshape(w, h_k, group, d)
            .transpose(1, 0, 2, 3).reshape(h_k, w * group, d))
    logits = np.matmul(rows, keys.transpose(1, 2, 0))
    logits /= np.sqrt(d)
    return softmax_(logits, axis=-1).mean(axis=1)


class TestImportance:
    def test_identical_keys_uniform(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, 2, 4))
        keys = np.repeat(rng.normal(size=(1, 2, 4)), 6, axis=0)
        out = importance(q, keys, cfg())
        np.testing.assert_allclose(out, 1.0 / 6.0, atol=1e-12)

    def test_three_loop_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(8, 4, 4))
        keys = rng.normal(size=(16, 2, 4))
        out = importance(q, keys, cfg(query_window=50))
        np.testing.assert_allclose(out, importance_oracle(q, keys, 50),
                                   atol=1e-10)

    def test_zero_keys_rejected(self):
        q = np.random.default_rng(4).normal(size=(3, 2, 4))
        with pytest.raises(InvalidInput):
            importance(q, np.zeros((0, 2, 4)), cfg())

    @pytest.mark.parametrize("q_heads,k_heads", [(2, 0), (0, 2), (0, 0)])
    def test_zero_heads_rejected(self, q_heads, k_heads):
        q = np.ones((3, q_heads, 4))
        with pytest.raises(InvalidInput, match="need a query and a key head"):
            importance(q, np.ones((5, k_heads, 4)), cfg())

    def test_trailing_window_only(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(10, 2, 4))
        keys = rng.normal(size=(5, 2, 4))
        windowed = importance(q, keys, cfg(query_window=3))
        np.testing.assert_allclose(windowed,
                                   importance_oracle(q, keys, 3), atol=1e-10)
        full = importance(q, keys, cfg(query_window=50))
        assert not np.allclose(windowed, full)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=(rng.integers(1, 9), 4, 8))
            keys = rng.normal(size=(rng.integers(2, 33), 2, 8))
            out = importance(q, keys, cfg())
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_head_divisibility(self):
        with pytest.raises(InvalidInput):
            importance(np.zeros((2, 3, 4)), np.zeros((5, 2, 4)), cfg())

    @pytest.mark.parametrize("h_k", [1, 2, 4])
    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize("window", [7, 60])
    def test_per_head_loop_matches_batched_bits(self, h_k, group, window):
        rng = np.random.default_rng(10 * h_k + group)
        q = rng.normal(size=(33, h_k * group, 16))
        keys = rng.normal(size=(301, h_k, 16))
        assert np.array_equal(importance(q, keys, cfg(query_window=window)),
                              batched_importance(q, keys, window))

    def test_transient_is_one_heads_logits(self):
        h_k, group, w, l_k = 4, 2, 50, 2000
        rng = np.random.default_rng(11)
        q = rng.normal(size=(w, h_k * group, 16))
        keys = rng.normal(size=(l_k, h_k, 16))
        config = cfg(query_window=w)
        importance(q, keys, config)   # warm caches outside the measured call
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            importance(q, keys, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1.3 * (w * group * l_k * 8)

    @settings(max_examples=80, deadline=None)
    @given(l_q=st.integers(1, 8), h_k=st.integers(1, 3),
           group=st.sampled_from((1, 2, 4)), d=st.integers(1, 6),
           l_k=st.integers(1, 12), seed=st.integers(0, 2**16), data=st.data())
    def test_matches_oracle(self, l_q, h_k, group, d, l_k, seed, data):
        # windows below and above l_q; a wrong head grouping or transpose
        # mixes rows of different heads and misses the oracle
        window = data.draw(st.integers(1, 2 * l_q + 1), label="query_window")
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(l_q, h_k * group, d))
        keys = rng.normal(size=(l_k, h_k, d))
        out = importance(q, keys, cfg(query_window=window))
        np.testing.assert_allclose(out, importance_oracle(q, keys, window),
                                   rtol=0, atol=1e-12)


class TestPooledImportance:
    def test_kernel_one_identity(self):
        imp = np.random.default_rng(4).random((2, 9))
        np.testing.assert_array_equal(pooled_importance(imp, cfg(pool_kernel=1)),
                                      imp)

    def test_impulse_plateau(self):
        imp = np.zeros((1, 9))
        imp[0, 4] = 1.0
        out = pooled_importance(imp, cfg(pool_kernel=5))
        np.testing.assert_array_equal(out[0], [0, 0, 1, 1, 1, 1, 1, 0, 0])

    def test_rows_pool_independently(self):
        imp = np.random.default_rng(16).normal(size=(4, 17))
        for kernel in (1, 3, 5, 7):
            out = pooled_importance(imp, cfg(pool_kernel=kernel))
            np.testing.assert_array_equal(
                out, [maxpool1d(row, kernel) for row in imp])

    def test_window_scan_oracle(self):
        imp = np.random.default_rng(5).random((3, 32))
        out = pooled_importance(imp, cfg(pool_kernel=5))
        for h in range(3):
            for j in range(32):
                lo, hi = max(0, j - 2), min(32, j + 3)
                assert out[h, j] == imp[h, lo:hi].max()


class TestRedundancy:
    def test_identical_keys_uniform(self):
        keys = np.repeat(np.random.default_rng(6).normal(size=(1, 2, 8)),
                         5, axis=0)
        for fn in (redundancy_naive, redundancy_fast):
            np.testing.assert_allclose(fn(keys), 0.2, atol=1e-12)

    def test_orthogonal_pair_uniform(self):
        keys = np.zeros((2, 1, 2))
        keys[0, 0] = [1.0, 0.0]
        keys[1, 0] = [0.0, 1.0]
        np.testing.assert_allclose(redundancy_naive(keys), 0.5, atol=1e-15)

    def test_pairwise_loop_oracle(self):
        rng = np.random.default_rng(7)
        keys = rng.normal(size=(64, 1, 8))
        unit = keys[:, 0, :] / np.linalg.norm(keys[:, 0, :], axis=1,
                                              keepdims=True)
        col = np.zeros(64)
        for j in range(64):
            for i in range(64):
                if i != j:
                    col[j] += unit[i] @ unit[j]
        col /= 64
        e = np.exp(col - col.max())
        np.testing.assert_allclose(redundancy_naive(keys)[0], e / e.sum(),
                                   atol=1e-10)

    def test_fast_matches_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            keys = rng.normal(size=(int(rng.integers(2, 200)),
                                    int(rng.integers(1, 5)),
                                    int(rng.integers(2, 32))))
            diff = np.abs(redundancy_fast(keys) - redundancy_naive(keys)).max()
            assert diff < 1e-9

    @pytest.mark.parametrize("l_k", [2, 37, 513, 1100])
    def test_heads_batch_bit_for_bit(self, l_k):
        # lengths on both sides of the accumulation block
        keys = np.random.default_rng(l_k).normal(size=(l_k, 4, 16))
        batched = redundancy_fast(keys)
        for h in range(4):
            np.testing.assert_array_equal(batched[h],
                                          redundancy_fast(keys[:, h:h + 1])[0])
        assert np.abs(batched - redundancy_naive(keys)).max() < 1e-9

    def test_zero_norm_row_rejected(self):
        keys = np.random.default_rng(9).normal(size=(4, 1, 3))
        keys[2, 0] = 0.0
        for fn in (redundancy_naive, redundancy_fast):
            with pytest.raises(DegenerateInput):
                fn(keys)

    def test_too_few_tokens(self):
        with pytest.raises(InvalidInput):
            redundancy_naive(np.ones((1, 1, 3)))


class TestCombinedScore:
    def test_lambda_one_ranks_like_importance(self):
        rng = np.random.default_rng(10)
        pooled, red = rng.random((2, 12)), rng.random((2, 12))
        out = combined_score(pooled, red, 1.0)
        np.testing.assert_array_equal(np.argsort(out), np.argsort(pooled))

    def test_lambda_zero_ranks_like_low_redundancy(self):
        rng = np.random.default_rng(11)
        pooled, red = rng.random((2, 12)), rng.random((2, 12))
        out = combined_score(pooled, red, 0.0)
        np.testing.assert_array_equal(np.argsort(out), np.argsort(-red))

    def test_ranking_scale_invariance(self):
        rng = np.random.default_rng(12)
        pooled, red = rng.random((1, 20)), rng.random((1, 20))
        a = combined_score(pooled, red, 0.07)
        b = combined_score(3.5 * pooled, 3.5 * red, 0.07)
        np.testing.assert_array_equal(np.argsort(a), np.argsort(b))

    def test_lambda_out_of_range(self):
        with pytest.raises(InvalidInput):
            combined_score(np.zeros((1, 2)), np.zeros((1, 2)), 1.5)


class TestSelection:
    def test_argmax_pair(self):
        scores = np.array([0.4, 0.1, 0.3, 0.2])
        keep = select_tokens(scores, 2, "token", 1, 4)
        assert list(keep) == [0, 2]

    def test_frame_group_selection(self):
        # 2 frames of 3 tokens; frame scores [0.6, 0.4]; budget of one frame
        scores = np.array([0.6, 0.6, 0.6, 0.4, 0.4, 0.4])
        keep = select_tokens(scores, 3, "frame", 3, 6)
        assert list(keep) == [0, 1, 2]

    def test_frame_size_one_equals_token(self):
        scores = np.random.default_rng(13).random(12)
        np.testing.assert_array_equal(
            select_tokens(scores, 5, "frame", 1, 12),
            select_tokens(scores, 5, "token", 1, 12))

    def test_group_loop_oracle(self):
        rng = np.random.default_rng(14)
        scores = rng.random(24)
        group = 4
        keep = select_tokens(scores, 8, "frame", group, 24)
        means = scores.reshape(-1, group).mean(axis=1)
        best = sorted(sorted(range(6), key=lambda g: (-means[g], g))[:2])
        expected = [g * group + k for g in best for k in range(group)]
        assert list(keep) == expected

    def test_unknown_granularity_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown key granularity 'bogus'"):
            select_tokens(np.zeros(6), 6, "bogus", 3, 6)

    def test_aggregate_divisibility(self):
        with pytest.raises(InvalidConfig):
            granularity_aggregate(np.zeros(10), 3)


def make_chunk_kv(rng, tokens, heads, dim):
    keys = rng.normal(size=(tokens, heads, dim))
    values = rng.normal(size=(tokens, heads, dim))
    return keys, values


class TestBuffer:
    def setup_method(self):
        self.rng = np.random.default_rng(15)
        self.tokens = 12
        self.buffer = KVBuffer(cfg(key_heads=2, head_dim=4, budget_chunks=2),
                               tokens_per_chunk=12, frame_tokens=4)
        self.queries = self.rng.normal(size=(10, 4, 4))

    def feed(self, chunk_index):
        keys, _ = make_chunk_kv(self.rng, self.tokens, 2, 4)   # values still drawn
        return self.buffer.add_clean_chunk(chunk_index, keys, lambda: self.queries,
                                           chunk_index)

    def test_fill_phase_appends(self):
        assert self.feed(1) is None
        assert self.feed(2) is None
        assert self.buffer.clean_tokens == 24

    def test_compression_triggers_at_budget(self):
        self.feed(1)
        self.feed(2)
        report = self.feed(3)
        assert report is not None
        assert self.buffer.clean_tokens == 24
        assert report.candidate_tokens == 36
        for head in report.heads.values():
            assert head.evicted_count == 12

    def test_retained_ids_sorted_subset(self):
        self.feed(1)
        self.feed(2)
        report = self.feed(3)
        universe = set(range(36))
        for h in range(2):
            ids = list(self.buffer.retained_ids(h))
            assert ids == sorted(ids)
            assert set(ids) <= universe
            assert len(ids) == 24

    def test_heads_can_differ(self):
        self.feed(1)
        self.feed(2)
        self.feed(3)
        a = list(self.buffer.retained_ids(0))
        b = list(self.buffer.retained_ids(1))
        assert a != b   # per-head selection is independent

    def test_report_round_trips_json(self):
        self.feed(1)
        self.feed(2)
        report = self.feed(3)
        payload = json.dumps(RunTrace(config={}, compressions=[report])
                             .to_dict()["compressions"][0])
        back = json.loads(payload)
        assert back["heads"]["0"]["retained_ids"] == [
            int(i) for i in self.buffer.retained_ids(0)]
        assert "no_op" not in back

    @pytest.mark.parametrize("field", ["tokens_per_chunk", "frame_tokens"])
    def test_nonpositive_dimension_rejected(self, field):
        dims = dict(tokens_per_chunk=12, frame_tokens=4)
        with pytest.raises(InvalidConfig, match="dimensions must be positive"):
            KVBuffer(cfg(), **{**dims, field: 0})

    def test_budget_required(self):
        with pytest.raises(InvalidConfig, match="needs budget_chunks"):
            KVBuffer(cfg(budget_chunks=None), tokens_per_chunk=12, frame_tokens=4)


class TestFrameQueries:
    """The buffer pools frame queries itself, and only when it compresses."""

    @staticmethod
    def buffer(**kw):
        return KVBuffer(cfg(key_heads=2, head_dim=4, budget_chunks=2, **kw),
                        tokens_per_chunk=12, frame_tokens=4)

    def test_pooled_in_buffer_equals_pooled_by_caller(self):
        rng = np.random.default_rng(21)
        queries = rng.normal(size=(12, 4, 4))
        frame, token = self.buffer(query_granularity="frame"), self.buffer()
        reports = 0
        for i in range(1, 5):
            keys, _ = make_chunk_kv(rng, 12, 2, 4)
            got = frame.add_clean_chunk(i, keys, lambda: queries, i)
            want = token.add_clean_chunk(
                i, keys, lambda: pool_queries_by_frame(queries, 4), i)
            assert got == want   # dataclass equality: ids and float scores exact
            reports += got is not None
        assert reports == 2

    def test_fill_phase_does_not_pool(self):
        rng = np.random.default_rng(22)
        buffer = self.buffer(query_granularity="frame")

        def unread():
            raise AssertionError("a fill-phase arrival asked for its queries")

        for i in (1, 2):   # 24 tokens fit the budget: nothing scores the queries
            assert buffer.add_clean_chunk(
                i, make_chunk_kv(rng, 12, 2, 4)[0], unread, i) is None
        queries = rng.normal(size=(7, 4, 4))   # 7 rows: not whole frames of 4
        with pytest.raises(InvalidConfig, match="not divisible by frame size"):
            buffer.add_clean_chunk(3, make_chunk_kv(rng, 12, 2, 4)[0], lambda: queries, 3)


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 3), frames=st.integers(1, 3),
       frame_size=st.integers(1, 4),
       granularity=st.sampled_from(("token", "frame", "chunk")),
       arrivals=st.integers(1, 6), seed=st.integers(0, 2**16),
       budget_chunks=st.integers(1, 3))
def test_buffer_invariants(heads, frames, frame_size, granularity, arrivals,
                           seed, budget_chunks):
    tokens = frames * frame_size
    budget = budget_chunks * tokens
    rng = np.random.default_rng(seed)
    plan = cfg(key_heads=heads, query_heads=heads, head_dim=4,
               budget_chunks=budget_chunks, key_granularity=granularity)
    buffer = KVBuffer(plan, tokens_per_chunk=tokens, frame_tokens=frame_size)
    queries = rng.normal(size=(6, heads, 4))
    compressing = False
    for chunk in range(1, arrivals + 1):
        keys, _ = make_chunk_kv(rng, tokens, heads, 4)
        report = buffer.add_clean_chunk(chunk, keys, lambda: queries, chunk)
        # once the budget overflows, every later arrival compresses
        assert (report is not None) == (compressing or chunk * tokens > budget)
        compressing = report is not None
        assert buffer.clean_tokens <= budget
        for h in range(heads):
            ids = buffer.retained_ids(h)
            assert ids.size == buffer.clean_tokens
            assert np.all(np.diff(ids) > 0)
            assert ids.min() >= 0 and ids.max() < chunk * tokens
        if report is not None:
            assert set(report.heads) == set(range(heads))
            for h, head in report.heads.items():
                assert head.retained_ids == buffer.retained_ids(h).tolist()
                assert (len(head.retained_ids) + head.evicted_count
                        == report.candidate_tokens)
