import base64
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import (PROFILES, KVBuffer, KVPlan, build_objects, importance,
                           pooled_importance, redundancy_fast, resolve_config, run_denoise,
                           score_candidates, select_tokens)
from flowcache_sim import kvcache
from flowcache_sim.config import _deep_merge
from flowcache_sim.errors import DegenerateInput, InternalError, InvalidConfig, InvalidInput
from flowcache_sim.numerics import maxpool1d
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
    """All key heads at once: the per-head loop's arithmetic as batched matmuls."""
    l_q, h_q, d = queries.shape
    h_k = keys.shape[1]
    group = h_q // h_k
    w = min(window, l_q)
    rows = (queries[-w:].reshape(w, h_k, group, d)
            .transpose(1, 0, 2, 3).reshape(h_k, w * group, d)) / np.sqrt(d)
    e = np.matmul(rows, keys.transpose(1, 2, 0))
    np.exp(e, out=e)   # unshifted, as the loop takes it
    weights = 1.0 / (e.sum(axis=-1) * (w * group))    # (h_k, w * group)
    return np.matmul(weights[:, None, :], e)[:, 0]


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

    @pytest.mark.parametrize("q_shape, k_shape, message", [
        ((3, 8), (5, 2, 4), "queries and keys must be rank-3 (tokens, heads, dim)"),
        ((3, 2, 4), (5, 8), "queries and keys must be rank-3 (tokens, heads, dim)"),
        ((3, 2, 4), (5, 2, 8), "head dim mismatch 4 vs 8"),
        ((0, 2, 4), (5, 2, 4), "need at least one query row"),
        ((3, 2, 4), (0, 2, 4), "need at least one key row"),
    ], ids=["queries-not-rank-3", "keys-not-rank-3", "head-dim-mismatch", "no-query-rows",
            "no-key-rows"])
    def test_bad_shape_rejected(self, q_shape, k_shape, message):
        with pytest.raises(InvalidInput) as info:
            importance(np.ones(q_shape), np.ones(k_shape), cfg())
        assert type(info.value) is InvalidInput and str(info.value) == message

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

    @pytest.mark.parametrize("h_k", [1, 2, 4])
    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize("window", [7, 60])
    @pytest.mark.parametrize("frames", [1, 3])
    def test_garbage_scratch_gives_the_same_bits(self, h_k, group, window, frames):
        # the buffer's case: keys a prefix of a longer store, an oversized
        # scratch left over from earlier passes, queries optionally frame-pooled
        rng = np.random.default_rng(10 * h_k + group)
        q = rng.normal(size=(33, h_k * group, 16))
        q = q.reshape(-1, frames, *q.shape[1:]).mean(axis=1)
        store = rng.normal(size=(340, h_k, 16))
        config = cfg(query_window=window)
        scratch = np.full(min(window, len(q)) * group * 340 + 7, np.nan)
        got = importance(q, store[:301], config, scratch=scratch)
        assert np.array_equal(got, importance(q, store[:301].copy(), config))
        assert np.array_equal(got, importance(q, store[:301], config, scratch=scratch))

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

    def test_logit_above_exp_overflow_rejected(self):
        # no row max is subtracted, so exp sees each logit as it is: at d = 1 the
        # query is the logit against a unit key; exp(709) is finite, exp(710) is not
        keys = np.array([[[1.0]], [[0.0]]])
        assert np.isfinite(importance(np.full((1, 1, 1), 709.0), keys, cfg())).all()
        with pytest.raises(InvalidInput) as info, np.errstate(over="ignore"):
            importance(np.full((1, 1, 1), 710.0), keys, cfg())
        assert str(info.value) == "softmax produced a non-finite value"

    @pytest.mark.parametrize("logit", [-800.0, -720.0])
    def test_row_of_vanishing_logits_rejected(self, logit):
        # one row's logits all below about -708 sum to zero (exp(-800) underflows)
        # or to a subnormal (exp(-720)), where the GEMV's 1 / sum would give NaN or
        # inf; the row above it is fine, so the check is per row
        q = np.array([0.0, logit]).reshape(2, 1, 1)
        with pytest.raises(InvalidInput) as info:
            importance(q, np.ones((3, 1, 1)), cfg())
        assert str(info.value) == (
            "softmax row sum vanished (a row of logits all below about -708)")

    def test_row_of_nan_logits_rejected_as_non_finite(self):
        # a NaN sum is reported as non-finite even beside a vanishing row
        q = np.array([np.nan, -800.0]).reshape(2, 1, 1)
        with pytest.raises(InvalidInput) as info:
            importance(q, np.ones((3, 1, 1)), cfg())
        assert str(info.value) == "softmax produced a non-finite value"

    def test_logits_near_the_floor_match_the_shifted_oracle(self):
        # logits of about -700 exponentiate to normal floats: no shift is needed
        q = np.full((1, 1, 1), -700.0)
        keys = np.array([1.0, 1.01, 0.99, 1.005]).reshape(4, 1, 1)
        np.testing.assert_allclose(importance(q, keys, cfg()),
                                   importance_oracle(q, keys, 50), rtol=1e-9, atol=0)


@pytest.mark.parametrize("query_granularity", ["token", "frame"])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_buffer_logits_stay_within_one_over_sqrt_d(profile, query_granularity, monkeypatch):
    # what keeps importance's unshifted exp far from overflow and underflow: the
    # buffer's keys are unit rows (or zero), its query rows unit rows or frame means
    # of them, so every row's l2 norm is at most 1 and every logit within 1/sqrt(d)
    seen = []

    def measured(queries, keys, plan, **kw):
        seen.append((queries.copy(), keys.copy()))
        return importance(queries, keys, plan, **kw)

    monkeypatch.setattr(kvcache, "importance", measured)
    config = _deep_merge(resolve_config(profile=profile),
                         {"kv": {"query_granularity": query_granularity}})
    scene, schedule, policy, kv, cost, noise = build_objects(config)
    assert run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                       noise_scale=noise).compressions
    one = 1.0 + 4 * np.finfo(float).eps   # a unit row's norm, up to rounding
    for queries, keys in seen:
        d = keys.shape[-1]
        assert np.linalg.norm(queries, axis=-1).max() <= one
        assert np.linalg.norm(keys, axis=-1).max() <= one
        logits = queries.reshape(-1, d) @ keys.reshape(-1, d).T / math.sqrt(d)
        assert np.abs(logits).max() <= one / math.sqrt(d)


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

    def test_not_2d_rejected(self):
        with pytest.raises(InvalidInput) as info:
            pooled_importance(np.ones(9), cfg())
        assert type(info.value) is InvalidInput
        assert str(info.value) == "importance must be (heads, tokens)"

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

    @given(seed=st.integers(0, 2**32 - 1), l_k=st.integers(2, 64),
           heads=st.integers(1, 4), dim=st.integers(1, 16),
           scale=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, seed, l_k, heads, dim, scale):
        # each head's scores are a distribution over the tokens
        keys = scale * np.random.default_rng(seed).normal(size=(l_k, heads, dim))
        out = redundancy_fast(keys)
        assert out.shape == (heads, l_k)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert (out >= 0).all()

    @pytest.mark.parametrize("l_k", [2, 37, 513, 1100])
    def test_heads_batch_bit_for_bit(self, l_k):
        # one head at a time gives the batched bits, at short and long lengths
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

    @pytest.mark.parametrize("fn, keys, message", [
        (redundancy_naive, np.ones((4, 3)), "keys must be rank-3 (tokens, heads, dim)"),
        (redundancy_fast, np.ones((4, 3)), "keys must be rank-3 (tokens, heads, dim)"),
        (redundancy_fast, np.ones((1, 1, 3)), "redundancy needs at least two tokens"),
        # a row sum is the finiteness check: a non-finite key makes its head's sum NaN
        (redundancy_fast, np.r_[np.ones((3, 2, 4)), np.full((1, 2, 4), np.inf)],
         "redundancy produced a non-finite value"),
        (redundancy_fast, np.r_[np.ones((3, 2, 4)), [[[1.0, np.nan, 1.0, 1.0]] * 2]],
         "redundancy produced a non-finite value"),
    ], ids=["naive-not-rank-3", "fast-not-rank-3", "fast-one-token", "fast-inf-row",
            "fast-nan-row"])
    def test_bad_keys_rejected(self, fn, keys, message):
        with pytest.raises(InvalidInput) as info:
            fn(keys)
        assert type(info.value) is InvalidInput and str(info.value) == message


class TestCombinedScore:
    """``score_candidates`` at the ends of lambda: one term each, bit for bit."""

    @staticmethod
    def candidates(seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(9, 4, 8)), rng.normal(size=(30, 2, 8))

    def test_lambda_one_ranks_like_importance(self):
        q, keys = self.candidates(10)
        plan = cfg(head_dim=8, mix_lambda=1.0)
        assert np.array_equal(score_candidates(q, keys, plan),
                              pooled_importance(importance(q, keys, plan), plan))

    def test_lambda_zero_ranks_like_low_redundancy(self):
        q, keys = self.candidates(11)
        assert np.array_equal(score_candidates(q, keys, cfg(head_dim=8, mix_lambda=0.0)),
                              -redundancy_fast(keys))


class TestSelection:
    def test_argmax_pair(self):
        scores = np.array([0.4, 0.1, 0.3, 0.2])
        keep = select_tokens(scores, 2, 1)
        assert list(keep) == [0, 2]

    def test_frame_group_selection(self):
        # 2 frames of 3 tokens; frame scores [0.6, 0.4]; budget of one frame
        scores = np.array([0.6, 0.6, 0.6, 0.4, 0.4, 0.4])
        keep = select_tokens(scores, 3, 3)
        assert list(keep) == [0, 1, 2]

    def test_frame_size_one_equals_token(self):
        # the buffer resolves frame key granularity of 1-token frames to group 1
        rng = np.random.default_rng(13)
        frame, token = (KVBuffer(cfg(key_heads=2, head_dim=4, budget_chunks=2,
                                     key_granularity=g), tokens_per_chunk=12, frame_tokens=1)
                        for g in ("frame", "token"))
        queries = rng.normal(size=(12, 4, 4))
        for i in range(1, 5):
            keys = rng.normal(size=(12, 2, 4))
            assert plain(frame.add_clean_chunk(i, keys, lambda n: queries[-n:], i)) \
                == plain(token.add_clean_chunk(i, keys, lambda n: queries[-n:], i))

    def test_group_loop_oracle(self):
        rng = np.random.default_rng(14)
        scores = rng.random(24)
        group = 4
        keep = select_tokens(scores, 8, group)
        means = scores.reshape(-1, group).mean(axis=1)
        best = sorted(sorted(range(6), key=lambda g: (-means[g], g))[:2])
        expected = [g * group + k for g in best for k in range(group)]
        assert list(keep) == expected

    @pytest.mark.parametrize("row, budget, group, error, match", [
        (np.zeros((2, 6)), 6, 3, InvalidInput, "1-D score row"),
        (np.zeros(6), 6, 0, InvalidInput, "whole 0-token groups"),
        (np.zeros(10), 9, 3, InvalidInput, "whole 3-token groups"),
        (np.zeros(12), 3, 4, InvalidConfig, "budget 3 below one group of 4"),
    ], ids=["row-not-1d", "group-below-one", "row-not-whole-groups", "budget-below-one-group"])
    def test_bad_input_rejected(self, row, budget, group, error, match):
        with pytest.raises(error, match=match):
            select_tokens(row, budget, group)


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
        return self.buffer.add_clean_chunk(chunk_index, keys, lambda n: self.queries[-n:],
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
            ids = list(report.heads[h].retained_ids)
            assert ids == sorted(ids)
            assert set(ids) <= universe
            assert len(ids) == 24

    def test_heads_can_differ(self):
        self.feed(1)
        self.feed(2)
        heads = self.feed(3).heads
        assert list(heads[0].retained_ids) != list(heads[1].retained_ids)   # heads select apart

    def test_report_round_trips_json(self):
        self.feed(1)
        self.feed(2)
        report = self.feed(3)
        payload = json.loads(RunTrace(config={}, compressions=[report]).to_json())
        # the first pass's candidates are tokens 0 to 35, so a head's set bits are its ids
        bits = np.unpackbits(np.frombuffer(base64.b64decode(payload["keep"]), np.uint8))
        assert len(bits) == 2 * 36
        for h, mask in enumerate(bits.reshape(2, 36)):
            assert np.flatnonzero(mask).tolist() == report.heads[h].retained_ids.tolist()
        assert "compressions" not in payload

    def test_report_ids_are_read_only_and_never_rewritten(self):
        self.feed(1)
        self.feed(2)
        report = self.feed(3)
        kept = {h: head.retained_ids.copy() for h, head in report.heads.items()}
        for h, head in report.heads.items():
            assert head.retained_ids.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                head.retained_ids[0] = -1
        # the heads view one gathered table; nothing was copied per head
        assert report.heads[0].retained_ids.base is report.heads[1].retained_ids.base
        for chunk in range(4, 8):   # every later arrival compresses again
            assert self.feed(chunk) is not None
        for h, head in report.heads.items():
            np.testing.assert_array_equal(head.retained_ids, kept[h])

    def test_bad_key_shape_rejected(self):
        keys = np.ones((self.tokens - 1, 2, 4))
        with pytest.raises(InvalidInput) as info:
            self.buffer.add_clean_chunk(1, keys, lambda n: self.queries[-n:], 1)
        assert str(info.value) == "bad key shape (11, 2, 4)"
        assert self.buffer.clean_tokens == 0
        assert self.feed(1) is None   # chunk 1 still arrives next
        assert self.buffer.clean_tokens == self.tokens

    def test_chunk_index_below_one_rejected(self):
        # chunk 0 would take the token ids -12..-1
        with pytest.raises(InvalidInput, match="chunk_index 0 must be above 0"):
            self.feed(0)
        assert self.buffer.clean_tokens == 0

    @pytest.mark.parametrize("again", [1, 3])
    def test_chunk_index_not_above_the_last_rejected(self, again):
        # an earlier or repeated chunk would break the ascending, unique ids
        self.feed(3)
        with pytest.raises(InvalidInput, match=f"chunk_index {again} must be above 3"):
            self.feed(again)
        assert self.buffer.clean_tokens == 12
        self.feed(4)
        report = self.feed(5)
        for head in report.heads.values():
            assert np.all(np.diff(head.retained_ids) > 0) and head.retained_ids.min() >= 24

    def test_gather_rejects_a_position_past_the_candidates(self, monkeypatch):
        # the gather's clip mode would clamp an out-of-range position silently
        self.feed(1)
        self.feed(2)
        monkeypatch.setattr(kvcache, "select_tokens", lambda *args: np.arange(13, 37))
        # 36 candidates: position 36 is one past the last
        with pytest.raises(InternalError, match="outside the candidates"):
            self.feed(3)

    def test_later_compressions_reuse_the_run_long_arrays(self, monkeypatch):
        # magi-fast: the first compression makes the scratch; each later one
        # allocates well under half of one key head's logits
        rises = []
        add_clean_chunk = KVBuffer.add_clean_chunk

        def measured(buffer, *args):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            report = add_clean_chunk(buffer, *args)
            if report is not None:
                rises.append(tracemalloc.get_traced_memory()[1] - entry)
            return report

        monkeypatch.setattr(KVBuffer, "add_clean_chunk", measured)
        scene, sched, policy, kv, cost, noise = build_objects(resolve_config(profile="magi-fast"))
        tokens = scene.tokens_per_chunk   # query rows, and candidates per budget chunk
        logits = (min(kv.query_window, tokens) * kv.query_heads // kv.key_heads
                  * (kv.budget_chunks + 1) * tokens * 8)
        tracemalloc.start()
        try:
            run_denoise(scene, sched, policy=policy, kv=kv, cost=cost, noise_scale=noise)
        finally:
            tracemalloc.stop()
        assert len(rises) == 5 and rises[0] > logits
        assert max(rises[1:]) < logits / 2

    @pytest.mark.parametrize("field", ["tokens_per_chunk", "frame_tokens"])
    def test_nonpositive_dimension_rejected(self, field):
        dims = dict(tokens_per_chunk=12, frame_tokens=4)
        with pytest.raises(InvalidConfig, match="dimensions must be positive"):
            KVBuffer(cfg(), **{**dims, field: 0})

    def test_chunk_of_part_frames_rejected(self):
        # the query window is taken in whole frames from the end of the chunk
        with pytest.raises(InvalidConfig, match="a chunk whole frames"):
            KVBuffer(cfg(query_granularity="frame"), tokens_per_chunk=10, frame_tokens=4)

    def test_budget_required(self):
        with pytest.raises(InvalidConfig, match="needs budget_chunks"):
            KVBuffer(cfg(budget_chunks=None), tokens_per_chunk=12, frame_tokens=4)

    def test_granularities_become_group_sizes(self):
        assert [kvcache.group_size(g, 12, 4) for g in ("token", "frame", "chunk")] == [1, 4, 12]
        buffer = KVBuffer(cfg(key_granularity="chunk", query_granularity="frame"),
                          tokens_per_chunk=12, frame_tokens=4)
        assert (buffer.key_group, buffer.query_group) == (12, 4)


def plain(report):
    """A compression report (or None) as plain values, ids as lists, for ``==``."""
    if report is None:
        return None
    return {**vars(report), "heads": {h: {**vars(r), "retained_ids": r.retained_ids.tolist()}
                                      for h, r in report.heads.items()}}


class TestFrameQueries:
    """The buffer pools frame queries itself, and only when it compresses."""

    @staticmethod
    def buffer(**kw):
        return KVBuffer(cfg(key_heads=2, head_dim=4, budget_chunks=2, **kw),
                        tokens_per_chunk=12, frame_tokens=4)

    def test_pooled_in_buffer_equals_pooled_by_caller(self):
        rng = np.random.default_rng(21)
        queries = rng.normal(size=(12, 4, 4))
        pooled = queries.reshape(-1, 4, 4, 4).mean(axis=1)   # frames of 4 tokens
        frame, token = self.buffer(query_granularity="frame"), self.buffer()
        reports = 0
        for i in range(1, 5):
            keys, _ = make_chunk_kv(rng, 12, 2, 4)
            got = frame.add_clean_chunk(i, keys, lambda n: queries[-n:], i)
            want = token.add_clean_chunk(i, keys, lambda n: pooled[-n:], i)
            assert plain(got) == plain(want)   # ids and float scores exact
            reports += got is not None
        assert reports == 2

    def test_fill_phase_does_not_pool(self):
        rng = np.random.default_rng(22)
        buffer = self.buffer(query_granularity="frame")

        def unread(n):
            raise AssertionError("a fill-phase arrival asked for its queries")

        for i in (1, 2):   # 24 tokens fit the budget: nothing scores the queries
            assert buffer.add_clean_chunk(
                i, make_chunk_kv(rng, 12, 2, 4)[0], unread, i) is None
        queries, asked = rng.normal(size=(12, 4, 4)), []
        report = buffer.add_clean_chunk(3, make_chunk_kv(rng, 12, 2, 4)[0],
                                        lambda n: asked.append(n) or queries[-n:], 3)
        assert report is not None and asked == [12]   # the overflowing arrival scores


@pytest.mark.parametrize("granularity, window, frame_tokens, asked", [
    ("token", 50, 4, 12),   # min(query_window, tokens_per_chunk)
    ("token", 5, 4, 5),
    ("frame", 50, 4, 12),   # min(query_window, frames per chunk) whole frames
    ("frame", 2, 4, 8),
    ("frame", 1, 3, 3),
])
def test_compression_asks_for_the_query_window_tokens_only(granularity, window,
                                                           frame_tokens, asked):
    rng = np.random.default_rng(23)
    queries = rng.normal(size=(12, 4, 4))
    plan = cfg(key_heads=2, head_dim=4, budget_chunks=1, query_window=window,
               query_granularity=granularity)
    counts = []

    def window_rows(n):
        counts.append(n)
        return queries[-n:]

    sliced, whole = (KVBuffer(plan, tokens_per_chunk=12, frame_tokens=frame_tokens)
                     for _ in range(2))
    for chunk in (1, 2, 3):
        keys, _ = make_chunk_kv(rng, 12, 2, 4)
        got = sliced.add_clean_chunk(chunk, keys, window_rows, chunk)
        # every row given: the window reads the same trailing rows
        want = whole.add_clean_chunk(chunk, keys, lambda n: queries, chunk)
        assert plain(got) == plain(want)
    assert counts == [asked, asked]


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
    group = {"token": 1, "frame": frame_size, "chunk": tokens}[granularity]
    queries = rng.normal(size=(6, heads, 4))
    compressing, arrived = False, np.empty((0, heads, 4))
    for chunk in range(1, arrivals + 1):
        keys, _ = make_chunk_kv(rng, tokens, heads, 4)
        arrived = np.concatenate([arrived, keys])   # row i holds token id i
        report = buffer.add_clean_chunk(chunk, keys, lambda n: queries[-n:], chunk)
        # once the budget overflows, every later arrival compresses
        assert (report is not None) == (compressing or chunk * tokens > budget)
        compressing = report is not None
        assert buffer.clean_tokens <= budget
        for h in range(heads):
            # the fill phase keeps every arrived token
            ids = np.arange(chunk * tokens) if report is None else report.heads[h].retained_ids
            assert ids.size == buffer.clean_tokens
            assert np.all(np.diff(ids) > 0)
            assert ids.min() >= 0 and ids.max() < chunk * tokens
            # whole key groups: each run of ``group`` ids starts a group and is contiguous
            runs = ids.reshape(-1, group)
            assert np.all(runs[:, 0] % group == 0)
            assert np.all(runs - runs[:, :1] == np.arange(group))
            # the keys stored in place are the retained tokens' own, in id order
            np.testing.assert_array_equal(buffer._keys[:len(ids), h], arrived[ids, h])
        if report is not None:
            assert set(report.heads) == set(range(heads))
            for h, head in report.heads.items():
                assert head.retained_ids.dtype == np.int64
                assert (len(head.retained_ids) + head.evicted_count
                        == report.candidate_tokens)
