import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import ChunkReuseState, ReusePolicy, decide, estimate_metric
from flowcache_sim.errors import DegenerateInput, InternalError, InvalidInput
from flowcache_sim.reuse import COMPUTE, REUSE, Decision, apply
from flowcache_sim.verify import _interpret_reuse_rule, engine_decisions, relative_l1


class TestRelativeL1:
    def test_zero_velocity(self):
        assert relative_l1(np.zeros((2, 2)), 0.5, np.ones((2, 2))) == 0.0

    def test_scalar_direct(self):
        assert relative_l1(np.array([2.0]), 0.5, np.array([4.0])) == 0.25

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(3, 4, 5))
        x = rng.normal(size=(3, 4, 5))
        num = sum(abs(float(e)) for e in v.ravel()) * 0.125
        den = sum(abs(float(e)) for e in x.ravel())
        assert relative_l1(v, 0.125, x) == pytest.approx(num / den, rel=1e-12)

    def test_zero_norm_latent(self):
        with pytest.raises(DegenerateInput):
            relative_l1(np.ones(3), 0.1, np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            relative_l1(np.ones(3), 0.1, np.ones(4))

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_dt(self, dt):
        with pytest.raises(InvalidInput, match="dt must be positive"):
            relative_l1(np.ones(3), dt, np.ones(3))


class TestDecide:
    def test_warmup_always_computes(self):
        policy = ReusePolicy(epsilon=1e9, warmup=5)
        state = ChunkReuseState()
        for step in range(5):
            d = decide(policy, state, step, 1e-9)
            assert d.action == COMPUTE and d.accumulator == 0.0

    def test_hand_trace(self):
        # epsilon=0.05, warmup=2, post-warmup stream [0.02, 0.02, 0.02]
        # -> reuse(f=0.02), reuse(f=0.04), compute(f=0)
        policy = ReusePolicy(epsilon=0.05, warmup=2)
        state = ChunkReuseState(cached_velocity=np.ones(1))
        got = []
        for step, metric in zip((2, 3, 4), (0.02, 0.02, 0.02)):
            d = decide(policy, state, step, metric)
            state.accumulator = d.accumulator
            got.append((d.action, round(d.accumulator, 10)))
        assert got == [(REUSE, 0.02), (REUSE, 0.04), (COMPUTE, 0.0)]

    def test_missing_estimate_computes(self):
        d = decide(ReusePolicy(0.5, 0), ChunkReuseState(), 0, None)
        assert d.action == COMPUTE

    def test_epsilon_zero_all_compute(self):
        policy = ReusePolicy(epsilon=0.0, warmup=0)
        state = ChunkReuseState()
        for step in range(10):
            d = decide(policy, state, step, 0.001)
            state.accumulator = d.accumulator
            assert d.action == COMPUTE

    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_direct_interpreter(self, data):
        epsilon = data.draw(st.floats(1e-3, 0.3))
        warmup = data.draw(st.integers(0, 8))
        n = data.draw(st.integers(1, 64))
        metrics = data.draw(st.lists(
            st.floats(1e-6, 2 * epsilon), min_size=n, max_size=n))
        assert (engine_decisions(metrics, epsilon, warmup)
                == _interpret_reuse_rule(metrics, epsilon, warmup))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_accumulator_invariants(self, data):
        epsilon = data.draw(st.floats(1e-3, 0.3))
        warmup = data.draw(st.integers(0, 4))
        policy = ReusePolicy(epsilon, warmup)
        state = ChunkReuseState()
        n = data.draw(st.integers(1, 64))
        for step in range(n):
            metric = data.draw(st.floats(1e-6, 2 * epsilon))
            before = state.accumulator
            d = decide(policy, state, step, metric)
            state.accumulator = d.accumulator
            if d.action == COMPUTE:
                assert d.accumulator == 0.0
            else:
                assert d.accumulator > before
                assert d.accumulator <= epsilon

    def test_monotone_metrics_give_shrinking_reuse_runs(self):
        # under a non-decreasing metric stream, consecutive reuse run
        # lengths never grow
        metrics = np.linspace(0.004, 0.25, 64)
        actions = engine_decisions(metrics, epsilon=0.03, warmup=5)
        runs, current = [], 0
        for a in actions:
            if a == REUSE:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs and all(a >= b for a, b in zip(runs, runs[1:]))


class TestEstimateAndApply:
    def test_estimate_fresh_after_compute(self):
        state = ChunkReuseState()
        latent = np.array([4.0, -4.0])
        decision = Decision(COMPUTE, None, 0.0)
        new_latent, metric = apply(decision, state, latent, 8.0, 0.5,
                                   lambda: np.array([1.0, 1.0]))
        assert state.velocity_norm == 2.0
        # unchanged dt and latent: the estimate equals the recorded metric
        assert estimate_metric(state, 0.5, 8.0) == metric == 0.125

    def test_estimate_none_without_cache(self):
        assert estimate_metric(ChunkReuseState(), 0.1, 2.0) is None

    def test_reuse_applies_cached_velocity(self):
        state = ChunkReuseState(cached_velocity=np.array([2.0]))
        decision = Decision(REUSE, 0.1, 0.1)
        new_latent, metric = apply(decision, state, np.array([1.0]), 1.0, 0.5,
                                   lambda: pytest.fail("must not compute"))
        assert new_latent[0] == 2.0
        assert metric == 0.1

    def test_reuse_without_cache_is_internal_error(self):
        with pytest.raises(InternalError):
            apply(Decision(REUSE, 0.1, 0.1), ChunkReuseState(), np.ones(1),
                  1.0, 0.5, lambda: np.ones(1))

    def test_alternating_reuse_error_bounded(self):
        # scalar closed-form system: forcing compute/reuse alternation stays
        # within twice the largest single-step stale-velocity error
        power, steps, clean = 1.0, 64, 0.25
        dt = 1.0 / steps

        def velocity(x, t):
            return -(power / t) * (x - clean)

        x_base = x_alt = 2.0
        cached = None
        worst_single = 0.0
        for i in range(steps, 0, -1):
            t = i / steps
            x_base = x_base + velocity(x_base, t) * dt
            if cached is None or i % 2 == 0:
                cached = velocity(x_alt, t)
            else:
                worst_single = max(worst_single,
                                   abs((cached - velocity(x_alt, t)) * dt))
            x_alt = x_alt + cached * dt
        assert abs(x_alt - x_base) <= 2 * worst_single
