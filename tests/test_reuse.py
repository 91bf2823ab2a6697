from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import ReusePolicy, decide, estimate_metric
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
        for step in range(5):
            d = decide(policy, 0.0, step, 1e-9)
            assert d.action == COMPUTE and d.accumulator == 0.0

    def test_hand_trace(self):
        # epsilon=0.05, warmup=2, post-warmup stream [0.02, 0.02, 0.02]
        # -> reuse(f=0.02), reuse(f=0.04), compute(f=0)
        policy = ReusePolicy(epsilon=0.05, warmup=2)
        f, got = 0.0, []
        for step, metric in zip((2, 3, 4), (0.02, 0.02, 0.02)):
            d = decide(policy, f, step, metric)
            f = d.accumulator
            got.append((d.action, round(d.accumulator, 10)))
        assert got == [(REUSE, 0.02), (REUSE, 0.04), (COMPUTE, 0.0)]

    def test_missing_estimate_computes(self):
        d = decide(ReusePolicy(0.5, 0), 0.0, 0, None)
        assert d.action == COMPUTE

    def test_epsilon_zero_all_compute(self):
        policy = ReusePolicy(epsilon=0.0, warmup=0)
        f = 0.0
        for step in range(10):
            d = decide(policy, f, step, 0.001)
            f = d.accumulator
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
        f = 0.0
        n = data.draw(st.integers(1, 64))
        for step in range(n):
            metric = data.draw(st.floats(1e-6, 2 * epsilon))
            d = decide(policy, f, step, metric)
            if d.action == COMPUTE:
                assert d.accumulator == 0.0
            else:
                assert d.accumulator > f
                assert d.accumulator <= epsilon
            f = d.accumulator

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


def chunk(latent_norm, velocity_norm=None, accumulator=0.0):
    # the fields of armodel.ChunkState that apply reads and writes
    return SimpleNamespace(latent_norm=latent_norm, velocity_norm=velocity_norm,
                           accumulator=accumulator)


class TestEstimateAndApply:
    def test_estimate_fresh_after_compute(self):
        row = chunk(8.0)
        [metric] = apply([Decision(COMPUTE, None, 0.0)], [row], np.array([[1.0, 1.0]]), 0.5)
        assert row.velocity_norm == 2.0
        # unchanged dt and latent: the estimate equals the recorded metric
        assert estimate_metric(row.velocity_norm, 0.5, 8.0) == metric == 0.125

    def test_estimate_none_without_cache(self):
        assert estimate_metric(None, 0.1, 2.0) is None

    @pytest.mark.parametrize("dt, latent_norm, error, message", [
        (0.0, 2.0, InvalidInput, "dt must be positive, got 0.0"),
        (-0.1, 2.0, InvalidInput, "dt must be positive, got -0.1"),
        (0.1, 0.0, DegenerateInput, "relative_l1 against a zero-norm latent"),
    ], ids=["dt-zero", "dt-negative", "zero-latent-norm"])
    def test_estimate_bad_input(self, dt, latent_norm, error, message):
        with pytest.raises(error) as info:
            estimate_metric(2.0, dt, latent_norm)
        assert type(info.value) is error and str(info.value) == message

    def test_reuse_keeps_cached_velocity_norm(self):
        row = chunk(1.0, velocity_norm=2.0)
        [metric] = apply([Decision(REUSE, 0.1, 0.1)], [row], np.array([[5.0]]), 0.5)
        assert metric == 0.1
        assert row.velocity_norm == 2.0 and row.accumulator == 0.1

    def test_rows_follow_their_own_decisions(self):
        # a computing row's norm is taken from its fresh velocity; the reusing row keeps its cached one
        rows = [chunk(4.0, accumulator=0.3), chunk(2.0, velocity_norm=3.0)]
        metrics = apply([Decision(COMPUTE, None, 0.0), Decision(REUSE, 0.25, 0.25)],
                        rows, np.array([[-4.0, 4.0], [2.0, -1.0]]), 0.5)
        assert metrics == [1.0, 0.25]
        assert [(r.velocity_norm, r.accumulator) for r in rows] == [(8.0, 0.0), (3.0, 0.25)]

    def test_velocities_are_only_read(self):
        # apply records; the trajectory takes the Euler step
        velocities = np.array([[-4.0, 4.0], [2.0, -1.0]])
        before = velocities.tobytes()
        apply([Decision(COMPUTE, None, 0.0), Decision(REUSE, 0.25, 0.25)],
              [chunk(4.0), chunk(2.0, velocity_norm=3.0)], velocities, 0.5)
        assert velocities.tobytes() == before

    def test_reuse_without_cache_is_internal_error(self):
        with pytest.raises(InternalError):
            apply([Decision(REUSE, 0.1, 0.1)], [chunk(1.0)], np.ones((1, 1)), 0.5)

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
