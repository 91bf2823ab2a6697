import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcache_sim import PowerLawSchedule, euler_step
from flowcache_sim.errors import InvalidInput, Singularity

# high-precision evaluation of (1/3)^1.5
SIGMA_THIRD_P15 = 0.19245008972987526


class TestSigma:
    def test_boundary(self):
        for p in (0.5, 1.0, 2.0, 3.7):
            assert PowerLawSchedule(power=p).sigma(1.0) == 1.0
            assert PowerLawSchedule(power=p).sigma(0.0) == 0.0

    def test_direct_evaluation(self):
        assert PowerLawSchedule(power=2.0).sigma(0.5) == 0.25

    def test_extended_precision_oracle(self):
        sched = PowerLawSchedule(power=1.5, total_time=1.0)
        assert sched.sigma(1.0 / 3.0) == pytest.approx(SIGMA_THIRD_P15, rel=1e-14)

    def test_domain(self):
        sched = PowerLawSchedule(power=1.0, total_time=2.0)
        with pytest.raises(InvalidInput):
            sched.sigma(-0.1)
        with pytest.raises(InvalidInput):
            sched.sigma(2.1)

    def test_monotone_on_grid(self):
        sched = PowerLawSchedule(power=1.7, steps=50)
        values = [sched.sigma(t) for t in visited_times(sched)]
        # grid is descending in t, so sigma must strictly decrease
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLogDerivativeRatio:
    def test_direct(self):
        assert PowerLawSchedule(power=1.0).log_derivative_ratio(2.0) == 0.5

    def test_direct_integer(self):
        assert PowerLawSchedule(power=3.0, total_time=4.0).log_derivative_ratio(3.0) == 1.0

    def test_singularity(self):
        with pytest.raises(Singularity):
            PowerLawSchedule(power=1.0).log_derivative_ratio(0.0)

    def test_finite_difference_oracle(self):
        sched = PowerLawSchedule(power=2.5, total_time=1.0)
        t, h = 0.7, 1e-6
        numeric = (sched.sigma(t + h) - sched.sigma(t - h)) / (2 * h * sched.sigma(t))
        assert sched.log_derivative_ratio(t) == pytest.approx(numeric, rel=1e-6)


def visited_times(sched):
    """Timesteps run_denoise steps from, plus the point one dt past the last."""
    times = [sched.time_at(i) for i in range(sched.steps)]
    return np.array(times + [times[-1] - sched.dt])


class TestGrid:
    def test_dt_sums_to_total_time(self):
        for steps in (7, 50, 64, 256):
            sched = PowerLawSchedule(power=1.0, total_time=1.0, steps=steps)
            times = visited_times(sched)
            assert times[0] == sched.total_time
            np.testing.assert_allclose(-np.diff(times), sched.dt, rtol=1e-12)
            assert abs((-np.diff(times)).sum() - sched.total_time) < 1e-12

    def test_descending_strictly(self):
        times = visited_times(PowerLawSchedule(power=1.0, steps=10))
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_final_point_is_zero(self):
        assert visited_times(PowerLawSchedule(power=1.0, steps=4))[-1] == 0.0

    def test_time_at_domain(self):
        sched = PowerLawSchedule(power=1.0, steps=4)
        with pytest.raises(InvalidInput):
            sched.time_at(4)
        with pytest.raises(InvalidInput):
            sched.time_at(-1)

    def test_bad_params(self):
        with pytest.raises(InvalidInput):
            PowerLawSchedule(power=0.0)
        with pytest.raises(InvalidInput):
            PowerLawSchedule(power=1.0, total_time=-1.0)


class TestEulerStep:
    def test_zero_velocity_identity(self):
        x = np.array([1.0, -4.0])
        np.testing.assert_array_equal(euler_step(x, np.zeros(2), 0.25), x)

    def test_direct(self):
        np.testing.assert_array_equal(
            euler_step(np.array([1.0, 1.0]), np.array([2.0, -2.0]), 0.5),
            [2.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            euler_step(np.zeros(2), np.zeros(3), 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_dt(self, dt):
        with pytest.raises(InvalidInput) as info:
            euler_step(np.zeros(2), np.zeros(2), dt)
        assert str(info.value) == f"dt must be positive, got {dt}"

    @given(a=st.floats(0.01, 50, allow_nan=False))
    def test_linear_in_velocity(self, a):
        x = np.array([0.5, -2.0, 3.0])
        v = np.array([1.0, 0.25, -1.5])
        lhs = euler_step(x, a * v, 0.125)
        rhs = euler_step(x, v, a * 0.125)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_scalar_trajectory_reaches_clean_state(self):
        # 64-step integration of the closed-form field lands within 1e-3 of
        # the clean value; a 10_000-step integration serves as the oracle
        def integrate(steps, power=1.5, clean=1.0, start=2.0):
            x = start
            for i in range(steps, 0, -1):
                t = i / steps
                v = -(power / t) * (x - clean)
                x = float(euler_step(np.array([x]), np.array([v]), 1.0 / steps)[0])
            return x

        coarse = integrate(64)
        fine = integrate(10_000)
        assert abs(coarse - 1.0) < 1e-3
        assert abs(coarse - fine) < 1e-3
