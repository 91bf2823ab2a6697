import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from flowcache_sim import (PROFILES, ChunkState, KVPlan, PowerLawSchedule,
                           ReusePolicy, SceneConfig, active_window, build_objects,
                           ideal_velocity, make_clean_latent, make_initial_noise,
                           perturbed_velocity, resolve_config, run_denoise,
                           total_global_steps, trajectory)
from flowcache_sim import armodel
from flowcache_sim.armodel import recompute_flops
from flowcache_sim.cli import _apply_axis
from flowcache_sim.config import _deep_merge
from flowcache_sim.errors import InvalidConfig, InvalidInput, Singularity
from flowcache_sim.trace import DTYPES, ChunkStepRecord, StepRecord


def small_scene(**kw):
    defaults = dict(num_chunks=4, window=2, shape=(4, 2, 3, 3), seed=3,
                    norm_spread=0.25, norm_base=0.02)
    defaults.update(kw)
    return SceneConfig(**defaults)


class TestActiveWindow:
    def test_first_chunk(self):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = SceneConfig(num_chunks=10, window=4)
        assert active_window(1, sched, scene) == (0, 64)

    def test_offset(self):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = SceneConfig(num_chunks=10, window=4)
        assert active_window(2, sched, scene) == (16, 80)

    def test_total_run_length(self):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = SceneConfig(num_chunks=10, window=4)
        assert total_global_steps(sched, scene) == 208

    def test_divisibility_enforced(self):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = SceneConfig(num_chunks=10, window=3)
        with pytest.raises(InvalidConfig, match="^schedule.steps=64 not "
                                                "divisible by scene.window=3$"):
            active_window(1, sched, scene)

    def test_index_range(self):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = SceneConfig(num_chunks=10, window=4)
        with pytest.raises(InvalidInput):
            active_window(11, sched, scene)


class TestSceneSynthesis:
    def test_clean_norm_profile(self):
        scene = small_scene(norm_spread=0.5)
        for i in range(1, scene.num_chunks + 1):
            latent = make_clean_latent(scene, i)
            assert np.abs(latent).sum() == pytest.approx(scene.clean_norm(i),
                                                         rel=1e-12)

    def test_norms_strictly_increase_with_index(self):
        scene = small_scene(norm_spread=0.5)
        norms = [scene.clean_norm(i) for i in range(1, 5)]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_noise_is_seeded_per_chunk(self):
        scene = small_scene()
        a = make_initial_noise(scene, 1)
        b = make_initial_noise(scene, 2)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, make_initial_noise(scene, 1))


class TestVelocities:
    def setup_method(self):
        self.sched = PowerLawSchedule(power=1.0, steps=8)
        self.scene = small_scene()
        self.chunk = ChunkState(index=1,
                                clean_latent=make_clean_latent(self.scene, 1),
                                latent=make_initial_noise(self.scene, 1))

    def test_fixed_point(self):
        self.chunk.latent = self.chunk.clean_latent.copy()
        np.testing.assert_array_equal(
            ideal_velocity(self.chunk, 0.5, self.sched),
            np.zeros(self.scene.shape))

    def test_scalar_case(self):
        chunk = ChunkState(index=1, clean_latent=np.array([1.0]),
                           latent=np.array([2.0]))
        v = ideal_velocity(chunk, 0.5, PowerLawSchedule(power=1.0))
        assert v[0] == -2.0

    def test_singularity(self):
        with pytest.raises(Singularity):
            ideal_velocity(self.chunk, 0.0, self.sched)

    def test_path_reproduction_512_steps(self):
        # integrating the closed-form field tracks the interpolation path
        # within 1e-3 relative L1 at every grid point
        scene = small_scene(norm_base=0.5)
        sched = PowerLawSchedule(power=1.5, steps=512)
        noise = make_initial_noise(scene, 1)
        chunk = ChunkState(index=1, clean_latent=make_clean_latent(scene, 1),
                           latent=noise.copy())
        diff = noise - chunk.clean_latent
        worst = 0.0
        for local in range(sched.steps):
            t = sched.time_at(local)
            path = chunk.clean_latent + sched.sigma(t) * diff
            rel = np.abs(chunk.latent - path).sum() / np.abs(path).sum()
            worst = max(worst, rel)
            v = ideal_velocity(chunk, t, sched)
            chunk.latent = chunk.latent + v * sched.dt
        assert worst < 1e-3

    def test_perturbation_degenerate_scale(self):
        base = ideal_velocity(self.chunk, 0.75, self.sched)
        same = perturbed_velocity(self.chunk, 0.75, self.sched, 0.0, seed=9)
        np.testing.assert_array_equal(base, same)

    def test_perturbation_deterministic(self):
        a = perturbed_velocity(self.chunk, 0.75, self.sched, 0.2, seed=9)
        b = perturbed_velocity(self.chunk, 0.75, self.sched, 0.2, seed=9)
        np.testing.assert_array_equal(a, b)
        c = perturbed_velocity(self.chunk, 0.75, self.sched, 0.2, seed=10)
        assert not np.array_equal(a, c)

    def test_perturbation_magnitude(self):
        # the perturbation is normalized, so its relative L1 size is exact;
        # spec tolerance for a sampled estimate is 5%
        sizes = []
        for step in range(50):
            self.chunk.local_step = step
            base = ideal_velocity(self.chunk, 0.75, self.sched)
            noisy = perturbed_velocity(self.chunk, 0.75, self.sched, 0.3, seed=4)
            sizes.append(np.abs(noisy - base).sum() / np.abs(base).sum())
        assert np.mean(sizes) == pytest.approx(0.3, rel=0.05)


class TestRunLifecycle:
    def test_window_occupancy(self):
        scene = SceneConfig(num_chunks=6, window=3, shape=(4, 2, 3, 3), seed=1)
        sched = PowerLawSchedule(power=0.25, steps=12)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0))
        stride = sched.steps // scene.window
        interior = range(stride * (scene.window - 1),
                         total_global_steps(sched, scene) - sched.steps + stride)
        for rec in trace.records:
            active = len(rec.chunks)
            assert active <= scene.window
            if rec.global_step in interior:
                assert active == scene.window

    @pytest.mark.parametrize("chunks,window,steps",
                             [(1, 1, 4), (5, 1, 3), (6, 3, 6), (7, 7, 7), (4, 2, 8)])
    def test_steps_visit_exactly_the_active_windows(self, chunks, window, steps):
        scene = small_scene(num_chunks=chunks, window=window)
        sched = PowerLawSchedule(power=0.25, steps=steps)
        spans = {c: active_window(c, sched, scene) for c in range(1, chunks + 1)}
        seen = 0
        for g, rows, finished, _ in trajectory(scene, sched, None, 0.0):
            assert [row[0] for row in rows] == [
                c for c, (start, end) in spans.items() if start <= g < end]
            assert [c.index for c in finished] == [
                c for c, (_, end) in spans.items() if end - 1 == g]
            seen += 1
        assert seen == total_global_steps(sched, scene)

    def test_status_transitions_once(self):
        scene = small_scene()
        sched = PowerLawSchedule(power=0.25, steps=8)
        trace = run_denoise(scene, sched, policy=None)
        for chunk in range(1, scene.num_chunks + 1):
            steps = [cr.local_step for rec in trace.records
                     for cr in rec.chunks if cr.chunk == chunk]
            assert steps == list(range(sched.steps))

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_convergence_to_clean_latent(self, power):
        # epsilon=0, noise-free: every final latent matches the
        # interpolation endpoint within 1e-3 relative L1
        scene = small_scene(num_chunks=2, window=1, norm_base=0.2)
        sched = PowerLawSchedule(power=power, steps=256)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0))
        for i in range(1, scene.num_chunks + 1):
            chunk = ChunkState(index=i, clean_latent=make_clean_latent(scene, i),
                               latent=make_initial_noise(scene, i))
            final = trace.final_latents[chunk.index]
            rel = (np.abs(final - chunk.clean_latent).sum()
                   / np.abs(chunk.clean_latent).sum())
            assert rel < 1e-3

    def test_mixed_decisions_at_shared_step(self):
        # staggered chunks sit at different denoising stages, so some global
        # step must see one chunk compute while another reuses
        scene = SceneConfig(num_chunks=10, window=4, shape=(4, 2, 3, 3), seed=0)
        sched = PowerLawSchedule(power=0.25, steps=64)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.015, 5))
        mixed = any(
            {cr.decision for cr in rec.chunks} == {"compute", "reuse"}
            for rec in trace.records)
        assert mixed

    def test_flops_never_exceed_baseline(self):
        scene = small_scene()
        sched = PowerLawSchedule(power=0.25, steps=8)
        policy_run = run_denoise(scene, sched, policy=ReusePolicy(0.05, 2))
        baseline = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0))
        assert policy_run.totals.total_flops <= baseline.totals.total_flops

    def test_warmup_saturation_equals_epsilon_zero(self):
        # epsilon=inf with warmup covering every step reuses nothing, so the
        # trace matches the epsilon=0 run bitwise
        scene = small_scene()
        sched = PowerLawSchedule(power=0.25, steps=8)
        saturated = run_denoise(scene, sched,
                                policy=ReusePolicy(float("inf"), sched.steps))
        plain = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0))
        assert saturated.content_hash == plain.content_hash

    def test_policy_none_equals_epsilon_zero_under_noise(self):
        # without a policy no estimate runs, so nothing may read a latent
        # norm left over from an earlier step
        scene = SceneConfig(num_chunks=4, window=2, shape=(4, 2, 3, 3), seed=2)
        sched = PowerLawSchedule(power=0.25, steps=8)
        plain = run_denoise(scene, sched, policy=None, noise_scale=0.05)
        zero = run_denoise(scene, sched, policy=ReusePolicy(0.0, warmup=0),
                           noise_scale=0.05)
        assert plain.content_hash == zero.content_hash

    def test_frame_level_queries_run_end_to_end(self):
        scene = small_scene(num_chunks=4, window=2)
        sched = PowerLawSchedule(power=0.25, steps=8)
        kv = KVPlan(budget_chunks=2, query_granularity="frame")
        trace = run_denoise(scene, sched, policy=None, kv=kv)
        assert trace.compressions   # compression fired with pooled queries
        tpc = scene.tokens_per_chunk
        assert all(rec.kv_clean_tokens <= 2 * tpc for rec in trace.records)


class TestProjection:
    """One unit-row projection serves keys and queries, bit for bit as before."""

    @staticmethod
    def written_out(latent, w):
        feats = latent.reshape(latent.shape[0], -1).T
        rows = np.einsum("tc,hcd->thd", feats, w)
        norms = np.sqrt(np.einsum("thd,thd->th", rows, rows))
        norms[norms == 0.0] = 1.0
        return rows / norms[:, :, None]

    def test_keys_and_queries_bit_equal_with_a_zero_token(self):
        scene = small_scene()
        w_key, w_query = armodel._projection_weights(scene, KVPlan())
        latent = make_initial_noise(scene, 1)
        latent[:, 0, 0, 0] = 0.0   # token 0 is all zero across channels
        for w in (w_key, w_query):
            got = armodel._project(latent, w)
            assert got.shape == (scene.tokens_per_chunk, w.shape[0], w.shape[2])
            assert np.array_equal(got, self.written_out(latent, w))
            assert not np.isnan(got).any()
            assert np.all(got[0] == 0.0)
            assert np.allclose(np.linalg.norm(got[1:], axis=-1), 1.0)


class TestTrajectoryIgnoresKV:
    """The KV buffer never feeds back into decisions or latents."""

    @staticmethod
    def magi_fast_objects(budget=5, key_granularity="token"):
        from flowcache_sim import build_objects, resolve_config

        cfg = resolve_config(profile="magi-fast")
        cfg["kv"].update(budget_chunks=budget, key_granularity=key_granularity)
        cfg["noise_scale"] = 0.05
        return build_objects(cfg)

    def magi_fast_run(self, budget, key_granularity):
        scene, sched, policy, kv, cost, noise = self.magi_fast_objects(
            budget, key_granularity)
        return run_denoise(scene, sched, policy=policy, kv=kv, cost=cost,
                           noise_scale=noise)

    @staticmethod
    def chunk_rows(trace):
        return [(cr.chunk, cr.local_step, cr.decision, cr.metric,
                 cr.accumulator, cr.estimate)
                for rec in trace.records for cr in rec.chunks]

    def test_budget_and_key_granularity_leave_trajectory_unchanged(self):
        runs = [self.magi_fast_run(b, gran)
                for b in (None, 1, 2, 5) for gran in ("token", "frame")]
        ref = runs[0]
        assert any(cr.decision == "reuse"
                   for rec in ref.records for cr in rec.chunks)
        assert sum(bool(run.compressions) for run in runs) == 6
        for run in runs[1:]:
            assert self.chunk_rows(run) == self.chunk_rows(ref)
            assert sorted(run.final_latents) == sorted(ref.final_latents)
            for idx, latent in ref.final_latents.items():
                assert np.array_equal(run.final_latents[idx], latent)

    def test_trajectory_events_match_run_records(self):
        scene, sched, policy, kv, cost, noise = self.magi_fast_objects()
        events = list(trajectory(scene, sched, policy, noise))
        trace = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost,
                            noise_scale=noise)
        assert [g for g, *_ in events] == trace.steps["global_step"].tolist()
        stacked = np.array([row for _, rows, _, _ in events for row in rows],
                           DTYPES["chunk_steps"])
        assert np.isnan(stacked["estimate"]).any()
        assert stacked.tobytes() == trace.chunk_steps.tobytes()   # NaN estimates too
        finished = [c for _, _, done, _ in events for c in done]
        assert [c.index for c in finished] == list(range(1, scene.num_chunks + 1))
        for chunk in finished:
            assert np.array_equal(chunk.latent, trace.final_latents[chunk.index])


class TestWorkingSet:
    """Chunk state lives only while its window is open."""

    @staticmethod
    def live_chunk_states():
        return sum(type(o) is ChunkState for o in gc.get_objects())

    def test_finished_chunk_states_die_by_the_next_step(self):
        scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
        sched = PowerLawSchedule(power=1.0, steps=6)
        gc.collect()
        before = self.live_chunk_states()
        refs, seen = [], 0
        for _, _, finished, _ in trajectory(scene, sched, ReusePolicy(0.015, 1), 0.0):
            assert all(ref() is None for ref in refs)
            assert self.live_chunk_states() - before <= scene.window
            refs = [weakref.ref(chunk) for chunk in finished]
            seen += len(refs)
        del finished
        assert all(ref() is None for ref in refs)
        assert seen == scene.num_chunks

    def test_no_record_objects_outlive_a_run(self):
        # the trace keeps its records as columns; a record object is built on read
        def live_records():
            return sum(type(o) in (ChunkStepRecord, StepRecord) for o in gc.get_objects())

        scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
        sched = PowerLawSchedule(power=1.0, steps=6)
        gc.collect()
        before = live_records()
        trace = run_denoise(scene, sched, ReusePolicy(0.015, 1))
        gc.collect()
        assert live_records() == before
        assert trace.chunk_steps.nbytes == 41 * scene.num_chunks * sched.steps

    @staticmethod
    def transient_bytes(num_chunks):
        scene = SceneConfig(num_chunks=num_chunks, window=4, shape=(8, 4, 6, 6))
        sched = PowerLawSchedule(power=1.0, steps=8)
        tracemalloc.start()
        try:
            trace = run_denoise(scene, sched, ReusePolicy(0.015, 2),
                                KVPlan(budget_chunks=None))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.final_latents) == num_chunks
        return peak - retained

    def test_peak_above_the_trace_does_not_grow_with_chunks(self):
        self.transient_bytes(20)   # warm caches outside the measured runs
        latent_bytes = 8 * SceneConfig(shape=(8, 4, 6, 6)).numel
        assert (self.transient_bytes(80)
                <= self.transient_bytes(20) + latent_bytes)


class TestNonFiniteSteps:
    """A step that leaves the finite range fails naming the stage."""

    @staticmethod
    def run_from(monkeypatch, sched, policy, noise):
        # a finite start whose L1 norm is finite too: one huge element
        def huge_noise(scene, chunk_index):
            x = np.zeros(scene.shape)
            x.flat[0] = 1e308
            return x

        monkeypatch.setattr(armodel, "make_initial_noise", huge_noise)
        scene = small_scene(num_chunks=1, window=1)
        with np.errstate(over="ignore", invalid="ignore"):
            run_denoise(scene, sched, policy=policy, noise_scale=noise)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("policy", [None, ReusePolicy(0.015, 0)])
    def test_velocity_overflow(self, monkeypatch, policy, noise):
        sched = PowerLawSchedule(power=4.0, steps=1)   # -4 * 1e308 overflows
        with pytest.raises(InvalidInput,
                           match="ideal_velocity produced a non-finite value"):
            self.run_from(monkeypatch, sched, policy, noise)

    @pytest.mark.parametrize("steps", [1, 4])   # the final step, an early one
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("policy", [None, ReusePolicy(0.015, 0)])
    def test_euler_step_overflow(self, monkeypatch, policy, noise, steps):
        # the velocity stays small (rate p / t with t = 1e6) but the step
        # p * dt / t = 4 overshoots: x - 4x = -3e308
        sched = PowerLawSchedule(power=4.0 * steps, total_time=1e6, steps=steps)
        with pytest.raises(InvalidInput,
                           match="euler_step produced a non-finite value"):
            self.run_from(monkeypatch, sched, policy, noise)


# one-field variants of a profile whose epsilon-0 twin recompute_flops derives
TWIN_VARIANTS = {
    "default": {},
    "budget-None": {"kv": {"budget_chunks": None}},
    "budget-1": {"kv": {"budget_chunks": 1}},
    "noise-0.05": {"noise_scale": 0.05},
    "frame-frame": {"kv": {"query_granularity": "frame", "key_granularity": "frame"}},
    "policy-None": {"policy": None},
    "int-cost": {"cost": {"flops_per_chunk_forward": 3, "flops_per_kv_token_pair": 1,
                          "bytes_per_kv_token": 256}},
}


def simulate(cfg):
    scene, sched, policy, kv, cost, noise = build_objects(cfg)
    trace = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost,
                        noise_scale=noise)
    return trace, scene, cost


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_recompute_flops_equals_epsilon0_run(profile):
    # bit for bit, so the run report's speedup needs no second simulation
    for seed in (0, 3):
        for overrides in TWIN_VARIANTS.values():
            cfg = _deep_merge(resolve_config(profile=profile, seed=seed), overrides)
            trace, scene, cost = simulate(cfg)
            twin = simulate(_apply_axis(cfg, "epsilon", 0.0))[0]
            derived = recompute_flops(trace, scene, cost)
            assert type(derived) is float
            assert derived == twin.totals.total_flops, (seed, overrides)

