import base64
import collections
import gc
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from flowcache_sim import (PROFILES, ChunkState, KVPlan, PowerLawSchedule,
                           ReusePolicy, SceneConfig, active_window, build_objects,
                           ideal_velocity, make_clean_latent, make_initial_noise,
                           perturbed_velocity, resolve_config, run_denoise,
                           total_global_steps, trajectory, velocity_noise_seeds)
from flowcache_sim import armodel, cli, import_trace
from flowcache_sim import trace as trace_module
from flowcache_sim.armodel import recompute_flops
from flowcache_sim.cli import _apply_axis
from flowcache_sim.config import _deep_merge
from flowcache_sim.errors import DegenerateInput, InvalidConfig, InvalidInput, Singularity
from flowcache_sim.trace import DTYPES


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

    @pytest.mark.parametrize("shape", [(8, 4, 6, 6), (1, 1, 1, 1), (3, 5, 7, 9)])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_profiles_in_one_pass_match_one_at_a_time(self, shape, seed):
        # each profile drawn and evaluated on its own, three sinusoids in turn
        def one_at_a_time(rng):
            for n in shape * 2:
                x, out = np.linspace(0.0, 1.0, n), np.zeros(n)
                for f in (1, 2, 3):
                    out += rng.normal() * np.sin(2.0 * np.pi * f * x + 2.0 * np.pi * rng.random())
                yield out

        got = armodel.smooth_profiles(shape * 2, np.random.default_rng(seed))
        for a, b in zip(got, one_at_a_time(np.random.default_rng(seed)), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_all_zero_clean_latent_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(armodel, "smooth_profiles",
                            lambda sizes, rng: [np.zeros(n) for n in sizes])
        with pytest.raises(DegenerateInput) as info:
            make_clean_latent(small_scene(), 3)
        assert str(info.value) == "chunk 3's clean latent is all zeros"

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
        self.chunk = ChunkState(index=1,   # local step 2 is at t = 0.75
                                clean_latent=make_clean_latent(self.scene, 1),
                                latent=make_initial_noise(self.scene, 1), local_step=2,
                                noise_seeds=velocity_noise_seeds(9, 1, 8))

    def velocity(self, noise, chunk=None):
        return perturbed_velocity([chunk or self.chunk], [0], self.sched, noise)[0]

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
        out = np.full(self.scene.shape, 7.0)
        with pytest.raises(Singularity):   # raised before out is written
            ideal_velocity(self.chunk, 0.0, self.sched, out)
        assert (out == 7.0).all()

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
        np.testing.assert_array_equal(base, self.velocity(0.0))

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_velocity_into_out(self, noise):
        # trajectory writes each velocity into the chunk's own row: same bits,
        # and the window's other rows are neither read (NaN is fine) nor written
        other = ChunkState(index=2, clean_latent=None, latent=None)
        out = np.full((2, *self.scene.shape), np.nan)
        got = perturbed_velocity([other, self.chunk], [1], self.sched, noise, out)
        assert got is out
        assert out[1].tobytes() == self.velocity(noise).tobytes() and np.isnan(out[0]).all()

    def test_perturbation_deterministic(self):
        a, b = self.velocity(0.2), self.velocity(0.2)
        np.testing.assert_array_equal(a, b)
        self.chunk.noise_seeds = velocity_noise_seeds(10, 1, 8)
        assert not np.array_equal(a, self.velocity(0.2))

    def test_perturbation_magnitude(self):
        # the perturbation is normalized, so its relative L1 size is exact;
        # spec tolerance for a sampled estimate is 5%
        self.sched = PowerLawSchedule(power=1.0, steps=64)
        self.chunk.noise_seeds = velocity_noise_seeds(4, 1, 64)
        sizes = []
        for step in range(50):
            self.chunk.local_step = step
            base = ideal_velocity(self.chunk, self.sched.time_at(step), self.sched)
            noisy = self.velocity(0.3)
            sizes.append(np.abs(noisy - base).sum() / np.abs(base).sum())
        assert np.mean(sizes) == pytest.approx(0.3, rel=0.05)


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1)


class TestVelocityNoiseSeeds:
    # numpy's own SeedSequence is the oracle for the replica's words and draws
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", (1, 40))
    def test_words_match_seed_sequence(self, seed, index):
        expected = np.stack([np.random.SeedSequence([seed, index, s, 3])
                             .generate_state(4, np.uint64) for s in range(64)])
        words = velocity_noise_seeds(seed, index, 64)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", (1, 40))
    def test_draws_match_default_rng(self, seed, index):
        sched = PowerLawSchedule(power=1.0, steps=64)
        scene = small_scene()
        chunk = ChunkState(index=index, clean_latent=make_clean_latent(scene, 1),
                           latent=make_initial_noise(scene, 1),
                           noise_seeds=velocity_noise_seeds(seed, index, sched.steps))
        for step in range(sched.steps):
            chunk.local_step, t = step, sched.time_at(step)
            base = ideal_velocity(chunk, t, sched)
            g = np.random.default_rng([seed, index, step, 3]).standard_normal(scene.shape)
            expected = base + (0.05 * np.abs(base).sum() / np.abs(g).sum()) * g
            got = perturbed_velocity([chunk], [0], sched, 0.05)[0]
            assert got.tobytes() == expected.tobytes(), step

    @pytest.mark.parametrize("seed", SEEDS)
    def test_window_of_tables_matches_one_per_chunk(self, seed):
        # trajectory derives a window of arriving chunks' tables in one call
        for indices in (range(1, 5), [40], np.array([[7, 8], [9, 2**32 - 1]], np.uint32)):
            tables = velocity_noise_seeds(seed, indices, 16)
            assert tables.shape == (*np.shape(indices), 16, 4) and tables.dtype == np.uint64
            for i, table in zip(np.ravel(indices), tables.reshape(-1, 16, 4)):
                np.testing.assert_array_equal(table, velocity_noise_seeds(seed, int(i), 16))

    def test_one_step_and_empty_tables(self):
        np.testing.assert_array_equal(velocity_noise_seeds(7, 2, 1),
                                      velocity_noise_seeds(7, 2, 5)[:1])
        assert velocity_noise_seeds(7, 2, 0).shape == (0, 4)

    def test_integer_seeds_only(self):
        np.testing.assert_array_equal(velocity_noise_seeds(np.int64(7), np.uint8(2), 3),
                                      velocity_noise_seeds(7, 2, 3))
        with pytest.raises(InvalidInput):
            velocity_noise_seeds(-1, 1, 4)
        with pytest.raises(TypeError):
            velocity_noise_seeds(7.0, 1, 4)


class TestWindowVelocities:
    """One ``perturbed_velocity`` call per step covers the window's computing rows."""

    @staticmethod
    def window(shape, seed, size, steps=8):
        # chunks at different local steps and latent scales, tables as trajectory takes them
        rng = np.random.default_rng([size, *shape])
        tables = velocity_noise_seeds(seed, range(3, 3 + size), steps)
        return [ChunkState(3 + k, *rng.normal(scale=k + 1.0, size=(2, *shape)),
                           local_step=(3 * k + 1) % steps, noise_seeds=tables[k])
                for k in range(size)]

    @staticmethod
    def closed_form(chunk, sched, seed, noise):
        base = -(sched.power / sched.time_at(chunk.local_step)) * (chunk.latent - chunk.clean_latent)
        if noise == 0.0:
            return base
        g = np.random.default_rng([seed, chunk.index, chunk.local_step, 3]).standard_normal(
            base.shape)
        return base + (noise * np.abs(base).sum() / np.abs(g).sum()) * g

    @pytest.mark.parametrize("shape", [(8, 4, 6, 6), (2, 2, 2, 2), (3, 5, 7, 9)])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    def test_rows_match_closed_form_and_draws(self, shape, noise, seed):
        sched = PowerLawSchedule(power=0.75, steps=8)
        for size in range(1, 6):
            window = self.window(shape, seed, size)
            for rows in ([r for r in range(size) if r != 1], list(range(size)), [size - 1], []):
                before = np.random.default_rng(size).normal(size=(size, *shape))
                got = perturbed_velocity(window, rows, sched, noise, before.copy())
                for r, chunk in enumerate(window):   # reused rows stay as they were
                    expected = self.closed_form(chunk, sched, seed, noise) if r in rows else before[r]
                    assert got[r].tobytes() == expected.tobytes(), (size, rows, r)

    def test_all_zero_draw_leaves_the_ideal_velocity(self, monkeypatch):
        sched = PowerLawSchedule(power=0.75, steps=8)
        window = self.window((2, 2, 2, 2), 5, 3)
        generator, built = np.random.Generator, []

        class ZeroDraws:
            def standard_normal(self, out):
                out[...] = 0.0

        def second_draws_zero(bit_generator):   # rows draw in index order: row 1 is second
            built.append(bit_generator)
            return ZeroDraws() if len(built) == 2 else generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", second_draws_zero)
        got = perturbed_velocity(window, [0, 1, 2], sched, 0.05)
        monkeypatch.undo()
        assert len(built) == 3
        assert got[1].tobytes() == self.closed_form(window[1], sched, 5, 0.0).tobytes()
        for r in (0, 2):
            assert got[r].tobytes() == self.closed_form(window[r], sched, 5, 0.05).tobytes()


class TestInputChecks:
    """Bad arguments fail as ``InvalidInput`` naming what is wrong, before any draw."""

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_scale(self, monkeypatch, noise):
        def no_draw(*args):
            pytest.fail("drew before checking noise_scale")

        for name in ("_seed_words", "_projection_weights", "make_initial_noise"):
            monkeypatch.setattr(armodel, name, no_draw)
        scene = small_scene()
        with pytest.raises(InvalidInput, match="noise_scale"):
            run_denoise(scene, PowerLawSchedule(power=1.0, steps=8), kv=KVPlan(budget_chunks=1),
                        noise_scale=noise)
        chunk = ChunkState(1, np.zeros(scene.shape), np.ones(scene.shape),
                           noise_seeds=velocity_noise_seeds(0, 1, 8))
        with pytest.raises(InvalidInput, match="noise_scale"):
            perturbed_velocity([chunk], [0], PowerLawSchedule(power=1.0, steps=8), noise)

    def test_negative_steps(self):
        with pytest.raises(InvalidInput, match="steps"):
            velocity_noise_seeds(7, 2, -1)

    @pytest.mark.parametrize("indices", [[], [2**32 - 1, 2**32]])
    def test_window_of_tables_needs_indices_of_one_word_count(self, indices):
        with pytest.raises(InvalidInput, match="one word count"):
            velocity_noise_seeds(7, indices, 4)

    @pytest.mark.parametrize("table", [None, velocity_noise_seeds(7, 1, 3)])
    def test_seed_table_missing_or_short(self, table):
        chunk = ChunkState(1, np.zeros(4), np.ones(4), local_step=3, noise_seeds=table)
        with pytest.raises(InvalidInput, match="chunk 1: no noise seeds for step 3"):
            perturbed_velocity([chunk], [0], PowerLawSchedule(power=1.0, steps=8), 0.05)


class TestRunLifecycle:
    def test_window_occupancy(self):
        scene = SceneConfig(num_chunks=6, window=3, shape=(4, 2, 3, 3), seed=1)
        sched = PowerLawSchedule(power=0.25, steps=12)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0))
        stride = sched.steps // scene.window
        interior = range(stride * (scene.window - 1),
                         total_global_steps(sched, scene) - sched.steps + stride)
        for g, active in trace.steps[["global_step", "chunk_count"]].tolist():
            assert active <= scene.window
            if g in interior:
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
            assert [index for index, _ in finished] == [
                c for c, (_, end) in spans.items() if end - 1 == g]
            seen += 1
        assert seen == total_global_steps(sched, scene)

    def test_status_transitions_once(self):
        scene = small_scene()
        sched = PowerLawSchedule(power=0.25, steps=8)
        trace = run_denoise(scene, sched, policy=None)
        rows = trace.chunk_steps
        for chunk in range(1, scene.num_chunks + 1):
            steps = rows["local_step"][rows["chunk"] == chunk].tolist()
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
        compute = np.split(trace.chunk_steps["compute"],
                           np.cumsum(trace.steps["chunk_count"])[:-1])
        assert any(0 < step.sum() < len(step) for step in compute)

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
        assert (trace.steps["kv_clean_tokens"] <= 2 * tpc).all()


class TestProjection:
    """One unit-row projection serves keys and queries, bit for bit as per-head products."""

    @staticmethod
    def written_out(latent, w):
        # one GEMM per head, against the product's one GEMM of all heads side by side
        feats = latent.reshape(latent.shape[0], -1).T
        rows = np.matmul(feats, w).transpose(1, 0, 2)
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

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_rows_and_frame_means_have_norm_at_most_one(self, profile):
        # the bound that keeps the KV buffer's logits within 1/sqrt(d); a frame of
        # all-zero tokens projects and pools to zero rows
        scene, _, _, kv, *_ = build_objects(resolve_config(profile=profile))
        latent = np.random.default_rng(32).standard_normal(scene.shape)
        latent.reshape(scene.shape[0], -1)[:, :scene.tokens_per_frame] = 0.0
        one = 1.0 + 4 * np.finfo(float).eps   # a unit row's norm, up to rounding
        for w in armodel._projection_weights(scene, kv):
            rows = armodel._project(latent, w)
            frames = rows.reshape(-1, scene.tokens_per_frame, *rows.shape[1:]).mean(axis=1)
            for got in (rows, frames):
                assert np.linalg.norm(got, axis=-1).max() <= one
            assert not rows[:scene.tokens_per_frame].any() and not frames[0].any()

    @pytest.mark.parametrize("profile", ["magi-fast", "skyreels-fast"])
    def test_last_n_tokens_bit_equal_to_those_rows_of_all(self, profile):
        scene, _, _, kv, *_ = build_objects(resolve_config(profile=profile))
        rng = np.random.default_rng(31)
        tokens, frame = scene.tokens_per_chunk, scene.tokens_per_frame
        for w in armodel._projection_weights(scene, kv):
            for _ in range(3):
                latent = rng.standard_normal(scene.shape)
                every = armodel._project(latent, w)
                for n in (1, frame - 1, kv.query_window, 3 * frame, tokens - 1, tokens):
                    got = armodel._project(latent, w, n)
                    assert got.shape == every[-n:].shape
                    assert got.tobytes() == every[-n:].tobytes()


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

    def test_budget_and_key_granularity_leave_trajectory_unchanged(self):
        runs = [self.magi_fast_run(b, gran)
                for b in (None, 1, 2, 5) for gran in ("token", "frame")]
        ref = runs[0]
        assert (ref.chunk_steps["compute"] == 0).any()
        assert sum(bool(run.compressions) for run in runs) == 6
        for run in runs[1:]:
            assert run.chunk_steps.tobytes() == ref.chunk_steps.tobytes()
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
        finished = [pair for _, _, done, _ in events for pair in done]
        assert [index for index, _ in finished] == list(range(1, scene.num_chunks + 1))
        for index, latent in finished:
            assert np.array_equal(latent, trace.final_latents[index])

    def test_yielded_latents_are_not_changed_later(self):
        # finished latents are rows of the run's latent table and the query latent
        # is the newest active row, which later steps overwrite in place
        scene, sched, policy, kv, cost, noise = self.magi_fast_objects()
        held, queries = [], 0
        for _, _, finished, query_latent in trajectory(scene, sched, policy, noise):
            held += [(index, latent, latent.copy()) for index, latent in finished]
            if query_latent is not None:
                held.append((None, query_latent, query_latent.copy()))
                queries += 1
        assert queries and len(held) == queries + scene.num_chunks
        trace = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost, noise_scale=noise)
        for index, latent, at_yield in held:
            assert latent.tobytes() == at_yield.tobytes()
            if index is not None:
                assert latent.tobytes() == trace.final_latents[index].tobytes()


class TestWorkingSet:
    """Chunk state lives only while its window is open."""

    @staticmethod
    def tracked_chunk_states(monkeypatch) -> list:
        """Weak references to every ``ChunkState`` the trajectory makes from now on."""
        refs = []

        def making(*args, **kwargs):
            state = ChunkState(*args, **kwargs)
            refs.append(weakref.ref(state))
            return state
        monkeypatch.setattr(armodel, "ChunkState", making)
        return refs

    @staticmethod
    def live_indices(refs) -> set:
        return {ref().index for ref in refs if ref() is not None}

    def test_finished_chunk_states_die_by_the_next_step(self, monkeypatch):
        # a finished chunk is yielded as an (index, latent) pair, not as its state
        refs = self.tracked_chunk_states(monkeypatch)
        scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
        sched = PowerLawSchedule(power=1.0, steps=6)
        done, seen = set(), 0
        for _, rows, finished, _ in trajectory(scene, sched, ReusePolicy(0.015, 1), 0.0):
            live = self.live_indices(refs)
            assert not live & done and len(live) <= scene.window
            assert {row[0] for row in rows} - {index for index, _ in finished} <= live
            done = {index for index, _ in finished}
            seen += len(done)
        assert seen == scene.num_chunks == len(refs)
        assert not self.live_indices(refs)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_finished_chunk_states_die_before_the_next_velocity(self, monkeypatch, budget):
        # no finished chunk's state, with its clean latent and seed table, is live
        # while a step computes: only the window's chunks are (at window 1, the
        # chunk that finished at the last step is the newest one)
        refs = self.tracked_chunk_states(monkeypatch)
        velocity = armodel.perturbed_velocity

        def checking(window, *args):
            checks.append(self.live_indices(refs) == {chunk.index for chunk in window})
            return velocity(window, *args)

        monkeypatch.setattr(armodel, "perturbed_velocity", checking)
        sched = PowerLawSchedule(power=1.0, steps=6)
        for window in (1, 3):
            scene, checks = SceneConfig(num_chunks=12, window=window, shape=(4, 2, 3, 3),
                                        seed=5), []
            run_denoise(scene, sched, kv=KVPlan(budget_chunks=budget), noise_scale=0.05)
            assert len(checks) == total_global_steps(sched, scene)
            assert all(checks), window

    def test_a_sweep_recording_holds_no_chunk_state_and_is_read_only(self, monkeypatch,
                                                                     capsys):
        # a kv-axis sweep records one trajectory; every row reads the same latents
        refs, runs = self.tracked_chunk_states(monkeypatch), []
        execute = cli._execute

        def capturing(run):
            runs.append((self.live_indices(refs), run[1], execute(run)))
            return runs[-1][2]

        monkeypatch.setattr(cli, "_execute", capturing)
        assert cli.main(["sweep", "--profile", "magi-fast", "--axis", "lambda",
                         "--values", "0.03,1.0"]) == 0
        capsys.readouterr()
        events = runs[0][1]
        assert len(runs) == 3 and len(refs) == len(runs[0][2].final_latents)
        assert all(not live and recorded is events for live, recorded, _ in runs)
        latents = [latent for _, _, finished, query in events
                   for latent in [query, *(latent for _, latent in finished)]
                   if latent is not None]
        assert len(latents) > len(refs)
        for latent in [*latents, *(trace.final_latents[1] for *_, trace in runs)]:
            with pytest.raises(ValueError, match="read-only"):
                latent[...] = 0.0

    def test_no_record_objects_outlive_a_run(self):
        # the trace keeps its records as columns: of trace's own types, a run
        # leaves only the trace and its totals
        def live():
            return collections.Counter(type(o).__name__ for o in gc.get_objects()
                                       if type(o).__module__ == trace_module.__name__)

        scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
        sched = PowerLawSchedule(power=1.0, steps=6)
        gc.collect()
        before = live()
        trace = run_denoise(scene, sched, ReusePolicy(0.015, 1))
        gc.collect()
        assert live() - before == {"RunTrace": 1, "RunTotals": 1}
        assert trace.chunk_steps.nbytes == 41 * scene.num_chunks * sched.steps

    @staticmethod
    def transient_bytes(num_chunks, noise, budget):
        scene = SceneConfig(num_chunks=num_chunks, window=4, shape=(8, 4, 6, 6))
        sched = PowerLawSchedule(power=1.0, steps=8)
        tracemalloc.start()
        try:
            trace = run_denoise(scene, sched, ReusePolicy(0.015, 2),
                                KVPlan(budget_chunks=budget), noise_scale=noise)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.final_latents) == num_chunks
        assert bool(trace.compressions) == (budget is not None)
        return peak - retained

    def test_peak_above_the_trace_does_not_grow_with_chunks(self):
        # window-sized arrays, the latent table and the noise seeds included
        latent_bytes = 8 * SceneConfig(shape=(8, 4, 6, 6)).numel
        for noise, budget in [(0.0, None), (0.05, None), (0.05, 5)]:
            self.transient_bytes(20, noise, budget)   # warm caches outside the measured runs
            assert (self.transient_bytes(80, noise, budget)
                    <= self.transient_bytes(20, noise, budget) + latent_bytes), (noise, budget)


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



def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``: while the total and the next item are both
    floats, Neumaier's compensated addition; anything else is added plainly."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total, c = total + c + x if c else total + x, 0.0
    return total + c if c and math.isfinite(c) else total


def test_flops_totals_hold_under_a_compensated_sum(monkeypatch):
    # totals add left to right, so a Python whose sum compensates floats
    # (3.12 on) writes the same golden bytes and the same twin total
    golden = (Path(__file__).parent / "data" / "golden_magi_fast.json").read_text()
    payload = json.loads(golden)
    flops = np.frombuffer(base64.b64decode(payload["steps"]["flops"]), "<f8").tolist()
    assert compensated_sum(flops, 0.0) != payload["totals"]["total_flops"]   # it would differ
    for module in (trace_module, armodel):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert simulate(resolve_config(profile="magi-fast"))[0].to_json() == golden
    for name in ("default", "int-cost"):
        cfg = _deep_merge(resolve_config(profile="magi-fast"), TWIN_VARIANTS[name])
        trace, scene, cost = simulate(cfg)
        twin = simulate(_apply_axis(cfg, "epsilon", 0.0))[0]
        assert recompute_flops(trace, scene, cost) == twin.totals.total_flops, name
    assert import_trace(golden).content_hash == payload["content_hash"]
