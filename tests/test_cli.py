import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcache_sim import PowerLawSchedule, SceneConfig, run_denoise
from flowcache_sim import armodel, cli, verify
from flowcache_sim.cli import main
from flowcache_sim.errors import InvalidConfig
from flowcache_sim.trace import RunTrace


def run_cli(*argv):
    return main(list(argv))


def no_simulation(*args, **kwargs):
    raise AssertionError("a config error must exit before any simulation")


# one valid --values entry per sweep axis
AXIS_VALUE = {"budget": "2", "lambda": "0.1", "granularity": "frame",
              "epsilon": "0.01"}

# config file text with one bad field, by the dotted path the error must name
BAD_CONFIGS = {
    "scene.num_chunkz": '{"scene": {"num_chunkz": 4}}',
    "scene.num_chunks": '{"scene": {"num_chunks": "10"}}',
    "schedule.steps": '{"schedule": {"steps": 64.0}}',
    "noise_scale": '{"noise_scale": "x"}',
    "scene.shape": '{"scene": {"shape": "abcd"}}',
    "kv.query_window": '{"kv": {"query_window": 2.5}}',
    "kv.pool_kernel": '{"kv": {"pool_kernel": 5.0}}',
    "kv.budget_chunks": '{"kv": {"budget_chunks": true}}',
    "policy.epsilon": '{"policy": {"epsilon": NaN}}',
}


# --out paths the OS will not make a directory of, by test id: a file already
# there, and a name too long; each with its errno
BAD_OUTS = {"file": ("taken", errno.EEXIST), "name-too-long": ("x" * 300, errno.ENAMETOOLONG)}


def bad_out(tmp_path, case):
    """The ``BAD_OUTS`` path ``case`` under ``tmp_path``, and the error it must give."""
    name, code = BAD_OUTS[case]
    out = tmp_path / name
    if code == errno.EEXIST:
        out.write_text("")
    return out, f"error: --out {out} is not a usable directory: {os.strerror(code)}\n"


class TestRunCommand:
    def test_print_config(self, capsys):
        assert run_cli("run", "--profile", "magi-fast", "--print-config") == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["policy"] == {"epsilon": 0.015, "warmup": 5}
        assert cfg["scene"]["num_chunks"] == 10
        assert cfg["schedule"]["steps"] == 64
        assert cfg["scene"]["window"] == 4

    def test_profile_constants(self, capsys):
        for profile, eps, warm, steps in (
                ("magi-slow", 0.01, 5, 64),
                ("skyreels-slow", 0.1, 4, 50),
                ("skyreels-fast", 0.15, 4, 50)):
            run_cli("run", "--profile", profile, "--print-config")
            cfg = json.loads(capsys.readouterr().out)
            assert cfg["policy"]["epsilon"] == eps
            assert cfg["policy"]["warmup"] == warm
            assert cfg["schedule"]["steps"] == steps

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--profile", "magi-fast", "--out", str(out)) == 0
        for name in ("trace.json", "curves.csv", "report.txt"):
            assert (out / name).exists()
        report = (out / "report.txt").read_text()
        assert "speedup_vs_epsilon0_baseline" in report
        assert "peak_kv_tokens" in report

    def test_baseline_profile_never_reuses(self, tmp_path):
        out = tmp_path / "base"
        run_cli("run", "--profile", "baseline", "--out", str(out))
        trace = json.loads((out / "trace.json").read_text())
        assert trace["totals"]["reused_steps"] == 0

    def test_seed_flag_reproduces_hash(self, tmp_path):
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli("run", "--profile", "magi-fast", "--seed", "7",
                    "--out", str(out))
            hashes.append(json.loads((out / "trace.json").read_text())
                          ["content_hash"])
        assert hashes[0] == hashes[1]

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"scene": {"num_chunks": 4, "window": 2}, "noise_scale": 0.1}))
        run_cli("run", "--profile", "magi-fast", "--config", str(cfg_file),
                "--print-config")
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["scene"]["num_chunks"] == 4
        assert cfg["noise_scale"] == 0.1
        assert cfg["policy"]["epsilon"] == 0.015   # untouched field kept

    @pytest.mark.parametrize("path", list(BAD_CONFIGS))
    def test_invalid_config_field_path(self, tmp_path, capsys, path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(BAD_CONFIGS[path])
        assert run_cli("run", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", list(BAD_CONFIGS))
    def test_print_config_validates(self, tmp_path, capsys, path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(BAD_CONFIGS[path])
        assert run_cli("run", "--config", str(cfg_file), "--print-config") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} ")

    @pytest.mark.parametrize("body", ['{"scene": 5}', '{"scene": null}'])
    def test_seed_over_a_non_object_scene(self, tmp_path, capsys, monkeypatch,
                                          body):
        monkeypatch.setattr(cli, "run_denoise", no_simulation)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(body)
        assert run_cli("run", "--config", str(cfg_file), "--seed", "3",
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: scene is missing or not an object\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scene": {"seed": -1}}))
        for flags in (("--seed", "-1"), ("--config", str(cfg_file))):
            assert run_cli("run", *flags, "--out", str(tmp_path / "out")) == 2
            assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(BAD_OUTS))
    def test_out_is_a_file(self, tmp_path, capsys, case):
        out, error = bad_out(tmp_path, case)
        assert run_cli("run", "--profile", "baseline", "--out", str(out)) == 2
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config file: "),
        ("{bad", "config file is not valid JSON: "),
        ("[1,2]", "config file must contain a JSON object\n")],
        ids=["missing", "not-json", "not-an-object"])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "cfg.json"
        if text is not None:
            cfg_file.write_text(text)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_file), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_indivisible_window_rejected(self, tmp_path, capsys):
        # the CLI and a library run_denoise caller get the same message
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scene": {"window": 5}}))
        assert run_cli("run", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")) == 2
        with pytest.raises(InvalidConfig) as exc:
            run_denoise(SceneConfig(window=5), PowerLawSchedule(power=0.25))
        assert str(exc.value) == "schedule.steps=64 not divisible by scene.window=5"
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_trace_config_replays(self, tmp_path, capsys):
        # a run's own trace.json config, schema_version included, is a config file
        golden = Path(__file__).parent / "data" / "golden_magi_fast.json"
        recorded = json.loads(golden.read_text())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(recorded["config"]))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_file), "--out", str(out)) == 0
        replayed = json.loads((out / "trace.json").read_text())
        assert replayed["content_hash"] == recorded["content_hash"]

    @pytest.mark.parametrize("version", [1, 2, "3", 2.0, 3.0, None,
                                         pytest.param(3, id="v3")])
    def test_other_schema_version_rejected(self, tmp_path, capsys, monkeypatch,
                                           version):
        monkeypatch.setattr(cli, "run_denoise", no_simulation)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"schema_version": version}))
        assert run_cli("run", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")) == 2
        assert "schema_version" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_cost_run_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"cost": {
            "flops_per_chunk_forward": 0, "flops_per_kv_token_pair": 0}}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_file), "--out", str(out)) == 2
        assert "trace has no recorded model cost" in capsys.readouterr().err
        assert not out.exists()


class TestHashReads:
    """The content hash is computed only where a command reads it."""

    @pytest.fixture()
    def hashed(self, monkeypatch):
        calls = []
        compute = RunTrace._compute_hash
        monkeypatch.setattr(RunTrace, "_compute_hash",
                            lambda trace: calls.append(trace) or compute(trace))
        return calls

    def test_sweep_computes_no_hash(self, hashed, capsys):
        assert run_cli("sweep", "--axis", "lambda", "--values", "0.03,0.2",
                       "--profile", "magi-fast") == 0
        assert hashed == []

    def test_run_computes_one_hash_for_the_json_and_the_report(self, hashed, tmp_path,
                                                               capsys):
        assert run_cli("run", "--profile", "magi-fast", "--out", str(tmp_path)) == 0
        assert len(hashed) == 1
        content_hash = json.loads((tmp_path / "trace.json").read_text())["content_hash"]
        assert f"trace_hash: {content_hash}" in capsys.readouterr().out


class TestSharedTrajectory:
    """A sweep over a KV axis records one trajectory that every row replays."""

    @pytest.fixture()
    def executed(self, monkeypatch):
        """Each ``cli._execute`` call's positional arguments and trace."""
        calls, execute = [], cli._execute

        def capturing(*args):
            calls.append((args, execute(*args)))
            return calls[-1][1]
        monkeypatch.setattr(cli, "_execute", capturing)
        return calls

    @pytest.mark.parametrize("seed", [0, 3, 19])
    @pytest.mark.parametrize("extra", [{"policy": None}, {"noise_scale": 0.05}],
                             ids=["nopolicy", "noisy"])
    @pytest.mark.parametrize("axis,values", [("lambda", "0.03,1.0"),
                                             ("granularity", "frame,chunk"),
                                             ("budget", "8,3"),
                                             # the reference's own values: rows that reuse its run
                                             ("lambda", "0.07,1.0"),
                                             ("granularity", "token,chunk")])
    def test_row_equals_standalone_run(self, executed, tmp_path, capsys, axis, values,
                                       extra, seed):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(extra))
        assert run_cli("sweep", "--axis", axis, "--values", values, "--config",
                       str(cfg_file), "--seed", str(seed)) == 0
        capsys.readouterr()
        assert len(executed) == 3
        reference = executed[0][0][0][0]
        for ((objects, events, _),), trace in executed:
            assert events is executed[0][0][0][1] is not None
            scene, schedule, policy, kv, cost, noise_scale = objects
            # what the trajectory reads is the reference's, so its recording serves the row
            assert (scene, schedule, policy, noise_scale) == tuple(
                reference[i] for i in (0, 1, 2, 5))
            alone = run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                                noise_scale=noise_scale)
            assert trace.content_hash == alone.content_hash
            assert trace.totals == alone.totals
            assert len(trace.compressions) == len(alone.compressions)
            if alone.compressions:
                last, alone_last = trace.compressions[-1].heads, alone.compressions[-1].heads
                assert sorted(last) == sorted(alone_last)
                for head in last:
                    assert np.array_equal(last[head].retained_ids,
                                          alone_last[head].retained_ids)
        assert any(trace.compressions for _, trace in executed)

    @pytest.mark.parametrize("axis,values", [("lambda", "0.03,1.0"),
                                             ("granularity", "frame,chunk"),
                                             ("budget", "8,3"), ("epsilon", "0,0.015")])
    def test_trajectories_per_sweep(self, executed, monkeypatch, capsys, axis, values):
        # kv axes run one trajectory; epsilon rows run their own, but the 0 row
        # is the reference's run. Either way _execute is called once per row
        # with one argument, which the benchmark's sweep check counts
        calls, trajectory = [], armodel.trajectory
        monkeypatch.setattr(armodel, "trajectory",
                            lambda *args: calls.append(args) or trajectory(*args))
        assert run_cli("sweep", "--axis", axis, "--values", values,
                       "--profile", "magi-fast") == 0
        capsys.readouterr()
        assert [len(args) for args, _ in executed] == [1, 1, 1]
        assert len(calls) == (2 if axis == "epsilon" else 1)
        assert all((events is None) == (axis == "epsilon")
                   for ((_, events, _),), _ in executed)

    @pytest.mark.parametrize("axis,values,simulations", [
        ("lambda", "0.03,0.07,0.15,0.20", 4), ("granularity", "token,frame,chunk", 3),
        ("epsilon", "0,0.015", 2), ("budget", "8,3", 3)])
    def test_reference_valued_row_reuses_the_reference_run(
            self, executed, monkeypatch, capsys, axis, values, simulations):
        # a row whose objects equal the reference's takes its trace: one simulation
        # fewer, yet _execute still sees every row, with one argument
        calls, simulate = [], cli.run_denoise
        monkeypatch.setattr(cli, "run_denoise",
                            lambda *args, **kw: calls.append(args) or simulate(*args, **kw))
        argv = ["sweep", "--axis", axis, "--values", values, "--profile", "magi-fast"]
        assert run_cli(*argv) == 0
        rows = capsys.readouterr().out
        count = len(values.split(","))
        assert [len(args) for args, _ in executed] == [1] * (1 + count)
        assert len(calls) == simulations
        reused = [trace for _, trace in executed[1:] if trace is executed[0][1]]
        assert len(reused) == 1 + count - simulations
        # one command's rows share one dict, which holds only the reference's run
        known = executed[0][0][0][2]
        assert all(run[2] is known for (run,), _ in executed)
        assert list(known.items()) == [(executed[0][0][0][0], executed[0][1])]
        # a second command in the same process runs its own simulations
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == rows
        assert len(calls) == 2 * simulations


class TestVerifyCommand:
    def test_kernels_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "kernels") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--suite", "nonsense")
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "run_suite", no_simulation)
        assert run_cli("verify", "--suite", "all", "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    def test_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "run_suite", lambda name, seed=0: [
            verify.CheckResult("forced failure", False, 1.0, 0.0)])
        assert run_cli("verify", "--suite", "kernels") == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_suite_choices_are_the_verify_suites(self):
        assert cli._SUITES == sorted(verify.SUITES)
        for name in verify.SUITES:   # and the parser offers each of them
            assert cli.build_parser().parse_args(["verify", "--suite", name]).suite == name

    def test_importing_the_cli_leaves_verify_unloaded(self):
        # every command but verify starts without compiling or running verify.py
        code = ("import sys, flowcache_sim.cli; "
                "sys.exit('flowcache_sim.verify' in sys.modules)")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestSweepCommand:
    def read_rows(self, text):
        return list(csv.DictReader(io.StringIO(text)))

    @pytest.fixture()
    def small_cfg(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"scene": {"num_chunks": 6, "window": 2, "shape": [4, 2, 3, 3]}}))
        return str(cfg_file)

    def test_epsilon_zero_row_exact(self, small_cfg, capsys):
        assert run_cli("sweep", "--axis", "epsilon",
                       "--values", "0,0.015", "--config", small_cfg) == 0
        rows = self.read_rows(capsys.readouterr().out)
        zero = rows[0]
        assert float(zero["speedup"]) == 1.0
        assert float(zero["final_l1_error_vs_baseline"]) == 0.0
        assert float(rows[1]["speedup"]) > 1.0

    def test_budget_sweep_orders_peaks(self, small_cfg, capsys):
        assert run_cli("sweep", "--axis", "budget", "--values", "4,3,2",
                       "--config", small_cfg) == 0
        rows = self.read_rows(capsys.readouterr().out)
        peaks = [int(r["peak_kv_tokens"]) for r in rows]
        assert peaks[0] > peaks[1] > peaks[2]
        for r in rows:
            assert float(r["final_l1_error_vs_baseline"]) == 0.0
            assert float(r["reuse_fraction"]) == 0.0

    def test_lambda_sweep_changes_retained_sets(self, small_cfg, capsys):
        # the 0.03..0.20 grid plus the importance-only endpoint
        assert run_cli("sweep", "--axis", "lambda", "--values",
                       "0.03,0.07,0.15,0.20,1.0", "--config", small_cfg) == 0
        rows = self.read_rows(capsys.readouterr().out)
        assert len(rows) == 5
        hashes = {r["retained_hash"] for r in rows}
        assert len(hashes) > 1
        assert all(float(r["speedup"]) == 1.0 for r in rows)

    def test_granularity_axis(self, small_cfg, capsys):
        assert run_cli("sweep", "--axis", "granularity",
                       "--values", "token,frame,chunk",
                       "--config", small_cfg) == 0
        rows = self.read_rows(capsys.readouterr().out)
        assert [r["value"] for r in rows] == ["token", "frame", "chunk"]

    @pytest.mark.parametrize("axis,name", [
        ("budget", "kv"), ("lambda", "kv"), ("granularity", "kv"),
        ("epsilon", "policy")])
    def test_non_object_section(self, tmp_path, capsys, monkeypatch, axis, name):
        monkeypatch.setattr(cli, "run_denoise", no_simulation)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({name: 3}))
        assert run_cli("sweep", "--axis", axis, "--values", AXIS_VALUE[axis],
                       "--config", str(cfg_file)) == 2
        assert capsys.readouterr().err == f"error: {name} is missing or not an object\n"

    @pytest.mark.parametrize("axis", list(AXIS_VALUE))
    def test_null_policy_runs_on_every_axis(self, tmp_path, capsys, axis):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"policy": None, "scene": {
            "num_chunks": 4, "window": 2, "shape": [4, 2, 3, 3]}}))
        assert run_cli("sweep", "--axis", axis, "--values", AXIS_VALUE[axis],
                       "--config", str(cfg_file)) == 0
        assert len(self.read_rows(capsys.readouterr().out)) == 1

    def test_bad_axis_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--axis", "bogus", "--values", "1")
        assert exc.value.code == 2

    @pytest.mark.parametrize("axis,values,message", [
        pytest.param("lambda", "0.1,abc", "bad --values for axis lambda: could not "
                     "convert string to float: 'abc'", id="lambda-0.1,abc"),
        pytest.param("budget", "2.5", "bad --values for axis budget: invalid literal "
                     "for int() with base 10: '2.5'", id="budget-2.5"),
        pytest.param("lambda", ",", "empty --values list", id="lambda-,")])
    def test_bad_value_usage_error(self, axis, values, message, tmp_path, capsys):
        out = tmp_path / "sweeps"
        assert run_cli("sweep", "--axis", axis, "--values", values,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis,values,message", [
        ("budget", "5,0", "kv: budget_chunks must be positive or None"),
        ("lambda", "0.1,1.5", "kv: mix_lambda must be in [0, 1], got 1.5"),
        ("granularity", "token,pixel", "kv: unknown key granularity 'pixel'"),
        ("epsilon", "0.01,-1", "policy: epsilon must be >= 0, got -1.0")],
        ids=["budget-5,0", "lambda-0.1,1.5", "granularity-token,pixel", "epsilon-0.01,-1"])
    def test_bad_last_value_simulates_nothing(self, tmp_path, capsys, monkeypatch,
                                              axis, values, message):
        # every row's config is checked before the reference run
        monkeypatch.setattr(cli, "run_denoise", no_simulation)
        out = tmp_path / "sweeps"
        assert run_cli("sweep", "--axis", axis, "--values", values,
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    def test_writes_csv(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "sweeps"
        run_cli("sweep", "--axis", "epsilon", "--values", "0.015",
                "--config", small_cfg, "--out", str(out))
        capsys.readouterr()
        assert (out / "sweep_epsilon.csv").exists()

    @pytest.mark.parametrize("case", list(BAD_OUTS))
    def test_out_is_a_file(self, small_cfg, tmp_path, capsys, case):
        out, error = bad_out(tmp_path, case)
        assert run_cli("sweep", "--axis", "epsilon", "--values", "0.015",
                       "--config", small_cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == error
