"""The benchmark's three workloads: set-up, one operation, and its output check.

Each workload drives a public entry point of flowcache_sim the way a user
does. The benchmark seed becomes the scene seed; the program receives only
the resolved config (or the CLI flags that resolve to it).

flowcache_sim is imported inside the functions below, not at module level,
so that ``configure`` can time the package import in a fresh interpreter.
Every call into the package goes through a module attribute looked up at
call time, so the span tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

NAMES = ("cli-run", "cli-sweep", "trajectory-long")

PROFILE = "magi-fast"
SWEEP_AXIS = "lambda"
SWEEP_VALUES = "0.03,0.07,0.15,0.20"

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class CheckFailed(Exception):
    """An operation's output disagrees with the pin or breaks an invariant."""


def _resolve(name: str, seed: int):
    from flowcache_sim import config
    if name == "trajectory-long":
        cfg = config.resolve_config(profile="baseline", seed=seed)
        cfg["scene"]["num_chunks"] = 40
        cfg["kv"]["budget_chunks"] = None
        cfg["noise_scale"] = 0.05
        return cfg
    return config.resolve_config(profile=PROFILE, seed=seed)


def configure(name: str, seed: int):
    """Import what the workload uses, resolve its config and build its objects.

    This is the work ``setup_s`` times. Returns (config, built objects).
    """
    import flowcache_sim
    if name != "trajectory-long":
        import flowcache_sim.cli  # noqa: F401  (the entry point the CLI loads)
    cfg = _resolve(name, seed)
    return cfg, flowcache_sim.config.build_objects(cfg)


def check_invariants(trace) -> None:
    """Trace-only invariants for a seed with no pinned outputs."""
    cfg = trace.config
    scene, steps = cfg["scene"], cfg["schedule"]["steps"]
    active = scene["num_chunks"] * steps
    done = trace.totals.computed_steps + trace.totals.reused_steps
    if done != active or sum(len(r.chunks) for r in trace.records) != active:
        raise CheckFailed(f"computed + reused = {done}, active chunk-steps = {active}")
    for rep in trace.compressions:
        for head, body in rep.heads.items():
            if len(body.retained_ids) + body.evicted_count != rep.candidate_tokens:
                raise CheckFailed(
                    f"step {rep.global_step} head {head}: retained + evicted "
                    f"!= {rep.candidate_tokens} candidates")
    budget = cfg["kv"]["budget_chunks"]
    if budget is not None:
        _, frames, h, w = scene["shape"]
        capacity = (budget + scene["window"]) * frames * h * w
        peak = max(r.resident_tokens for r in trace.records)
        if peak > capacity:
            raise CheckFailed(f"resident tokens {peak} exceed capacity {capacity}")


class Workload:
    """One workload at one seed. ``op`` is timed; ``check`` is not."""

    name = ""
    sims_delivered = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.config, self.objects = configure(self.name, seed)
        pins = json.loads(PINS_PATH.read_text()).get(self.name, {})
        self.pinned = pins.get(str(seed))

    @property
    def chunk_steps(self) -> int:
        """Simulated chunk-steps one successful op delivers to its user."""
        scene = self.config["scene"]
        return self.sims_delivered * scene["num_chunks"] * self.config["schedule"]["steps"]

    def op(self):
        raise NotImplementedError

    def observe(self, result):
        """Read the op's outputs: (the value pins compare, traces to check)."""
        raise NotImplementedError

    def check(self, result) -> None:
        value, traces = self.observe(result)
        if self.pinned is not None and value != self.pinned:
            raise CheckFailed(f"{self.name} seed {self.seed}: output differs from pin")
        for trace in traces:
            check_invariants(trace)


class _CliWorkload(Workload):
    argv: list[str]

    def op(self):
        from flowcache_sim import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()


class CliRun(_CliWorkload):
    """``flowcache-sim run --profile magi-fast``: two simulations plus export."""

    name = "cli-run"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.argv = ["run", "--profile", PROFILE, "--seed", str(seed),
                     "--out", str(out_dir)]

    def observe(self, result):
        from flowcache_sim import trace as trace_mod
        code, stdout = result
        if code != 0:
            raise CheckFailed(f"run exited {code}")
        # import_trace re-derives the content hash and rejects a mismatch
        trace = trace_mod.import_trace((self.out_dir / "trace.json").read_text())
        report = (self.out_dir / "report.txt").read_text()
        if report != stdout or f"trace_hash: {trace.content_hash}" not in report:
            raise CheckFailed("report.txt disagrees with trace.json")
        with open(self.out_dir / "curves.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        if rows != 2 + self.chunk_steps:
            raise CheckFailed(f"curves.csv has {rows} rows")
        return trace.content_hash, [trace]


class CliSweep(_CliWorkload):
    """``flowcache-sim sweep --axis lambda``: N+1 simulations, no export."""

    name = "cli-sweep"
    sims_delivered = len(SWEEP_VALUES.split(","))

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.argv = ["sweep", "--axis", SWEEP_AXIS, "--values", SWEEP_VALUES,
                     "--profile", PROFILE, "--seed", str(seed)]
        self.captured = []   # traces the last op built, for the invariant check

    def op(self):
        from flowcache_sim import cli
        self.captured = []
        execute = cli._execute

        def capturing(cfg):
            trace = execute(cfg)
            self.captured.append(trace)
            return trace
        cli._execute = capturing
        try:
            return super().op()
        finally:
            cli._execute = execute

    def observe(self, result):
        code, stdout = result
        if code != 0:
            raise CheckFailed(f"sweep exited {code}")
        rows = list(csv.reader(io.StringIO(stdout)))
        values = [float(v) for v in SWEEP_VALUES.split(",")]
        if [float(r[1]) for r in rows[1:]] != values:
            raise CheckFailed("sweep rows do not match the axis values")
        if len(self.captured) != 1 + len(values):
            raise CheckFailed(f"sweep ran {len(self.captured)} simulations")
        return rows, self.captured


class TrajectoryLong(Workload):
    """Library ``run_denoise`` on 40 chunks: every step computes, KV only appends."""

    name = "trajectory-long"

    def op(self):
        from flowcache_sim import armodel
        scene, schedule, policy, kv, cost, noise_scale = self.objects
        return armodel.run_denoise(scene, schedule, policy=policy, kv=kv,
                                   cost=cost, noise_scale=noise_scale)

    def observe(self, result):
        return result.content_hash, [result]


WORKLOADS = {w.name: w for w in (CliRun, CliSweep, TrajectoryLong)}
