"""Command-line interface: run simulations, verify properties, sweep ablations.

Exit codes: 0 success, 1 verification/check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

from . import __version__, armodel
from .armodel import recompute_flops, run_denoise
from .config import PROFILES, build_objects, resolve_config, section
from .errors import SimulatorError
from .trace import curves_csv, flops_speedup, speedup

_OWN = object()   # the reference run keeps the config's own value
# each sweep axis: (config section, field, --values parser, reference run's value)
_SWEEP_AXES = {
    "lambda": ("kv", "mix_lambda", float, _OWN),
    "budget": ("kv", "budget_chunks", int, None),
    "granularity": ("kv", "key_granularity", str, _OWN),
    "epsilon": ("policy", "epsilon", float, 0.0),
}
_SWEEP_COLUMNS = ["axis", "value", "reuse_fraction", "final_l1_error_vs_baseline",
                  "speedup", "peak_kv_tokens", "retained_hash"]
# sorted(verify.SUITES), written out so that only cmd_verify imports verify
_SUITES = ["corollary", "kernels", "kvequiv", "policy", "theorem"]


def _execute(run):
    """Simulate one ``(build_objects result, events, known)`` triple: events record
    the run's ``armodel.trajectory``, or are None to run it live; objects that are a
    key of ``known`` give its trace, as ``run_denoise`` is a pure function of them."""
    objects, events, known = run
    if objects in known:
        return known[objects]
    scene, schedule, policy, kv, cost, noise_scale = objects
    return run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                       noise_scale=noise_scale, events=events)


def _out_dir(raw: str) -> Path:
    out_dir = Path(raw)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, a name too long, no permission...
        raise SimulatorError(f"--out {raw} is not a usable directory: {exc.strerror}") from None
    return out_dir


def cmd_run(args) -> int:
    cfg = resolve_config(profile=args.profile, config_path=args.config,
                         seed=args.seed)
    objects = build_objects(cfg)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0

    trace = _execute((objects, None, {}))
    scene, _, _, _, cost, _ = objects
    # the epsilon-0 (compute-everything) baseline's flops, from this run's records
    gain = flops_speedup(trace, recompute_flops(trace, scene, cost))

    out_dir = _out_dir(args.out)   # only once nothing before it can exit 2
    (out_dir / "trace.json").write_text(trace.to_json())
    (out_dir / "curves.csv").write_text(curves_csv(trace))
    totals = trace.totals
    report = "\n".join([
        f"flowcache-sim {__version__} run report",
        f"speedup_vs_epsilon0_baseline: {gain:.4f}",
        f"reuse_fraction: {totals.reuse_fraction:.4f}",
        f"computed_steps: {totals.computed_steps}",
        f"reused_steps: {totals.reused_steps}",
        f"total_flops: {totals.total_flops:.6g}",
        f"peak_kv_tokens: {totals.peak_resident_tokens}",
        f"peak_kv_bytes: {totals.peak_resident_bytes:.6g}",
        f"trace_hash: {trace.content_hash}",
        "",
    ])
    (out_dir / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_verify(args) -> int:
    from . import verify   # the one command that runs it
    if args.seed < 0:
        raise SimulatorError(f"--seed must be >= 0, got {args.seed}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        print(f"suite: {name}")
        for res in verify.run_suite(name, seed=args.seed):
            print("  " + res.line())
            failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _parse_values(axis: str, raw: str) -> list:
    items = [v.strip() for v in raw.split(",") if v.strip()]
    if not items:
        raise SimulatorError("empty --values list")
    _, _, parse, _ = _SWEEP_AXES[axis]
    try:
        return [parse(v) for v in items]
    except ValueError as exc:
        raise SimulatorError(f"bad --values for axis {axis}: {exc}") from None


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    name, field, _, _ = _SWEEP_AXES[axis]
    out = copy.deepcopy(cfg)
    # budget rows exclude reuse so the memory axis is isolated; epsilon rows
    # of a config without a policy start from one that reuses nothing
    if axis == "budget" or (axis == "epsilon" and out.get("policy") is None):
        out["policy"] = {"epsilon": 0.0, "warmup": 0}
    section(out, name)[field] = value
    return out


def _retained_hash(trace) -> str:
    if not trace.compressions:
        return "-"
    heads = trace.compressions[-1].heads
    ids = "".join(str(heads[head].retained_ids.tolist()) for head in sorted(heads))
    return hashlib.sha256(ids.encode()).hexdigest()[:12]


def _row(axis: str, value, trace, reference) -> list:
    """The sweep row of one run, in ``_SWEEP_COLUMNS`` order."""
    refs = reference.final_latents
    error = max(float(abs(latent - refs[idx]).sum() / abs(refs[idx]).sum())
                for idx, latent in trace.final_latents.items())
    return [axis, value, trace.totals.reuse_fraction, error, speedup(trace, reference),
            trace.totals.peak_resident_tokens, _retained_hash(trace)]


def cmd_sweep(args) -> int:
    """One CSV row per value; a row whose objects are the reference's reuses its run."""
    cfg = resolve_config(profile=args.profile, config_path=args.config,
                         seed=args.seed)
    values = _parse_values(args.axis, args.values)
    # every run's objects first, so that a bad value exits 2 before any simulation
    built = [build_objects(cfg if value is _OWN else _apply_axis(cfg, args.axis, value))
             for value in [_SWEEP_AXES[args.axis][3], *values]]
    events = None
    if _SWEEP_AXES[args.axis][0] == "kv":   # KV fields never reach the trajectory
        scene, schedule, policy, _, _, noise_scale = built[0]
        events = list(armodel.trajectory(scene, schedule, policy, noise_scale))
    known = {}   # only the reference, so that no row's trace outlives its row
    reference = known[built[0]] = _execute((built[0], events, known))
    # _row takes each trace, so that it dies before the next row runs
    rows = [_row(args.axis, value, _execute((objects, events, known)), reference)
            for value, objects in zip(values, built[1:])]

    out = io.StringIO()
    csv.writer(out).writerows([_SWEEP_COLUMNS, *rows])
    text = out.getvalue()
    if args.out:
        (_out_dir(args.out) / f"sweep_{args.axis}.csv").write_text(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcache-sim",
        description="Simulator for chunkwise denoising cache reuse and "
                    "fixed-budget KV compression")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)   # run's and sweep's
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--profile", choices=sorted(PROFILES),
                        help="named profile (default magi-fast)")
    common.add_argument("--seed", type=int, help="override scene seed")
    run_p = sub.add_parser("run", parents=[common], help="simulate one configuration")
    run_p.add_argument("--out", default="runs", help="output directory")
    run_p.add_argument("--print-config", action="store_true",
                       help="print the fully-resolved config and exit")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="run a property suite")
    ver_p.add_argument("--suite", required=True,
                       choices=[*_SUITES, "all"])
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.set_defaults(func=cmd_verify)

    sweep_p = sub.add_parser("sweep", parents=[common], help="sweep one ablation axis")
    sweep_p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--out", help="directory for the CSV table")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
