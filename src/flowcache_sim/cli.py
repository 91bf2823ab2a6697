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

from . import __version__
from .armodel import recompute_flops, run_denoise
from .config import PROFILES, build_objects, resolve_config, section
from .errors import SimulatorError
from .trace import curves_csv, flops_speedup, speedup

_SWEEP_AXES = ("lambda", "budget", "granularity", "epsilon")
# sorted(verify.SUITES), written out so that only cmd_verify imports verify
_SUITES = ["corollary", "kernels", "kvequiv", "policy", "theorem"]


def _execute(cfg: dict):
    scene, schedule, policy, kv, cost, noise_scale = build_objects(cfg)
    return run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                       noise_scale=noise_scale)


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
    scene, schedule, policy, kv, cost, noise_scale = build_objects(cfg)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0

    trace = run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                        noise_scale=noise_scale)
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
    parse = {"budget": int, "lambda": float, "epsilon": float}.get(axis, str)
    try:
        return [parse(v) for v in items]
    except ValueError as exc:
        raise SimulatorError(f"bad --values for axis {axis}: {exc}") from None


def _apply_axis(cfg: dict, axis: str, value) -> dict:
    out = copy.deepcopy(cfg)
    if axis == "lambda":
        section(out, "kv")["mix_lambda"] = value
    elif axis == "budget":
        # budget rows exclude reuse so the memory axis is isolated
        section(out, "kv")["budget_chunks"] = value
        out["policy"] = {"epsilon": 0.0, "warmup": 0}
    elif axis == "granularity":
        section(out, "kv")["key_granularity"] = value
    elif axis == "epsilon":
        if out.get("policy") is None:
            out["policy"] = {"epsilon": 0.0, "warmup": 0}
        section(out, "policy")["epsilon"] = value
    return out


def _final_latent_error(trace, reference) -> float:
    errs = []
    for idx, latent in trace.final_latents.items():
        ref = reference.final_latents[idx]
        denom = abs(ref).sum()
        errs.append(float(abs(latent - ref).sum() / denom))
    return max(errs)


def _retained_hash(trace) -> str:
    if not trace.compressions:
        return "-"
    last = trace.compressions[-1]
    h = hashlib.sha256()
    for head in sorted(last.heads):
        h.update(bytes(str(last.heads[head].retained_ids.tolist()), "utf-8"))
    return h.hexdigest()[:12]


def cmd_sweep(args) -> int:
    cfg = resolve_config(profile=args.profile, config_path=args.config,
                         seed=args.seed)
    values = _parse_values(args.axis, args.values)
    at = {"budget": None, "epsilon": 0.0}
    reference = _execute(_apply_axis(cfg, args.axis, at[args.axis])
                         if args.axis in at else cfg)

    def one(value):
        trace = _execute(_apply_axis(cfg, args.axis, value))
        return {
            "axis": args.axis,
            "value": value,
            "reuse_fraction": trace.totals.reuse_fraction,
            "final_l1_error_vs_baseline": _final_latent_error(trace, reference),
            "speedup": speedup(trace, reference),
            "peak_kv_tokens": trace.totals.peak_resident_tokens,
            "retained_hash": _retained_hash(trace),
        }

    rows = [one(v) for v in values]

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
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

    run_p = sub.add_parser("run", help="simulate one configuration")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--profile", choices=sorted(PROFILES),
                       help="named profile (default magi-fast)")
    run_p.add_argument("--seed", type=int, help="override scene seed")
    run_p.add_argument("--out", default="runs", help="output directory")
    run_p.add_argument("--print-config", action="store_true",
                       help="print the fully-resolved config and exit")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="run a property suite")
    ver_p.add_argument("--suite", required=True,
                       choices=[*_SUITES, "all"])
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.set_defaults(func=cmd_verify)

    sweep_p = sub.add_parser("sweep", help="sweep one ablation axis")
    sweep_p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--config", help="JSON config file")
    sweep_p.add_argument("--profile", choices=sorted(PROFILES))
    sweep_p.add_argument("--seed", type=int)
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
