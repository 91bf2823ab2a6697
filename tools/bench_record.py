"""Record perfbench runs as rows of a committed benchmark file.

Usage:
    python3 tools/bench_record.py --workload cli-run|cli-sweep|trajectory-long
        [--seed N] [--seconds S] [--pairs P] [--against DIR]
        [--out BENCH_perfbench.json]

Each run is ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` in a subprocess, started in the checkout it measures, so that
checkout's ``src/`` is the code under test. Its last stdout line gives the
five end-to-end metrics; the result copy it writes under ``perfbench/out/``
gives the unscaled host times and the environment. One row per run is
appended to ``--out`` (a JSON list) as soon as the run ends.

Without ``--against``, P runs of the working tree, at seeds N, N+1, ...
With ``--against DIR`` (a checkout of another commit, such as the parent's),
P pairs: pair i runs both trees at seed N+i, DIR first in even pairs and the
working tree first in odd ones, so neither tree always runs first. The
summary then gives each tree's medians, DIR's interquartile range and the
pairs the working tree won.

Thread and BLAS variables are recorded as found and never set.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the end-to-end metrics run.py reports, and whether higher is better
METRICS = {"wall_s_p50": False, "wall_s_tail": False, "chunk_steps_per_s": True,
           "setup_s": False, "peak_alloc_mb": False}


def src_digest(tree: Path) -> str:
    """SHA-256 over ``tree``'s ``src/`` files, paths and bytes: names the code
    measured even when it is not committed."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit(tree: Path) -> str | None:
    """``tree``'s HEAD commit, with ``-dirty`` if a tracked file differs; None
    when ``tree`` is not the top of a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()
    if Path(git("rev-parse", "--show-toplevel") or "/nonexistent").resolve() != tree:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``tree`` as a row; ``side`` is "tree" for the
    working tree and "against" for ``--against``'s checkout."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    copy = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
                      .read_text())
    return {"commit": commit(tree), "src_digest": src_digest(tree), "side": side,
            "started": started, "workload": workload, "seed": seed, "seconds": seconds,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS},
            "host": copy["host"], "env": copy["env"]}


def append(path: Path, row: dict) -> None:
    """Add ``row`` to the JSON list in ``path``, written one row per line."""
    rows = [*(json.loads(path.read_text()) if path.exists() else []), row]
    path.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


def summary(rows: list[dict]) -> list[str]:
    """Per metric: each side's median, the against side's interquartile range,
    and the pairs the working tree won."""
    base = [r for r in rows if r["side"] == "against"]
    mine = [r for r in rows if r["side"] == "tree"]
    lines = []
    for name, higher in METRICS.items():
        old, new = [r[name] for r in base], [r[name] for r in mine]
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
        lines.append(f"{name:<18} against {statistics.median(old):.6g} "
                     f"(IQR {q3 - q1:.3g})  tree {statistics.median(new):.6g}  "
                     f"({statistics.median(new) / statistics.median(old) - 1:+.2%}), "
                     f"won {wins} of {len(old)} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-run", "cli-sweep", "trajectory-long"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = parser.parse_args(argv)

    rows = []
    for i in range(args.pairs):
        sides = [("tree", ROOT)]
        if args.against is not None:
            sides.insert(0, ("against", args.against.resolve()))
        for side, tree in sides if i % 2 == 0 else sides[::-1]:
            row = {**run_once(tree, side, args.workload, args.seed + i, args.seconds),
                   "pair": i}
            append(args.out, row)
            rows.append(row)
            print(f"pair {i} seed {row['seed']} {side}: wall_s_p50 {row['wall_s_p50']:.6g}"
                  f" correct {row['correct']}", flush=True)
    if args.against is not None:
        print("\n".join(summary(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
