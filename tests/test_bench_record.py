"""tools/bench_record.py runs perfbench/run.py and appends one row per run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"wall_s_p50", "wall_s_tail", "chunk_steps_per_s", "setup_s", "peak_alloc_mb"}


def test_one_short_run_appends_one_row(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text("[]")   # rows are appended to what the file holds
    subprocess.run([sys.executable, "tools/bench_record.py", "--workload", "cli-run",
                    "--seed", "3", "--seconds", "0.05", "--out", str(out)],
                   cwd=ROOT, check=True, capture_output=True, timeout=300)
    [row] = json.loads(out.read_text())
    assert row["side"] == "tree" and row["pair"] == 0
    assert (row["workload"], row["seed"], row["seconds"]) == ("cli-run", 3, 0.05)
    assert row["correct"] is True and row["failed"] == 0 and row["attempted"] >= 21
    assert all(row[name] > 0 for name in METRICS)
    assert set(row["host"]) == METRICS - {"peak_alloc_mb"}
    assert {"python", "numpy", "blas", "nproc", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS"} <= set(row["env"])
    assert len(row["src_digest"]) == 64
    assert row["commit"] is None or len(row["commit"].removesuffix("-dirty")) == 40
