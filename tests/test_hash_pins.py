"""Pinned content hashes and CLI outputs beyond the magi-fast golden fixture.

Covers every profile plus the magi-fast sweep variants (lambda, key
granularity, budget including none), frame/frame granularity on
skyreels-fast and magi-fast runs with velocity noise (whose reuse steps
read a stored velocity norm; two at seeds of more than one 32-bit word), so
a refactor of the KV buffer or the trajectory loop that moves any retained
id, decision or latent bit fails here. The pins change only with a deliberate,
logged change to simulator behaviour. The SHA-256 of the ``sweep`` stdout on
every axis and of ``run``'s report.txt pin the CLI's reference and baseline
configs too, and the SHA-256 of ``run``'s curves.csv pins its rendering. The
SHA-256 of every case's ``to_json()`` pins what the content hash leaves out:
the chunk-steps' ``estimate`` column, the config and the totals. Those pins
and the golden file are re-checked in child processes that take other x86
CPUs' numpy and OpenBLAS paths, so every pinned byte is portable there.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcache_sim import (PROFILES, build_objects, kvcache, resolve_config, run_denoise,
                           select_tokens)
from flowcache_sim.cli import main
from flowcache_sim.config import _deep_merge

CASES = [
    *[(name, name, {}) for name in sorted(PROFILES)],
    *[(f"magi-fast-lambda-{lam}", "magi-fast", {"kv": {"mix_lambda": lam}})
      for lam in (0.03, 0.2, 1.0)],
    *[(f"magi-fast-keys-{gran}", "magi-fast", {"kv": {"key_granularity": gran}})
      for gran in ("frame", "chunk")],
    *[(f"magi-fast-budget-{b}", "magi-fast", {"kv": {"budget_chunks": b}})
      for b in (None, 1, 2, 3)],
    ("skyreels-fast-frame-frame", "skyreels-fast",
     {"kv": {"query_granularity": "frame", "key_granularity": "frame"}}),
    ("magi-fast-noise-0.05", "magi-fast", {"noise_scale": 0.05}),
    # seeds of two and more 32-bit words take the extra-entropy path of the noise seeding
    *[(f"magi-fast-noise-0.05-seed-{seed}", "magi-fast",
       {"scene": {"num_chunks": 5, "seed": seed}, "noise_scale": 0.05})
      for seed in (2**32, 2**63 - 1)],
]

PINS = {
    "baseline": "7857c88f9112a10858b8926ff1c884a7209b5021e648cff3e4c15088df3244ba",
    "magi-fast": "a331145be9c805f44ea5adbb4855f4c0f635fc7ad98101d891e593602521e25e",
    "magi-slow": "00edfdd74bc24c03f893a8907e14d0d72b9680930b61eecb628467780afe1742",
    "skyreels-fast": "edd4b411d1755af25434d1a55ac9a908c1c97dd3c1a9cb23111d6d913ce6794c",
    "skyreels-slow": "9fbbf750a62426dee730516ff001c92bb4cde3f3542bdbfb66a89b008b0a4787",
    "magi-fast-lambda-0.03": "659dda2c05f2066c61611fa87e38c8244f596f3671d8fb34691abadd5d4f7eb3",
    "magi-fast-lambda-0.2": "57b77b5a3caf2d6b222f724996172b243fb8ba20a7691b11baf16c38b6de35c9",
    "magi-fast-lambda-1.0": "9aaa361b3bde1775134cd142cc85822989b2d046ddfac6e45b4908258bacbda6",
    "magi-fast-keys-frame": "9736bb8896e5572728bac4d19c25cfcffaf69ba048bf0933fb5fc9696f4dd112",
    "magi-fast-keys-chunk": "0445104c05b5b7463135925a2999b1e3709be363f5f98222988e2a3a7536c8af",
    "magi-fast-budget-None": "a7e97f6df28c4d9015466ba7e398ab997217bdf03fbe7536429bf4c6c61500cf",
    "magi-fast-budget-1": "3273180939071d1c7da33922d093c0c4bb117266fc5e1a733025942d67e573fe",
    "magi-fast-budget-2": "80c8ab016bdd068c8cb5f5938727b8c6bfd4c13a657d9268b5971b8672df0e17",
    "magi-fast-budget-3": "d03b60abc4e12fdf893d0b5a013e71a6b508ad85a4ab27f24dde4fca65f17689",
    "skyreels-fast-frame-frame": "f3a6a8847f7d760af8be32f6fc075f75010bb20177b9ab4c29fe6ead6daffd78",
    "magi-fast-noise-0.05": "06b68946b3941acfc19b4badf9c809a8ef51681e8bdc3699dd8f1e454a871eb2",
    "magi-fast-noise-0.05-seed-4294967296":
        "3a9f41ca8ee77ce3e5b713debab724412028102bcf00abc8c35bb5161e9d9cca",
    "magi-fast-noise-0.05-seed-9223372036854775807":
        "ac214c9edf5bc44ca308639d5626bce3b0c47bb920ec13023849ddef50f43ab8",
}


# SHA-256 of each case's whole trace.json: besides the hashed records it pins
# the unhashed estimate column, the config and the totals
JSON_PINS = {
    "baseline": "f5524947c9079657caf9146220c3ca1e230b690db4ffa3556dc1ea49cc031653",
    "magi-fast": "6b32205182325921d40b20d36fcba63eca6a92b2eb4869794c37f4e49436f23b",
    "magi-slow": "14f5a0483c337463f47bc0db48a7dd6a9da0732cc58eaf463eb1d9402b61a29b",
    "skyreels-fast": "091c5d0e7672a2d4fdf89735ac5a2aaad64a6888367ca49fc6c27ddbb65e62b9",
    "skyreels-slow": "3cb29eb71d06c2b136669aeed7e05d3cb0aaf3f3ad254ab78e0f9198c905c4e6",
    "magi-fast-lambda-0.03": "1ae1bf35cb859ee138e10fbbba6acd6ada25b90f8895169173040b1cbb3d09fb",
    "magi-fast-lambda-0.2": "8e0b1f7f3ee39cd89269561e84c126c3618f1db23e9b41440fe230d6683d02d0",
    "magi-fast-lambda-1.0": "ddefa44a4f22860ba875e753c45450a70aacce9ee3fd3ffa8137fa7a23596e2a",
    "magi-fast-keys-frame": "89d2206c0b9d1a95f707dcdeecf6df7114d411c0797c6d83f0e5c9e55f8a9d45",
    "magi-fast-keys-chunk": "95ee6f89be18798cec5bbbdf68fb7674cbc9e4b6b93a6f412d34fcda195909d2",
    "magi-fast-budget-None": "6db87c6f2becb1ebf7a0b8409a114beb64442469790ced0ed9036e264503497e",
    "magi-fast-budget-1": "0f569b2bb7e603c71e1e0b4c3634e98356967835a5d94b0421a6e74e66f7716c",
    "magi-fast-budget-2": "3a91b348eabd672fc853fe06d544f86cb2188a5e81e2a3bf2a2dc36c95786105",
    "magi-fast-budget-3": "bae25c9947cc6d04b301c8d0886f879c9ad6cda270d46ae7c0f46ef870becdda",
    "skyreels-fast-frame-frame":
        "74bdff6427b0d545d491e06b55aeb9a282fcdd83626ed00cc38e4ca2711f777a",
    "magi-fast-noise-0.05": "b1c2afd6f8c89a403fe54091c1306d03099c5f7793a733ef8b7b438014d166de",
    "magi-fast-noise-0.05-seed-4294967296":
        "ee3c43baeaddef3babb60764e9e8618f20a8290af1eb4f5c8668e6174b4b1659",
    "magi-fast-noise-0.05-seed-9223372036854775807":
        "bd16d2cf35b89828b8e290c6cdd071ce299279bf7d08b8a7dc6893707c0fcffd",
}


def simulate(profile: str, overrides: dict):
    cfg = _deep_merge(resolve_config(profile=profile), overrides)
    scene, schedule, policy, kv, cost, noise_scale = build_objects(cfg)
    return run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                       noise_scale=noise_scale)


@pytest.mark.parametrize("name,profile,overrides", CASES,
                         ids=[case[0] for case in CASES])
def test_content_hash_pinned(name, profile, overrides):
    assert simulate(profile, overrides).content_hash == PINS[name]


@pytest.mark.parametrize("name,profile,overrides", CASES,
                         ids=[case[0] for case in CASES])
def test_trace_json_pinned(name, profile, overrides):
    assert sha256(simulate(profile, overrides).to_json()) == JSON_PINS[name]


# numpy's SIMD dispatch and OpenBLAS's kernel choice follow the CPU: these
# settings take the paths of an x86 CPU without AVX-512 and of one without AVX2
@pytest.mark.parametrize("setting", [
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
], ids=["numpy-without-avx512", "openblas-sandybridge"])
def test_pinned_bytes_hold_on_other_cpu_paths(setting):
    # the golden file and every to_json pin, re-checked in a child process
    # that has the setting; the child may never rewrite the golden file
    env = {k: v for k, v in os.environ.items() if k != "FLOWCACHE_SIM_REGEN_GOLDEN"}
    tests = Path(__file__).parent
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{tests / 'test_trace.py'}::TestExport::test_golden_fixture_byte_exact",
         f"{tests / 'test_hash_pins.py'}::test_trace_json_pinned"],
        cwd=tests.parent, env={**env, **setting}, capture_output=True, text=True,
        timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "19 passed" in child.stdout


MARGIN_CASES = {
    "default": {},
    "1.0": {"kv": {"mix_lambda": 1.0}},
    "0.03": {"kv": {"mix_lambda": 0.03}},
    "keys-frame": {"kv": {"key_granularity": "frame"}},
    "keys-chunk": {"kv": {"key_granularity": "chunk"}},
    "queries-frame": {"kv": {"query_granularity": "frame"}},
    "budget-1": {"kv": {"budget_chunks": 1}},
}


@pytest.mark.parametrize("overrides", list(MARGIN_CASES.values()), ids=list(MARGIN_CASES))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_selection_boundaries_tie_or_stand_far_apart(profile, overrides, monkeypatch):
    # what keeps the retained ids, so every hash and trace.json byte, off the
    # last bits of exp and BLAS: at each head's boundary the last kept and the
    # first dropped group scores are an exact tie (a max-pool plateau, equal on
    # any CPU and broken by index) or at least 1e6 ulp apart; at each lambda
    # extreme, key group size, pooled queries and the smallest budget
    gaps = []

    def measured(score_row, budget_tokens, group):
        groups = np.sort(score_row.reshape(-1, group).mean(axis=1))[::-1]
        kept, dropped = groups[min(budget_tokens // group, len(groups)) - 1:][:2]
        gaps.append((kept - dropped) / np.spacing(max(abs(kept), abs(dropped))))
        return select_tokens(score_row, budget_tokens, group)

    monkeypatch.setattr(kvcache, "select_tokens", measured)
    assert simulate(profile, {"scene": {"seed": 0}, **overrides}).compressions
    assert gaps and all(gap == 0.0 or gap >= 1e6 for gap in gaps), min(gaps)


def test_golden_fixture_hash_pinned():
    # a golden regeneration may move presentation fields, never the hash
    golden = Path(__file__).parent / "data" / "golden_magi_fast.json"
    assert json.loads(golden.read_text())["content_hash"] == PINS["magi-fast"]


SWEEP_PINS = {
    ("epsilon", "0,0.01,0.015"):
        "f7953bdf8cb6e58d39177fd9a1eb73c3fe9c92f95f419e0ec33a4823020ec3a2",
    ("budget", "8,7,6,5"):
        "7273f84fa5b9304e2cfcfb60c05805b7490b9551280dfa67f287060dfc7007dc",
    ("lambda", "0.03,0.07,0.15,0.20"):
        "19c5b96bf7635d2bac1fe1049820aa42211fc746f522184e38cfe2d30569e638",
    ("granularity", "token,frame,chunk"):
        "92b803c35347635c62351f0573f076a57c0ab603a80a733e42dd199239c9b103",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("axis,values", list(SWEEP_PINS),
                         ids=[axis for axis, _ in SWEEP_PINS])
def test_sweep_stdout_pinned(axis, values, capsys):
    assert main(["sweep", "--profile", "magi-fast", "--axis", axis,
                 "--values", values]) == 0
    assert sha256(capsys.readouterr().out) == SWEEP_PINS[axis, values]


def test_run_report_pinned(tmp_path, capsys):
    assert main(["run", "--profile", "magi-fast", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (sha256((tmp_path / "report.txt").read_text())
            == "acb644bdd6d828ff7cc20d9d434168c3cc402a999a22310d0d4093d807e92dc9")
    # bytes, not text: the CSV's rows end in \r\n
    assert (hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest()
            == "f23222d1ea14c185492351bdc4ef771fa8f5e0d64b0071c3fd1f869d4ab9f96c")
