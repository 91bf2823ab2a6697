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
SHA-256 of every case's ``to_json()`` pins the compression score summaries,
which the content hash leaves out.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flowcache_sim import PROFILES, build_objects, resolve_config, run_denoise
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


# SHA-256 of each case's whole trace.json: the content hash leaves out each
# compression's score_min/max/mean, which only the export carries
JSON_PINS = {
    "baseline": "8bb04556fab71f0134f0a9384fa5f5056ec4523ca902479c580c78c7268a454f",
    "magi-fast": "228e892ef88e0da313088ea7cc5553b6b3434ec7f4f564dbd3a769c0b50115af",
    "magi-slow": "e3d0a8de585829fda8f23bb4e6fd9cb7b15e70037392627528685d29646fe700",
    "skyreels-fast": "83f837c729e9c59705a6042c2051926bacb789a5468d1735cbe33eac624ee39c",
    "skyreels-slow": "080293799277964a27ff930e8ba920ba2a5dddc07de49e293d7f32098405f6e6",
    "magi-fast-lambda-0.03": "771f4f3d5bc990f99e317d0d140bdb8548f9a82bacd3edc3d1a36bead787addc",
    "magi-fast-lambda-0.2": "5eac9eca988e450dd91de56ba5e790a15d9fc6568a962d96d7f5bdd727f084e6",
    "magi-fast-lambda-1.0": "3b2ddf2680fbb5c55e5ff1e53dbdf545df948825f28884b6b99a6275f267576d",
    "magi-fast-keys-frame": "a9a2a16ed07cf7dfc8c486d9bc5d7e5bbad9be6e865f7e2956b39f04a59d1c72",
    "magi-fast-keys-chunk": "029c4b0a0f22940703f4f9fb4df9d011a5bdf9a3fd158e0cd66d92a12f9d3b3b",
    "magi-fast-budget-None": "d93670a6fc42dbaa23622b778ae94d502f2bb2e5f2b45e6982e0506e9d0daa8c",
    "magi-fast-budget-1": "0bbbeb027ff7d83ad0a6a3e3bef255b8736e84c76ad59dc6bbebcb676250a9b0",
    "magi-fast-budget-2": "6cfaa20ffa9303e818cbdb3ef17d6108e3b5d7ee5c2256ec418961fac8410825",
    "magi-fast-budget-3": "4c74205a2339afe77f16d118268ba92e4f202af914f3150128e56360ac1bde69",
    "skyreels-fast-frame-frame":
        "8fc93e9874c4d9fbc215fda1da92a3c99ce2da68ffa851a234e8cee1c51d7dee",
    "magi-fast-noise-0.05": "58e6b54ff6461ae8876449f91a341273f573680dea9ffee3acca4a20c11820a4",
    "magi-fast-noise-0.05-seed-4294967296":
        "0d62a16def3ec0bbb2f2fc56fb33e9ce216e1fbc7fa035cf7427f81dc1f7543e",
    "magi-fast-noise-0.05-seed-9223372036854775807":
        "5e2cce18fd8f0163355d9ea6733f7f687565e769431afdbcebb5b1a38ecbfaf5",
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
            == "6636f6035e5fd97e25ac782114bfd49da70a3a0354486efbf4180092cc6c9529")
