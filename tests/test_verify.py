"""The verify suites fail on the defects their oracles exist to catch.

Each row of ``DEFECTS`` patches one name that ``verify.py`` calls with a
defect and asserts that the named check of the suite then fails. A second
test pins what ``verify.py`` imports from the modules it checks, so sharing
a new helper with the code under test is a reviewed change.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from flowcache_sim import verify
from flowcache_sim.errors import InvalidInput
from flowcache_sim.reuse import COMPUTE, REUSE, Decision

decide = verify.decide
ideal_velocity = verify.ideal_velocity
importance = verify.importance
perturbed_velocity = verify.perturbed_velocity
redundancy_fast = verify.redundancy_fast
stable_topk = verify.stable_topk
velocity_noise_seeds = verify.velocity_noise_seeds


def decide_at_tie(policy, accumulator, local_step, estimate):
    # the accumulate-and-threshold rule with >= where the rule says >
    if local_step < policy.warmup or estimate is None or estimate <= 0.0:
        return Decision(COMPUTE, estimate, 0.0)
    grown = accumulator + estimate
    if grown >= policy.epsilon:
        return Decision(COMPUTE, estimate, 0.0)
    return Decision(REUSE, estimate, grown)


def noise_sized_by_first_row(window, rows, schedule, noise_scale, out=None):
    # a cross-row defect: every row's perturbation scaled by the first computing row's norm
    ideal = perturbed_velocity(window, rows, schedule, 0.0, None if out is None else out.copy())
    got = perturbed_velocity(window, rows, schedule, noise_scale, out)
    norms = np.abs(ideal.reshape(len(ideal), -1)).sum(axis=1)
    for r in rows:
        got[r] = ideal[r] + (got[r] - ideal[r]) * (norms[rows[0]] / norms[r])
    return got


DEFECTS = [   # (defect, patched name, defect, suite, failing check's name prefix)
    ("decide ignoring warmup", "decide",
     lambda policy, f, local_step, estimate: decide(policy, f, 10**9, estimate),
     "policy", "decision engine vs direct rule interpreter"),
    ("decide using >= at an exact tie", "decide", decide_at_tie,
     "policy", "decision engine vs interpreter at exact boundaries"),
    ("redundancy_fast x (1 + 1e-7)", "redundancy_fast",
     lambda keys: redundancy_fast(keys) * (1 + 1e-7), "kvequiv", "redundancy fast vs naive"),
    ("importance with its candidate order reversed", "importance",
     lambda *args: importance(*args)[:, ::-1], "kernels", "importance vs explicit-loop"),
    ("stable_topk in reversed order", "stable_topk",
     lambda scores, k: stable_topk(scores, k)[::-1], "kernels", "stable_topk vs full-sort"),
    ("ideal_velocity x 1.001", "ideal_velocity",
     lambda *args: ideal_velocity(*args) * 1.001, "kernels", "ideal_velocity vs closed form"),
    ("velocity noise seeded one seed off", "velocity_noise_seeds",
     lambda seed, index, steps: velocity_noise_seeds(seed + 1, index, steps),
     "kernels", "velocity noise vs numpy"),
    ("velocity noise sized by the first computing row's norm", "perturbed_velocity",
     noise_sized_by_first_row, "kernels", "velocity noise vs numpy"),
]


@pytest.mark.parametrize("suite", ["kernels", "policy"])
def test_suite_passes_unpatched(suite):
    # kvequiv's unpatched run is the acceptance suite's criterion 4
    assert all(result.passed for result in verify.run_suite(suite))


def test_unknown_suite_rejected():
    with pytest.raises(InvalidInput) as info:
        verify.run_suite("nope")
    assert str(info.value) == ("unknown suite 'nope'; known: kernels, theorem, "
                               "corollary, policy, kvequiv")


@pytest.mark.parametrize("name,attr,defect,suite,check", DEFECTS,
                         ids=[row[0] for row in DEFECTS])
def test_defect_fails_its_check(monkeypatch, name, attr, defect, suite, check):
    monkeypatch.setattr(verify, attr, defect)
    failed = [r.name for r in verify.run_suite(suite) if not r.passed]
    assert any(n.startswith(check) for n in failed), (name, failed)


IMPORT_ALLOWLIST = {
    "armodel": {"ChunkState", "ideal_velocity", "perturbed_velocity", "smooth_profiles",
                "velocity_noise_seeds"},
    "kvcache": {"KVPlan", "importance", "redundancy_fast"},
    "reuse": {"COMPUTE", "REUSE", "ReusePolicy", "decide"},
    "trace": set(),
}


def test_verify_imports_only_the_allowlist():
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = {module: set() for module in IMPORT_ALLOWLIST}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in imported:
            imported[node.module] |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.level == 0):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert not any(n.startswith("flowcache_sim") for n in names), names
    assert imported == IMPORT_ALLOWLIST
