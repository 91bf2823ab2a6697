"""The benchmark's traced run wraps functions by name; keep those names alive.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` it lists with a
timing wrapper. A rename in the package would only surface as a KeyError when
``perfbench/run.py --trace 1`` runs, so this test checks the names up front.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    targets = load_tracing().targets()
    assert targets
    for name, bindings, _note in targets:
        for owner, attr in bindings:
            assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
