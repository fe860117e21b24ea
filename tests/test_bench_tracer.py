"""The benchmark's tracer still finds every atrisk name it traces.

`perfbench/tracing.py` resolves each traced function and method by name when
it installs, so renaming or deleting one of them breaks the benchmark. This
test makes that break show in the unit suite as well.
"""

import importlib.util
from pathlib import Path

import atrisk.cli  # noqa: F401  (the benchmark runs the CLI, so it is loaded there too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) >= len(tracing.FUNCTIONS) + len(tracing.METHODS)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
