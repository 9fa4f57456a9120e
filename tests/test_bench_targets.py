"""The benchmark's tracer wraps library functions by name; each must exist.

`bench/spans.py` fetches every (module, function) of its TARGETS with
getattr, and every workload in `bench/workloads.py` names a dominant
function the traced run must see called.  A renamed or deleted target makes
every traced run raise, so this checks the names without running the
benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _targets():
    spans = _load("spans")
    workloads = _load("workloads")
    names = [f"{mod}.{fn}" for mod, fn in spans.TARGETS]
    return names + [wl.dominant for wl in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_is_library_callable(target):
    mod, fn = target.split(".")
    assert callable(getattr(importlib.import_module(f"framepr.{mod}"), fn, None)), target


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_traced_unit_calls_the_dominant_function(name, tmp_path):
    # a traced benchmark run fails when its workload's dominant function is
    # never called, or when a library alias escapes the tracer's patching
    import framepr
    import framepr.cli  # noqa: F401  (traced, and run by the sweep workload)

    spans, workloads = _load("spans"), _load("workloads")
    wl = workloads.WORKLOADS[name](framepr, 1, str(tmp_path / "work"))
    try:
        with spans.Tracer(framepr) as tr:
            unit = wl.run(0)
    finally:
        wl.close()
    assert tr.unpatched == []
    assert tr.calls[wl.dominant] > 0, wl.dominant
    assert wl.check([unit]) == []
