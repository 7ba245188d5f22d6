"""The benchmark tracer (perfbench/tracing.py) wraps hullkit names by
``getattr`` on their owners; each one must still exist, or ``--trace 1``
fails before the first span."""
import importlib.util
from pathlib import Path

import hullkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling harness
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets(hullkit)
    assert targets
    for owner, attr, site, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{site}: {owner!r} has no {attr!r}"
