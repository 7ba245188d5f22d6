"""A few units of each perfbench workload, run with its own output checks:
record payloads against perfbench/reference.json, replays, known survivors,
equivalence witnesses and verdicts.  Every check must pass."""
import json

import pytest

import hullkit

from conftest import PERFBENCH, load_perfbench

# units per workload: candidates, streams, rounds of streams, decisions
UNITS = {"sd-screen": 20, "sd-hits": 1, "lcd-improve": 1, "equiv-56": 2}


@pytest.mark.parametrize("name", list(UNITS))
def test_workload_checks_pass(name, monkeypatch):
    harness = load_perfbench("harness", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name]
    inp = workload.prepare(hullkit, 1, reference)
    chk = workloads.Checker(reference["records"])
    workload.run(hullkit, inp, chk, harness.Probe(), units=UNITS[name])
    assert chk.failed == 0
    assert chk.attempted > 0
