"""perfbench/reference.json, written by perfbench/make_reference.py, holds the
SHA-256 of every record payload the benchmark's workloads know to survive,
and a digest of each circulant seed's N_t sequence at weight 12.  The
library must still produce each of them byte for byte; the file is read,
never written."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import hullkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_reference_digests_are_reproduced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling harness
    harness = _load("harness", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    records, nt = {}, {}
    for name in hullkit.artifacts.CIRCULANT_SEED_NAMES:
        seed = hullkit.artifacts.load_seed(name)
        m = hullkit.standard_form(seed).a_block.cols
        for i in (4, 8):
            y = hullkit.make_yi(m, i)
            (rec,) = hullkit.sd_search(seed, y, [y], d_target=12, seed_id=name, threads=2)
            records[harness.record_key(rec.payload())] = harness.payload_digest(rec.payload())
        seq = hullkit.nt_sequence(seed, 12, threads=2).sequence
        nt[name] = hashlib.sha256(json.dumps(seq).encode()).hexdigest()
    for name, (pair_name, d) in workloads.LCD_SEEDS.items():
        seed = hullkit.artifacts.bundled_code(name)
        pair = hullkit.artifacts.load_pair(pair_name)
        (rec,) = hullkit.lcd_improve(seed, [pair], d_target=d + 1, seed_id=name)
        records[harness.record_key(rec.payload())] = harness.payload_digest(rec.payload())
    assert len(records) == 15
    assert records == reference["records"]
    assert nt == reference["nt"]
