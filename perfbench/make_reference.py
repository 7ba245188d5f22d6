"""Regenerate perfbench/reference.json from the hullkit source beside it.

    python3 perfbench/make_reference.py

The reference holds, for every candidate the workloads hand out that is known
to survive (x = y on each circulant seed with y4 and y8; the bundled pair of
each LCD seed), the SHA-256 of its record payload, and for each circulant
seed a digest of its N_t sequence at weight 12.  The script refuses to write
when a fact the workloads rely on does not hold: the LCD seeds' minimum
weights, and pairwise distinct N_t sequences, which certify every pair of
distinct circulant seeds inequivalent.
"""
from __future__ import annotations

import hashlib
import json
import sys

from harness import payload_digest, record_key
from run import HERE, import_hullkit
from workloads import LCD_SEEDS


def main() -> int:
    hk = import_hullkit()
    records = {}
    nt = {}
    for name in hk.artifacts.CIRCULANT_SEED_NAMES:
        seed = hk.artifacts.load_seed(name)
        m = hk.code.standard_form(seed).a_block.cols
        for i in (4, 8):
            y = hk.search.make_yi(m, i)
            (rec,) = hk.search.sd_search(seed, y, [y], d_target=12, seed_id=name, threads=2)
            records[record_key(rec.payload())] = payload_digest(rec.payload())
        seq = hk.invariant.nt_sequence(seed, 12, threads=2).sequence
        nt[name] = hashlib.sha256(json.dumps(seq).encode()).hexdigest()
    if len(set(nt.values())) != len(nt):
        print("make_reference: two circulant seeds share an N_t sequence", file=sys.stderr)
        return 1
    for name, (pair_name, d) in LCD_SEEDS.items():
        seed = hk.artifacts.bundled_code(name)
        if hk.minweight.min_weight(seed) != d:
            print(f"make_reference: {name} does not have d = {d}", file=sys.stderr)
            return 1
        pair = hk.artifacts.load_pair(pair_name)
        (rec,) = hk.search.lcd_improve(seed, [pair], d_target=d + 1, seed_id=name)
        records[record_key(rec.payload())] = payload_digest(rec.payload())
    doc = {"records": dict(sorted(records.items())), "nt": nt}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} record digests and {len(nt)} N_t digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
