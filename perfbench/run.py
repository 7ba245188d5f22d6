"""perfbench: the search benchmark of hullkit.

    python3 perfbench/run.py --workload sd-screen --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the benchmark imports hullkit from
``src/`` beside this directory and from nowhere else.  It runs the workload
as a closed loop for ``--seconds`` seconds and checks every output; it sets
the workload up (import, seeds, inputs) several times, before and after
that.  A probe of fixed work, timed beside the operations, states their cost
and the set-up time at one machine speed (see README.md).

``--trace 0`` prints the end-to-end figures.  ``--trace 1`` runs the same
work twice, untraced and then traced, prints the per-layer figures and the
D11 stage table, and writes the spans under ``perfbench/out/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit status: 0 when every check passed, 1 when a check failed, 2 on a usage
error or when ``src/hullkit`` is missing.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import Probe, percentile
from tracing import PER_LAYER, Tracer, d11_stages, layer_metrics, write_spans
from workloads import WORKLOADS, Checker

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-ups before and after the measured run (before it only, when tracing).
SETUP_BEFORE, SETUP_AFTER = 3, 2
# setup_s counts set-up time in probe times at this many seconds per probe,
# about what the probe takes on an unloaded 2.1 GHz Xeon core.
PROBE_SECONDS = 0.001

END_TO_END = {"setup_s": "s", "op_probes": "probes", "peak_rss_mb": "MB"}


def import_hullkit():
    """Import hullkit afresh from SRC, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hullkit" or n.startswith("hullkit.")]:
        del sys.modules[name]
    hk = importlib.import_module("hullkit")
    if Path(hk.__file__).resolve().parent != (SRC / "hullkit").resolve():
        raise ImportError(f"hullkit came from {hk.__file__}, not from {SRC}")
    return hk


def _fmt(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<36} {shown:>12} {unit:<9} {note}".rstrip()


def _pct_note(n: int, q: float) -> str:
    beyond = int(n * (100 - q) / 100)
    return f"n={n}" + ("" if beyond >= 10 else f", {beyond} beyond (fewer than 10)")


def stage_figures(ops, wall: float, chk: Checker) -> list[str]:
    """Figures as measured, by stage, for whichever stages the workload
    reaches.  They are printed, not gated: the machine's speed moves them
    from run to run by more than any gate could allow."""
    cands = [op for op in ops if op.kind != "equiv"]
    rejects = [op.seconds * 1000 for op in ops if op.kind == "reject"]
    certs = [op.seconds for op in ops if op.kind == "cert"]
    equivs = [op for op in ops if op.kind == "equiv"]
    unknown = sum(1 for op in equivs if op.verdict == "unknown")
    lines = [_fmt("ops_per_s", len(ops) / wall, "1/s", f"{len(ops)} operations in {wall:.3f} s"),
             _fmt("op_ms_p50", 1000 * percentile([op.seconds for op in ops], 50), "ms"),
             _fmt("cands_per_s", len(cands) / wall if cands else None, "1/s",
                  f"{len(cands)} candidates")]
    for q in (50, 90):
        lines.append(_fmt(f"reject_ms_p{q}", percentile(rejects, q) if rejects else None, "ms",
                          _pct_note(len(rejects), q) if rejects else "no rejects"))
    lines.append(_fmt("cert_s_p50", percentile(certs, 50) if certs else None, "s",
                      f"n={len(certs)}, emission gap plus replay" if certs else "no records"))
    lines.append(_fmt("equiv_s_p50",
                      percentile([op.seconds for op in equivs], 50) if equivs else None, "s",
                      f"n={len(equivs)}" if equivs else "no dedup decisions"))
    lines.append(_fmt("unknown_frac", unknown / len(equivs) if equivs else None, "ratio",
                      f"{unknown} of {len(equivs)}" if equivs else "no dedup decisions"))
    lines.append(_fmt("fail_frac", chk.failed / chk.attempted, "ratio",
                      f"{chk.failed} of {chk.attempted} operations"))
    if chk.unreferenced:
        lines.append(f"  ({chk.unreferenced} record(s) had no stored reference; "
                     "replay verified them)")
    return lines


def _group_medians(ops) -> dict:
    """Per group, the median of operation time over probe time."""
    ratios: dict[str, list[float]] = {}
    for op in ops:
        ratios.setdefault(op.group, []).append(op.seconds / op.probe)
    return {g: statistics.median(r) for g, r in ratios.items()}


def end_to_end(ops, wall: float, chk: Checker, setups: list[tuple[float, float]],
               probe: Probe):
    """``setups`` holds (seconds, probe seconds just before) per set-up."""
    rel = _group_medians(ops)
    metrics = {
        "setup_s": PROBE_SECONDS * statistics.median(t / p for t, p in setups),
        # each operation priced at its group's median keeps the run's mix of groups
        "op_probes": statistics.fmean(rel[op.group] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"median of {len(setups)}, at {1000 * PROBE_SECONDS:g} ms per probe",
             "op_probes": f"probe {1000 * statistics.median(probe.times):.3f} ms "
                          f"(median of {len(probe.times)})"}
    lines = ["end-to-end (trace off), gated:"]
    lines += [_fmt(name, metrics[name], END_TO_END[name], notes.get(name, ""))
              for name in END_TO_END]
    lines += ["as measured:"] + stage_figures(ops, wall, chk)
    lines += [_fmt("setup_s as measured", statistics.median(t for t, _ in setups), "s")]
    lines += ["per group, median time over probe time and median time:"]
    for g in sorted(rel):
        secs = [op.seconds for op in ops if op.group == g]
        lines.append(_fmt(g, rel[g], "probes",
                          f"{1000 * statistics.median(secs):.4g} ms; n={len(secs)}"))
    return metrics, END_TO_END, lines


def run_traced(wl, hk, chk: Checker, probe: Probe, reference: dict, args):
    tracer = Tracer()
    tracer.install(hk)
    try:
        inp = wl.prepare(hk, args.seed, reference)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    ops_a, wall_a, units = wl.run(hk, inp, chk, probe, deadline=perf_counter() + args.seconds)
    tracer.install(hk)
    try:
        ops, wall, _ = wl.run(hk, inp, chk, probe, tracer, units=units)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    cands = sum(1 for op in ops if op.kind != "equiv")
    records = sum(1 for op in ops if op.kind == "cert")
    metrics = layer_metrics(spans, setup_spans, len(ops), cands, records, wall, wall_a)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    write_spans(path, {"setup": setup_spans, "window": spans})
    lines = [f"per layer (traced pass of {len(ops)} operations, {wall:.3f} s; "
             f"untraced {len(ops_a)} operations, {wall_a:.3f} s):"]
    lines += [_fmt(name, metrics[name], PER_LAYER[name]) for name in PER_LAYER]
    lines += ["D11 stages, mean per call in the traced pass:"]
    lines += d11_stages(spans, [op.seed_id for op in ops])
    lines += [f"spans written to {path.relative_to(HERE.parent)}"]
    return metrics, PER_LAYER, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hullkit" / "__init__.py").is_file():
        print(f"perfbench: no hullkit source at {SRC / 'hullkit'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    probe = Probe()
    setups = []

    def set_up():
        p = probe.run()
        t0 = perf_counter()
        hk = import_hullkit()
        inp = wl.prepare(hk, args.seed, reference)
        setups.append((perf_counter() - t0, p))
        return hk, inp

    for _ in range(SETUP_BEFORE):
        hk, inp = set_up()
    chk = Checker(reference["records"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        metrics, units, lines = run_traced(wl, hk, chk, probe, reference, args)
    else:
        ops, wall, _ = wl.run(hk, inp, chk, probe, deadline=perf_counter() + args.seconds)
        for _ in range(SETUP_AFTER):
            set_up()
        metrics, units, lines = end_to_end(ops, wall, chk, setups, probe)
    print("\n".join(lines))
    correct = chk.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": chk.attempted, "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
