"""Spans around hullkit's layer boundaries, recorded from outside the library.

``Tracer.install`` replaces the names hullkit's searches call (module
attributes and two constructors) with timing wrappers; ``uninstall`` puts
the originals back.  Each call becomes a span: its call site, the layer
that defines the callee, start, end, parent span and the id of the
operation (candidate or decision) the benchmark was working on.  Spans stay
in memory and are written out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover; self times of all spans add up to the traced time.
"""
from __future__ import annotations

import gzip
import json
import threading
from time import perf_counter, process_time
from typing import Callable, Iterable, Sequence

from harness import percentile


class Span:
    __slots__ = ("site", "layer", "start", "end", "parent", "op", "cpu", "info")

    def __init__(self, site: str, layer: str, start: float, end: float,
                 parent: int = -1, op: int = -1):
        self.site = site
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.cpu = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _scan_info(args, kwargs, result):
    code = args[0]
    return {"k": code.k, "threads": kwargs.get("threads", 1),
            "abort_below": kwargs.get("abort_below"),
            "want_dist": kwargs.get("want_dist", False),
            "collect_weight": kwargs.get("collect_weight"),
            "aborted": bool(result[3])}


def _enum_info(args, kwargs, result):
    return {"words": len(result)}


def _equiv_info(args, kwargs, result):
    return {"nodes": result.nodes, "verdict": result.verdict}


def _targets(hk):
    """(owner, attribute, site name, keep CPU time, info from the call).

    Every name a search looks up at call time, at the module that looks it
    up, so each call site gets its own span name.
    """
    s, m, i, c, t, a = hk.search, hk.minweight, hk.invariant, hk.code, hk.transform, hk.artifacts
    return [
        (hk.field.FieldMatrix, "__init__", "FieldMatrix.__init__", False, None),
        (c.LinearCode, "__init__", "LinearCode.__init__", False, None),
        (c, "rref", "code.rref", False, None),
        (c, "rank", "code.rank", False, None),
        (c, "matmul", "code.matmul", False, None),
        (t, "matmul", "transform.matmul", False, None),
        (t, "is_doubly_even", "transform.is_doubly_even", False, None),
        (s, "standard_form", "search.standard_form", False, None),
        (s, "transform_code", "search.transform_code", False, None),
        (s, "is_self_dual", "search.is_self_dual", False, None),
        (s, "is_doubly_even", "search.is_doubly_even", False, None),
        (s, "is_lcd", "search.is_lcd", False, None),
        (s, "_scan_binary", "search._scan_binary", True, _scan_info),
        (s, "min_weight", "search.min_weight", False, None),
        (s, "codeword_masks_of_weight", "search.codeword_masks_of_weight", False, _enum_info),
        (s, "nt_from_masks", "search.nt_from_masks", False, None),
        (s, "fingerprint_code", "search.fingerprint_code", False, None),
        (s, "is_equivalent", "search.is_equivalent", False, _equiv_info),
        (s, "sd_search", "search.sd_search", False, None),
        (s, "lcd_improve", "search.lcd_improve", False, None),
        (s, "replay", "search.replay", False, None),
        (m, "_scan_binary", "minweight._scan_binary", True, _scan_info),
        (i, "weight_distribution", "invariant.weight_distribution", False, None),
        (i, "codeword_masks_of_weight", "invariant.codeword_masks_of_weight", False, _enum_info),
        (i, "is_equivalent", "invariant.is_equivalent", False, _equiv_info),
        (a, "load_seed", "artifacts.load_seed", False, None),
        (a, "load_a_block_code", "artifacts.load_a_block_code", False, None),
        (a, "bundled_code", "artifacts.bundled_code", False, None),
    ]


def _layer_of(fn) -> str:
    """The hullkit module that defines ``fn``, e.g. 'field'."""
    return fn.__module__.rpartition(".")[2]


class Tracer:
    """Collects spans from wrappers it installs on a hullkit import."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def set_op(self, op: int) -> None:
        self.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, site: str, cpu: bool, info: Callable | None):
        layer = _layer_of(fn)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(site, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(self.spans))
            self.spans.append(span)
            cpu0 = process_time() if cpu else 0.0
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if cpu:
                    span.cpu = process_time() - cpu0
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self, hk) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, site, cpu, info in _targets(hk):
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, site, cpu, info))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.seconds - covered)
    return out


def outermost(spans: Sequence[Span], sites: Iterable[str]) -> list[Span]:
    """Spans at the given sites that have no ancestor at those sites, so
    their durations add up without counting a nested call twice."""
    sites = set(sites)
    out = []
    for sp in spans:
        if sp.site not in sites:
            continue
        p = sp.parent
        while p >= 0 and spans[p].site not in sites:
            p = spans[p].parent
        if p < 0:
            out.append(sp)
    return out


def write_spans(path, phases: dict[str, Sequence[Span]]) -> None:
    """Write spans as gzipped JSON lines: phase, site, layer, start, end,
    parent (index within its phase, -1 for none), operation id, CPU seconds
    (scans only) and call details."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for sp in spans:
                fh.write(json.dumps([phase, sp.site, sp.layer, sp.start, sp.end, sp.parent,
                                     sp.op, sp.cpu, sp.info]) + "\n")


# --- per-layer figures ------------------------------------------------------------

# name -> unit; "/op" figures are totals over the traced pass divided by its
# operations (candidates, or decisions on equiv-56)
PER_LAYER = {
    "field.matrix_builds": "count/op",
    "field.matrix_build_s": "s/op",
    "field.matmul_s": "s/op",
    "field.rref_s": "s/op",
    "code.code_builds": "count/op",
    "code.standard_form_s": "s/op",
    "code.predicate_s": "s/op",
    "transform.calls": "count/op",
    "transform.self_s": "s/op",
    "transform.check_s": "s/op",
    "minweight.scans": "count/op",
    "minweight.abort_frac": "ratio",
    "minweight.abort_scan_ms_p50": "ms/scan",
    "minweight.scan_cpu_ratio": "ratio",
    "minweight.full_scan_s": "s/op",
    "minweight.full_scan_codewords_per_s": "1/s",
    "minweight.enum_s": "s/op",
    "minweight.enum_words": "count/op",
    "invariant.nt_s": "s/op",
    "invariant.equiv_calls": "count/op",
    "invariant.equiv_nodes": "count/op",
    "invariant.equiv_nodes_per_s": "1/s",
    "search.candidates": "count",
    "search.survivor_frac": "ratio",
    "search.records": "count",
    "search.self_s": "s/op",
    "search.replay_s": "s/op",
    "circulant.build_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

_SCAN_SITES = ("search._scan_binary", "minweight._scan_binary")
_ENUM_SITES = ("search.codeword_masks_of_weight", "invariant.codeword_masks_of_weight")
_EQUIV_SITES = ("search.is_equivalent", "invariant.is_equivalent")
_SEED_SITES = ("artifacts.load_seed", "artifacts.load_a_block_code", "artifacts.bundled_code")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], setup_spans: Sequence[Span], n_ops: int,
                  candidates: int, records: int, wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER figure from one traced pass.

    ``*_s`` figures named after a call are the inclusive time of that call
    (outermost spans only); ``transform.self_s`` and ``search.self_s`` are
    self times.  A figure whose layer the workload never reaches is 0.
    """
    selfs = self_times(spans)

    def inclusive(*sites):
        return sum(sp.seconds for sp in outermost(spans, sites))

    def count(*sites):
        return sum(1 for sp in spans if sp.site in sites)

    def self_of(*sites):
        return sum(t for sp, t in zip(spans, selfs) if sp.site in sites)

    scans = [sp for sp in spans if sp.site in _SCAN_SITES]
    screens = [sp for sp in scans if sp.info["abort_below"] is not None]
    aborted = [sp for sp in screens if sp.info["aborted"]]
    full = [sp for sp in scans if not sp.info["aborted"] and sp.info["collect_weight"] is None]
    enums = outermost(spans, _ENUM_SITES)
    equivs = outermost(spans, _EQUIV_SITES)
    nodes = sum(sp.info["nodes"] for sp in equivs)
    per_op = {
        "field.matrix_builds": count("FieldMatrix.__init__"),
        "field.matrix_build_s": inclusive("FieldMatrix.__init__"),
        "field.matmul_s": inclusive("code.matmul", "transform.matmul"),
        "field.rref_s": inclusive("code.rref", "code.rank"),
        "code.code_builds": count("LinearCode.__init__"),
        "code.standard_form_s": inclusive("search.standard_form"),
        "code.predicate_s": inclusive("search.is_self_dual", "search.is_doubly_even",
                                      "search.is_lcd"),
        "transform.calls": count("search.transform_code"),
        "transform.self_s": self_of("search.transform_code"),
        "transform.check_s": inclusive("transform.matmul", "transform.is_doubly_even"),
        "minweight.scans": len(scans),
        "minweight.full_scan_s": sum(sp.seconds for sp in full),
        "minweight.enum_s": sum(sp.seconds for sp in enums),
        "minweight.enum_words": sum(sp.info["words"] for sp in enums),
        "invariant.nt_s": inclusive("search.nt_from_masks"),
        "invariant.equiv_calls": len(equivs),
        "invariant.equiv_nodes": nodes,
        "search.self_s": self_of("search.sd_search", "search.lcd_improve"),
        "search.replay_s": inclusive("search.replay"),
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out.update({
        "minweight.abort_frac": _ratio(len(aborted), len(screens)),
        "minweight.abort_scan_ms_p50":
            1000 * percentile([sp.seconds for sp in aborted], 50) if aborted else 0.0,
        "minweight.scan_cpu_ratio": _ratio(sum(sp.cpu for sp in scans),
                                           sum(sp.seconds for sp in scans)),
        "minweight.full_scan_codewords_per_s": _ratio(sum(2 ** sp.info["k"] for sp in full),
                                                      sum(sp.seconds for sp in full)),
        "invariant.equiv_nodes_per_s": _ratio(nodes, sum(sp.seconds for sp in equivs)),
        "search.candidates": candidates,
        "search.survivor_frac": _ratio(records, candidates),
        "search.records": records,
        "circulant.build_s": sum(sp.seconds for sp in outermost(setup_spans, _SEED_SITES)),
        "trace.coverage": sum(selfs) / wall,
        "trace.overhead_frac": (wall - untraced_wall) / untraced_wall,
    })
    return {name: out[name] for name in PER_LAYER}


# --- D11 stages beside the ROADMAP baseline -----------------------------------------

# (stage, threads) -> (seconds per call, as ROADMAP states it); 2 cores, numpy 2.4.
# threads None: the stage takes no thread count, or ROADMAP does not give it.
ROADMAP_BASELINE = {
    ("transform_code", None): (0.028, "0.56 s over 20 candidates"),
    ("screen, aborted", 1): (0.006, "about 6 ms per candidate"),
    ("screen, aborted", 2): (0.55, "110 s over 200 candidates"),
    ("full distribution", 1): (1.24, "1.24 s"),
    ("full distribution", 2): (0.80, "0.80 s"),
    ("minimum weight, no abort", 1): (0.45, "0.45 s"),
    ("minimum weight, no abort", 2): (0.21, "0.21 s"),
    ("weight-12 enumeration", None): (0.50, "0.50 s, 8190 words, threads not stated"),
    ("N_t", None): (0.37, "0.37 s"),
    ("is_equivalent", None): (11.0, "11 s vs permuted D11, 13 s vs C56.1, "
                                 "both at node_budget=200000"),
}


def _stage(sp: Span) -> tuple[str, int | None] | None:
    if sp.site == "search.transform_code":
        return ("transform_code", None)
    if sp.site == "search.nt_from_masks":
        return ("N_t", None)
    if sp.site in _EQUIV_SITES:
        return ("is_equivalent", None)
    if sp.site not in _SCAN_SITES:
        return None
    info = sp.info
    if info["aborted"]:
        return ("screen, aborted", info["threads"])
    if info["collect_weight"] is not None:
        return (f"weight-{info['collect_weight']} enumeration", info["threads"])
    if info["want_dist"]:
        return ("full distribution", info["threads"])
    return ("minimum weight, no abort", info["threads"])


def d11_stages(spans: Sequence[Span], op_seed: Sequence[str]) -> list[str]:
    """Table lines: mean seconds per call of each stage on D11 operations,
    beside the ROADMAP baseline for the same stage and thread count."""
    calls: dict[tuple[str, int | None], list[float]] = {}
    for sp in spans:
        if 0 <= sp.op < len(op_seed) and op_seed[sp.op] == "D11":
            stage = _stage(sp)
            if stage is not None:
                calls.setdefault(stage, []).append(sp.seconds)
    lines = [f"  {'stage':<28} {'threads':>7} {'calls':>6} {'this run':>12}  ROADMAP baseline"]
    for stage in sorted(calls, key=lambda st: (st[0], st[1] or 0)):
        secs = calls[stage]
        base = ROADMAP_BASELINE.get(stage) or ROADMAP_BASELINE.get((stage[0], None))
        base_txt = f"{base[0]:.4g} s ({base[1]})" if base else "-"
        lines.append(f"  {stage[0]:<28} {stage[1] or '-':>7} {len(secs):>6} "
                     f"{sum(secs) / len(secs):>10.4g} s  {base_txt}")
    return lines
