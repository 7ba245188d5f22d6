"""The four perfbench workloads, each a closed loop with one client.

A workload's ``prepare`` builds every input from the workload seed (this is
set-up and is timed as such); its ``run`` hands the inputs to hullkit's
public calls, one candidate or decision at a time, and checks every output.
``run`` goes on until ``deadline`` or, for a replay of the same work, for
``units`` units: candidates on sd-screen, streams on sd-hits, rounds of one
stream per seed on lcd-improve, decisions on equiv-56.
Why each workload exists is in README.md next to this file.
"""
from __future__ import annotations

import itertools
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from harness import PullTimer, check_payload, gf2_same_span, permute_columns

SD_SCREEN_POOL = 1500   # sampled x for sd-screen; reused in order if the run outlasts them
SD_HITS_REJECTS = 3     # sampled x per sd-hits stream, beside the survivor x = y
LCD_STREAM = 50         # sampled pairs per lcd-improve stream, beside the bundled pair
LCD_STREAMS = 8         # streams prepared per LCD seed; reused in order after that
# LCD seeds with their bundled upgrade pairs and minimum weights d
# ([37,22,5], [38,13,10], [40,22,6]); make_reference.py re-derives d.
LCD_SEEDS = {"a37225": ("c37226", 5), "a381310": ("c381311", 10), "a40226": ("c40227", 6)}


@dataclass
class Op:
    """One finished operation: a candidate ("reject" or "cert") or a dedup
    decision ("equiv").  ``seconds`` is the candidate's pull gap, plus the
    replay of its record for "cert", or the decision's duration.  Operations
    of one ``group`` do the same work: the same kind on codes of the same
    [n,k] and, for decisions, the same kind of pair.  ``probe`` is the probe
    time around the operation: the mean of the probes just before and just
    after it, weighted by time over the emission and the replay of a
    record."""

    kind: str
    seed_id: str
    group: str
    seconds: float
    probe: float
    verdict: str | None = None


@dataclass
class Checker:
    """Counts attempted and failed operations; every failure is printed."""

    reference: dict
    attempted: int = 0
    failed: int = 0
    unreferenced: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    def certify(self, hk, rec, store, threads: int, probe) -> tuple[float, float]:
        """Check one emitted record against the reference and replay it;
        returns the replay's seconds and the probe time around it."""
        key = f"{rec.seed_id}|{rec.x}|{rec.y}"
        verdict = check_payload(self.reference, rec.payload())
        if verdict == "mismatch":
            self.fail(f"payload of {key} differs from the stored reference")
        elif verdict == "unreferenced":
            self.unreferenced += 1
        self.attempted += 1
        before = probe.run()
        t0 = perf_counter()
        try:
            hk.search.replay(rec, store, threads=threads)
        except Exception as e:  # a failed replay is a counted failure
            self.fail(f"replay of {key}: {e!r}")
        seconds = perf_counter() - t0
        return seconds, (before + probe.run()) / 2


def _units(deadline: float | None, units: int | None):
    n = 0
    while n < units if units is not None else perf_counter() < deadline:
        yield n
        n += 1


def _run_stream(hk, chk: Checker, probe, tracer, ops: list, call, items, key, seed_id: str,
                store: dict, threads: int, survivors=(), deadline=None, limit=None) -> None:
    """Hand ``items`` to one search call and append an Op per candidate it
    pulled.  ``key(item)`` gives the (x, y) strings a record would carry;
    ``survivors`` are keys that must come back as records."""
    base = len(ops)
    seed = store[seed_id]
    shape = f"[{seed.n},{seed.k}]"

    def on_pull(i):
        if tracer:
            tracer.set_op(base + i)
        return probe.sample()

    timer = PullTimer(items, deadline=deadline, limit=limit, on_pull=on_pull)
    try:
        records = call(timer)
    except Exception:  # count the stream as failed and keep measuring
        traceback.print_exc()
        records = None
    end = perf_counter()
    marks = timer.marks + [probe.run()]  # probes before each item and after the last
    chk.attempted += len(timer.items)
    raised = records is None
    if raised:
        chk.fail(f"{seed_id}: search raised")
        records = []
    pending: dict = {}
    for rec in records:
        pending.setdefault((rec.x, rec.y), []).append(rec)
    for i, (item, gap) in enumerate(zip(timer.items, timer.gaps(end))):
        gap_probe = (marks[i] + marks[i + 1]) / 2
        recs = pending.get(key(item))
        if not recs:
            if key(item) in survivors and not raised:
                chk.fail(f"{seed_id}: known survivor {key(item)} emitted no record")
            ops.append(Op("reject", seed_id, f"reject {shape}", gap, gap_probe))
            continue
        if tracer:
            tracer.set_op(base + i)
        replay_s, replay_probe = chk.certify(hk, recs.pop(0), store, threads, probe)
        seconds = gap + replay_s
        ops.append(Op("cert", seed_id, f"cert {shape}", seconds,
                      (gap * gap_probe + replay_s * replay_probe) / seconds))
    if any(pending.values()):
        chk.fail(f"{seed_id}: records for candidates that were never handed out")


# --- sd-screen ----------------------------------------------------------------

@dataclass
class SdScreenInputs:
    seed: object
    y: object
    xs: list


def prepare_sd_screen(hk, seed: int, reference) -> SdScreenInputs:
    d11 = hk.artifacts.load_seed("D11")
    m = hk.code.standard_form(d11).a_block.cols
    y = hk.search.make_yi(m, 4)
    xs = hk.search.sampled_x(m, y, SD_SCREEN_POOL, rng_seed=seed, rule="mod4")
    return SdScreenInputs(d11, y, xs)


def run_sd_screen(hk, inp: SdScreenInputs, chk: Checker, probe, tracer=None,
                  deadline=None, units=None):
    ops: list[Op] = []
    t0 = perf_counter()
    y = inp.y.to_string()

    def call(it):
        return hk.search.sd_search(inp.seed, inp.y, it, d_target=12, rule="mod4",
                                   seed_id="D11", threads=1)

    _run_stream(hk, chk, probe, tracer, ops, call, itertools.cycle(inp.xs),
                lambda x: (x.to_string(), y), "D11", {"D11": inp.seed}, 1,
                deadline=deadline, limit=units)
    return ops, perf_counter() - t0, len(ops)


# --- sd-hits --------------------------------------------------------------------

@dataclass
class SdHitsInputs:
    seeds: dict
    streams: list  # (seed id, y, candidate x list holding x = y once)


def prepare_sd_hits(hk, seed: int, reference) -> SdHitsInputs:
    rng = random.Random(seed)
    seeds = {}
    streams = []
    for name in hk.artifacts.CIRCULANT_SEED_NAMES:
        seeds[name] = hk.artifacts.load_seed(name)
        m = hk.code.standard_form(seeds[name]).a_block.cols
        for i in (4, 8):
            y = hk.search.make_yi(m, i)
            xs = hk.search.sampled_x(m, y, SD_HITS_REJECTS, rng_seed=rng.getrandbits(32))
            xs.insert(rng.randrange(len(xs) + 1), y)
            streams.append((name, y, xs))
    # Streams keep one order in every run, D11 first, so that runs certify the
    # same seeds and D11 stages can be set beside the ROADMAP baseline; the
    # workload seed draws the rejects and where the survivor sits.
    streams.sort(key=lambda s: s[0] != "D11")
    return SdHitsInputs(seeds, streams)


def run_sd_hits(hk, inp: SdHitsInputs, chk: Checker, probe, tracer=None, deadline=None,
                units=None):
    ops: list[Op] = []
    t0 = perf_counter()
    done = 0
    for n in _units(deadline, units):
        name, y, xs = inp.streams[n % len(inp.streams)]
        ys = y.to_string()

        def call(it, name=name, y=y):
            return hk.search.sd_search(inp.seeds[name], y, it, d_target=12, rule="mod4",
                                       seed_id=name, threads=2)

        _run_stream(hk, chk, probe, tracer, ops, call, xs, lambda x, ys=ys: (x.to_string(), ys),
                    name, inp.seeds, 2, survivors={(ys, ys)})
        done = n + 1
    return ops, perf_counter() - t0, done


# --- lcd-improve ------------------------------------------------------------------

@dataclass
class LcdInputs:
    seeds: dict
    streams: dict  # seed id -> list of pair lists, each holding the bundled pair once
    d_target: dict
    bundled: dict


def prepare_lcd(hk, seed: int, reference) -> LcdInputs:
    rng = random.Random(seed)
    seeds, streams, d_target, bundled = {}, {}, {}, {}
    for name, (pair_name, d) in LCD_SEEDS.items():
        seeds[name] = hk.artifacts.bundled_code(name)
        m = hk.code.standard_form(seeds[name]).a_block.cols
        bundled[name] = hk.artifacts.load_pair(pair_name)
        pool = hk.search.sampled_isotropic_pairs(m, LCD_STREAM * LCD_STREAMS,
                                                 rng_seed=rng.getrandbits(32))
        pool = [p for p in pool if p != bundled[name]]
        streams[name] = []
        for j in range(LCD_STREAMS):
            pairs = pool[j * LCD_STREAM:(j + 1) * LCD_STREAM]
            pairs.insert(rng.randrange(len(pairs) + 1), bundled[name])
            streams[name].append(pairs)
        d_target[name] = d + 1
    return LcdInputs(seeds, streams, d_target, bundled)


def run_lcd(hk, inp: LcdInputs, chk: Checker, probe, tracer=None, deadline=None, units=None):
    """One unit is one round: a stream for each LCD seed in turn."""
    ops: list[Op] = []
    t0 = perf_counter()
    done = 0
    key = lambda p: (p.x.to_string(), p.y.to_string())  # noqa: E731
    for n in _units(deadline, units):
        for name, streams in inp.streams.items():
            def call(it, name=name):
                return hk.search.lcd_improve(inp.seeds[name], it, d_target=inp.d_target[name],
                                             seed_id=name, threads=1)

            _run_stream(hk, chk, probe, tracer, ops, call, streams[n % len(streams)], key, name,
                        inp.seeds, 1, survivors={key(inp.bundled[name])})
        done = n + 1
    return ops, perf_counter() - t0, done


# --- equiv-56 ----------------------------------------------------------------------

@dataclass
class EquivInputs:
    seeds: dict
    rounds: list = field(default_factory=list)  # (seed id, permuted copy, partner seed id)


def prepare_equiv(hk, seed: int, reference) -> EquivInputs:
    rng = random.Random(seed)
    names = list(hk.artifacts.CIRCULANT_SEED_NAMES)
    seeds = {name: hk.artifacts.load_seed(name) for name in names}
    rng.shuffle(names)
    names.sort(key=lambda n: n != "D11")  # D11 first, as on sd-hits
    inp = EquivInputs(seeds)
    for name in names:
        perm = list(range(1, seeds[name].n + 1))
        rng.shuffle(perm)
        partner = rng.choice([p for p in names if p != name])
        if reference["nt"][name] == reference["nt"][partner]:
            raise ValueError(f"{name} and {partner} are not certified inequivalent")
        inp.rounds.append((name, hk.code.apply_column_permutation(seeds[name], perm), partner))
    return inp


def _witness_holds(c1, c2, witness) -> bool:
    rows = [permute_columns(r, witness) for r in c1.generator.row_bits]
    return gf2_same_span(rows, c2.generator.row_bits)


def run_equiv(hk, inp: EquivInputs, chk: Checker, probe, tracer=None, deadline=None,
              units=None):
    """One unit is one decision.  Decisions come in rounds of two: a seed
    against its permuted copy (equivalent by construction), then against a
    partner seed (certified inequivalent by N_t)."""
    ops: list[Op] = []
    t0 = perf_counter()
    budget = hk.search.SEARCH_NODE_BUDGET
    for n in _units(deadline, units):
        name, permuted, partner = inp.rounds[n // 2 % len(inp.rounds)]
        equivalent = n % 2 == 0
        c1, c2 = inp.seeds[name], permuted if equivalent else inp.seeds[partner]
        group = "equiv permuted copy" if equivalent else "equiv other seed"
        what = f"{name} vs {'a permuted copy' if equivalent else partner}"
        if tracer:
            tracer.set_op(n)
        chk.attempted += 1
        before = probe.run()
        t = perf_counter()
        try:
            res = hk.invariant.is_equivalent(c1, c2, node_budget=budget, threads=1)
        except Exception:  # count the decision as failed and keep measuring
            traceback.print_exc()
            chk.fail(f"{what}: is_equivalent raised")
            ops.append(Op("equiv", name, group, perf_counter() - t,
                          (before + probe.run()) / 2, "error"))
            continue
        seconds = perf_counter() - t
        ops.append(Op("equiv", name, group, seconds, (before + probe.run()) / 2, res.verdict))
        if res.verdict == "equivalent":
            if not equivalent:
                chk.fail(f"{what}: 'equivalent' on a pair certified inequivalent")
            elif not _witness_holds(c1, c2, res.witness):
                chk.fail(f"{what}: witness does not map one code onto the other")
        elif res.verdict == "inequivalent" and equivalent:
            chk.fail(f"{what}: 'inequivalent' on a pair equivalent by construction")
        elif res.verdict not in ("equivalent", "inequivalent", "unknown"):
            chk.fail(f"{what}: unexpected verdict {res.verdict!r}")
    return ops, perf_counter() - t0, len(ops)


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object


WORKLOADS = {
    "sd-screen": Workload(prepare_sd_screen, run_sd_screen),
    "sd-hits": Workload(prepare_sd_hits, run_sd_hits),
    "lcd-improve": Workload(prepare_lcd, run_lcd),
    "equiv-56": Workload(prepare_equiv, run_equiv),
}
