"""Tests of the benchmark's own helpers; none of them runs hullkit.

    python3 -m pytest perfbench -q
"""
import json
from pathlib import Path

import pytest

from harness import (
    Probe,
    PullTimer,
    check_payload,
    gf2_same_span,
    payload_digest,
    percentile,
    permute_columns,
    record_key,
)
from run import END_TO_END
from tracing import PER_LAYER, Span, outermost, self_times
from workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def consume(timer, clock, costs):
    """A closed-loop consumer that spends costs[i] seconds on item i."""
    for i, _ in enumerate(timer):
        clock.now += costs[i]


def test_pull_gaps_are_the_time_spent_on_each_item():
    clock = FakeClock()
    timer = PullTimer("abc", clock=clock)
    consume(timer, clock, [1.0, 2.5, 0.25])
    assert timer.items == list("abc")
    assert timer.gaps(end=99.0) == [1.0, 2.5, 0.25]


def test_pull_gap_of_an_item_the_consumer_never_followed_ends_at_end():
    clock = FakeClock()
    timer = PullTimer("abc", clock=clock)
    it = iter(timer)
    next(it)
    clock.now = 2.0
    next(it)
    clock.now = 5.0
    assert timer.gaps(end=7.0) == [2.0, 5.0]


def test_pull_timer_stops_at_the_deadline_after_the_item_in_hand():
    clock = FakeClock()
    seen = []
    timer = PullTimer(range(100), deadline=3.0, clock=clock, on_pull=seen.append)
    consume(timer, clock, [1.0] * 100)
    assert timer.items == [0, 1, 2]  # the pull at t=3.0 gets nothing
    assert seen == [0, 1, 2]
    assert timer.gaps(end=3.0) == [1.0, 1.0, 1.0]


def test_work_done_before_handing_out_an_item_stays_out_of_the_gaps():
    clock = FakeClock()

    def probe(i):  # takes 0.5 s of the clock, as a calibration probe would
        clock.now += 0.5
        return 10 + i

    timer = PullTimer("ab", clock=clock, on_pull=probe)
    consume(timer, clock, [1.0, 2.0])
    assert timer.gaps(end=99.0) == [1.0, 2.0]
    assert timer.marks == [10, 11]


def test_probe_reuses_its_last_time_within_the_interval():
    probe = Probe(interval=3600.0)
    first = probe.sample()
    assert first > 0 and probe.sample() == first and len(probe.times) == 1
    probe.run()
    assert len(probe.times) == 2


def test_pull_timer_limit_replays_a_fixed_number_of_items():
    clock = FakeClock()
    timer = PullTimer(range(100), limit=4, clock=clock)
    consume(timer, clock, [0.5] * 100)
    assert timer.items == [0, 1, 2, 3]
    assert sum(timer.gaps(end=clock.now)) == 2.0


def spans_of(*rows):
    return [Span(f"s{i}", "layer", start, end, parent)
            for i, (start, end, parent) in enumerate(rows)]


def test_self_time_subtracts_nested_and_sibling_children():
    spans = spans_of(
        (0.0, 10.0, -1),   # root
        (1.0, 3.0, 0),     # child
        (2.0, 2.5, 1),     # grandchild: counts against the child, not the root
        (4.0, 7.0, 0),     # sibling child
        (11.0, 12.0, -1),  # second root
    )
    assert self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 3.0, 1.0])
    # self times of all spans add up to the time the roots cover
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = spans_of(
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (3.0, 6.0, 0),    # overlaps the first child: union is [1, 6]
        (9.0, 12.0, 0),   # runs past the parent: only [9, 10] counts
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_outermost_drops_calls_nested_in_a_call_of_the_same_set():
    spans = spans_of((0.0, 10.0, -1), (1.0, 2.0, 0), (3.0, 4.0, 1))
    spans[2].site = "s0"
    assert [sp.site for sp in outermost(spans, ["s0"])] == ["s0"]
    assert len(outermost(spans, ["s1", "s0"])) == 1
    assert [sp.site for sp in outermost(spans, ["s1"])] == ["s1"]


def test_percentile_selects_and_interpolates_order_statistics():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0
    xs = list(range(1, 102))  # 1..101
    assert percentile(xs, 90) == 91
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 101
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


PAYLOAD = {"seed_id": "D11", "x": "0011", "y": "0011", "n": 56, "k": 28, "d": 12,
           "self_dual": True, "doubly_even": True, "lcd": False,
           "fingerprint": {"distribution": "ab", "nt": "cd"}, "collision": None}


def test_digest_check_flags_a_changed_payload():
    reference = {record_key(PAYLOAD): payload_digest(PAYLOAD)}
    assert check_payload(reference, dict(PAYLOAD)) == "match"
    changed = dict(PAYLOAD, fingerprint={"distribution": "ab", "nt": "ce"})
    assert check_payload(reference, changed) == "mismatch"
    assert check_payload(reference, dict(PAYLOAD, d=10)) == "mismatch"
    assert check_payload(reference, dict(PAYLOAD, x="1100")) == "unreferenced"


def test_witness_helpers_map_one_span_onto_the_other():
    rows = [0b0001, 0b0110]            # bit i is column i+1
    swap = (4, 2, 3, 1)                # new column 1 is old column 4, and back
    moved = [permute_columns(r, swap) for r in rows]
    assert moved == [0b1000, 0b0110]
    assert gf2_same_span(moved, [0b1110, 0b0110])
    assert not gf2_same_span(moved, rows)


def test_benchmark_json_names_what_the_code_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
