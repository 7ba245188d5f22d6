"""Measurement and checking helpers of the perfbench harness.

They know nothing about hullkit's types beyond plain ints and dicts, so the
tests in this directory exercise them without running a search:

- ``PullTimer`` times a closed-loop consumer from outside, by the gaps
  between its successive pulls on the iterator it is given;
- ``Probe`` times a fixed piece of work beside the operations, so that an
  operation's cost can be stated relative to the machine's current speed;
- ``percentile`` selects the figures the benchmark reports;
- ``payload_digest`` and ``check_payload`` gate record payloads against the
  stored reference;
- ``gf2_same_span`` and ``permute_columns`` verify an equivalence witness
  without calling into hullkit.
"""
from __future__ import annotations

import hashlib
import json
import math
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class PullTimer:
    """Iterator over ``items`` that timestamps every pull its consumer makes.

    A closed-loop consumer pulls item i, works on it, then pulls again, so
    the time it spent on item i runs from the moment item i is handed out to
    the next pull.  Iteration stops at the first pull made at or after
    ``deadline`` or after ``limit`` items: the consumer finishes the item it
    holds and takes no more.  ``on_pull(i)`` runs before item i is handed
    out, outside every gap; what it returns is kept in ``marks``.
    """

    def __init__(self, items: Iterable, deadline: float | None = None,
                 limit: int | None = None, clock: Callable[[], float] = perf_counter,
                 on_pull: Callable[[int], object] | None = None):
        self._it = iter(items)
        self._deadline = deadline
        self._limit = limit
        self._clock = clock
        self._on_pull = on_pull
        self.items: list = []
        self.marks: list = []
        self.pulls: list[float] = []    # when each pull was made
        self.handed: list[float] = []   # when each item was handed out

    def __iter__(self) -> "PullTimer":
        return self

    def __next__(self):
        now = self._clock()
        self.pulls.append(now)
        if self._limit is not None and len(self.items) >= self._limit:
            raise StopIteration
        if self._deadline is not None and now >= self._deadline:
            raise StopIteration
        item = next(self._it)
        if self._on_pull is not None:
            self.marks.append(self._on_pull(len(self.items)))
        self.items.append(item)
        self.handed.append(self._clock())
        return item

    def gaps(self, end: float) -> list[float]:
        """Seconds spent on each handed-out item.

        ``end`` closes the last item when the consumer returned without
        pulling again.
        """
        bounds = self.pulls[1:len(self.items) + 1]
        bounds += [end] * (len(self.items) - len(bounds))
        return [b - a for a, b in zip(self.handed, bounds)]


class Probe:
    """Times a fixed piece of work that does not touch hullkit.

    The machine's speed moves by up to 2x over seconds to minutes, for the
    probe and for hullkit alike, so an operation's time over the probe time
    measured next to it is its cost with that speed taken out.  ``sample``
    probes again only when ``interval`` seconds have passed since the last
    probe; ``times`` keeps every probe time.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.times: list[float] = []
        self._at = -math.inf
        self._words = np.arange(1 << 16, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def run(self) -> float:
        """Probe now; return the probe's seconds."""
        t0 = perf_counter()
        acc = 0
        for i in range(4000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
        rows = [tuple((i >> j) & 1 for j in range(28)) for i in range(120)]
        acc ^= hash(tuple(rows)) & 0xFFFF
        int(np.bitwise_count(self._words ^ np.uint64(acc)).sum())
        t1 = perf_counter()
        self._at = t1
        self.times.append(t1 - t0)
        return t1 - t0

    def sample(self) -> float:
        """The latest probe time, probing first if it is older than the interval."""
        if perf_counter() - self._at >= self.interval:
            return self.run()
        return self.times[-1]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolated linearly between
    the two nearest order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def payload_digest(payload: Mapping) -> str:
    """SHA-256 of a record payload in canonical JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def record_key(payload: Mapping) -> str:
    """The candidate a payload belongs to: seed id, x and y."""
    return f"{payload['seed_id']}|{payload['x']}|{payload['y']}"


def check_payload(reference: Mapping[str, str], payload: Mapping) -> str:
    """'match' or 'mismatch' against the stored digest for the payload's
    candidate, or 'unreferenced' when the reference has no such candidate."""
    want = reference.get(record_key(payload))
    if want is None:
        return "unreferenced"
    return "match" if payload_digest(payload) == want else "mismatch"


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows packed into ints."""
    basis: dict[int, int] = {}  # leading bit -> row
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def gf2_same_span(rows_a: Sequence[int], rows_b: Sequence[int]) -> bool:
    """Whether two sets of packed GF(2) rows span the same space."""
    ra = gf2_rank(rows_a)
    return ra == gf2_rank(rows_b) == gf2_rank(list(rows_a) + list(rows_b))


def permute_columns(row: int, source_order: Sequence[int]) -> int:
    """Move columns of a packed row: new column i is old column
    ``source_order[i]`` (1-based), as in hullkit's witness convention."""
    out = 0
    for i, src in enumerate(source_order):
        if (row >> (src - 1)) & 1:
            out |= 1 << i
    return out
