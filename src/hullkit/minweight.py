"""Exact minimum weight, weight distribution, and fixed-weight codeword
enumeration by exhaustive traversal with early abort.

The binary kernel walks all 2^k codewords in binary-reflected Gray-code
order over the information vectors.  The walk is blocked for speed: the
low ``LOW_BITS`` information bits are expanded once into a Gray-ordered
table of packed codewords, and each of the 2^(k-low) top-bit blocks is one
row-XOR plus a vectorized popcount over that table.  Blocks follow the
Gray code on the top bits with alternating sweep direction, which is
exactly the global reflected-Gray visit order, so ``codewords_of_weight``
emits codewords in true Gray sequence.  Multi-threading splits the block
range; partial results merge deterministically in block order, and an
early abort in one chunk stops the others at their next block.

An early-abort screen first probes the sums of at most ``_PROBE_ROWS``
generator rows in one vectorized pass, in the spirit of information-set
search (Grassl 2006): generator rows are independent, so every such sum is
a nonzero codeword, and a light one decides the screen without building
the Gray table.

q >= 3 codes are enumerated directly over all q^k information vectors
(small-k property testing only).
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping

import numpy as np

from .code import LinearCode
from .errors import CapacityError
from .field import FieldVector

LOW_BITS = 18
_PROBE_ROWS = 3
_GF2_K_LIMIT = 30
_GENERIC_K_LIMIT = 12


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts by weight; zero-count weights are omitted."""

    n: int
    counts: Mapping[int, int]

    def __getitem__(self, w: int) -> int:
        return self.counts.get(w, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def min_nonzero(self) -> int:
        return min(w for w in self.counts if w > 0)

    def items(self):
        return sorted(self.counts.items())

    def to_jsonable(self) -> list[list[int]]:
        return [[w, c] for w, c in self.items()]


def _packed_rows(code: LinearCode) -> np.ndarray:
    """Generator rows packed little-endian into uint64 words.

    Shape (k,) when n <= 64, else (k, W) with W words per row.
    """
    rows = code.generator.row_bits
    if code.n <= 64:
        return np.array(rows, dtype=np.uint64)
    words = (code.n + 63) // 64
    return np.array([[(b >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(words)]
                     for b in rows], dtype=np.uint64).reshape(code.k, words)


def _gray_low_table(rows: np.ndarray, low: int) -> np.ndarray:
    """All XOR combinations of the first ``low`` rows, in Gray-code order."""
    table = np.zeros((1 << low,) + rows.shape[1:], dtype=np.uint64)
    for j in range(low):
        half = 1 << j
        np.bitwise_xor(table[half - 1::-1], rows[j], out=table[half:2 * half])
    return table


@lru_cache(maxsize=_GF2_K_LIMIT)  # one entry per k the scan accepts
def _probe_index(k: int) -> np.ndarray:
    """Every set of 1.._PROBE_ROWS distinct row indices of a k-row generator,
    one set per line, padded with k (the index of an appended zero row)."""
    depth = min(k, _PROBE_ROWS)
    sets = [c + (k,) * (depth - size)
            for size in range(1, depth + 1) for c in combinations(range(k), size)]
    index = np.array(sets, dtype=np.intp).reshape(len(sets), depth)
    index.flags.writeable = False  # shared by every caller through the cache
    return index


def _probe(rows: np.ndarray) -> int:
    """Least weight among the sums of at most _PROBE_ROWS generator rows."""
    k = rows.shape[0]
    padded = np.concatenate([rows, np.zeros_like(rows[:1])])
    words = np.bitwise_xor.reduce(padded[_probe_index(k)], axis=1)
    return int(_popcounts(words).min())


def _popcounts(arr: np.ndarray) -> np.ndarray:
    w = np.bitwise_count(arr)
    if arr.ndim == 2:
        return w.sum(axis=1, dtype=np.uint64)
    return w


def _zero_offset(rows: np.ndarray):
    if rows.ndim == 1:
        return np.uint64(0)
    return np.zeros(rows.shape[1], dtype=np.uint64)


def _block_offset(rows: np.ndarray, low: int, block: int):
    """Packed XOR of the top rows selected by gray(block)."""
    off = _zero_offset(rows)
    g = block ^ (block >> 1)
    b = 0
    while g:
        if g & 1:
            off = off ^ rows[low + b]
        g >>= 1
        b += 1
    return off


def _mask_of(cur: np.ndarray, i: int) -> int:
    if cur.ndim == 1:
        return int(cur[i])
    bits = 0
    for w in range(cur.shape[1]):
        bits |= int(cur[i, w]) << (64 * w)
    return bits


def _scan_range(rows, low, table, table_rev, n, block_lo, block_hi,
                abort_below, want_dist, collect_weight, stop=None):
    """Walk blocks [block_lo, block_hi); see _scan_binary for the contract.

    ``stop`` is shared by the chunks of one threaded scan: a chunk that
    aborts sets it, and every chunk returns as aborted at its next block
    once it is set.
    """
    dist = np.zeros(n + 1, dtype=np.int64) if want_dist else None
    collected: list[int] = []
    best = n + 1
    off = _block_offset(rows, low, block_lo)
    for t in range(block_lo, block_hi):
        if stop is not None and stop.is_set():
            return best, None, collected, True
        if t > block_lo:
            b = (t & -t).bit_length() - 1
            off = off ^ rows[low + b]
        forward = (t % 2) == 0
        cur = (table if forward else table_rev) ^ off
        w = _popcounts(cur)
        if t == 0:
            nz = w[1:]  # Gray index 0 is the zero codeword
            block_min = int(nz.min()) if nz.size else n + 1
        else:
            block_min = int(w.min())
        if block_min < best:
            best = block_min
        if collect_weight is not None:
            for i in np.nonzero(w == collect_weight)[0]:
                collected.append(_mask_of(cur, int(i)))
        if abort_below is not None and best < abort_below:
            if stop is not None:
                stop.set()
            return best, None, collected, True
        if want_dist:
            dist += np.bincount(w.astype(np.intp), minlength=n + 1)
    return best, dist, collected, False


def _scan_binary(code: LinearCode, *, abort_below: int | None = None,
                 want_dist: bool = False, collect_weight: int | None = None,
                 threads: int = 1):
    """Exhaustive Gray walk over all 2^k codewords.

    Returns (min_nonzero_weight, dist_or_None, collected_masks, aborted).
    ``dist`` is only meaningful when the walk completed; on abort the
    returned min is the weight of a codeword lighter than ``abort_below``
    (an upper bound on d).  The scan aborts exactly when d < abort_below:
    the probe of light row sums only ever aborts on a real codeword, and
    the walk finds any lighter word the probe missed.
    """
    if not code.field.binary:
        raise CapacityError("binary scan called on a non-binary code")
    if code.k > _GF2_K_LIMIT:
        raise CapacityError(
            f"exhaustive GF(2) enumeration supports k <= {_GF2_K_LIMIT}, got k={code.k}"
        )
    if code.k == 0:
        dist = np.zeros(code.n + 1, dtype=np.int64)
        dist[0] = 1
        collected = [0] if collect_weight == 0 else []
        return code.n + 1, (dist if want_dist else None), collected, False
    rows = _packed_rows(code)
    if abort_below is not None:
        probed = _probe(rows)
        if probed < abort_below:
            return probed, None, [], True
    low = min(code.k, LOW_BITS)
    table = _gray_low_table(rows, low)
    # the order within a block matters only to the words collected
    table_rev = table[::-1].copy() if collect_weight is not None else table
    blocks = 1 << (code.k - low)
    if threads <= 1 or blocks < 4:
        return _scan_range(rows, low, table, table_rev, code.n, 0, blocks,
                           abort_below, want_dist, collect_weight)
    nchunks = min(threads * 4, blocks)
    bounds = [round(i * blocks / nchunks) for i in range(nchunks + 1)]
    stop = threading.Event() if abort_below is not None else None
    with ThreadPoolExecutor(max_workers=threads) as ex:
        jobs = [
            ex.submit(_scan_range, rows, low, table, table_rev, code.n,
                      bounds[i], bounds[i + 1], abort_below, want_dist,
                      collect_weight, stop)
            for i in range(nchunks)
        ]
        parts = [j.result() for j in jobs]
    best = min(p[0] for p in parts)
    aborted = any(p[3] for p in parts)
    dist = None
    if want_dist and not aborted:
        dist = np.zeros(code.n + 1, dtype=np.int64)
        for p in parts:
            dist += p[1]
    collected = [m for p in parts for m in p[2]]
    return best, dist, collected, aborted


def _iter_generic_words(code: LinearCode, chunk: int = 1 << 14):
    """Yield (weights, words) chunks over all q^k codewords, lexicographic."""
    q, k = code.field.p, code.k
    total = q**k
    gen = code.generator.to_numpy()
    digits = q ** np.arange(k, dtype=np.int64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        coeffs = (idx[:, None] // digits[None, :]) % q
        words = (coeffs @ gen) % q
        weights = np.count_nonzero(words, axis=1)
        yield weights, words
        start = stop


def _scan_generic(code: LinearCode, *, abort_below: int | None = None):
    """Direct q^k enumeration for q >= 3; returns (min_weight, dist, aborted)."""
    q, k = code.field.p, code.k
    if k > _GENERIC_K_LIMIT:
        raise CapacityError(
            f"exhaustive GF({q}) enumeration supports k <= {_GENERIC_K_LIMIT}, got k={k}"
        )
    dist = np.zeros(code.n + 1, dtype=np.int64)
    best = code.n + 1
    first = True
    for weights, _ in _iter_generic_words(code):
        if first:
            nz = weights[1:]
            m = int(nz.min()) if nz.size else code.n + 1
            first = False
        else:
            m = int(weights.min())
        best = min(best, m)
        dist += np.bincount(weights, minlength=code.n + 1)
        if abort_below is not None and best < abort_below:
            return best, None, True
    return best, dist, False


def min_weight(code: LinearCode, abort_above: int | None = None,
               threads: int = 1) -> int:
    """Exact minimum nonzero codeword weight.

    With ``abort_above = t`` the scan may stop at a nonzero codeword of
    weight < t; the returned value is then that weight (an upper bound on
    d certifying d < t).  Any returned value >= t is the exact minimum.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if code.field.binary:
        best, _, _, _ = _scan_binary(code, abort_below=abort_above, threads=threads)
        return best
    best, _, _ = _scan_generic(code, abort_below=abort_above)
    return best


def weight_distribution(code: LinearCode, threads: int = 1) -> WeightDistribution:
    """Exact counts of codewords at every weight (sums to q^k)."""
    if code.field.binary:
        _, dist, _, _ = _scan_binary(code, want_dist=True, threads=threads)
    else:
        _, dist, _ = _scan_generic(code)
    counts = {int(w): int(c) for w, c in enumerate(dist) if c}
    return WeightDistribution(code.n, counts)


def codewords_of_weight(code: LinearCode, w: int, threads: int = 1) -> list[FieldVector]:
    """All codewords of weight exactly w, in information-vector Gray order."""
    masks = codeword_masks_of_weight(code, w, threads=threads)
    return [FieldVector.from_bits(m, code.n) for m in masks]


def codeword_masks_of_weight(code: LinearCode, w: int, threads: int = 1) -> list[int]:
    """Packed-int variant of :func:`codewords_of_weight` (GF(2) only)."""
    if not code.field.binary:
        raise CapacityError("fixed-weight enumeration is implemented for GF(2) only")
    _, _, collected, _ = _scan_binary(code, collect_weight=w, threads=threads)
    return collected
