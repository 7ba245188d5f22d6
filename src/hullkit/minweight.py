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

A doubly even self-dual code can skip the walk: ``_scan_two_sets`` lists
the words of low information weight on two disjoint information sets
(Brouwer-Zimmermann), which fixes d and the weight-d words, and takes the
rest of the distribution from Gleason's theorem.  One gate, ``_scan``,
gives the search, replay and ``is_equivalent`` d, the distribution and the
weight-d words: it probes a screen first, takes the two-set path for a
doubly even self-dual code with n = 2k, and walks any other code once,
keeping the words at the running minimum weight as it counts the
distribution.  The public functions here always walk; the tests hold the
two paths equal.

q >= 3 codes are enumerated directly over all q^k information vectors in
lexicographic chunks; only each chunk's weights are kept (small-k property
testing only).
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .code import LinearCode, is_doubly_even
from .errors import CapacityError, PostconditionError, PredicateError
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
        if not any(w > 0 for w in self.counts):
            raise ValueError("the zero code has no nonzero codewords")
        return min(w for w in self.counts if w > 0)

    def items(self):
        return sorted(self.counts.items())

    def to_jsonable(self) -> list[list[int]]:
        return [[w, c] for w, c in self.items()]


def _packed_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """Length-n rows packed little-endian into uint64 words.

    Shape (len(rows),) when n <= 64, else (len(rows), W) with W words per row.
    """
    if n <= 64:
        return np.array(rows, dtype=np.uint64)
    words = (n + 63) // 64
    return np.array([[(b >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(words)]
                     for b in rows], dtype=np.uint64).reshape(len(rows), words)


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
                abort_below, want_dist, collect_weight, min_words, stop=None):
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
            if min_words:
                collected = []
        if collect_weight is not None or (min_words and block_min == best):
            for i in np.nonzero(w == (best if min_words else collect_weight))[0]:
                collected.append(_mask_of(cur, int(i)))
        if abort_below is not None and best < abort_below:
            if stop is not None:
                stop.set()
            return best, None, collected, True
        if want_dist:
            dist += np.bincount(w.astype(np.intp), minlength=n + 1)
    return best, dist, collected, False


def _check_gf2(code: LinearCode) -> None:
    if not code.field.binary:
        raise CapacityError("binary scan called on a non-binary code")
    if code.k > _GF2_K_LIMIT:
        raise CapacityError(
            f"exhaustive GF(2) enumeration supports k <= {_GF2_K_LIMIT}, got k={code.k}"
        )


def _scan_binary(code: LinearCode, *, abort_below: int | None = None,
                 want_dist: bool = False, collect_weight: int | None = None,
                 threads: int = 1, _min_words: bool = False):
    """Exhaustive Gray walk over all 2^k codewords, with no probe ahead of it.

    Returns (min_nonzero_weight, dist_or_None, collected_masks, aborted).
    ``dist`` is only meaningful when the walk completed; on abort the
    returned min is the weight of a codeword lighter than ``abort_below``
    (an upper bound on d).  The walk aborts exactly when d < abort_below,
    at the end of the first block that holds a lighter word.  The masks
    are the words of weight ``collect_weight`` or, with ``_min_words``, of
    the minimum nonzero weight, in Gray order either way.
    """
    _check_gf2(code)
    rows = _packed_rows(code.generator.row_bits, code.n)
    low = min(code.k, LOW_BITS)
    table = _gray_low_table(rows, low)
    # the order within a block matters only to the words collected
    table_rev = table[::-1].copy() if collect_weight is not None or _min_words else table
    blocks = 1 << (code.k - low)
    if threads <= 1 or blocks < 4:
        return _scan_range(rows, low, table, table_rev, code.n, 0, blocks,
                           abort_below, want_dist, collect_weight, _min_words)
    nchunks = min(threads * 4, blocks)
    bounds = [round(i * blocks / nchunks) for i in range(nchunks + 1)]
    stop = threading.Event() if abort_below is not None else None
    with ThreadPoolExecutor(max_workers=threads) as ex:
        jobs = [
            ex.submit(_scan_range, rows, low, table, table_rev, code.n,
                      bounds[i], bounds[i + 1], abort_below, want_dist,
                      collect_weight, _min_words, stop)
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
    collected = [m for p in parts if not _min_words or p[0] == best for m in p[2]]
    return best, dist, collected, aborted


def _next_level(prev: np.ndarray, rows: np.ndarray, r: int) -> np.ndarray:
    """Sums of r distinct rows in colex order, from the sums of r - 1 rows in
    colex order: the sums whose largest row is j are the first C(j, r-1)
    sums of r - 1 rows, each XORed with row j."""
    k = rows.shape[0]
    out = np.empty((comb(k, r),) + rows.shape[1:], dtype=np.uint64)
    pos = 0
    for j in range(r - 1, k):
        c = comb(j, r - 1)
        np.bitwise_xor(prev[:c], rows[j], out=out[pos:pos + c])
        pos += c
    return out


def _gleason_distribution(n: int, low: Sequence[int]) -> dict[int, int]:
    """Weight distribution of a doubly even self-dual [n, n/2] code from its
    counts A_0, A_4, ..., A_(4 floor(n/24)) (Gleason's theorem).

    The enumerator is sum_j a_j g1^(n/8 - 3j) g2^j with
    g1 = x^8 + 14 x^4 y^4 + y^8 and g2 = x^4 y^4 (x^4 - y^4)^4.  In t = y^4
    (x = 1) the j-th basis polynomial starts at t^j with coefficient 1, so
    the a_j follow from the A_4j by forward substitution, exactly in
    integers.
    """
    size = n // 4 + 1

    def mul(p, q):
        out = [0] * size
        for i, a in enumerate(p):
            for j, b in enumerate(q[:size - i]):
                out[i + j] += a * b
        return out

    def power(p, e):
        out = [1]
        for _ in range(e):
            out = mul(out, p)
        return out

    g1, g2 = [1, 14, 1], [0, 1, -4, 6, -4, 1]
    basis = [mul(power(g1, n // 8 - 3 * j), power(g2, j)) for j in range(len(low))]
    coeffs: list[int] = []
    for j, a in enumerate(low):
        coeffs.append(a - sum(c * b[j] for c, b in zip(coeffs, basis)))
    dist = {4 * i: sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(size)}
    return {w: c for w, c in dist.items() if c}


def _scan_two_sets(code: LinearCode, *, abort_below: int | None = None):
    """Minimum weight, distribution and minimum-weight words of a doubly even
    self-dual code, from two disjoint information sets with no Gray walk
    (Brouwer-Zimmermann; Grassl 2006).

    The RREF generator ``[I | A]`` is the identity on its pivot columns P.
    Self-duality with n = 2k gives A A^T = A^T A = I, so the rows of
    ``A^T [I | A] = [A^T | I]`` are the identity on the other columns Q.
    Level r lists every word that is 1 on exactly r columns of P, and every
    word that is 1 on exactly r columns of Q.  After level r, a word not yet
    listed has more than r ones on each side, so it weighs at least 2(r+1).
    The levels stop at the first r where every word of weight up to
    max(d, 4 floor(n/24)) has been listed; the distribution then follows
    from A_0, A_4, ..., A_(4 floor(n/24)) by :func:`_gleason_distribution`,
    checked against every count listed up to that weight.

    Returns (min_nonzero_weight, dist_or_None, minimum_weight_masks, aborted)
    with the abort contract of :func:`_scan_binary`: it aborts exactly when
    d < abort_below, returning the weight of a word lighter than that.  The
    masks are the weight-d words in no particular order.
    """
    _check_gf2(code)
    n, k = code.n, code.k
    left = code._reduced.row_bits
    p_mask = sum(1 << (p - 1) for p in code._pivots)
    q_cols = [j for j in range(n) if not p_mask >> j & 1]
    right = []
    for j in q_cols:
        acc = 0
        for row in left:
            if row >> j & 1:
                acc ^= row
        right.append(acc)
    if n != 2 * k or any(row & ~p_mask != 1 << j for row, j in zip(right, q_cols)):
        raise PredicateError("two information sets need a self-dual code with n = 2k")
    floor = 4 * (n // 24)
    sides = [_packed_rows(left, n), _packed_rows(right, n)]
    levels = [np.zeros((1,) + rows.shape[1:], dtype=np.uint64) for rows in sides]
    best = n + 1
    light: list[tuple[int, int]] = []  # (word, side) of every word kept so far
    for r in range(1, k + 1):
        for side, rows in enumerate(sides):
            level = levels[side] = _next_level(levels[side], rows, r)
            w = _popcounts(level)
            best = min(best, int(w.min()))
            if abort_below is not None and best < abort_below:
                return best, None, [], True
            light += [(_mask_of(level, int(i)), side)
                      for i in np.nonzero(w <= max(best, floor))[0]]
        if max(best, floor) < 2 * (r + 1):
            break
    # a Q-side word with at most r ones on P was listed on the P side too
    bound = max(best, floor)
    words = [m for m, side in light
             if m.bit_count() <= bound and (side == 0 or (m & p_mask).bit_count() > r)]
    counts = {0: 1}
    for m in words:
        counts[m.bit_count()] = counts.get(m.bit_count(), 0) + 1
    dist = _gleason_distribution(n, [counts.get(w, 0) for w in range(0, floor + 1, 4)])
    if any(dist.get(w, 0) != counts.get(w, 0) for w in range(bound + 1)):
        raise PostconditionError(
            "Gleason distribution disagrees with the listed light words; "
            "the code is not doubly even self-dual")
    out = np.zeros(n + 1, dtype=np.int64)
    for w, c in dist.items():
        out[w] = c
    return best, out, [m for m in words if m.bit_count() == best], False


def _scan(code: LinearCode, abort_below: int | None = None, threads: int = 1):
    """(d, distribution, weight-d masks, aborted) of a binary code by the
    gate of the module docstring, with the abort contract of
    :func:`_scan_binary`; on abort the distribution is None and no masks.
    n = 2k is tested before double evenness, which costs more and implies
    self-orthogonality, so with n = 2k self-duality."""
    _check_gf2(code)
    if abort_below is not None and code.k:
        probed = _probe(_packed_rows(code.generator.row_bits, code.n))
        if probed < abort_below:
            return probed, None, [], True
    if code.n == 2 * code.k and is_doubly_even(code):
        best, dist, masks, aborted = _scan_two_sets(code, abort_below=abort_below)
    else:
        best, dist, masks, aborted = _scan_binary(code, abort_below=abort_below, want_dist=True,
                                                  threads=threads, _min_words=True)
    if aborted:
        return best, None, [], True
    return best, _distribution(code.n, dist), masks, False


def _distribution(n: int, dist: np.ndarray) -> WeightDistribution:
    return WeightDistribution(n, {int(w): int(c) for w, c in enumerate(dist) if c})


def _scan_generic(code: LinearCode, *, abort_below: int | None = None):
    """Direct q^k enumeration for q >= 3, lexicographic over the information
    vectors in chunks of 2^14; returns (min_weight, dist, aborted)."""
    q, k = code.field.p, code.k
    if k > _GENERIC_K_LIMIT:
        raise CapacityError(
            f"exhaustive GF({q}) enumeration supports k <= {_GENERIC_K_LIMIT}, got k={k}"
        )
    gen = code.generator.to_numpy()
    digits = q ** np.arange(k, dtype=np.int64)
    dist = np.zeros(code.n + 1, dtype=np.int64)
    best = code.n + 1
    chunk, total = 1 << 14, q**k
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coeffs = (idx[:, None] // digits[None, :]) % q
        weights = np.count_nonzero((coeffs @ gen) % q, axis=1)
        nz = weights[1:] if start == 0 else weights  # index 0 is the zero codeword
        if nz.size:
            best = min(best, int(nz.min()))
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
        _check_gf2(code)
        if abort_above is not None:
            probed = _probe(_packed_rows(code.generator.row_bits, code.n))
            if probed < abort_above:
                return probed
        return _scan_binary(code, abort_below=abort_above, threads=threads)[0]
    best, _, _ = _scan_generic(code, abort_below=abort_above)
    return best


def weight_distribution(code: LinearCode, threads: int = 1) -> WeightDistribution:
    """Exact counts of codewords at every weight (sums to q^k)."""
    if code.field.binary:
        _, dist, _, _ = _scan_binary(code, want_dist=True, threads=threads)
    else:
        _, dist, _ = _scan_generic(code)
    return _distribution(code.n, dist)


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
