"""Exact minimum weight, weight distribution, and fixed-weight codeword
enumeration by exhaustive traversal with early abort.

The binary kernel walks all 2^k codewords in binary-reflected Gray-code
order over the information vectors.  The walk is blocked for speed: the
low ``LOW_BITS`` information bits are expanded once into a Gray-ordered
table of packed codewords, and each of the 2^(k-low) top-bit blocks is one
row-XOR plus a vectorized popcount over that table.  Blocks follow the
Gray code on the top bits with alternating sweep direction, which is
exactly the global reflected-Gray visit order, so ``codewords_of_weight``
emits codewords in true Gray sequence.  Threads split the block range of
a full walk only, and the partial results merge deterministically in block
order; a walk that may abort runs on one thread.

Light words are listed level by level by ``_next_level``: level r is
every sum of r rows of the RREF generator, one packed array built from
level r - 1 (Brouwer-Zimmermann; Grassl 2006).  The rows are independent,
so each sum is a nonzero codeword.  The early-abort screen lists levels 1
to ``_PROBE_ROWS`` and stops at the first with a word lighter than the
bound, without building the Gray table.

A doubly even self-dual code can skip the walk: ``_scan_two_sets`` lists
the same levels on two disjoint information sets, which fixes d and the
weight-d words, and takes the rest of the distribution from Gleason's
theorem; each level is filtered and counted by vectorized popcounts.  One
gate, ``_scan``, gives the search, replay and ``is_equivalent`` d, the
distribution and the weight-d words: it screens first, takes the two-set
path for a doubly even self-dual code with n = 2k, and walks any other
code once.  The public ``min_weight`` and ``weight_distribution`` answer
through the gate too.  Words of other weights come from ``_words``: one
walk per request, however many weights it asks for, each weight's words in
Gray order.  The tests hold the gate equal to the walk.  The walk, the
two-set path, the gate and ``_words`` return their words as packed uint64
arrays in ``_packed_rows`` layout; ``codeword_masks_of_weight`` alone turns
them into ints.

q >= 3 codes are enumerated directly over all q^k information vectors in
lexicographic chunks; only each chunk's weights are kept (small-k property
testing only).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import product
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


def _popcounts(arr: np.ndarray) -> np.ndarray:
    w = np.bitwise_count(arr)
    if arr.ndim == 2:
        return w.sum(axis=1, dtype=np.uint64)
    return w


def _weight_counts(w: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(w, minlength=n + 1)`` of one block's weights; uint8
    weights (n <= 64) are counted in pairs, as uint16 values in 2^16 bins."""
    if w.dtype != np.uint8:
        return np.bincount(w.astype(np.intp), minlength=n + 1)
    even = len(w) & ~1  # a one-word block (k = 0) has no pair
    pairs = np.bincount(w[:even].view(np.uint16), minlength=1 << 16).reshape(256, 256)[:n + 1, :n + 1]
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    counts[w[even:]] += 1
    return counts


def _block_offset(rows: np.ndarray, low: int, block: int):
    """Packed XOR of the top rows selected by gray(block)."""
    off = np.zeros(rows.shape[1:], dtype=np.uint64)
    g = block ^ (block >> 1)
    b = 0
    while g:
        if g & 1:
            off = off ^ rows[low + b]
        g >>= 1
        b += 1
    return off


def _scan_range(rows, low, table, table_rev, n, block_lo, block_hi,
                abort_below, collect_weight):
    """Walk blocks [block_lo, block_hi); see _scan_binary for the contract."""
    counting = collect_weight is None
    dist = np.zeros(n + 1, dtype=np.int64) if counting else None
    kept = [rows[:0]]  # each block's words, in Gray order
    best = n + 1  # no nonzero word seen yet
    off = _block_offset(rows, low, block_lo)
    for t in range(block_lo, block_hi):
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
            if counting:
                kept = [rows[:0]]
        if not counting or block_min == best:
            wanted = (best,) if counting else collect_weight
            kept.append(cur[reduce(np.logical_or, [w == c for c in wanted])])
        if abort_below is not None and best < min(abort_below, n + 1):
            return best, None, np.concatenate(kept), True
        if counting:
            dist += _weight_counts(w, n)
    return best, dist, np.concatenate(kept), False


def _check_gf2(code: LinearCode) -> None:
    if not code.field.binary:
        raise CapacityError("binary scan called on a non-binary code")
    if code.k > _GF2_K_LIMIT:
        raise CapacityError(
            f"exhaustive GF(2) enumeration supports k <= {_GF2_K_LIMIT}, got k={code.k}"
        )


def _usable_cpus() -> int:
    """CPUs this process may run on, the cap on a walk's worker threads."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _scan_binary(code: LinearCode, *, abort_below: int | None = None,
                 collect_weight: tuple[int, ...] | None = None, threads: int = 1):
    """Exhaustive Gray walk over all 2^k codewords, with no screen ahead of it.

    Returns (min_nonzero_weight, dist_or_None, words, aborted).
    ``collect_weight=None`` counts the distribution and keeps the words of
    the minimum nonzero weight; a nonempty tuple ``collect_weight`` keeps the
    words of its weights and counts none.  The words are one packed array in
    ``_packed_rows`` layout, in Gray order.  ``dist`` is only meaningful when
    the walk completed; on abort the returned min is the weight of a nonzero
    codeword lighter than ``abort_below`` (an upper bound on d).  The walk aborts
    exactly when d < abort_below, at the end of the first block that holds a
    lighter word, so the zero code never aborts.
    ``threads``, capped at :func:`_usable_cpus`, splits the blocks of a walk
    that cannot abort.
    """
    _check_gf2(code)
    threads = min(threads, _usable_cpus())
    rows = _packed_rows(code.generator.row_bits, code.n)
    low = min(code.k, LOW_BITS)
    table = _gray_low_table(rows, low)
    table_rev = table[::-1].copy()  # odd blocks sweep backwards, in Gray order
    blocks = 1 << (code.k - low)
    if threads <= 1 or blocks < 4 or abort_below is not None:
        return _scan_range(rows, low, table, table_rev, code.n, 0, blocks,
                           abort_below, collect_weight)
    nchunks = min(threads * 4, blocks)
    bounds = [round(i * blocks / nchunks) for i in range(nchunks + 1)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        jobs = [
            ex.submit(_scan_range, rows, low, table, table_rev, code.n,
                      bounds[i], bounds[i + 1], None, collect_weight)
            for i in range(nchunks)
        ]
        parts = [j.result() for j in jobs]
    best = min(p[0] for p in parts)
    if collect_weight is not None:
        return best, None, np.concatenate([p[2] for p in parts]), False
    dist = sum(p[1] for p in parts)
    return best, dist, np.concatenate([p[2] for p in parts if p[0] == best]), False


def _words(code: LinearCode, weights: Sequence[int], threads: int = 1) -> list[np.ndarray]:
    """The codewords of each of ``weights``, all from one Gray walk, each
    weight's as one packed array in ``_packed_rows`` layout and Gray order;
    no walk when ``weights`` is empty."""
    if not weights:
        return []
    words = _scan_binary(code, collect_weight=tuple(weights), threads=threads)[2]
    w = _popcounts(words)
    return [words[w == c] for c in weights]


def _next_level(prev: np.ndarray, rows: np.ndarray, r: int) -> np.ndarray:
    """Sums of r distinct rows in colex order, from the sums of r - 1 rows in
    colex order: the sums whose largest row is j are the first C(j, r-1)
    sums of r - 1 rows, each XORed with row j.  Level 1 is the rows
    themselves.  Rows of shape (k, W), for n > 64, give levels of shape
    (C(k, r), W)."""
    if r == 1:
        return rows
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
    Level r lists every word that is 1 on exactly r columns of P, then every
    word that is 1 on exactly r columns of Q, each as one packed array of
    sums of r rows.  After the P side of level r a word not yet listed has
    more than r ones on P and at least r on Q, so it weighs more than 2r;
    after the Q side, more than 2r + 1.  The listing stops at the first side
    after which every word of weight up to max(d, 4 floor(n/24)) is listed,
    which for a [56,28,12] code skips the Q side of level 6 (376 740 words).
    The Q-side words with at most r ones on P, listed on the P side too, are
    dropped by one popcount over the kept words.  The distribution follows
    from A_0, A_4, ..., A_(4 floor(n/24)) by :func:`_gleason_distribution`,
    checked against every count listed up to that weight.

    Returns (min_nonzero_weight, dist_or_None, minimum_weight_words, aborted)
    with the abort contract of :func:`_scan_binary`: it aborts exactly when
    d < abort_below, returning the weight of a word lighter than that.  The
    words are the weight-d words as one packed array in ``_packed_rows``
    layout, in no particular order.
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
    sides = [_packed_rows(left, n), _packed_rows(right, n)]  # 1-D: n = 2k <= 60
    levels = [np.zeros(1, dtype=np.uint64)] * 2  # level 0: the zero word, kept once below
    light = [[level] for level in levels]  # each side's kept words, level by level
    best = n + 1
    for r, side in product(range(1, k + 1), (0, 1)):
        level = levels[side] = _next_level(levels[side], sides[side], r)
        w = np.bitwise_count(level)
        best = min(best, int(w.min()))
        if abort_below is not None and best < abort_below:
            return best, None, [], True
        light[side].append(level[w <= max(best, floor)])
        # a word not yet listed has more than r ones on P and r + side or more on Q
        if max(best, floor) <= 2 * r + side:
            break
    bound = max(best, floor)
    p_words, q_words = map(np.concatenate, light)
    # a Q-side word with at most r ones on P was listed on the P side too
    q_words = q_words[np.bitwise_count(q_words & np.uint64(p_mask)) > r]
    words = np.concatenate([p_words, q_words])
    weights = np.bitwise_count(words)
    counts = np.bincount(weights[weights <= bound], minlength=n + 1)
    dist = _gleason_distribution(n, counts[:floor + 1:4].tolist())
    if any(dist.get(w, 0) != counts[w] for w in range(bound + 1)):
        raise PostconditionError(
            "Gleason distribution disagrees with the listed light words; "
            "the code is not doubly even self-dual")
    out = np.zeros(n + 1, dtype=np.int64)
    for w, c in dist.items():
        out[w] = c
    return best, out, words[weights == best], False


def _lists_two_sets(code: LinearCode) -> bool:
    """Whether the gate takes the two-set path.  n = 2k is tested first: double
    evenness costs more and implies self-orthogonality, so with n = 2k self-duality.
    The [0, 0] code has no level to list and is walked."""
    return code.k > 0 and code.n == 2 * code.k and is_doubly_even(code)


def _scan(code: LinearCode, abort_below: int | None = None, threads: int = 1):
    """(d, distribution, weight-d words, aborted) of a binary code by the
    gate of the module docstring, with the abort contract of
    :func:`_scan_binary`.  The words are one packed array in
    ``_packed_rows`` layout; on abort the distribution is None and no words.
    The screen aborts at the first of levels 1 to ``_PROBE_ROWS`` that holds
    a lighter word, returning that level's least weight."""
    _check_gf2(code)
    if abort_below is not None and code.k:
        rows = level = _packed_rows(code._reduced.row_bits, code.n)
        for r in range(1, min(code.k, _PROBE_ROWS) + 1):
            level = _next_level(level, rows, r)
            light = int(_popcounts(level).min())
            if light < abort_below:
                return light, None, [], True
    if _lists_two_sets(code):
        best, dist, words, aborted = _scan_two_sets(code, abort_below=abort_below)
    else:
        best, dist, words, aborted = _scan_binary(code, abort_below=abort_below, threads=threads)
    if aborted:
        return best, None, [], True
    return best, _distribution(code.n, dist), words, False


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
    """Exact minimum nonzero codeword weight; binary codes take the gate.

    With ``abort_above = t`` the scan may stop at a nonzero codeword of
    weight < t; the returned value is then that weight (an upper bound on
    d certifying d < t).  Any returned value >= t is the exact minimum.
    ``threads`` splits a full walk only: with ``abort_above`` the screen
    runs on one thread.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if code.field.binary:
        return _scan(code, abort_below=abort_above, threads=threads)[0]
    best, _, _ = _scan_generic(code, abort_below=abort_above)
    return best


def weight_distribution(code: LinearCode, threads: int = 1) -> WeightDistribution:
    """Exact codeword counts at every weight (sums to q^k); binary codes take the gate."""
    if code.field.binary:
        return _scan(code, threads=threads)[1]
    _, dist, _ = _scan_generic(code)
    return _distribution(code.n, dist)


def codewords_of_weight(code: LinearCode, w: int, threads: int = 1) -> list[FieldVector]:
    """All codewords of weight exactly w, in information-vector Gray order."""
    masks = codeword_masks_of_weight(code, w, threads=threads)
    return [FieldVector.from_bits(m, code.n) for m in masks]


def codeword_masks_of_weight(code: LinearCode, w: int, threads: int = 1) -> list[int]:
    """Packed-int variant of :func:`codewords_of_weight` (GF(2) only)."""
    (words,) = _words(code, (w,), threads=threads)
    if words.ndim == 1:
        return words.tolist()
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in words]
