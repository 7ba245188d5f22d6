"""Exact minimum weight, weight distribution, and fixed-weight codeword
enumeration by exhaustive traversal with early abort.

The binary kernel walks all 2^k codewords in binary-reflected Gray-code
order over the information vectors.  The walk is blocked for speed: the
low information bits are expanded once into a Gray-ordered table of packed
codewords, and each of the 2^(k-low) top-bit blocks is one in-place XOR of
a top row into that table plus a vectorized popcount into one preallocated
buffer, so a walk allocates no memory per block beyond the words it keeps.
Blocks follow the Gray code on the top bits with alternating sweep
direction, which is exactly the global reflected-Gray visit order: an odd
block's kept words are read from the table backwards, so
``codewords_of_weight`` emits codewords in true Gray sequence, and no
result but an aborted walk's weight depends on the block size.  Threads
split the block range of a full walk only, one contiguous chunk and one
table copy per worker, and the partial results merge deterministically in
block order; a walk that may abort runs on one thread.  A walk on one
thread uses 2^``LOW_BITS`` = 2^16 words per table, so its 512 KB table,
popcount buffer and counting copy stay in a 2 MB L2 cache; a threaded walk
uses 2^``THREADED_LOW_BITS`` = 2^18, because each block's Python work holds
the GIL, and four times as many blocks made a 2-thread [56,28] walk about
8 % slower.  Only a walk of k >= ``_THREADED_MIN_K`` = 25 is threaded: on 2
cores, 2 threads were slower than 1 up to k = 24 ([40,24]: 50 against
41 ms) and faster from k = 25 on ([40,25]: 58 against 78 ms).

Light words are listed level by level (Brouwer-Zimmermann; Grassl 2006):
level r is every sum of r rows of the RREF generator, a nonzero codeword
each, built as one packed array from level r - 1 by ``_levels``, the one
producer of levels.  One gate, ``_scan``, gives d, the distribution and
the weight-d words to the search, replay, ``is_equivalent`` and
``weight_distribution``, and d to ``min_weight``, from one loop that lists
each level of a code once.  The early-abort screen lists levels 1 to
``_PROBE_ROWS`` without building a Gray table, and ``min_weight`` lists on
until the least weight seen is d, both within 2^k / 8 words.  A doubly
even self-dual code with n = 2k then lists on two disjoint information
sets, which fixes d and the weight-d words, and takes the rest of the
distribution from Gleason's theorem; any other code is walked once.  The
tests hold the gate equal to the walk.  Words of other weights come from
``_words``: one walk per request, each weight's words in Gray order.  All
of these return words as packed uint64 arrays in ``_packed_rows`` layout;
``codeword_masks_of_weight`` alone turns them into ints.

q >= 3 codes are enumerated directly over all q^k information vectors in
lexicographic chunks; only each chunk's weights are kept (small-k property
testing only).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from .code import LinearCode
from .errors import CapacityError, PostconditionError
from .field import FieldVector

LOW_BITS = 16
THREADED_LOW_BITS = 18
_THREADED_MIN_K = 25
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


def _scan_range(rows, low, table, n, block_lo, block_hi, abort_below, collect_weight):
    """Walk blocks [block_lo, block_hi) with the contract of _scan_binary.

    ``table`` enters as the Gray table of the low rows and is XORed in place:
    first with the top rows that gray(block_lo) selects, then with one top
    row per step to the next block, so it always holds the current block's
    words in forward table order.  Gray order runs an odd block backwards, so
    its kept words are read back reversed.  The weights go into one uint8
    buffer (uint16 for n > 255), and a counting walk tallies them two at a
    time, as uint16 values in (n+1)·256 bins, folded once at the end.
    """
    counting = collect_weight is None
    g = block_lo ^ (block_lo >> 1)
    for b in range(g.bit_length()):
        if g >> b & 1:
            table ^= rows[low + b]
    size = len(table)
    w = np.empty(size, np.uint8 if n < 256 else np.uint16)
    ones = np.empty(table.shape, np.uint8) if table.ndim == 2 else None
    mask = np.empty(size, bool)
    spare = np.empty(size, bool) if not counting and len(collect_weight) > 1 else None
    paired = counting and w.dtype == np.uint8 and size % 2 == 0  # k = 0 has one word
    tally = np.zeros((n + 1) * 256 if paired else n + 1, np.int64) if counting else None
    kept = [rows[:0]]  # each block's words, in Gray order
    best = n + 1  # no nonzero word seen yet
    for t in range(block_lo, block_hi):
        if t > block_lo:
            table ^= rows[low + (t & -t).bit_length() - 1]
        if ones is None:
            np.bitwise_count(table, out=w)
        else:
            np.bitwise_count(table, out=ones)
            ones.sum(axis=1, dtype=w.dtype, out=w)
        nz = w[1:] if t == 0 else w  # Gray index 0 is the zero codeword
        block_min = int(nz.min()) if nz.size else n + 1
        if block_min < best:
            best = block_min
            if counting:
                kept = [rows[:0]]
        if not counting or block_min == best:
            wanted = (best,) if counting else collect_weight
            np.equal(w, wanted[0], out=mask)
            for c in wanted[1:]:
                mask |= np.equal(w, c, out=spare)
            words = table[mask]
            kept.append(words[::-1] if t & 1 else words)
        if abort_below is not None and best < min(abort_below, n + 1):
            return best, None, np.concatenate(kept), True
        if counting:
            tally += np.bincount(w.view(np.uint16) if paired else w, minlength=len(tally))
    if counting and paired:
        pairs = tally.reshape(n + 1, 256)[:, :n + 1]
        tally = pairs.sum(axis=0) + pairs.sum(axis=1)
    return best, tally, np.concatenate(kept), False


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
    that cannot abort into one contiguous chunk per worker; each chunk XORs
    its own copy of the Gray table in place (see :func:`_scan_range`).
    A walk on one thread has tables of 2^``LOW_BITS`` words, which fit in
    L2; a threaded one, of k >= ``_THREADED_MIN_K``, blocks of
    2^``THREADED_LOW_BITS``, as more and smaller blocks contend for the GIL.
    """
    _check_gf2(code)
    threads = min(threads, _usable_cpus())
    rows = _packed_rows(code.generator.row_bits, code.n)
    serial = threads <= 1 or code.k < _THREADED_MIN_K or abort_below is not None
    low = min(code.k, LOW_BITS if serial else THREADED_LOW_BITS)
    table = _gray_low_table(rows, low)
    blocks = 1 << (code.k - low)
    if serial:
        return _scan_range(rows, low, table, code.n, 0, blocks, abort_below, collect_weight)
    nchunks = min(threads, blocks)
    bounds = [round(i * blocks / nchunks) for i in range(nchunks + 1)]
    # every chunk XORs its own table, so all copies are made before any chunk starts
    tables = [table] + [table.copy() for _ in range(nchunks - 1)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        jobs = [
            ex.submit(_scan_range, rows, low, tables[i], code.n,
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


def _levels(rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Levels 1, 2, ... of :func:`_next_level` on ``rows`` as (words, popcounts),
    each built when it is asked for: the one producer of listed words."""
    level = rows
    for r in range(1, len(rows) + 1):
        level = _next_level(level, rows, r)
        yield level, _popcounts(level)


@cache
def _listable(k: int) -> int:
    """How many levels a listing its caller may give up on builds at dimension
    k: it stops before 2^k / 8 words in all, a fraction of the walk after it,
    and before a level that alone would outgrow a threaded walk's Gray table."""
    listed = 0
    for r in range(1, k + 1):
        listed += comb(k, r)
        if listed > (1 << k) // 8 or comb(k, r) > 1 << THREADED_LOW_BITS:
            return r - 1
    return k


@cache
def _gleason_basis(n: int, terms: int) -> tuple[tuple[int, ...], ...]:
    """The first ``terms`` basis polynomials g1^(n/8 - 3j) g2^j of
    :func:`_gleason_distribution`, in t = y^4, to degree n/4."""
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
    return tuple(tuple(mul(power(g1, n // 8 - 3 * j), power(g2, j))) for j in range(terms))


def _gleason_distribution(n: int, low: Sequence[int]) -> dict[int, int]:
    """Weight distribution of a doubly even self-dual [n, n/2] code from its
    counts A_0, A_4, ..., A_(4 floor(n/24)) (Gleason's theorem).

    The enumerator is sum_j a_j g1^(n/8 - 3j) g2^j with
    g1 = x^8 + 14 x^4 y^4 + y^8 and g2 = x^4 y^4 (x^4 - y^4)^4.  In t = y^4
    (x = 1) the j-th basis polynomial starts at t^j with coefficient 1, so
    the a_j follow from the A_4j by forward substitution, exactly in
    integers.
    """
    basis = _gleason_basis(n, len(low))
    coeffs: list[int] = []
    for j, a in enumerate(low):
        coeffs.append(a - sum(c * b[j] for c, b in zip(coeffs, basis)))
    dist = {4 * i: sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n // 4 + 1)}
    return {w: c for w, c in dist.items() if c}


def _two_set_rows(code: LinearCode) -> list[int] | None:
    """The rows of a second information set, Q, of a doubly even self-dual
    code with n = 2k, or None for any other code.

    The RREF generator ``[I | A]`` is the identity on its pivot columns P.
    For each other column j, the sum of the rows with a one at j is row j of
    ``[A^T | A^T A]``, which is e_j on Q for every j exactly when A^T A = I:
    with n = 2k, exactly when the code is self-dual.  A self-dual code whose
    rows all weigh 0 mod 4 is doubly even.  The [0, 0] code has no level to
    list and gets None."""
    n, k, rows = code.n, code.k, code._reduced.row_bits
    if k == 0 or n != 2 * k or any(row.bit_count() % 4 for row in rows):
        return None
    p_mask = sum(1 << p for p in code._pivots)
    q_rows = []
    for j in (j for j in range(n) if not p_mask >> j & 1):
        acc = 0
        for row in rows:
            if row >> j & 1:
                acc ^= row
        if acc & ~p_mask != 1 << j:
            return None
        q_rows.append(acc)
    return q_rows


def _scan(code: LinearCode, abort_below: int | None = None, threads: int = 1,
          d_only: bool = False):
    """(d, distribution, weight-d words, aborted) of a binary code by the
    gate of the module docstring, with the abort contract of
    :func:`_scan_binary`.  The words are one packed array in
    ``_packed_rows`` layout; on abort the distribution is None and no words.

    One loop lists the levels of :func:`_levels`, on the RREF rows (the P
    side) and, for a doubly even self-dual code with n = 2k, on the rows of
    :func:`_two_set_rows` (the Q side); level r of a side is every word with
    exactly r ones on its columns.  The head lists P levels only: 1 to
    ``_PROBE_ROWS`` with ``abort_below``, up to the :func:`_listable` levels
    for ``d_only`` (:func:`min_weight`), none otherwise.  After it, a code
    that :func:`_two_set_rows` turns down is walked, and the listing drops;
    any other continues with the next level of the side with fewer, P first
    on a tie.  It aborts once the least weight listed is below
    ``abort_below``.  With P levels 1 to a and Q levels 1 to b listed, a
    word not yet listed weighs more than a + b + 1: ``d_only`` returns
    (d, None, [], False) once the least weight listed is at most that, and
    the two-set path stops once every word up to max(d, 4 floor(n/24)) is
    listed, which for a [56,28,12] code skips the Q side of level 6
    (376 740 words).  It keeps the words up to that weight, drops the Q-side
    words with at most a ones on P (listed on the P side too), and takes the
    distribution from A_0, A_4, ..., A_(4 floor(n/24)) by
    :func:`_gleason_distribution`, checked against every count listed up to
    that weight.  Its weight-d words come in no particular order.  A walk
    that completes must count 2^k words and keep A_d words of weight d, or
    the scan raises ``PostconditionError``."""
    _check_gf2(code)
    n = code.n
    head = (min(code.k if d_only else _PROBE_ROWS, _listable(code.k))
            if abort_below is not None or d_only else 0)
    sides = [_levels(_packed_rows(code._reduced.row_bits, n))]
    kept, depth = [[]], [0]  # per side: the words kept and the levels listed
    best, floor = n + 1, 4 * (n // 24)
    while len(sides) == 1 or max(best, floor) > sum(depth) + 1:
        if len(sides) == 1 and depth[0] == head:
            q_rows = _two_set_rows(code)  # after the head, which turns down almost every screened code
            if q_rows is None:
                break
            sides.append(_levels(_packed_rows(q_rows, n)))  # 1-D: n = 2k <= 60
            kept.append([])
            depth.append(0)
            continue
        side = int(len(sides) == 2 and depth[1] < depth[0])
        words, w = next(sides[side])
        depth[side] += 1
        best = min(best, int(w.min()))
        if abort_below is not None and best < abort_below:
            return best, None, [], True
        if d_only and best <= sum(depth) + 1:
            return best, None, [], False
        if not d_only:  # the head's levels whole, later ones up to the weight the stop needs
            kept[side].append(words if len(sides) == 1 else words[w <= max(best, floor)])
    if len(sides) == 1:
        sides = kept = None  # the walk needs no listed level
        best, dist, words, aborted = _scan_binary(code, abort_below=abort_below, threads=threads)
        if aborted:
            return best, None, [], True
        if int(dist.sum()) != 1 << code.k:
            raise PostconditionError(
                f"the walk counted {int(dist.sum())} codewords, not 2^{code.k}")
        if len(words) != (dist[best] if best <= n else 0):
            raise PostconditionError(
                f"the walk kept {len(words)} weight-{best} words, not A_{best}")
        return best, _distribution(n, dist), words, False
    bound = max(best, floor)
    zero = np.zeros(1, dtype=np.uint64)  # level 0 of either side
    q_words = np.concatenate([zero, *kept[1]])
    p_mask = np.uint64(sum(1 << p for p in code._pivots))
    # a Q-side word with at most depth[0] ones on P was listed on the P side too
    words = np.concatenate([zero, *kept[0], q_words[np.bitwise_count(q_words & p_mask) > depth[0]]])
    weights = np.bitwise_count(words)
    counts = np.bincount(weights[weights <= bound], minlength=n + 1)
    dist = _gleason_distribution(n, counts[:floor + 1:4].tolist())
    if any(dist.get(w, 0) != counts[w] for w in range(bound + 1)):
        raise PostconditionError(
            "Gleason distribution disagrees with the listed light words; "
            "the code is not doubly even self-dual")
    return best, WeightDistribution(n, dist), words[weights == best], False


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
    """Exact minimum nonzero codeword weight.  A binary code takes the gate,
    which lists levels until the least weight seen is d: of its RREF rows up
    to 2^k / 8 words, then of a second information set for a doubly even
    self-dual code with n = 2k; any other code is walked (see :func:`_scan`).

    With ``abort_above = t`` the scan may stop at a nonzero codeword of
    weight < t; the returned value is then that weight (an upper bound on
    d certifying d < t).  Any returned value >= t is the exact minimum.
    ``threads`` splits a full walk only: with ``abort_above`` the screen
    runs on one thread.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if code.field.binary:
        return _scan(code, abort_below=abort_above, threads=threads, d_only=True)[0]
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
