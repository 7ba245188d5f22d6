"""Inequivalence invariants (the N_t sequence over column 4-subsets) and an
exact permutation-equivalence test by budgeted individualization-refinement.

N_t counts the 4-subsets of columns covered by exactly t of the weight-w
codewords; the sequence is invariant under column permutation, so distinct
sequences certify inequivalence.  It is counted from a cover array: the
cover count of every 4-subset, indexed by its colex rank and summed from
rank terms tabulated per column pair, over a word's 4-subsets in colex
order.  The sequence runs to t = max(n, largest count): each 4-subset of the
[24,12,8] code lies in 120 of its weight-12 words.  A certificate also keeps
its code's profile: row b is the histogram of the cover counts of the
C(n-1,3) 4-subsets through column b, and N_t is the profile's column sums
over four, as each 4-subset lies in four rows.

Equal sequences prove nothing, which is why :func:`is_equivalent` exists: it
compares the N_t counts of both codes' minimum-weight words, then colours
the columns of both codes jointly, by pair counts and, along each branch of
an individualization-refinement search, by the cover counts of the 4-subsets
through each individualized column, a slice at a time: the counts of {a} + T
for every 3-subset T, read through a cached table of the 3-subset ranks of
{j, i, h}.  A slice is counted from the weight-d words that hold its column,
over the colex 3-subsets of each one's other places, at most once per column
and code in a search.  Before it refines a tried pair (a, b), the search
compares row a of the first code's profile with row b of the second's, and
drops b when they differ: the refinement would turn it down on its first
pass, as each of those 4-subsets lies three times in a's slice.  So a search
counts the slices of the tries that pass only; on each permuted extremal
[56,28,12] seed tried, the check turned down every try but the two that lead
to the witness.  Only searches whose cover is not constant use slices, so
only they use the check.  The test is exact because every "equivalent"
answer carries a witness permutation verified by generator membership, and
every "inequivalent" answer comes from a permutation invariant or from
exhausting a search pruned only by permutation invariants.  A blown node
budget yields verdict "unknown", never a wrong answer.

A code's distribution, minimum-weight words, N_t counts and profile come
from its certificate, made whole by ``_certificate`` from the gate
``minweight._scan`` and one cover of those words, and kept on the code
object, so that :func:`nt_sequence`, :func:`is_equivalent` and a search's
dedup derive none of them again for that object; the heavier words it
compares come from one walk per code, ``minweight._words``.  A cover is
built only to certify (``_certificate``, :func:`nt_from_masks`), never to
decide, and none leaves this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .code import LinearCode, same_code
from .errors import DimensionError, UnsupportedFieldError
from .field import FieldVector
from .minweight import WeightDistribution, _scan, _two_set_rows, _words
# tracer-only: perfbench/tracing.py wraps these names, and invariant does not call them
from .minweight import codeword_masks_of_weight, weight_distribution  # noqa: F401

DEFAULT_NODE_BUDGET = 10_000_000
_SIGNATURE_CODEWORD_CAP = 60_000


@dataclass(frozen=True)
class NtSequence:
    """Counts N_t of column 4-subsets covered by exactly t weight-w
    codewords, for t >= 1 (t = 0 subsets are the complement)."""

    n: int
    k: int
    weight: int
    counts: Mapping[int, int]

    @property
    def sequence(self) -> tuple[int, ...]:
        """The comparison vector (N_1, ..., N_m), m = max(n, largest t):
        a 4-subset can lie in more than n words."""
        return tuple(self.counts.get(t, 0) for t in range(1, max([self.n, *self.counts]) + 1))

    def covered_subsets(self) -> int:
        return sum(self.counts.values())

    def zero_subsets(self) -> int:
        return comb(self.n, 4) - self.covered_subsets()

    def to_jsonable(self) -> list[int]:
        return list(self.sequence)


@lru_cache(maxsize=None)
def _colex_terms(n: int) -> np.ndarray:
    """terms[q][j] = C(j, q + 1): the colex rank term of column j at place q
    of a sorted 4-subset.  Cached and read-only; int32 unless a rank needs
    more (C(n,4) >= 2^31, n >= 478)."""
    dtype = np.int32 if comb(n, 4) < 1 << 31 else np.int64
    terms = np.array([[comb(j, q + 1) for j in range(n)] for q in range(4)], dtype=dtype)
    terms.flags.writeable = False
    return terms


@lru_cache(maxsize=None)
def _place_pairs(w: int) -> tuple[np.ndarray, ...]:
    """The places (p, q) of the C(w,2) column pairs of a sorted w-column
    support, and for each of its C(w,4) 4-subsets the indices among them of
    its low pair (places 1, 2) and its high pair (places 3, 4), all in colex
    order, so that a pair's index is its colex rank."""
    terms, s = _colex_terms(w), _unrank(np.arange(comb(w, 4)), w, 4)
    low, high = (terms[0][s[q]] + terms[1][s[q + 1]] for q in (0, 2))
    return (*_unrank(np.arange(comb(w, 2)), w, 2), low, high)


def _incidence(words: np.ndarray, n: int) -> np.ndarray:
    """(len(words), n) 0/1 matrix: row i is the support of word i of a
    packed array in ``minweight._packed_rows`` layout."""
    packed = words.astype("<u8").view(np.uint8).reshape(len(words), 8 * prod(words.shape[1:]))
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _cover(words: np.ndarray, n: int) -> np.ndarray:
    """Cover counts of every column 4-subset by the length-n ``words``, packed
    as ``minweight._packed_rows``, indexed by colex rank, in the least
    unsigned dtype that holds len(words).

    The 4-subset {a < b < c < e} of a word's support has rank
    low[a*n + b] + high[c*n + e], where low = C(a,1) + C(b,2) and
    high = C(c,3) + C(e,4) are tabulated per column pair: each word gathers
    them once per pair of its support and adds them over the C(w,4) splits
    of its places.  Words go in chunks of about 2^16 ranks, added in place.
    A word's support is its row's flat nonzero positions less the row's
    offset; words of one weight are read in place, without a copy.
    """
    bits = _incidence(words, n)
    weights = np.bitwise_count(words)
    if weights.ndim == 2:  # lanes of a word, n > 64
        weights = weights.sum(axis=1)
    terms = _colex_terms(n)
    low, high = ((terms[q][:, None] + terms[q + 1]).ravel() for q in (0, 2))
    cover = np.zeros(comb(n, 4), dtype=np.min_scalar_type(len(bits)))
    one = cover.dtype.type(1)  # a Python 1 sends np.add.at down its slow casting path
    for w in np.unique(weights[weights >= 4]).tolist():
        rows = bits if (weights == w).all() else bits[weights == w]
        supports = np.flatnonzero(rows.view(bool)).reshape(-1, w) - n * np.arange(len(rows))[:, None]
        p, q, lo, hi = _place_pairs(w)
        step = max(1, (1 << 16) // len(lo))
        for start in range(0, len(supports), step):
            chunk = supports[start:start + step]
            pair = chunk[:, p] * n + chunk[:, q]
            ranks = low[pair][:, lo]
            ranks += high[pair][:, hi]
            np.add.at(cover, ranks.ravel(order="K"), one)
    return cover


def _unrank(ranks: np.ndarray, n: int, size: int) -> np.ndarray:
    """(size, len(ranks)) intp members of the size-subsets of n columns with
    these colex ranks, the least member first."""
    terms = _colex_terms(n)
    members = np.empty((size, len(ranks)), dtype=np.intp)
    for q in range(size - 1, 0, -1):
        members[q] = np.searchsorted(terms[q], ranks, side="right") - 1
        ranks = ranks - terms[q][members[q]]
    members[0] = ranks
    return members


@lru_cache(maxsize=None)
def _triple_members(n: int) -> np.ndarray:
    """Read-only (3, C(n-1,3)) members of the 3-subsets of the first n - 1
    columns in colex order, 79 KB at n = 56: the 3-subsets below the top
    column of each colex run of 4-subsets, and, at n = w + 1, the places of
    the 3-subsets of a sorted w-column support."""
    members = _unrank(np.arange(comb(n - 1, 3)), n, 3).astype(np.min_scalar_type(n))
    members.flags.writeable = False
    return members


def _profile(cover: np.ndarray, n: int) -> np.ndarray:
    """(n, len(np.bincount(cover))) intp array: row b is the histogram of the
    cover counts of the C(n-1,3) 4-subsets through column b.

    Each 4-subset adds one to the entry of its count in each of its four
    rows, keyed count * n + column.  A sparse cover (the LCD codes', under a
    quarter nonzero) is read by its nonzero entries, unranked, and column 0
    follows by subtraction.  A dense one (the extremal seeds') is read run
    by run: the 4-subsets of top column e are the C(e,3) ranks from C(e,4),
    whose other members are the first C(e,3) columns of ``_triple_members``.
    """
    width = int(cover.max()) + 1 if len(cover) else 0
    if 4 * np.count_nonzero(cover) < len(cover):
        nonzero = np.flatnonzero(cover)
        keys = cover[nonzero].astype(np.intp) * n + _unrank(nonzero, n, 4)
        counts = np.bincount(keys.ravel(), minlength=width * n).reshape(width, n)
        counts[0] = comb(n - 1, 3) - counts[1:].sum(axis=0)
    else:
        members = _triple_members(n)
        buffer = np.empty(4 * comb(n - 1, 3), dtype=np.int32)  # int32 keys: less to read than intp
        counts = np.zeros(width * n, dtype=np.intp)
        for e in range(3, n):
            run = cover[comb(e, 4):comb(e + 1, 4)]
            keys = buffer[:4 * len(run)].reshape(4, len(run))
            keys[3] = run
            keys[3] *= n
            np.add(members[:, :len(run)], keys[3], out=keys[:3])
            keys[3] += e
            counts += np.bincount(keys.ravel(), minlength=len(counts))
        counts = counts.reshape(width, n)
    return np.ascontiguousarray(counts.T)


def _nt_counts(hist: np.ndarray) -> dict[int, int]:
    """Raw N_t counts from a cover's histogram, whose entry t is N_t."""
    return {t: int(c) for t, c in enumerate(hist) if t and c}


def nt_from_masks(words: np.ndarray, n: int) -> dict[int, int]:
    """Raw N_t counts from codewords of any weights, packed as ``minweight._packed_rows``."""
    return _nt_counts(np.bincount(_cover(words, n)))


class _Certificate(NamedTuple):
    """A binary code's d, distribution and read-only weight-d words, the
    read-only histogram of their cover (entry t is N_t), and its read-only
    ``profile``: row b is the histogram of the cover counts of the 4-subsets
    through column b, which a decision compares column by column.  A code
    object's certificate is whole when it is made and kept on it, in
    ``LinearCode._facts``; covers are never kept (D11's profile is 11.6 KB,
    its cover 0.73 MB).  Two threads certifying one object at once may both
    do the work; what either keeps is the same."""

    d: int
    distribution: WeightDistribution
    words: np.ndarray
    nt: np.ndarray
    profile: np.ndarray


def _certificate(code: LinearCode, abort_below: int | None = None, threads: int = 1) -> _Certificate | None:
    """The certificate kept on ``code``, else one made by the only call of
    ``minweight._scan`` outside it and kept unless the screen aborts.  Its
    profile is counted from one cover of the weight-d words, which is
    dropped here, and its N_t counts are the profile's column sums over
    four, equal to the cover's histogram in value and length.  None exactly
    when the screen aborts: when d < abort_below for a code with a nonzero
    word."""
    cert = code._facts
    if cert is None:
        d, dist, words, aborted = _scan(code, abort_below, threads)
        if aborted:
            return None
        words.flags.writeable = False
        profile = _profile(_cover(words, code.n), code.n)
        nt = profile.sum(axis=0) // 4
        for array in (nt, profile):
            array.flags.writeable = False
        cert = _Certificate(d, dist, words, nt, profile)
        object.__setattr__(code, "_facts", cert)
    return None if abort_below is not None and cert.d < min(abort_below, code.n + 1) else cert


def nt_sequence(code: LinearCode, w: int | None = None, threads: int = 1) -> NtSequence:
    """The N_t invariant of ``code`` at codeword weight w, 1 <= w <= n, by
    default the minimum weight d; its ``sequence`` runs to max(n, largest
    t).  The certificate serves w = d: it holds the N_t counts and is kept
    on the code object, so a second call on that object builds no cover;
    ``counts`` is a new dict on every call.  Any other w, on a code that is
    not certified and that the gate would walk, walks it once for its
    weight-w words, which are not kept."""
    if not code.field.binary:
        raise UnsupportedFieldError("N_t invariant is defined for binary codes")
    if w is None and code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if w is not None and not 1 <= w <= code.n:
        raise ValueError(f"codeword weight must be in 1..{code.n}, got {w}")
    certify = w is None or code._facts is not None or _two_set_rows(code) is not None
    cert = _certificate(code, threads=threads) if certify else None
    w = cert.d if w is None else w
    if cert is not None and w == cert.d:
        return NtSequence(code.n, code.k, w, _nt_counts(cert.nt))
    return NtSequence(code.n, code.k, w, nt_from_masks(_words(code, (w,), threads)[0], code.n))


def inequivalent_by_invariant(c1: LinearCode, c2: LinearCode, w: int,
                              threads: int = 1) -> int | None:
    """Certificate of inequivalence from N_t sequences, or None if inconclusive.

    Returns the smallest t at which the sequences differ.  Equal sequences
    NEVER imply equivalence.
    """
    if (c1.n, c1.k) != (c2.n, c2.k):
        raise DimensionError("codes must share (n, k)")
    s1 = nt_sequence(c1, w, threads=threads)
    s2 = nt_sequence(c2, w, threads=threads)
    ts = sorted(set(s1.counts) | set(s2.counts))
    return next((t for t in ts if s1.counts.get(t, 0) != s2.counts.get(t, 0)), None)


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of :func:`is_equivalent`.

    verdict: "equivalent" (witness attached), "inequivalent", or "unknown"
    (node budget exhausted).  The witness is a source-order permutation:
    applying it to the first code's columns yields the second code.
    """

    verdict: str
    witness: tuple[int, ...] | None
    nodes: int

    def __bool__(self) -> bool:
        return self.verdict == "equivalent"


def _witness_ok(c1: LinearCode, c2: LinearCode, images0: Sequence[int]) -> bool:
    """Whether moving column j to column images0[j] maps every generator row
    of c1 into c2."""
    n = c1.n
    return all(c2.contains(FieldVector.from_bits(sum(1 << images0[j] for j in range(n) if rb >> j & 1), n))
               for rb in c1.generator.row_bits)


def _signature_weights(dist) -> list[int]:
    ws: list[int] = []
    total = 0
    for w, c in dist.items():
        if w == 0:
            continue
        if ws and (total + c > _SIGNATURE_CODEWORD_CAP or len(ws) == 3):
            break
        ws.append(w)
        total += c
        if total >= 4096:
            break
    return ws


@lru_cache(maxsize=None)
def _slice_table(n: int) -> np.ndarray:
    """Read-only (n, C(n,2)) table, under 1 MB at n = 56: per slice entry
    (j, {i < h}), the colex rank of the 3-subset {j, i, h}, or the sentinel
    C(n,3) when j is i or h.  Row a marks every 3-subset through a."""
    terms = _colex_terms(n)
    i, h = np.triu_indices(n, 1)
    j = np.arange(n)[:, None]
    s = np.sort(np.broadcast_arrays(j, i, h), axis=0)
    table = np.where((j == i) | (j == h), comb(n, 3), terms[0][s[0]] + terms[1][s[1]] + terms[2][s[2]])
    table.flags.writeable = False
    return table


def _through_words(bits: np.ndarray, a: int) -> np.ndarray:
    """(C(n,3) + 1,) int32 array: entry T, a 3-subset's colex rank, is the
    number of words of ``bits``, all of one weight, that cover {a} + T, or
    -1 when T holds a; the last entry is -1.  So the entries that are not -1
    are the cover counts of the C(n-1,3) 4-subsets through a, counted with
    no cover: each word that holds a, a left out, adds one to the entry of
    every 3-subset T of the rest of its support, the colex rank of T summed
    from C(x,1) + C(y,2) + C(z,3).  D11's slice takes 1755 of its 8190
    weight-12 words and 165 triples each, against a cover's 495 4-subsets of
    every word.  Words go in chunks of about 2^16 ranks."""
    n = bits.shape[1]
    terms = _colex_terms(n)
    rows = bits[bits[:, a] != 0]
    rows[:, a] = 0
    w = int(rows[:1].sum())  # every row's weight, 0 when no word holds a
    supports = np.flatnonzero(rows.view(bool)).reshape(len(rows), w) - n * np.arange(len(rows))[:, None]
    x, y, z = _triple_members(w + 1)
    counts = np.zeros(comb(n, 3) + 1, dtype=np.intp)
    step = max(1, (1 << 16) // max(1, len(x)))
    for start in range(0, len(supports), step):
        t = terms[:3, supports[start:start + step]]
        ranks = t[0][:, x]
        ranks += t[1][:, y]
        ranks += t[2][:, z]
        counts += np.bincount(ranks.ravel(), minlength=len(counts))
    vals = counts.astype(np.int32)
    vals[_slice_table(n)[a]] = -1  # every T through a, and the sentinel
    return vals


def _relabel(rows: np.ndarray) -> np.ndarray:
    """(2, m) ids of the rows of a (2, m, ...) array, one id per distinct
    row across both codes, in the order of the rows' bytes: one argsort of
    the rows viewed as raw bytes, then runs of equal rows, compared as
    unsigned words (numpy compares raw bytes far slower)."""
    flat = np.ascontiguousarray(rows.reshape(rows.shape[0] * rows.shape[1], -1))
    flat = flat.view(f"u{flat.itemsize}")  # equal words are equal bytes, also for floats
    order = np.argsort(flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel())
    ranked = flat[order]
    ids = np.empty(len(flat), dtype=np.intp)
    ids[order] = np.cumsum(np.concatenate(([False], (ranked[1:] != ranked[:-1]).any(axis=1))))
    return ids.reshape(rows.shape[:2])


def _key_dtype(c: int, reach: int) -> type:
    """int32 when it holds every slice key (lo*c + hi)*reach + s, else int64:
    int32 rows order by their bytes as their int64 copies do."""
    return np.int32 if c * c * reach < 1 << 31 else np.int64


class _BudgetSpent(Exception):
    pass


class _Search:
    """Individualization-refinement over the joint column colourings of two
    codes, from the pair classes of both, the incidence ``bits`` of their
    weight-d words and their certificates' profiles.  A tried pair (a, b)
    whose profile rows differ is dropped before anything is counted for it;
    every other column gets its slice from its code's words that hold it,
    once per search, so a search that runs to its budget counts at most n
    of them per code.  The search builds no cover."""

    def __init__(self, codes, bits, certs, pairs, node_budget):
        self.codes, self.bits, self.pairs, self.node_budget = codes, bits, pairs, node_budget
        self.profiles = [cert.profile for cert in certs]
        self.through = ({}, {})  # per code, column a: _through_words(its bits, a)
        # a constant cover gives slices that split nothing; with constant pair
        # counts too (the [24,12,8] code), no refinement can split a colour class
        self.flat = np.count_nonzero(certs[0].nt) <= 1
        diagonal = np.eye(pairs.shape[1], dtype=bool)
        self.static = self.flat and all(np.ptp(pairs[0][m]) == 0 for m in (diagonal, ~diagonal))
        # with one pair class on both codes' diagonals and one off them (every
        # extremal seed), a column's pair signature follows from its colour and
        # its side's colour multiset, which refine keeps equal on both sides
        self.pair_signature = not all(np.ptp(pairs[:, m]) == 0 for m in (diagonal, ~diagonal))
        self.reach = len(certs[0].nt) + 1
        self.nodes = 0

    def slice_of(self, side: int, a: int) -> np.ndarray:
        """Column a's slice in code ``side`` (0 or 1), read through the slice
        table: counted from its words on the first call, then kept."""
        kept = self.through[side]
        if a not in kept:
            kept[a] = _through_words(self.bits[side], a)
        return kept[a].take(_slice_table(self.bits[side].shape[1]))

    def refine(self, cols: np.ndarray, slices: list[np.ndarray]):
        """Refine the column colours of both codes (rows 0 and 1 of ``cols``)
        until no colour class splits, under one labelling shared by both.

        A column's signature is its colour, the multiset over all columns i
        of (colour of i, pair class of the column with i), and for each
        slice (the cover counts of one individualized column, stacked for
        both codes) the multiset over pairs {i, h} of (colours of i and h,
        slice entry).  Each multiset is a sorted row, reduced to an id at
        once.  The pair multiset is left out where it follows from the
        colour (see ``pair_signature``): stacked after the colour, it orders
        no row the colour does not, so every label stays as it was.  Returns
        the refined (2, n) colours, compact from 0, or None when the two
        codes' colour multisets differ.
        """
        if self.static:
            return cols
        n = cols.shape[1]
        i, h = np.triu_indices(n, 1)
        width = int(self.pairs.max()) + 1
        while True:
            c = int(cols.max()) + 1
            parts = [cols]
            if self.pair_signature:
                parts.append(_relabel(np.sort(cols[:, None, :] * width + self.pairs, axis=2)))
            lo, hi = np.minimum(cols[:, i], cols[:, h]), np.maximum(cols[:, i], cols[:, h])
            base = ((lo * c + hi) * self.reach).astype(_key_dtype(c, self.reach))[:, None, :]
            for s in slices:
                parts.append(_relabel(np.sort(base + s, axis=2)))
            new = _relabel(np.stack(parts, axis=-1))
            if not np.array_equal(*(np.bincount(side, minlength=n) for side in new)):
                return None
            if new.max() == cols.max():
                return new
            cols = new

    def extend(self, cols: np.ndarray, slices: list[np.ndarray]):
        """Images of a verified witness that respects the colouring ``cols``
        (refined from the individualizations behind ``slices``), or None."""
        n = cols.shape[1]
        sizes = np.bincount(cols[0])
        if sizes.max() == 1:
            images = np.argsort(cols[1])[cols[0]]
            return images if _witness_ok(*self.codes, images.tolist()) else None
        cell = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        a = int(np.argmax(cols[0] == cell))
        if not self.flat:
            lead, profile_a = self.slice_of(0, a), self.profiles[0][a]
        for b in np.flatnonzero(cols[1] == cell).tolist():
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _BudgetSpent
            deeper = slices
            if not self.flat:
                # refine's first pass turns b down unless the 4-subsets through
                # it have a's cover counts: each lies three times in a slice
                if not np.array_equal(self.profiles[1][b], profile_a):
                    continue
                deeper = slices + [np.stack([lead, self.slice_of(1, b)])]
            tried = cols.copy()
            tried[0, a] = tried[1, b] = len(sizes)
            refined = self.refine(tried, deeper)
            found = None if refined is None else self.extend(refined, deeper)
            if found is not None:
                return found
        return None


def is_equivalent(c1: LinearCode, c2: LinearCode,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  threads: int = 1) -> EquivalenceResult:
    """Exact permutation-equivalence test for binary codes of equal (n, k).

    Equal weight distributions are followed by the N_t counts of the
    minimum-weight words, which answer "inequivalent" with 0 nodes when
    they differ (as for D11 against C56.1).  Then an individualization-
    refinement search (McKay & Piperno 2014; Leon 1982) colours the columns
    of both codes jointly by pair counts over the few smallest
    nonzero-weight codeword sets and, for each individualized column a,
    by the 4-subset cover counts of {a, j, i, h}.  It individualizes the
    first column of the smallest non-singleton colour class of the first
    code and tries each column of that colour in the second code: each try
    is one node, also one dropped before its refinement because the two
    columns' rows of their codes' profiles differ, that is, the cover
    counts of the 4-subsets through them have different histograms (which
    the refinement would find on its first pass, so nodes, verdicts and
    witnesses are those of a search that refines every try).  A discrete
    colouring is a candidate witness, verified by mapping a generator
    through it; every prune is an invariant computed alike on both codes,
    so exhausting the search proves inequivalence.
    More than ``node_budget`` nodes yields "unknown", never a wrong answer.
    Codes whose counts are flat at every order (the [24,12,8] code, whose
    weight-8 words form a 5-design) give the search nothing to prune; those
    runs exhaust the budget.  Search dedup decides through this function.

    Equal codes are decided before either is certified.  Each code object
    is certified once, whole: its scan, the N_t counts of its weight-d words
    and their profile are kept on it (see ``_Certificate``), so a repeated
    decision scans nothing, and one whose kept distributions or counts
    differ answers at once.  A decision builds no cover: a search that
    reads slices (a flat one reads none) counts each slice it reads from
    its code's weight-d words, and reads only those of the tries that pass
    the profile check (two per code on a permuted extremal seed).
    """
    if not c1.field.binary or not c2.field.binary:
        raise UnsupportedFieldError("equivalence test implemented for binary codes")
    if (c1.n, c1.k) != (c2.n, c2.k):
        raise DimensionError("codes must share (n, k)")
    n = c1.n
    if same_code(c1, c2):  # also every pair of zero codes
        return EquivalenceResult("equivalent", tuple(range(1, n + 1)), 0)
    p1, p2 = _certificate(c1, threads=threads), _certificate(c2, threads=threads)
    if p1.distribution != p2.distribution or not np.array_equal(p1.nt, p2.nt):
        return EquivalenceResult("inequivalent", None, 0)
    bits = [_incidence(p.words, n) for p in (p1, p2)]

    heavier = _signature_weights(p1.distribution)[1:]
    pair_counts = []  # per code: (n, n, weights) counts of words covering both columns
    for code, b in zip((c1, c2), bits):
        sets = [b] + [_incidence(words, n) for words in _words(code, heavier, threads)]
        pair_counts.append(np.stack([_pair_counts(m) for m in sets], axis=-1))
    pairs = _relabel(np.reshape(pair_counts, (2, n * n, -1))).reshape(2, n, n)
    search = _Search((c1, c2), bits, (p1, p2), pairs, node_budget)
    try:
        root = search.refine(np.zeros((2, n), dtype=np.intp), [])
        images = None if root is None else search.extend(root, [])
    except _BudgetSpent:
        return EquivalenceResult("unknown", None, search.nodes)
    if images is None:
        return EquivalenceResult("inequivalent", None, search.nodes)
    # source order: column h of the second code is column witness[h] of the first
    return EquivalenceResult("equivalent", tuple((np.argsort(images) + 1).tolist()), search.nodes)


def _pair_counts(bits: np.ndarray) -> np.ndarray:
    """(n, n) float64 counts of the words of ``bits`` that cover both
    columns, from one float32 product while every count is exact in it
    (fewer than 2^24 words), else from a float64 one."""
    f = bits.astype(np.float32 if len(bits) < 1 << 24 else np.float64)
    return (f.T @ f).astype(np.float64)
