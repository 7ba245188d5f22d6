"""Inequivalence invariants (the N_t sequence over column 4-subsets) and an
exact permutation-equivalence test by budgeted individualization-refinement.

N_t counts the 4-subsets of columns covered by exactly t of the weight-w
codewords; the sequence is invariant under column permutation, so distinct
sequences certify inequivalence.  N_t is the histogram of a cover array:
the cover count of every 4-subset, indexed by its colex rank and summed
from rank terms tabulated per column pair.  The sequence runs to
t = max(n, largest count): each 4-subset of the [24,12,8] code lies in 120
of its weight-12 words.  Equal sequences prove nothing, which is why
:func:`is_equivalent` exists: it compares the N_t counts of both codes'
minimum-weight words, then colours the columns of both codes jointly, by
pair counts and, along each branch of an individualization-refinement
search, by the cover counts of the 4-subsets through each individualized
column, a slice at a time: the counts of {a} + T for every 3-subset T,
read through a cached table of the 3-subset ranks of {j, i, h}.  The
second code's slices are gathered from its cover array, one per node;
the first code's come from the words that hold a, once per column, and
it needs no cover.  Before it refines a tried pair
(a, b), the search compares the histogram of the cover counts of the
C(n-1,3) 4-subsets through a in the first code with that through b in the
second, read off the gathered counts, and drops b when they differ: the
refinement would turn it down on its first pass, as each of those 4-subsets
lies three times in a's slice.  Only searches whose cover is not constant
use slices, so only they use the check; on each permuted extremal
[56,28,12] seed tried, it turned down every try but the two that lead to
the witness.  The test is exact because every "equivalent" answer carries
a witness permutation verified by generator membership, and every
"inequivalent" answer comes from a permutation invariant or from
exhausting a search pruned only by permutation invariants.  A blown node
budget yields verdict "unknown", never a wrong answer.  Its distribution,
minimum-weight words and their N_t counts come from a code's certificate,
made whole by ``_certificate`` from the gate ``minweight._scan`` and one
cover of those words, and kept on the code object, so that
:func:`nt_sequence`, :func:`is_equivalent` and a search's dedup derive none
of them again for that object; the heavier words it compares come from one
walk per code, ``minweight._words``.  No cover leaves this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    its low pair (places 1, 2) and its high pair (places 3, 4)."""
    pairs = list(combinations(range(w), 2))
    index = {pq: i for i, pq in enumerate(pairs)}
    splits = [(index[s[:2]], index[s[2:]]) for s in combinations(range(w), 4)]
    return (*np.array(pairs, dtype=np.intp).T, *np.array(splits, dtype=np.intp).reshape(-1, 2).T)


def _incidence(words: np.ndarray, n: int) -> np.ndarray:
    """(len(words), n) 0/1 matrix: row i is the support of word i of a
    packed array in ``minweight._packed_rows`` layout."""
    packed = words.astype("<u8").view(np.uint8).reshape(len(words), 8 * prod(words.shape[1:]))
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _cover(bits: np.ndarray) -> np.ndarray:
    """Cover counts of every column 4-subset by the words of ``bits``, indexed
    by colex rank, in the least unsigned dtype that holds len(bits).

    The 4-subset {a < b < c < e} of a word's support has rank
    low[a*n + b] + high[c*n + e], where low = C(a,1) + C(b,2) and
    high = C(c,3) + C(e,4) are tabulated per column pair: each word gathers
    them once per pair of its support and adds them over the C(w,4) splits
    of its places.  Words go in chunks of about 2^16 ranks, added in place.
    A word's support is its row's flat nonzero positions less the row's
    offset; words of one weight are read in place, without a copy.
    """
    n = bits.shape[1]
    weights = bits.sum(axis=1)
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


def _nt_counts(hist: np.ndarray) -> dict[int, int]:
    """Raw N_t counts from a cover's histogram, whose entry t is N_t."""
    return {t: int(c) for t, c in enumerate(hist) if t and c}


def nt_from_masks(words: np.ndarray, n: int) -> dict[int, int]:
    """Raw N_t counts from codewords of any weights, packed as ``minweight._packed_rows``."""
    return _nt_counts(np.bincount(_cover(_incidence(words, n))))


class _Certificate(NamedTuple):
    """A binary code's d, distribution and read-only weight-d words, and the
    read-only histogram of their cover (entry t is N_t).  A code object's
    certificate is whole when it is made and kept on it, in
    ``LinearCode._facts``; covers are never kept.  Two threads certifying
    one object at once may both do the work; what either keeps is the
    same."""

    d: int
    distribution: WeightDistribution
    words: np.ndarray
    nt: np.ndarray


def _certificate(code: LinearCode, abort_below: int | None = None, threads: int = 1) -> _Certificate | None:
    """The certificate kept on ``code``, else one made by the only call of
    ``minweight._scan`` outside it and kept unless the screen aborts; the
    cover its N_t counts come from is dropped here.  None exactly when the
    screen aborts: when d < abort_below for a code with a nonzero word."""
    cert = code._facts
    if cert is None:
        d, dist, words, aborted = _scan(code, abort_below, threads)
        if aborted:
            return None
        words.flags.writeable = False
        nt = np.bincount(_cover(_incidence(words, code.n)))
        nt.flags.writeable = False
        cert = _Certificate(d, dist, words, nt)
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
def _slice_tables(n: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of :func:`_through`, under 1 MB at n = 56: per slice
    entry (j, {i < h}), the colex rank of {j, i, h}, or the sentinel C(n,3)
    when j is i or h; and per 3-subset {x < y < z} in colex order, the slice
    column of {x, y} and C(z, 4)."""
    terms = _colex_terms(n)
    i, h = np.triu_indices(n, 1)
    j = np.arange(n)[:, None]
    s = np.sort(np.broadcast_arrays(j, i, h), axis=0)
    table = np.where((j == i) | (j == h), comb(n, 3), terms[0][s[0]] + terms[1][s[1]] + terms[2][s[2]])
    y, x = np.tril_indices(n, -1)  # pairs in colex order; those below z come first
    column = (x * (2 * n - x - 1) // 2 + y - x - 1).astype(terms.dtype)  # index in (i, h)
    per_z = [comb(z, 2) for z in range(n)]
    tables = (table, column[np.arange(comb(n, 3)) - np.repeat(terms[2], per_z)], np.repeat(terms[3], per_z))
    for t in tables:
        t.flags.writeable = False
    return tables


def _through(cover: np.ndarray, a: int, n: int) -> np.ndarray:
    """(C(n,3) + 1,) int32 array: entry T, a 3-subset's colex rank, is the
    cover count of {a} + T, or -1 when T holds a; the last entry is -1.

    For T below a the counts are one run of the cover; any other
    T = {x, y, z} not through a has z > a, and {a} + T ranks as {a, x, y},
    row a of the :func:`_slice_tables` table, plus C(z, 4).  The entries
    that are not -1 are the cover counts of the C(n-1,3) 4-subsets through a."""
    table, column, c4 = _slice_tables(n)
    vals = np.empty(len(column) + 1, dtype=np.int32)  # -1 would wrap in an unsigned cover
    vals[:comb(a, 3)] = cover[comb(a, 4):comb(a + 1, 4)]
    past = comb(a + 1, 3)
    if len(cover):  # else n < 4, and every entry is marked below
        # clipped: a T through a reads a sentinel or a wrong rank, marked below
        vals[past:-1] = cover.take(table[a].take(column[past:]) + c4[past:], mode="clip")
    vals[table[a]] = -1  # every T through a, and the sentinel
    return vals


@lru_cache(maxsize=None)
def _place_triples(w: int) -> np.ndarray:
    """(3, C(w,3)) places of the 3-subsets of a sorted w-column support."""
    triples = np.array(list(combinations(range(w), 3)), dtype=np.intp).reshape(-1, 3).T
    triples.flags.writeable = False
    return triples


def _through_words(bits: np.ndarray, a: int) -> np.ndarray:
    """``_through(_cover(bits), a, n)``, counted from the words of ``bits``
    that hold column a, with no cover: each of them, a left out, adds one to
    the entry of every 3-subset T of the rest of its support, the colex rank
    of T summed from C(x,1) + C(y,2) + C(z,3).  D11's slice takes 1755 of its
    8190 weight-12 words and 165 triples each, against a cover's 495
    4-subsets of every word.  Words go in chunks of about 2^16 ranks."""
    n = bits.shape[1]
    terms = _colex_terms(n)
    rows = bits[bits[:, a] != 0]
    rows[:, a] = 0
    weights = rows.sum(axis=1)
    counts = np.zeros(comb(n, 3) + 1, dtype=np.intp)
    for w in np.unique(weights[weights >= 3]).tolist():
        group = rows[weights == w]
        supports = np.flatnonzero(group.view(bool)).reshape(-1, w) - n * np.arange(len(group))[:, None]
        x, y, z = _place_triples(w)
        step = max(1, (1 << 16) // len(x))
        for start in range(0, len(supports), step):
            t = terms[:3, supports[start:start + step]]
            ranks = t[0][:, x]
            ranks += t[1][:, y]
            ranks += t[2][:, z]
            counts += np.bincount(ranks.ravel(), minlength=len(counts))
    vals = counts.astype(np.int32)
    vals[_slice_tables(n)[0][a]] = -1  # every T through a, and the sentinel
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
    codes, from the pair classes of both and the incidence ``bits`` of their
    weight-d words.  A column a of the first code gets its slice from the
    words that hold a, once per search, so a search that runs to its budget
    counts at most n of them; the second code's slices are read from its
    cover, one per node, which the search builds, and only when it reads
    slices."""

    def __init__(self, codes, bits, hist, pairs, node_budget):
        self.codes, self.pairs, self.node_budget = codes, pairs, node_budget
        self.leads = {}  # column a of the first code: _through_words(bits, a)
        # a constant cover gives slices that split nothing; with constant pair
        # counts too (the [24,12,8] code), no refinement can split a colour class
        self.flat = np.count_nonzero(hist) <= 1
        self.bits, self.cover = bits[0], None if self.flat else _cover(bits[1])
        diagonal = np.eye(pairs.shape[1], dtype=bool)
        self.static = self.flat and all(np.ptp(pairs[0][m]) == 0 for m in (diagonal, ~diagonal))
        # with one pair class on both codes' diagonals and one off them (every
        # extremal seed), a column's pair signature follows from its colour and
        # its side's colour multiset, which refine keeps equal on both sides
        self.pair_signature = not all(np.ptp(pairs[:, m]) == 0 for m in (diagonal, ~diagonal))
        self.reach = len(hist) + 1
        self.nodes = 0

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
            table = _slice_tables(n)[0]
            if a not in self.leads:
                self.leads[a] = _through_words(self.bits, a)
            through_a = self.leads[a]
            hist_a = np.bincount(through_a + 1, minlength=self.reach)  # -1 entries count at 0
            lead = through_a.take(table)
        for b in np.flatnonzero(cols[1] == cell).tolist():
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _BudgetSpent
            deeper = slices
            if not self.flat:
                # refine's first pass turns b down unless the 4-subsets through
                # it have a's cover counts: each lies three times in a slice
                through_b = _through(self.cover, b, n)
                if not np.array_equal(np.bincount(through_b + 1, minlength=self.reach), hist_a):
                    continue
                deeper = slices + [np.stack([lead, through_b.take(table)])]
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
    is one node, also one dropped before its refinement because the cover
    counts of the 4-subsets through the two columns have different
    histograms (which the refinement would find on its first pass, so
    nodes, verdicts and witnesses are those of a search that refines every
    try).  A discrete colouring is a candidate witness, verified by
    mapping a generator through it; every prune is an invariant computed
    alike on both codes, so exhausting the search proves inequivalence.
    More than ``node_budget`` nodes yields "unknown", never a wrong answer.
    Codes whose counts are flat at every order (the [24,12,8] code, whose
    weight-8 words form a 5-design) give the search nothing to prune; those
    runs exhaust the budget.  Search dedup decides through this function.

    Equal codes are decided before either is certified.  Each code object
    is certified once, whole: its scan and the N_t counts of its weight-d
    words are kept on it (see ``_Certificate``), so a repeated decision
    scans nothing, and one whose kept distributions or counts differ
    answers at once, with no cover.  Covers stay inside this module and are
    not kept: a search that reads slices (a flat one reads none) builds the
    second code's cover on every call, and counts the few slices it reads of
    the first code (two on a permuted extremal seed) from that code's
    weight-d words, with no cover of it.
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
    search = _Search((c1, c2), bits, p1.nt, pairs, node_budget)
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
