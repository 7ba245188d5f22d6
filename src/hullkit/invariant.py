"""Inequivalence invariants (the N_t sequence over column 4-subsets) and an
exact permutation-equivalence test with budgeted backtracking.

N_t counts the 4-subsets of columns covered by exactly t of the weight-w
codewords; the sequence is invariant under column permutation, so distinct
sequences certify inequivalence.  N_t is a histogram of cover counts
indexed by the colex ranks of 4-subsets; the pairwise co-occurrence counts
that drive the equivalence search are popcounts of ANDed column incidence
masks (:func:`column_masks`).  Equal sequences prove nothing, which is why
:func:`is_equivalent` exists: an N_t comparison, then column-signature
refinement plus backtracking, exact because every "equivalent" answer
carries a witness permutation verified by generator membership, and every
"inequivalent" answer comes from a permutation invariant or from
exhausting a search pruned only by permutation invariants.  A blown node
budget yields verdict "unknown", never a wrong answer.  Its distributions
and minimum-weight words come from the gate ``minweight._scan`` (no Gray
walk for doubly even self-dual codes); heavier words are walked.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .code import LinearCode, same_code
from .errors import DimensionError, UnsupportedFieldError
from .field import FieldVector
from .minweight import _scan, codeword_masks_of_weight
# tracer-only: perfbench/tracing.py wraps this name, and invariant does not call it
from .minweight import weight_distribution  # noqa: F401

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
        """The comparison vector (N_1, ..., N_n)."""
        return tuple(self.counts.get(t, 0) for t in range(1, self.n + 1))

    def covered_subsets(self) -> int:
        return sum(self.counts.values())

    def zero_subsets(self) -> int:
        return comb(self.n, 4) - self.covered_subsets()

    def to_jsonable(self) -> list[int]:
        return list(self.sequence)


def column_masks(codeword_masks: Sequence[int], n: int) -> list[int]:
    """Per-column incidence masks: bit i of column j is codeword i's j-th bit."""
    cols = [0] * n
    for i, m in enumerate(codeword_masks):
        bit = 1 << i
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def nt_from_masks(masks: Sequence[int], n: int) -> dict[int, int]:
    """Raw N_t counts from packed codeword masks of any weights.

    Every 4-subset {a < b < c < e} of a word's support adds one to the cover
    count at its colex rank C(a,1) + C(b,2) + C(c,3) + C(e,4); N_t is the
    number of ranks covered exactly t times.  Words are handled in chunks of
    about 2^17 ranks (1 MB).
    """
    if not masks:
        return {}
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), nbytes)
    bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    weights = bits.sum(axis=1)
    # binom[q][j] = C(j, q + 1): the colex rank term of column j at place q
    binom = np.array([[comb(j, q + 1) for j in range(n)] for q in range(4)], dtype=np.intp)
    cover = np.zeros(comb(n, 4), dtype=np.int64)
    for w in np.unique(weights[weights >= 4]).tolist():
        rows = np.flatnonzero(weights == w)
        places = np.array(list(combinations(range(w), 4)), dtype=np.intp)
        step = max(1, (1 << 17) // len(places))
        for lo in range(0, len(rows), step):
            chunk = np.nonzero(bits[rows[lo:lo + step]])[1].reshape(-1, w)  # supports
            ranks = binom[0][chunk][:, places[:, 0]]
            for q in range(1, 4):
                ranks += binom[q][chunk][:, places[:, q]]
            cover += np.bincount(ranks.ravel(), minlength=len(cover))
    hist = np.bincount(cover)
    return {t: int(c) for t, c in enumerate(hist) if t and c}


def nt_sequence(code: LinearCode, w: int, threads: int = 1) -> NtSequence:
    """The (N_1, ..., N_n) invariant of ``code`` at codeword weight w: at
    w = d over the gate's weight-d words, at any other w over a walk."""
    if not code.field.binary:
        raise UnsupportedFieldError("N_t invariant is defined for binary codes")
    d, _, masks, _ = _scan(code, threads=threads)
    if w != d:
        masks = codeword_masks_of_weight(code, w, threads=threads)
    return NtSequence(code.n, code.k, w, nt_from_masks(masks, code.n))


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


def _apply_perm_to_mask(mask: int, images0: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << images0[low.bit_length() - 1]
        mask ^= low
    return out


def _witness_ok(c1: LinearCode, c2: LinearCode, images0: Sequence[int]) -> bool:
    n = c1.n
    for rb in c1.generator.row_bits:
        v = FieldVector.from_bits(_apply_perm_to_mask(rb, images0), n)
        if not c2.contains(v):
            return False
    return True


def _signature_weights(dist, cap: int = _SIGNATURE_CODEWORD_CAP) -> list[int]:
    ws: list[int] = []
    total = 0
    for w, c in dist.items():
        if w == 0:
            continue
        if ws and (total + c > cap or len(ws) == 3):
            break
        ws.append(w)
        total += c
        if total >= 4096:
            break
    return ws


def _co_occurrence(masks: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """co[j][i] = number of listed codewords covering both columns j and i."""
    cols = column_masks(masks, n)
    return tuple(tuple((cj & ci).bit_count() for ci in cols) for cj in cols)


def _refine_column_classes(cos1, cos2, n: int):
    """Iterative signature refinement (permutation-invariant at every round).

    Returns per-column class ids for both codes under a shared labelling, or
    None when the class multisets diverge (a proof of inequivalence).
    """

    def relabel(sigs1, sigs2):
        uniq = {s: i for i, s in enumerate(sorted(set(sigs1) | set(sigs2)))}
        return [uniq[s] for s in sigs1], [uniq[s] for s in sigs2]

    cls1, cls2 = relabel(
        [tuple(co[j][j] for co in cos1) for j in range(n)],
        [tuple(co[j][j] for co in cos2) for j in range(n)],
    )
    for _ in range(n):
        if sorted(cls1) != sorted(cls2):
            return None

        def round_sigs(classes, cos):
            return [
                (classes[j],)
                + tuple(
                    tuple(sorted((classes[i], co[j][i]) for i in range(n) if i != j))
                    for co in cos
                )
                for j in range(n)
            ]

        new1, new2 = relabel(round_sigs(cls1, cos1), round_sigs(cls2, cos2))
        if len(set(new1)) == len(set(cls1)):
            return new1, new2
        cls1, cls2 = new1, new2
    return cls1, cls2


def is_equivalent(c1: LinearCode, c2: LinearCode,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  threads: int = 1) -> EquivalenceResult:
    """Exact permutation-equivalence test for binary codes of equal (n, k).

    Equal weight distributions are followed by the N_t counts of the
    lightest signature weight's words, which answer "inequivalent" with 0
    nodes when they differ (as for D11 against C56.1).  Column candidates
    then come from iteratively refined incidence signatures over the few
    smallest nonzero-weight codeword sets; backtracking prunes by
    pairwise co-occurrence counts.  All filters are permutation invariants,
    so exhausting the search space proves inequivalence, and every positive
    answer is re-verified by mapping a generator through the witness.  Codes
    whose low-weight codewords form designs (flat counts at every order, as
    for the [24,12,8] code) defeat counting-based pruning; those runs exhaust
    the node budget and come back "unknown".
    """
    if not c1.field.binary or not c2.field.binary:
        raise UnsupportedFieldError("equivalence test implemented for binary codes")
    if (c1.n, c1.k) != (c2.n, c2.k):
        raise DimensionError("codes must share (n, k)")
    n = c1.n
    if same_code(c1, c2):  # also every pair of zero codes
        return EquivalenceResult("equivalent", tuple(range(1, n + 1)), 0)

    _, d1, words1, _ = _scan(c1, threads=threads)
    _, d2, words2, _ = _scan(c2, threads=threads)
    if d1.counts != d2.counts:
        return EquivalenceResult("inequivalent", None, 0)

    ws = _signature_weights(d1)  # ws[0] is the minimum weight d
    masks1 = [words1] + [codeword_masks_of_weight(c1, w, threads=threads) for w in ws[1:]]
    masks2 = [words2] + [codeword_masks_of_weight(c2, w, threads=threads) for w in ws[1:]]
    if nt_from_masks(masks1[0], n) != nt_from_masks(masks2[0], n):
        return EquivalenceResult("inequivalent", None, 0)
    cos1 = [_co_occurrence(m, n) for m in masks1]
    cos2 = [_co_occurrence(m, n) for m in masks2]

    refined = _refine_column_classes(cos1, cos2, n)
    if refined is None:
        return EquivalenceResult("inequivalent", None, 0)
    cls1, cls2 = refined

    cands = {j: [h for h in range(n) if cls2[h] == cls1[j]] for j in range(n)}
    order = sorted(range(n), key=lambda j: (len(cands[j]), j))
    images = [-1] * n
    used = [False] * n
    nodes = 0

    def backtrack(pos: int) -> str | None:
        nonlocal nodes
        if pos == n:
            if _witness_ok(c1, c2, images):
                return "found"
            return None
        j = order[pos]
        rows_a = [co[j] for co in cos1]
        for h in cands[j]:
            if used[h]:
                continue
            nodes += 1
            if nodes > node_budget:
                return "budget"
            ok = True
            for q in range(pos):
                i = order[q]
                hi = images[i]
                for row_a, co_b in zip(rows_a, cos2):
                    if row_a[i] != co_b[h][hi]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            images[j] = h
            used[h] = True
            res = backtrack(pos + 1)
            if res is not None:
                return res
            images[j] = -1
            used[h] = False
        return None

    outcome = backtrack(0)
    if outcome == "found":
        # convert the functional map j -> images[j] to source-order form
        inv = [0] * n
        for j in range(n):
            inv[images[j]] = j + 1
        return EquivalenceResult("equivalent", tuple(inv), nodes)
    if outcome == "budget":
        return EquivalenceResult("unknown", None, nodes)
    return EquivalenceResult("inequivalent", None, nodes)
