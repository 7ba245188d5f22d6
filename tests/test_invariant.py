import hashlib
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullkit import (
    GF2,
    DimensionError,
    FieldMatrix,
    LinearCode,
    apply_column_permutation,
    inequivalent_by_invariant,
    is_equivalent,
    nt_sequence,
    same_code,
    transform_code,
)
from hullkit.artifacts import CIRCULANT_SEED_NAMES, PAIR_SEED, load_a_block_code, load_pair, load_seed, seed_store
from hullkit import invariant
from hullkit.invariant import (
    _cover,
    _incidence,
    _key_dtype,
    _pair_counts,
    _relabel,
    _through,
    _through_words,
    nt_from_masks,
)
from hullkit.minweight import _packed_rows, codeword_masks_of_weight
from hullkit.search import SEARCH_NODE_BUDGET

from conftest import (
    _callers,
    _writers,
    bordered_golay,
    column_masks,
    equivalent_brute_force,
    equivalent_by_columns,
    extended_hamming,
    nt_counts_naive,
    nt_masks_naive,
    random_code,
    subset_cover_count,
    tied_pairs,
)


def _slice(cover, a, n):
    """(n, C(n,2)) int32 array: entry [j, {i < h}] is the cover count of
    {a, j, i, h}, or -1 when the four columns are not distinct: the counts
    ``invariant._through`` gathers, read through its table."""
    return _through(cover, a, n).take(invariant._slice_tables(n)[0])


def random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def test_nt_empty_when_no_codewords_of_weight():
    ham = extended_hamming()
    seq = nt_sequence(ham, 3)
    assert seq.counts == {}
    assert seq.sequence == (0,) * 8
    assert seq.zero_subsets() == comb(8, 4)


def test_nt_extended_hamming_against_naive_oracle():
    ham = extended_hamming()
    seq = nt_sequence(ham, 4)
    assert dict(seq.counts) == nt_counts_naive(ham, 4)
    assert seq.covered_subsets() + seq.zero_subsets() == comb(8, 4)
    # w = 8 is not d = 4: the words come from the fixed-weight walk
    assert dict(nt_sequence(ham, 8).counts) == nt_counts_naive(ham, 8) == {1: comb(8, 4)}


def test_nt_matches_naive_on_random_small_codes():
    rng = random.Random(109)
    for _ in range(12):
        n = rng.randint(6, 12)
        k = rng.randint(2, min(6, n - 1))
        c = random_code(rng, GF2, n, k)
        w = min(w for w in range(1, n + 1) if codeword_masks_of_weight(c, w))
        assert dict(nt_sequence(c, w).counts) == nt_counts_naive(c, w)


def test_nt_permutation_invariance_small():
    rng = random.Random(113)
    for _ in range(50):
        n = rng.randint(6, 10)
        c = random_code(rng, GF2, n, rng.randint(2, 5))
        w = min(w for w in range(1, n + 1) if codeword_masks_of_weight(c, w))
        perm = random_perm(rng, n)
        assert nt_sequence(c, w).counts == nt_sequence(
            apply_column_permutation(c, perm), w
        ).counts


def test_subset_cover_helpers():
    # bit i of a mask is coordinate i; bit j of a column mask is codeword j
    masks = [0b0111, 0b1011]
    cols = column_masks(masks, 4)
    assert cols == [0b11, 0b11, 0b01, 0b10]
    assert subset_cover_count(cols, (0, 1)) == 2
    assert subset_cover_count(cols, (2, 3)) == 0
    # [5,2] code spanned by 11110 and 01111: its weight-4 words are the two
    # rows, each covering one column 4-subset of its own
    code = LinearCode(FieldMatrix(GF2, [[1, 1, 1, 1, 0], [0, 1, 1, 1, 1]]))
    masks = codeword_masks_of_weight(code, 4)
    assert sorted(masks) == [0b01111, 0b11110]
    cols = column_masks(masks, 5)
    assert subset_cover_count(cols, (0, 1, 2, 3)) == 1
    assert subset_cover_count(cols, (0, 1, 2, 4)) == 0
    assert nt_from_masks(_packed_rows(masks, 5), 5) == nt_counts_naive(code, 4) == {1: 2}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nt_from_masks_matches_the_subset_loop(data):
    # mixed weights, lengths past one 64-bit word, and the empty list
    n = data.draw(st.integers(4, 80))
    supports = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), max_size=min(n, 12)), max_size=30))
    masks = [sum(1 << j for j in support) for support in supports]
    assert nt_from_masks(_packed_rows(masks, n), n) == nt_masks_naive(masks, n)


def colex_rank(subset) -> int:
    return sum(comb(j, q + 1) for q, j in enumerate(sorted(subset)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_matches_a_colex_indexed_loop(data):
    # rank by rank, so a kernel that permuted ranks would fail; weights
    # below 4, duplicate masks and the empty list included
    n = data.draw(st.integers(4, 80))
    supports = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), max_size=min(n, 12)), max_size=30))
    masks = [sum(1 << j for j in support) for support in supports]
    if masks:
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=10))
    expected = np.zeros(comb(n, 4), dtype=np.int64)
    for m in masks:
        for subset in combinations([j for j in range(n) if m >> j & 1], 4):
            expected[colex_rank(subset)] += 1
    cover = _cover(_incidence(_packed_rows(masks, n), n))
    assert cover.shape == expected.shape
    assert np.array_equal(cover, expected)


@pytest.mark.parametrize("copies", [255, 256, 65535, 65536])
def test_cover_counts_do_not_wrap_at_the_accumulator_width(copies):
    assert nt_from_masks(_packed_rows([0b011110] * copies, 6), 6) == {copies: 1}


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
def test_slice_marks_repeated_columns_in_any_cover_dtype(dtype):
    n = 9
    rng = random.Random(131)
    masks = [rng.getrandbits(n) for _ in range(40)]
    cover = _cover(_incidence(_packed_rows(masks, n), n)).astype(dtype)
    pairs = list(combinations(range(n), 2))
    for a in range(n):
        s = _slice(cover, a, n)
        assert s.dtype == np.int32 and s.shape == (n, len(pairs))
        for j in range(n):
            for col, (i, h) in enumerate(pairs):
                subset = {a, j, i, h}
                want = int(cover[colex_rank(subset)]) if len(subset) == 4 else -1
                assert s[j, col] == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slice_counts_every_entry_directly(data):
    # every entry of every column's slice against the number of masks that
    # contain {a, j, i, h}, counted on the masks' bits, not read from a cover
    n = data.draw(st.integers(3, 40))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]))
    cover = _cover(_incidence(_packed_rows(masks, n), n)).astype(dtype)
    bits = np.array([[m >> c & 1 for c in range(n)] for m in masks], dtype=np.int64).reshape(-1, n)
    i, h = np.triu_indices(n, 1)
    j = np.arange(n)[:, None]
    for a in range(n):
        through = bits[bits[:, a] == 1]
        want = through.T @ (through[:, i] * through[:, h])  # [j, {i, h}]: masks holding a, j, i and h
        repeated = (j == a) | (j == i) | (j == h) | (i == a) | (h == a)
        s = _slice(cover, a, n)
        assert s.dtype == np.int32 and s.shape == (n, len(i))
        assert np.array_equal(s, np.where(repeated, -1, want))


def _assert_slices_from_words_match_the_cover(bits):
    n = bits.shape[1]
    cover = _cover(bits)
    for a in range(n):
        got, want = _through_words(bits, a), _through(cover, a, n)
        assert got.dtype == np.int32 and got.shape == want.shape == (comb(n, 3) + 1,)
        assert np.array_equal(got, want), a
        # -1 marks each of the C(n-1,2) 3-subsets through a, and the sentinel
        assert np.count_nonzero(got == -1) == comb(n - 1, 2) + 1


def test_slices_from_words_match_the_cover_on_bundled_codes():
    # every column of the six extremal seeds and the three bundled LCD outputs
    outputs = {pair: transform_code(load_a_block_code(seed), load_pair(pair)) for pair, seed in PAIR_SEED.items()}
    codes = {name: load_seed(name) for name in CIRCULANT_SEED_NAMES} | outputs
    for name, code in codes.items():
        _assert_slices_from_words_match_the_cover(_incidence(invariant._certificate(code)[0].words, code.n))
    # past one 64-bit word, with four columns that no word holds
    rng = random.Random(181)
    masks = [sum(1 << j for j in rng.sample(range(66), 7)) for _ in range(40)]
    _assert_slices_from_words_match_the_cover(_incidence(_packed_rows(masks, 70), 70))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slices_from_words_match_the_cover_on_one_weight_words(data):
    # lengths past one 64-bit word, weights below 4, repeated masks, and
    # columns that no word holds (all of them when there is no word)
    n = data.draw(st.integers(4, 80))
    w = data.draw(st.integers(1, min(n, 12)))
    supports = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True),
                                  max_size=25))
    masks = [sum(1 << j for j in support) for support in supports]
    bits = _incidence(_packed_rows(masks, n), n)
    _assert_slices_from_words_match_the_cover(bits)


def test_each_first_code_slice_is_counted_once_per_decision(monkeypatch):
    rng = random.Random(35)
    code = random_code(rng, GF2, 18, 5)
    # this [18,5] code backtracks over 401 nodes and asks for the slices of
    # 9 first-code columns 182 times; a permuted D11 asks twice
    pairs = [_permuted_seed("D11"), (code, apply_column_permutation(code, random_perm(rng, 18)))]
    seen, results = [], []

    def counted(bits, a):
        seen[-1].append(a)
        return _through_words(bits, a)

    monkeypatch.setattr(invariant, "_through_words", counted)
    for c1, c2 in pairs:
        seen.append([])
        results.append(is_equivalent(c1, c2, node_budget=SEARCH_NODE_BUDGET))
    assert (results[0].nodes, hashlib.sha256(bytes(results[0].witness)).hexdigest()) == PERMUTED_SEED_PATHS["D11"]
    assert results[1].verdict == "equivalent" and results[1].nodes == 401
    assert [len(cols) for cols in seen] == [2, 9]
    assert all(len(cols) == len(set(cols)) for cols in seen)


def test_nt_sequence_needs_a_weight_from_1_to_n():
    # w = 0 counted only the zero word and w = n + 1 none, both as all zeros
    code = load_a_block_code("a40226")
    for w in (0, code.n + 1, -1):
        with pytest.raises(ValueError, match=f"weight must be in 1..40, got {w}"):
            nt_sequence(code, w)
    assert nt_sequence(code, code.n).weight == code.n


def test_nt_sequence_runs_past_n_when_counts_do():
    # each 4-subset of the [24,12,8] code lies in 120 of its 2576 weight-12 words
    seq = nt_sequence(bordered_golay(), 12)
    assert seq.counts == {120: 10626}
    assert seq.sequence == (0,) * 119 + (10626,)
    assert seq.to_jsonable() == list(seq.sequence)
    # counts at t <= n keep the length-n vector
    assert len(nt_sequence(extended_hamming(), 4).sequence) == 8


def test_d11_and_c56_sequences_differ():
    d11 = load_seed("D11")
    s1 = nt_sequence(d11, 12)
    for other_name in ("C56.1", "C56.2"):
        other = load_seed(other_name)
        s2 = nt_sequence(other, 12)
        assert s1.counts != s2.counts
        cert = inequivalent_by_invariant(d11, other, 12)
        assert cert is not None
        assert s1.counts.get(cert, 0) != s2.counts.get(cert, 0)


def test_invariant_inconclusive_cases():
    ham = extended_hamming()
    rng = random.Random(127)
    permuted = apply_column_permutation(ham, random_perm(rng, 8))
    assert inequivalent_by_invariant(ham, permuted, 4) is None
    assert inequivalent_by_invariant(ham, ham, 4) is None
    with pytest.raises(DimensionError):
        inequivalent_by_invariant(ham, random_code(rng, GF2, 8, 3), 4)


def test_equivalence_reflexive_identity_witness():
    ham = extended_hamming()
    res = is_equivalent(ham, ham)
    assert res.verdict == "equivalent"
    assert res.witness == tuple(range(1, 9))


def hamming_7_4():
    return LinearCode(FieldMatrix(GF2, [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ], cols=7))


def test_equivalence_recovers_permutation():
    rng = random.Random(131)
    ham = hamming_7_4()
    for _ in range(5):
        perm = random_perm(rng, 7)
        permuted = apply_column_permutation(ham, perm)
        res = is_equivalent(ham, permuted)
        assert res.verdict == "equivalent"
        # witness soundness: applying it maps the first code onto the second
        assert same_code(apply_column_permutation(ham, res.witness), permuted)


def test_equivalence_distribution_prefilter():
    c1 = LinearCode(FieldMatrix(GF2, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]], cols=6))
    c2 = LinearCode(FieldMatrix(GF2, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 1, 0, 0]], cols=6))
    res = is_equivalent(c1, c2)
    assert res.verdict == "inequivalent"
    assert not equivalent_brute_force(c1, c2)


def test_equivalence_agrees_with_brute_force():
    rng = random.Random(137)
    checked = 0
    for n in (6, 7, 8):
        for _ in range(8):
            k = rng.randint(2, min(4, n - 2))
            c1 = random_code(rng, GF2, n, k)
            if rng.random() < 0.5:
                c2 = apply_column_permutation(c1, random_perm(rng, n))
                expected = True
            else:
                c2 = random_code(rng, GF2, n, k)
                expected = equivalent_brute_force(c1, c2)
            res = is_equivalent(c1, c2)
            assert res.verdict in ("equivalent", "inequivalent")
            assert (res.verdict == "equivalent") == expected
            if res.witness is not None:
                assert same_code(apply_column_permutation(c1, res.witness), c2)
            checked += 1
    assert checked == 24


def test_equivalence_agrees_with_brute_force_where_invariants_tie():
    rng = random.Random(157)
    ties = list(tied_pairs(rng, 400, [(n, k) for n in (6, 7, 8) for k in range(2, n - 1)]))
    assert ties
    for c1, c2, res in ties:
        assert res.verdict == "inequivalent"
        assert not equivalent_brute_force(c1, c2)


def test_equivalence_proves_inequivalence_by_exhausting_the_search():
    # at n <= 8 the refinement before the first node splits every tie seen;
    # at n = 9, 10 some ties need the whole search tree
    rng = random.Random(3)
    for c1, c2, res in tied_pairs(rng, 2000, [(9, 3), (9, 4), (10, 3), (10, 4)]):
        assert res.verdict == "inequivalent"
        assert not equivalent_by_columns(c1, c2)
        if res.nodes:
            break
    else:
        pytest.fail("no tie needed the search")


def test_equivalence_budget_exhaustion_returns_unknown():
    # this pair needs two nodes: one short of them, the budget alone stops
    # the search, and the next node past the budget is counted
    rng = random.Random(139)
    c1 = random_code(rng, GF2, 10, 5)
    c2 = apply_column_permutation(c1, random_perm(rng, 10))
    res = is_equivalent(c1, c2, node_budget=1)
    assert (res.verdict, res.witness, res.nodes) == ("unknown", None, 2)
    res = is_equivalent(c1, c2, node_budget=2)
    assert res.verdict == "equivalent" and res.nodes == 2
    assert same_code(apply_column_permutation(c1, res.witness), c2)


def test_equivalence_on_column_transitive_code():
    # every column looks alike in the [8,4] code (its weight-4 words form a
    # 3-design), so pair counts cannot split the columns; the 4-subset cover
    # counts through an individualized column can
    rng = random.Random(149)
    ham = extended_hamming()
    permuted = apply_column_permutation(ham, random_perm(rng, 8))
    res = is_equivalent(ham, permuted)
    assert res.verdict == "equivalent"
    assert same_code(apply_column_permutation(ham, res.witness), permuted)


def test_equivalence_design_structured_code_exhausts_budget():
    # the [24,12,8] code's weight-8 words form a 5-design: counting-based
    # pruning is flat at every order, so the verdict degrades to "unknown"
    # rather than ever guessing
    from hullkit import FieldVector, GF2
    from hullkit.circulant import CirculantSpec, bordered_double_circulant

    rng = random.Random(151)
    row = FieldVector(GF2, [1 if i in {0, 1, 3, 4, 5, 9} else 0 for i in range(11)])
    golay = bordered_double_circulant(CirculantSpec(row))
    permuted = apply_column_permutation(golay, random_perm(rng, 24))
    res = is_equivalent(golay, permuted, node_budget=50_000)
    assert res.verdict == "unknown"
    assert res.nodes > 50_000


def test_a_flat_search_builds_no_cover(monkeypatch):
    # the [24,12,8] code's cover is constant, so its search reads no slice:
    # a decision on certified objects builds no cover of the second code
    golay = bordered_golay()
    permuted = apply_column_permutation(golay, random_perm(random.Random(151), 24))
    calls = _count_scans_and_covers(monkeypatch)
    first = is_equivalent(golay, permuted, node_budget=10)
    assert calls == {"scan": 2, "cover": 2}  # one per certificate
    calls.update(scan=0, cover=0)
    again = is_equivalent(golay, permuted, node_budget=10)
    assert (again.verdict, again.nodes) == (first.verdict, first.nodes) == ("unknown", 11)
    assert calls == {"scan": 0, "cover": 0}


def test_equivalence_separates_d11_from_c56_1_by_nt():
    # weight-12 words of both codes form 3-designs, so column signatures
    # cannot split them; their N_t counts differ and settle it at once
    res = is_equivalent(load_seed("D11"), load_seed("C56.1"), node_budget=50_000, threads=2)
    assert res.verdict == "inequivalent"
    assert res.nodes == 0 and res.witness is None


# (nodes, SHA-256 of the witness's bytes) for each seed's permuted copy:
# a faster search must visit the same nodes and find the same witness
PERMUTED_SEED_PATHS = {
    "D11": (6, "54c0e758017583ebf9047186269a2397845643ab2d013c1cbb73636b3e57c1e9"),
    "C56.1": (27, "367952016c0cefd5378a557fb8a4e96f43b26c88170448a4839dd65b73642b38"),
    "C56.2": (26, "a47cce102a2295fc47216f4060e9e5db9ab8c6cd69884039c099f967cd716947"),
    "C56.3": (4, "e16ad0a4cacc136db750b02821188912c8229b1940ab20f282c8b681e88850f7"),
    "C56.4": (25, "f4c37e61e0c2a4e0b560435b01605f365be00a0e49afb42922141ef17b764419"),
    "C56.5": (5, "b2bba5b36b6314fdaca8bc2b3f2e93c6312a90fe3e30722225f3ee34dbdeaf36"),
}


@pytest.mark.parametrize("name", CIRCULANT_SEED_NAMES)
def test_equivalence_answers_permuted_extremal_seeds(name):
    # the weight-12 words form a 3-design, so pair and triple counts are
    # flat; the 4-subset cover counts through an individualized column are not
    seed = load_seed(name)
    permuted = apply_column_permutation(seed, random_perm(random.Random(name), seed.n))
    res = is_equivalent(seed, permuted, node_budget=SEARCH_NODE_BUDGET)
    assert res.verdict == "equivalent" and res.nodes <= SEARCH_NODE_BUDGET
    assert same_code(apply_column_permutation(seed, res.witness), permuted)
    assert (res.nodes, hashlib.sha256(bytes(res.witness)).hexdigest()) == PERMUTED_SEED_PATHS[name]


@pytest.mark.parametrize("c, reach, dtype", [
    (1 << 10, 1 << 11, np.int64),  # c^2 * reach = 2^31
    (1 << 10, (1 << 11) - 1, np.int32),
    (46341, 1, np.int64),  # 46341^2 > 2^31 > 46340^2
    (46340, 1, np.int32),
    (57, 30, np.int32),
])
def test_slice_keys_are_int32_exactly_when_every_key_fits(c, reach, dtype):
    # the keys run from -1 (colours 0, 0 and s = -1) to (c^2 - 1) * reach + reach - 2
    assert _key_dtype(c, reach) is dtype
    largest = (c * c - 1) * reach + reach - 2
    assert np.iinfo(dtype).min <= -1 and largest <= np.iinfo(dtype).max


def test_refine_colours_the_same_on_int32_and_int64_keys(monkeypatch):
    rng = random.Random(139)
    small = random_code(rng, GF2, 10, 5)
    ham = extended_hamming()
    pairs = [(small, apply_column_permutation(small, random_perm(rng, 10))),
             (ham, apply_column_permutation(ham, random_perm(rng, 8)))]

    def run(key_dtype):
        calls, dtypes = [], []
        refine = invariant._Search.refine

        def recorded(self, cols, slices):
            out = refine(self, cols, slices)
            calls.append((cols.tolist(), len(slices), None if out is None else out.tolist()))
            return out

        def chosen(c, reach):
            dtypes.append(key_dtype(c, reach))
            return dtypes[-1]

        monkeypatch.setattr(invariant._Search, "refine", recorded)
        monkeypatch.setattr(invariant, "_key_dtype", chosen)
        results = [is_equivalent(c1, c2) for c1, c2 in pairs]
        monkeypatch.undo()
        return calls, set(dtypes), [(r.verdict, r.nodes, r.witness) for r in results]

    calls32, dtypes32, results32 = run(_key_dtype)
    calls64, dtypes64, results64 = run(lambda c, reach: np.int64)
    assert dtypes32 == {np.int32} and dtypes64 == {np.int64}
    assert any(depth for _, depth, _ in calls32)  # slices were keyed
    assert calls32 == calls64 and results32 == results64
    assert all(verdict == "equivalent" for verdict, _, _ in results32)


def _extend_refining_every_try(turned_down):
    """``_Search.extend`` without its cover-histogram check: every tried
    pair (a, b) is refined.  For each try whose cover counts through a and
    through b have different histograms, read here off the slices (each
    4-subset through a column lies three times in its slice), ``refine``'s
    answer goes to ``turned_down``."""

    def extend(self, cols, slices):
        n = cols.shape[1]
        sizes = np.bincount(cols[0])
        if sizes.max() == 1:
            images = np.argsort(cols[1])[cols[0]]
            return images if invariant._witness_ok(*self.codes, images.tolist()) else None
        cell = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        a = int(np.argmax(cols[0] == cell))
        lead = None if self.flat else _through_words(self.bits, a).take(invariant._slice_tables(n)[0])
        for b in np.flatnonzero(cols[1] == cell).tolist():
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise invariant._BudgetSpent
            tried = cols.copy()
            tried[0, a] = tried[1, b] = len(sizes)
            deeper = slices if self.flat else slices + [np.stack([lead, _slice(self.cover, b, n)])]
            refined = self.refine(tried, deeper)
            if not self.flat:
                through = [np.bincount(s[s >= 0], minlength=self.reach) for s in deeper[-1]]
                if not np.array_equal(*through):
                    turned_down.append(refined)
            found = None if refined is None else self.extend(refined, deeper)
            if found is not None:
                return found
        return None

    return extend


def _decisions(monkeypatch, pairs):
    """(verdict, nodes, witness) of each decision at the search budget, and
    its number of ``refine`` calls."""
    refine, calls, results = invariant._Search.refine, [], []

    def counted(self, cols, slices):
        calls[-1] += 1
        return refine(self, cols, slices)

    with monkeypatch.context() as m:
        m.setattr(invariant._Search, "refine", counted)
        for c1, c2 in pairs:
            calls.append(0)
            res = is_equivalent(c1, c2, node_budget=SEARCH_NODE_BUDGET)
            results.append((res.verdict, res.nodes, res.witness))
    return results, calls


def _assert_the_check_is_exact(monkeypatch, pairs):
    """Same verdicts, nodes and witnesses with the check as without it; the
    check saves exactly the ``refine`` calls of the tries it turns down,
    and ``refine`` would have turned down every one of them.  Returns the
    number of tries turned down."""
    results, calls = _decisions(monkeypatch, pairs)
    turned_down = []
    with monkeypatch.context() as m:
        m.setattr(invariant._Search, "extend", _extend_refining_every_try(turned_down))
        oracle, oracle_calls = _decisions(monkeypatch, pairs)
    assert results == oracle
    assert all(refined is None for refined in turned_down)
    assert sum(oracle_calls) - sum(calls) == len(turned_down)
    return len(turned_down)


def _permuted_seed(name):
    seed = load_seed(name)
    return seed, apply_column_permutation(seed, random_perm(random.Random(name), seed.n))


def test_the_cover_histogram_check_is_exact_on_permuted_seeds(monkeypatch):
    # the weight-12 words form 3-designs: the root has one colour class, and
    # at depth 1 most columns' cover counts differ from the individualized one's
    assert _assert_the_check_is_exact(monkeypatch, [_permuted_seed(name) for name in CIRCULANT_SEED_NAMES])


def test_the_cover_histogram_check_is_exact_on_small_codes(monkeypatch):
    rng = random.Random(149)
    ham = extended_hamming()
    pairs = [(ham, apply_column_permutation(ham, random_perm(rng, 8)))]
    rng = random.Random(163)
    for n in range(8, 17):
        for _ in range(3):
            code = random_code(rng, GF2, n, rng.randint(3, n - 3))
            pairs.append((code, apply_column_permutation(code, random_perm(rng, n))))
    # the first tie of each stream whose verdict needed the search: [9,4]
    # in 2474 nodes and [10,4] in 164
    sizes = [(9, 3), (9, 4), (10, 3), (10, 4)]
    for seed in (3, 6):
        pairs.append(next((c1, c2) for c1, c2, res in tied_pairs(random.Random(seed), 400, sizes) if res.nodes))
    # on these codes the check has turned down no try: it must not change a search it cannot shorten
    _assert_the_check_is_exact(monkeypatch, pairs)


@pytest.mark.parametrize("name", CIRCULANT_SEED_NAMES)
def test_permuted_seeds_refine_three_times(monkeypatch, name):
    # the root, one try at depth 1 and one at depth 2, which gives the
    # witness: every other try is turned down by its cover histogram
    results, calls = _decisions(monkeypatch, [_permuted_seed(name)])
    assert calls == [3]
    assert results[0][1] == PERMUTED_SEED_PATHS[name][0]


def _relabel_by_sorted_bytes(rows):
    """``invariant._relabel`` as a Python sort over each row's ``tobytes()``."""
    keys = [r.tobytes() for r in rows.reshape(rows.shape[0] * rows.shape[1], -1)]
    ids, label, last = [0] * len(keys), -1, None
    for r in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[r] != last:
            label, last = label + 1, keys[r]
        ids[r] = label
    return np.array(ids).reshape(rows.shape[:2])


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_relabel_orders_rows_by_their_bytes(dtype):
    # byte order is not numeric order (-1 sorts last, 256 before 1 in int32):
    # the ids must follow the bytes, as the search's labels always have
    rng = np.random.default_rng(173)
    for trial in range(60):
        m, width = int(rng.integers(1, 40)), int(rng.integers(1, 6)) if trial % 3 else 1
        pool = rng.integers(-1, 300, size=(int(rng.integers(1, 2 * m)), width)).astype(dtype)
        if dtype is np.float64:
            pool[pool > 0] /= 7
        rows = pool[rng.integers(0, len(pool), size=(2, m))]  # rows shared within and across both codes
        ids = _relabel(rows)
        assert ids.shape == (2, m) and ids.dtype == np.intp
        assert np.array_equal(ids, _relabel_by_sorted_bytes(rows))
    # a non-contiguous input is read by its values' bytes
    rows = rng.integers(-1, 5, size=(2, 9, 4)).astype(dtype)
    assert np.array_equal(_relabel(rows[:, :, ::2]), _relabel_by_sorted_bytes(rows[:, :, ::2]))


def test_float32_pair_counts_equal_float64_ones_on_bundled_codes():
    outputs = {pair: transform_code(load_a_block_code(seed), load_pair(pair)) for pair, seed in PAIR_SEED.items()}
    for name, code in {**seed_store(), **outputs}.items():
        bits = _incidence(invariant._certificate(code)[0].words, code.n)
        f = bits.astype(np.float64)
        counts = _pair_counts(bits)
        assert counts.dtype == np.float64, name
        assert counts.tobytes() == (f.T @ f).tobytes(), name  # so the pair classes are the same ids


def _refine_with_every_pair_signature(self, cols, slices):
    """``_Search.refine`` with the pair signature in every pass, whatever
    the pair classes."""
    if self.static:
        return cols
    n = cols.shape[1]
    i, h = np.triu_indices(n, 1)
    width = int(self.pairs.max()) + 1
    while True:
        c = int(cols.max()) + 1
        parts = [cols, _relabel(np.sort(cols[:, None, :] * width + self.pairs, axis=2))]
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


def _refinements(monkeypatch, pairs, refine):
    """Per decision at the search budget: its (verdict, nodes, witness), every
    answer ``refine`` gave it, and whether its search left the pair signature out."""
    out = []

    def recorded(self, cols, slices):
        refined = refine(self, cols, slices)
        out[-1][1].append(None if refined is None else refined.tolist())
        out[-1][2] = not self.pair_signature
        return refined

    with monkeypatch.context() as m:
        m.setattr(invariant._Search, "refine", recorded)
        for c1, c2 in pairs:
            out.append([None, [], None])
            res = is_equivalent(c1, c2, node_budget=SEARCH_NODE_BUDGET)
            out[-1][0] = (res.verdict, res.nodes, res.witness)
    return out


def test_leaving_out_a_flat_pair_signature_changes_no_label(monkeypatch):
    # the seeds' weight-12 words and the [8,4] code's words of weights 4 and 8
    # form 2-designs: one pair class on the diagonal, one off it
    pairs = [_permuted_seed(name) for name in CIRCULANT_SEED_NAMES]
    rng = random.Random(179)
    ham = extended_hamming()
    pairs += [(ham, apply_column_permutation(ham, random_perm(rng, 8))) for _ in range(3)]
    flat = len(pairs)
    for n in range(8, 15):
        code = random_code(rng, GF2, n, rng.randint(3, n - 3))
        pairs.append((code, apply_column_permutation(code, random_perm(rng, n))))
    sizes = [(9, 3), (9, 4), (10, 3), (10, 4)]  # an inequivalent [10,4] tie, searched in 164 nodes
    pairs.append(next((c1, c2) for c1, c2, res in tied_pairs(random.Random(6), 400, sizes) if res.nodes))
    got = _refinements(monkeypatch, pairs, invariant._Search.refine)
    oracle = _refinements(monkeypatch, pairs, _refine_with_every_pair_signature)
    assert [(result, answers) for result, answers, _ in got] == [(result, answers) for result, answers, _ in oracle]
    for (result, _, _), name in zip(got, CIRCULANT_SEED_NAMES):
        assert (result[1], hashlib.sha256(bytes(result[2])).hexdigest()) == PERMUTED_SEED_PATHS[name]
    left_out = [skipped for _, _, skipped in got]
    assert all(left_out[:flat]) and not any(left_out[flat:])


def _count_scans_and_covers(monkeypatch) -> dict[str, int]:
    """Counts of ``invariant._scan`` and ``invariant._cover`` calls from now on."""
    calls = {"scan": 0, "cover": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(invariant, "_scan", counting("scan", invariant._scan))
    monkeypatch.setattr(invariant, "_cover", counting("cover", invariant._cover))
    return calls


def test_a_repeated_decision_reuses_each_codes_scan_and_counts(monkeypatch):
    calls = _count_scans_and_covers(monkeypatch)
    d11, c561 = load_seed("D11"), load_seed("C56.1")
    first = is_equivalent(d11, c561)
    assert calls == {"scan": 2, "cover": 2}
    calls.update(scan=0, cover=0)
    # the kept N_t counts differ: no scan and no cover
    assert is_equivalent(d11, c561) == first == invariant.EquivalenceResult("inequivalent", None, 0)
    assert calls == {"scan": 0, "cover": 0}
    permuted = apply_column_permutation(d11, random_perm(random.Random("D11"), d11.n))
    first = is_equivalent(d11, permuted)
    assert calls == {"scan": 1, "cover": 1}
    calls.update(scan=0, cover=0)
    # equal counts: the second code's cover is built again, the first code's
    # slices come from its words, and the search takes the same path
    assert is_equivalent(d11, permuted) == first
    assert calls == {"scan": 0, "cover": 1}
    assert (first.nodes, hashlib.sha256(bytes(first.witness)).hexdigest()) == PERMUTED_SEED_PATHS["D11"]


def test_nt_sequences_then_their_comparison_build_one_cover_per_code(monkeypatch):
    # the order of demos/04_inequivalence_search.py
    calls = _count_scans_and_covers(monkeypatch)
    d11, c561 = load_seed("D11"), load_seed("C56.1")
    s1, s2 = nt_sequence(d11, 12), nt_sequence(c561, 12)
    assert inequivalent_by_invariant(d11, c561, 12) is not None
    assert calls == {"scan": 2, "cover": 2}
    assert nt_sequence(d11, 12) == s1 and nt_sequence(c561) == s2
    assert calls == {"scan": 2, "cover": 2}


def test_facts_follow_the_code_object_not_its_content(monkeypatch):
    calls = _count_scans_and_covers(monkeypatch)
    d11 = load_seed("D11")
    assert d11._facts is None
    # an aborted screen keeps nothing
    assert invariant._certificate(d11, abort_below=13) is None and d11._facts is None
    assert calls["scan"] == 1
    assert invariant._certificate(d11)[0].d == 12 and d11._facts is not None
    assert invariant._certificate(d11, abort_below=13) is None and calls["scan"] == 2
    # the same generator in a new object is certified anew
    twin = LinearCode(d11.generator)
    assert twin._facts is None and same_code(twin, d11)
    assert invariant._certificate(twin)[0].d == 12 and calls["scan"] == 3


def test_equal_codes_are_decided_before_either_is_scanned(monkeypatch):
    calls = _count_scans_and_covers(monkeypatch)
    c = load_seed("C56.1")
    twin = LinearCode(c.generator)
    assert twin is not c and c._facts is None and twin._facts is None
    assert is_equivalent(c, twin) == invariant.EquivalenceResult("equivalent", tuple(range(1, 57)), 0)
    assert calls == {"scan": 0, "cover": 0}
    assert c._facts is None and twin._facts is None


def test_only_the_certificate_scans_and_keeps_facts():
    # one writer of LinearCode._facts, so every kept certificate has one shape
    assert [c for c in _callers("_scan") if not c.startswith("minweight.")] == ["invariant._certificate"]
    assert _writers("_facts") == ["code.LinearCode.__init__", "invariant._certificate"]


def test_a_kept_certificate_answers_the_screen_as_the_scan_does():
    # the six seeds and three LCD codes, the LCD codes' bundled outputs, and a code with no nonzero word
    codes = {**seed_store(), "zero": LinearCode(FieldMatrix.from_bit_rows([], 6))}
    codes |= {pair: transform_code(load_a_block_code(seed), load_pair(pair)) for pair, seed in PAIR_SEED.items()}
    for name, code in codes.items():
        fresh, cover = invariant._certificate(code)
        assert fresh is code._facts, name
        # whole when it is made: the counts of a cover built anew from its words
        want = _cover(_incidence(fresh.words, code.n))
        assert np.array_equal(cover, want) and np.array_equal(fresh.nt, np.bincount(want)), name
        assert not fresh.nt.flags.writeable, name
        for abort_below in (None, 1, 4, fresh.d - 1, fresh.d, fresh.d + 1, code.n + 1, code.n + 2):
            kept = invariant._certificate(code, abort_below)
            twin = LinearCode(code.generator)
            d, dist, words, aborted = invariant._scan(twin, abort_below)
            assert (kept is None) == aborted, (name, abort_below)
            if kept is not None:
                assert kept[1] is None and (kept[0].d, kept[0].distribution) == (d, dist), (name, abort_below)
                assert np.array_equal(kept[0].words, words), (name, abort_below)
            else:  # an aborted screen keeps nothing
                assert invariant._certificate(twin, abort_below) is None and twin._facts is None, (name, abort_below)


def test_nothing_kept_is_handed_out_mutable():
    d11, c561 = load_seed("D11"), load_seed("C56.1")
    seq = nt_sequence(d11)
    expected = dict(seq.counts)
    seq.counts[1] = seq.counts.get(1, 0) + 1
    seq.counts.clear()
    assert nt_sequence(d11).counts == expected
    assert is_equivalent(d11, c561).verdict == "inequivalent"
    d, dist, words, nt = d11._facts
    for array in (words, nt):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert nt.tolist() == [comb(56, 4) - sum(expected.values())] + [expected.get(t, 0) for t in range(1, len(nt))]


def test_a_certified_code_holds_no_cover():
    d11, permuted = _permuted_seed("D11")
    assert is_equivalent(d11, permuted)
    for code in (d11, permuted):
        d, dist, words, nt = code._facts
        assert (d, len(words)) == (12, 8190) and words.nbytes == 65_520
        assert len(nt) < 100 and all(not isinstance(f, np.ndarray) or len(f) < comb(56, 4) for f in code._facts)
