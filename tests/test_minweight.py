import os
import random
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullkit
from hullkit import (
    GF2,
    CapacityError,
    FieldMatrix,
    FieldVector,
    LinearCode,
    PostconditionError,
    TransformPair,
    codeword_masks_of_weight,
    codewords_of_weight,
    fingerprint_code,
    is_doubly_even,
    is_equivalent,
    lcd_improve,
    make_yi,
    min_weight,
    nt_sequence,
    replay,
    sampled_x,
    standard_form,
    transform_code,
    weight_distribution,
)
from hullkit.artifacts import CIRCULANT_SEED_NAMES, load_a_block_code, load_pair, load_seed
from hullkit.cli import main
from hullkit.code import apply_column_permutation
from hullkit.minweight import (
    _PROBE_ROWS,
    _gleason_distribution,
    _next_level,
    _packed_rows,
    _scan,
    _scan_binary,
    _scan_generic,
    _scan_range,
    _two_set_rows,
    _words,
)
from hullkit.invariant import nt_from_masks
from hullkit.search import _digest

from conftest import (
    GF3,
    GF5,
    GLEASON_56_EXTREMAL,
    _callers,
    bordered_golay,
    direct_sum,
    enumerate_codewords_naive,
    extended_hamming,
    random_code,
    random_de_safe_pair,
    walked_distribution,
    weight_distribution_naive,
)


def test_gleason_oracle_recomputes():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    g1 = x**8 + 14 * x**4 * y**4 + y**8
    g2 = x**4 * y**4 * (x**4 - y**4) ** 4
    a0, a1, a2 = sympy.symbols("a0 a1 a2")
    poly = sympy.Poly(sympy.expand(a0 * g1**7 + a1 * g1**4 * g2 + a2 * g1 * g2**2), x, y)

    def coeff(w):
        return poly.coeff_monomial(x ** (56 - w) * y**w)

    sol = sympy.solve([coeff(0) - 1, coeff(4), coeff(8)], [a0, a1, a2])
    final = sympy.Poly(sympy.expand(poly.as_expr().subs(sol)), x, y)
    table = {
        w: int(final.coeff_monomial(x ** (56 - w) * y**w)) for w in range(0, 57, 4)
    }
    assert {w: c for w, c in table.items() if c} == GLEASON_56_EXTREMAL


def test_min_weight_extended_hamming():
    assert min_weight(extended_hamming()) == 4


def test_min_weight_rejects_zero_code():
    from hullkit import dual

    full = LinearCode(FieldMatrix.identity(GF2, 3))
    with pytest.raises(ValueError):
        min_weight(dual(full))


def test_weight_distribution_examples():
    rep = LinearCode(FieldMatrix(GF2, [[1, 1]], cols=2))
    assert dict(weight_distribution(rep).counts) == {0: 1, 2: 1}
    ham = weight_distribution(extended_hamming())
    assert dict(ham.counts) == {0: 1, 4: 14, 8: 1}


def test_distribution_matches_naive_oracle_on_random_codes():
    rng = random.Random(101)
    for field in (GF2, GF3, GF5):
        for _ in range(10):
            n = rng.randint(3, 9)
            k = rng.randint(1, min(5, n))
            c = random_code(rng, field, n, k)
            fast = dict(weight_distribution(c).counts)
            assert fast == weight_distribution_naive(c)
            assert weight_distribution(c).total() == field.p**k
            assert min_weight(c) == min(w for w in fast if w > 0)


def test_d11_distribution_is_the_gleason_enumerator():
    d11 = load_seed("D11")
    dist = walked_distribution(d11)
    assert dict(dist.counts) == GLEASON_56_EXTREMAL
    assert dist[12] == 8190
    assert min_weight(d11) == 12


def test_threaded_scan_matches_single_threaded(monkeypatch):
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)  # so that a37225 (k = 22) threads
    d11 = load_seed("D11")
    assert dict(walked_distribution(d11, threads=2).counts) == GLEASON_56_EXTREMAL
    code = load_a_block_code("a37225")
    assert min_weight(code, threads=2) == min_weight(code) == 5


def test_doubly_even_distribution_sanity():
    for name in ("D11", "C56.2"):
        dist = walked_distribution(load_seed(name))
        assert all(w % 4 == 0 for w in dist.counts)
        assert dist[56] in (0, 1)


def test_lcd_code_min_weights():
    for name, d in [("a37225", 5), ("a381310", 10), ("a40226", 6)]:
        assert min_weight(load_a_block_code(name)) == d


def test_abort_above_screens_low_weight():
    code = load_a_block_code("a37225")  # d = 5
    got = min_weight(code, abort_above=6)
    assert got < 6  # early verdict: d < 6 (value is a witness weight)
    assert min_weight(code, abort_above=5) == 5  # completes, exact


def test_gf3_abort_above_stops_at_a_lighter_word():
    # 3^10 words are four chunks: the first chunk holding a word lighter than
    # the bound ends the scan, with the least weight seen so far
    code = random_code(random.Random(113), GF3, 14, 10)
    d = min_weight(code)
    assert _scan_generic(code, abort_below=d + 1) == (d, None, True)
    best, dist, aborted = _scan_generic(code, abort_below=d)
    assert (best, aborted, int(dist.sum())) == (d, False, 3**10)
    assert d <= min_weight(code, abort_above=code.n + 1) <= code.n


def test_capacity_errors_name_limits():
    big = LinearCode(FieldMatrix.identity(GF2, 31))
    with pytest.raises(CapacityError, match="k <= 30"):
        min_weight(big)
    gf3_big = LinearCode(FieldMatrix.identity(GF3, 13))
    with pytest.raises(CapacityError, match="k <= 12"):
        min_weight(gf3_big)
    with pytest.raises(CapacityError, match="non-binary"):  # fixed-weight enumeration is GF(2) only
        codeword_masks_of_weight(random_code(random.Random(5), GF3, 6, 3), 2)


def test_codewords_of_weight_examples():
    ham = extended_hamming()
    assert len(codewords_of_weight(ham, 4)) == 14
    assert codewords_of_weight(ham, 3) == []
    assert codewords_of_weight(ham, 0) == [FieldVector.zeros(GF2, 8)]
    for v in codewords_of_weight(ham, 4):
        assert v.weight == 4
        assert ham.contains(v)


def test_codewords_emitted_in_gray_order(monkeypatch):
    # oracle: stepwise Gray walk accumulating one generator row per step
    code = random_code(random.Random(103), GF2, 14, 9)
    rows = code.generator.row_bits
    acc, expected = 0, []
    target = 5
    seq = []
    for i in range(1 << code.k):
        if i:
            b = (i & -i).bit_length() - 1
            acc ^= rows[b]
        seq.append(acc)
    expected = [m for m in seq if m.bit_count() == target]
    got = codeword_masks_of_weight(code, target)
    assert got == expected
    # 128 blocks of 4 words: odd blocks read backwards, and three threads merge
    monkeypatch.setattr(hullkit.minweight, "LOW_BITS", 2)
    monkeypatch.setattr(hullkit.minweight, "THREADED_LOW_BITS", 2)
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 4)
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 3)
    for threads in (1, 3):
        assert codeword_masks_of_weight(code, target, threads=threads) == expected


def test_walk_results_do_not_depend_on_the_table_size(monkeypatch):
    # Blocks follow the global reflected-Gray order whatever their size, so
    # the distribution, the kept words, their order and the abort verdict are
    # the same at 2^2, 2^16 and 2^18 words per table, on one thread and on
    # three.  An aborted walk may stop in another block and so return another
    # weight, always in [d, t).
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 3)
    rng = random.Random(211)
    codes = [random_code(rng, GF2, n, k) for n, k in ((40, 20), (70, 20), (30, 10), (80, 9))]
    codes.append(LinearCode(FieldMatrix.from_bit_rows([], 12)))  # k = 0
    for code in codes:
        d = min((w for w in walked_distribution(code).counts if w), default=code.n + 1)
        seen = set()
        for bits in ((2, 16, 18) if code.k <= 10 else (16, 18)):  # 2^18 blocks of 4 words are slow
            monkeypatch.setattr(hullkit.minweight, "LOW_BITS", bits)
            monkeypatch.setattr(hullkit.minweight, "THREADED_LOW_BITS", bits)
            monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", bits + 2)  # 4 blocks and up
            for threads in (1, 3):
                best, counts, words, _ = _scan_binary(code, threads=threads)
                collected = _scan_binary(code, collect_weight=(d, d + 1, d + 2), threads=threads)[2]
                verdicts = []
                for t in (d, d + 1, d + 3):
                    got, _, _, aborted = _scan_binary(code, abort_below=t, threads=threads)
                    assert d <= got < t if aborted else got == d, (code, bits, threads, t)
                    verdicts.append(aborted)
                seen.add((best, counts.tobytes(), words.tobytes(), collected.tobytes(), tuple(verdicts)))
        assert len(seen) == 1, code


def test_a_serial_walk_of_a_k22_code_keeps_its_table_in_l2():
    # 2^16 words per table: 512 KB of words, a 64 KB popcount buffer and a
    # 256 KB bincount copy per block; 2^18 words peaked at 3.66 MiB
    seed = load_a_block_code("a40226")
    out = transform_code(standard_form(seed), load_pair("c40227"))
    tracemalloc.start()
    try:
        _scan_binary(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_d11_weight12_codeword_count():
    d11 = load_seed("D11")
    masks = codeword_masks_of_weight(d11, 12)
    # Gleason-determined count for extremal doubly even self-dual n=56
    assert len(masks) == 8190
    assert all(m.bit_count() == 12 for m in masks)
    assert len(set(masks)) == len(masks)


def test_walk_of_the_zero_code():
    for n in (4, 70):  # one packed word per row, and two
        zero = LinearCode(FieldMatrix.from_bit_rows([], n))
        best, dist, collected, aborted = _scan_binary(zero)
        assert (best, dist.tolist(), collected.tolist(), aborted) == (n + 1, [1] + [0] * n, [], False)
        best, dist, collected, aborted = _scan_binary(zero, collect_weight=(0,))
        assert (best, dist, collected.tolist(), aborted) == (n + 1, None, _packed_rows([0], n).tolist(), False)
        assert _scan(zero, abort_below=3)[1].counts == {0: 1}
        # n + 1 stands for "no nonzero word", which no bound may abort on
        assert _scan_binary(zero, abort_below=n + 2)[3] is False
        best, dist, masks, aborted = _scan(zero, abort_below=n + 2)
        assert (best, dist.counts, masks.tolist(), aborted) == (n + 1, {0: 1}, [], False)
    # the [0, 0] code has n = 2k but no level to list: the gate walks it
    empty = LinearCode(FieldMatrix.from_bit_rows([], 0))
    assert weight_distribution(empty).counts == {0: 1}
    assert _scan(empty, abort_below=3)[3] is False


def test_sum_counts_is_2k():
    rng = random.Random(107)
    for _ in range(5):
        c = random_code(rng, GF2, 16, rng.randint(1, 10))
        assert weight_distribution(c).total() == 2**c.k


def _assert_screen_exact(code, dist, ts, scan=_scan_binary):
    """scan(abort_below=t) aborts exactly when d < t; an abort returns the
    weight of a word with d <= weight < t, a full scan d."""
    d = min(w for w in dist if w > 0)
    for t in ts:
        best, _, _, aborted = scan(code, abort_below=t)
        assert aborted == (d < t), (code, t, d)
        if aborted:
            assert d <= best < t, (code, t, best)
        else:
            assert best == d, (code, t, best)


def test_screen_is_exact_on_bundled_codes():
    # Every t on D11 and the small codes.  On the other [56,28,12] seeds t
    # runs from d up: a screen below d can abort neither on its levels nor in
    # the walk (no nonzero word is lighter than d), so it walks exactly as
    # the t = d screen does.  The reference on these seeds is a bare
    # exhaustive walk: no word has weight n + 1, and nothing is counted.
    for name in CIRCULANT_SEED_NAMES:
        code = load_seed(name)
        low = 1 if name == "D11" else 12
        bare_walk = partial(_scan_binary, collect_weight=(code.n + 1,))
        _assert_screen_exact(code, GLEASON_56_EXTREMAL, range(low, code.n + 2), scan=bare_walk)
        # the gate takes the two-set path here, which is cheap at every t
        _assert_screen_exact(code, GLEASON_56_EXTREMAL, range(1, code.n + 2), scan=_scan)
    small = [load_a_block_code(nm) for nm in ("a37225", "a381310", "a40226")]
    for code in small + [extended_hamming()]:
        dist = walked_distribution(code).counts
        _assert_screen_exact(code, dist, range(1, code.n + 2))
        _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_screen_is_exact_on_random_codes(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    code = random_code(rng, GF2, n, rng.randint(1, min(n, 12)))
    _assert_screen_exact(code, weight_distribution_naive(code), range(1, n + 2))
    _assert_screen_exact(code, weight_distribution_naive(code), range(1, n + 2), scan=_scan)


def test_gate_is_exact_on_random_codes_longer_than_one_packed_word():
    # n > 64 packs each row into two uint64 words, so the screen's levels,
    # the walk's popcounts and offsets and the words it keeps are 2-D; at
    # n > 255 (seeds 24 and 25) the walk's weights no longer fit in a byte
    for seed in range(26):
        rng = random.Random(seed)
        n = rng.randint(65, 90) if seed < 24 else rng.randint(256, 300)
        code = random_code(rng, GF2, n, rng.randint(1, 10))
        words = [sum(1 << j for j, s in enumerate(w) if s) for w in enumerate_codewords_naive(code)]
        dist = dict(Counter(w.bit_count() for w in words))
        _assert_screen_exact(code, dist, range(1, n + 2), scan=_scan)
        d, got, masks, _ = _scan(code)
        assert dict(got.counts) == dist
        walked = codeword_masks_of_weight(code, d)
        assert masks.tolist() == _packed_rows(walked, n).tolist()
        assert sorted(walked) == sorted(w for w in words if w.bit_count() == d)


def _code_with_hidden_light_word(k: int, m: int, seed: int) -> LinearCode:
    """[I_k | A] with heavy random rows a_i, except a_k = a_(k-1) + a_(k-2) +
    a_(k-3): the sum of the last four generator rows has weight 4."""
    rng = random.Random(seed)
    a = [rng.getrandbits(m) for _ in range(k - 1)]
    a.append(a[-1] ^ a[-2] ^ a[-3])
    return LinearCode(FieldMatrix.from_bit_rows([1 << i | ai << k for i, ai in enumerate(a)], k + m))


def _listed(result):
    """A scan's result with its words as a list, so that results compare with ==."""
    best, dist, words, aborted = result
    return best, dist, np.asarray(words).tolist(), aborted


def test_a_walk_that_may_abort_runs_on_one_thread(monkeypatch):
    # The only light word needs four rows, all in the top bits the blocks
    # walk, so the screen's levels 1-3 miss it and the screen must walk.
    # Every caller of that walk gets the one-thread answer without starting
    # a pool, even where a walk that cannot abort threads (k = 22 here).
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)
    code = _code_with_hidden_light_word(22, 40, seed=5)
    rows = code.generator.row_bits
    t = 5
    for size in range(1, _PROBE_ROWS + 1):
        for idx in combinations(rows, size):
            acc = 0
            for r in idx:
                acc ^= r
            assert acc.bit_count() >= t

    def screens(threads):
        return (_listed(_scan_binary(code, abort_below=t, threads=threads)),
                _listed(_scan(code, abort_below=t, threads=threads)),
                min_weight(code, abort_above=t, threads=threads))

    single = screens(1)
    assert single[0][3] and single[0][0] == 4 and single[0][1] is None
    assert single[1] == (4, None, [], True) and single[2] == 4

    def no_pool(*args, **kwargs):
        raise AssertionError("a walk that may abort started a thread pool")

    with monkeypatch.context() as m:
        m.setattr(hullkit.minweight, "ThreadPoolExecutor", no_pool)
        for threads in (2, 4):
            assert screens(threads) == single

    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "ThreadPoolExecutor", counting_pool)
    assert _listed(_scan(code, threads=2)) == _listed(_scan(code))
    assert pools == [{"max_workers": 2}]


def test_walks_below_the_thread_crossover_run_on_one_thread(monkeypatch):
    # 2 threads walk a k <= 24 code more slowly than 1: on a 2-core guest the
    # c40227 output ([40,22]) took 7.1-9.9 ms at 1 thread and 11.3-12.9 ms at 2
    def no_pool(*args, **kwargs):
        raise AssertionError("a walk below the thread crossover started a thread pool")

    out = transform_code(standard_form(load_a_block_code("a40226")), load_pair("c40227"))
    assert (out.n, out.k) == (40, 22) and _two_set_rows(out) is None  # the gate walks it
    single = weight_distribution(out)
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(hullkit.minweight, "ThreadPoolExecutor", no_pool)
    assert weight_distribution(out, threads=2) == single


# --- the scan gate on codes it walks ---------------------------------------------

LCD_UPGRADES = [("a37225", "c37226"), ("a381310", "c381311"), ("a40226", "c40227")]


def _lcd_seeds_and_upgrades():
    for seed_name, pair_name in LCD_UPGRADES:
        seed = load_a_block_code(seed_name)
        yield seed
        yield transform_code(standard_form(seed), load_pair(pair_name))


def _assert_gate_matches_the_walk(code, threads, dist=None):
    """The gate's (d, distribution, words) equals the public walks: the
    weight-d words as a list, in Gray order."""
    d, got, words, aborted = _scan(code, threads=threads)
    assert not aborted
    if dist is None:
        dist = dict(walked_distribution(code, threads=threads).counts)
    assert dict(got.counts) == dist
    assert d == min(w for w in dist if w > 0)
    assert words.tolist() == _packed_rows(codeword_masks_of_weight(code, d, threads=threads), code.n).tolist()


def test_gate_matches_the_walk_on_the_lcd_seeds_and_their_upgrades(monkeypatch):
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)  # so that the k = 20-22 walks thread
    for code in _lcd_seeds_and_upgrades():
        for threads in (1, 2, 4):
            _assert_gate_matches_the_walk(code, threads)
    # the only weight-4 word lies in the top bits, so the chunks that hold no
    # such word must drop the words they kept at a heavier running minimum
    hidden = _code_with_hidden_light_word(22, 40, seed=5)
    for threads in (1, 2, 4):
        _assert_gate_matches_the_walk(hidden, threads)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_gate_matches_the_naive_oracle_on_random_codes(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    code = random_code(rng, GF2, n, rng.randint(1, min(n, 12)))
    dist = weight_distribution_naive(code)
    d, got, words, _ = _scan(code)
    assert dict(got.counts) == dist
    walked = codeword_masks_of_weight(code, d)
    if code.n == 2 * code.k and is_doubly_even(code):  # the two-set path: no order
        assert sorted(words.tolist()) == sorted(walked)
    else:
        _assert_gate_matches_the_walk(code, 1, dist)


def test_min_weight_lists_levels_and_agrees_with_the_walk(monkeypatch):
    # k = 22 codes are decided from a few levels; the [38,13] codes would list
    # more than 2^13 / 8 words and take the gate, as do most short random codes
    walked = []

    def counting(*args):
        walked.append(args)
        return _scan_range(*args)

    monkeypatch.setattr(hullkit.minweight, "_scan_range", counting)
    rng = random.Random(223)
    codes = list(_lcd_seeds_and_upgrades())
    codes += [random_code(rng, GF2, rng.randint(k + 4, 64), k) for k in (12, 16, 20, 22)]
    codes += [random_code(rng, GF2, rng.randint(65, 90), k) for k in (10, 14)]
    codes += [_code_with_hidden_light_word(k, m, seed=3) for k, m in ((20, 40), (20, 60))]
    # [I_12 | A] with distinct even-weight rows of A, each of weight >= 4:
    # levels 1 and 2 weigh at least 5 and 4, a1 + a2 = a3 makes a word of
    # weight 3 at level 3, and a1 + a4 has weight 2 (a word of weight 4 at
    # level 2), so the listing must not stop at level 2
    a = [0x0F, 0xF0, 0xFF, 0x1E, 0x33, 0x55, 0x66, 0x99, 0xAA, 0xCC, 0x3C, 0x5A]
    codes.append(LinearCode(FieldMatrix.from_bit_rows([1 << i | ai << 12 for i, ai in enumerate(a)], 20)))
    listed = 0
    for code in codes:
        d = min(w for w in walked_distribution(code).counts if w)
        walked.clear()
        assert min_weight(code) == d
        listed += not walked
        for t in range(1, code.n + 2):
            got = min_weight(code, abort_above=t)
            assert d <= got < t if d < t else got == d, (code, t, got)
    assert listed >= 6
    walked.clear()
    seed = load_a_block_code("a40226")
    assert (min_weight(seed), min_weight(seed, abort_above=7)) == (6, 6) and walked == []
    assert min_weight(load_a_block_code("a381310")) == 10 and walked


def test_gate_walks_each_code_once(monkeypatch):
    walked = []

    def counting(code, **kwargs):
        walked.append(code)
        return _scan_binary(code, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", counting)
    seed = load_a_block_code("a40226")
    upgrade = transform_code(standard_form(seed), load_pair("c40227"))
    assert is_equivalent(seed, upgrade).verdict == "inequivalent"
    assert walked == [seed, upgrade]
    walked.clear()
    (rec,) = lcd_improve(seed, [load_pair("c40227")], d_target=7, seed_id="a40226")
    assert len(walked) == 1
    replay(rec, {"a40226": seed})
    assert len(walked) == 2


def test_nt_sequence_walks_a_walked_code_once(monkeypatch, capsys):
    walked = []

    def counting(code, **kwargs):
        walked.append(code)
        return _scan_binary(code, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", counting)
    for w in (None, 6, 7):
        seed = load_a_block_code("a40226")  # d = 6; a new object, so nothing is kept on it yet
        walked.clear()
        assert nt_sequence(seed, w).weight == (6 if w is None else w)
        assert walked == [seed]
    # a certified code keeps its weight-6 words and counts, and walks again only for other weights
    seed = load_a_block_code("a40226")
    nt_sequence(seed)
    walked.clear()
    assert nt_sequence(seed, 6).weight == 6 and walked == []
    assert nt_sequence(seed, 7).weight == 7 and walked == [seed]
    walked.clear()
    assert main(["invariant", "a40226", "--format", "json"]) == 0
    assert len(walked) == 1
    assert '"weight": 6' in capsys.readouterr().out


def test_words_lists_every_weight_from_one_walk(monkeypatch):
    walked = []

    def counting(code, **kwargs):
        walked.append(code)
        return _scan_binary(code, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", counting)
    # one packed word per row (n = 40) and two (n = 70), each weight in Gray order
    for code in (load_a_block_code("a40226"), random_code(random.Random(11), GF2, 70, 10)):
        dist = walked_distribution(code).counts
        weights = [w for w in sorted(dist) if w][:3] + [code.n + 1]
        walked.clear()
        got = _words(code, weights)
        assert walked == [code]
        for w, words in zip(weights, got):
            assert words.dtype == np.uint64 and len(words) == dist.get(w, 0)
            assert words.tolist() == _packed_rows(codeword_masks_of_weight(code, w), code.n).tolist()
    walked.clear()
    assert _words(extended_hamming(), []) == [] and walked == []


def test_an_lcd_decision_walks_each_code_once_for_its_heavier_words(monkeypatch):
    # a40226 has three signature weights: each code is walked once by its
    # certificate and once for the two heavier weights together
    walked = []

    def counting(code, **kwargs):
        walked.append(code)
        return _scan_binary(code, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", counting)
    seed = load_a_block_code("a40226")
    perm = list(range(1, seed.n + 1))
    random.Random(7).shuffle(perm)
    permuted = apply_column_permutation(seed, perm)
    assert is_equivalent(seed, permuted).verdict == "equivalent"
    assert len(walked) == 4


def test_walk_threads_are_capped_at_the_usable_cpus(monkeypatch):
    # jobs run inline in a recording stand-in, so no thread starts
    workers, jobs = [], []

    class Inline:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            jobs.append(fn(*args))
            return type("Done", (), {"result": lambda _, out=jobs[-1]: out})()

    assert 1 <= hullkit.minweight._usable_cpus() <= (os.cpu_count() or 1)
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)
    code = random_code(random.Random(17), GF2, 24, 20)  # 4 blocks of 2^18
    serial = _scan_binary(code)
    monkeypatch.setattr(hullkit.minweight, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 3)
    best, dist, words, aborted = _scan_binary(code, threads=100_000)
    assert (workers, len(jobs)) == ([3], 3)  # min(3, 4 blocks) jobs
    assert (best, dist.tolist(), words.tolist(), aborted) == \
        (serial[0], serial[1].tolist(), serial[2].tolist(), serial[3])


# --- two information sets -------------------------------------------------------

def _assert_two_sets_match_walk(code, dist=None, threads=1):
    """The gate's two-set path gives the walk's d, weight-d words (as a
    set), distribution and fingerprint; ``dist`` stands in for a walked
    distribution that another test already pins."""
    if dist is None:
        dist = dict(walked_distribution(code, threads=threads).counts)
    assert _two_set_rows(code) is not None
    d, got, words, aborted = _scan(code)
    assert not aborted
    assert d == min(w for w in dist if w > 0)
    assert dict(got.counts) == dist
    walked = codeword_masks_of_weight(code, d, threads=threads)
    masks = words.tolist()
    assert len(masks) == len(set(masks)) == len(walked)
    assert set(masks) == set(walked)
    assert fingerprint_code(code) == {"distribution": _digest(dist),
                                      "nt": _digest(nt_from_masks(_packed_rows(walked, code.n), code.n))}


def test_two_sets_match_the_walk_on_bundled_codes():
    for name in CIRCULANT_SEED_NAMES:
        _assert_two_sets_match_walk(load_seed(name), GLEASON_56_EXTREMAL, threads=2)
    for code in (extended_hamming(), bordered_golay()):
        _assert_two_sets_match_walk(code)
    # d = 4 below 4 floor(48/24) = 8: the A_8 the Gleason solve needs are
    # heavier than the minimum weight
    _assert_two_sets_match_walk(direct_sum(*[extended_hamming()] * 6), threads=2)


def test_codes_without_a_second_information_set_are_walked(monkeypatch):
    # each has n = 2k: four copies of the [2,1] repetition code are self-dual
    # but singly even; [I | A] has rows of weight 4, but two equal rows of A
    # make A^T A singular; [I | 0] has rows of weight 1 and A^T A = 0
    repetition = LinearCode(FieldMatrix.from_bit_rows([0b11], 2))
    a = [0b0111, 0b0111, 0b1011, 0b1101]
    codes = [direct_sum(*[repetition] * 4),
             LinearCode(FieldMatrix.from_bit_rows([1 << i | ai << 4 for i, ai in enumerate(a)], 8)),
             LinearCode(FieldMatrix.from_bit_rows([1, 2, 4, 8], 8))]
    assert [c.generator.row_bits[0].bit_count() % 4 for c in codes] == [2, 0, 1]
    walked = []

    def counting(code, **kwargs):
        walked.append(code)
        return _scan_binary(code, **kwargs)

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", counting)
    for code in codes:
        assert (code.n, _two_set_rows(code)) == (2 * code.k, None)
        walked.clear()
        _scan(code)
        assert walked == [code]
        _assert_gate_matches_the_walk(code, 1)
        dist = walked_distribution(code).counts
        _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan)


def test_a_permuted_d11_takes_the_listing(monkeypatch):
    # its pivots are not its first 28 columns; no path may walk
    d11 = load_seed("D11")
    perm = list(range(1, d11.n + 1))
    random.Random(3).shuffle(perm)
    code = apply_column_permutation(d11, perm)
    assert list(code._pivots) != list(range(code.k))
    expected_nt = nt_from_masks(_scan(d11)[2], d11.n)

    def no_walk(*args, **kwargs):
        raise AssertionError("a doubly even self-dual code was walked")

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", no_walk)
    d, dist, words, aborted = _scan(code)
    assert (d, dict(dist.counts), aborted) == (12, GLEASON_56_EXTREMAL, False)
    assert len(set(words.tolist())) == GLEASON_56_EXTREMAL[12]
    assert nt_from_masks(words, code.n) == expected_nt
    assert all(code.contains(FieldVector.from_bits(int(m), code.n)) for m in words[:50])
    assert _listed(_scan(code, 12)) == _listed((d, dist, words, aborted))
    assert _scan(code, 13) == (12, None, [], True)
    assert min_weight(code) == 12


def test_the_gate_computes_no_gram(monkeypatch):
    seeds = [load_seed(name) for name in CIRCULANT_SEED_NAMES]

    def no_gram(*args):
        raise AssertionError("the gate computed a Gram matrix")

    monkeypatch.setattr(hullkit.field, "gram", no_gram)
    monkeypatch.setattr(hullkit.code, "gram", no_gram)
    for code in seeds:
        for abort_below in (None, 12):
            d, dist, _, aborted = _scan(code, abort_below)
            assert (d, dict(dist.counts), aborted) == (12, GLEASON_56_EXTREMAL, False)
    assert min_weight(seeds[0]) == 12


def test_two_sets_screen_is_exact_on_bundled_codes():
    for name in CIRCULANT_SEED_NAMES:
        low = 1 if name == "D11" else 12
        _assert_screen_exact(load_seed(name), GLEASON_56_EXTREMAL, range(low, 58),
                             scan=_scan)
    for code in (extended_hamming(), bordered_golay()):
        dist = walked_distribution(code).counts
        _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan)


_E8 = extended_hamming()
_DE_SD_BASES = (_E8, direct_sum(_E8, _E8), bordered_golay(),
                direct_sum(bordered_golay(), _E8))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(_DE_SD_BASES) - 1), st.integers(0, 10**6))
def test_two_sets_match_the_walk_on_random_doubly_even_self_dual_codes(base, seed):
    code = _DE_SD_BASES[base]
    form = standard_form(code)
    code = transform_code(form, random_de_safe_pair(random.Random(seed), form.a_block.cols))
    _assert_two_sets_match_walk(code)
    dist = walked_distribution(code).counts
    _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan)


_PROBE_MISSES = [294, 569, 640, 853, 864, 1057, 1267, 1420]


def test_two_sets_decide_the_sd_screen_probe_misses(monkeypatch):
    # The D11/y4 candidates of this pool whose light words all need four
    # information rows: the screen's levels 1-3 pass them to the structural
    # test, they take the two-set listing, and it finds the walk's weight-8
    # word bound.
    form = standard_form(load_seed("D11"))
    y = make_yi(28, 4)
    xs = sampled_x(28, y, 1500, rng_seed=22, rule="mod4")
    outs = [transform_code(form, TransformPair(x, y)) for x in xs]
    tested = []

    def recording(code):
        tested.append((code, _two_set_rows(code)))
        return tested[-1][1]

    with monkeypatch.context() as m:
        m.setattr(hullkit.minweight, "_two_set_rows", recording)
        for out in outs:
            _scan(out, 12)
    misses = [i for i, out in enumerate(outs) if any(out is c for c, _ in tested)]
    assert misses == _PROBE_MISSES
    assert all(rows is not None for _, rows in tested)
    for i in misses:
        walked = _scan_binary(outs[i], abort_below=12)
        assert walked[0] == 8 and walked[3]
        assert _scan(outs[i], 12) == (8, None, [], True)
        assert _scan(outs[i])[0] == 8


def test_two_sets_stop_after_the_last_levels_p_side(monkeypatch):
    # D11 (d = 12) needs P-side levels 1-6 and Q-side levels 1-5: a word
    # missing from them has at least 7 ones on P and 6 on Q.  The screen and
    # min_weight start the P side, and the two-set path continues it.
    code = load_seed("D11")
    p_rows = _packed_rows(code._reduced.row_bits, code.n)
    levels = []

    def counting(prev, rows, r):
        levels.append(("P" if np.array_equal(rows, p_rows) else "Q") + str(r))
        return _next_level(prev, rows, r)

    monkeypatch.setattr(hullkit.minweight, "_next_level", counting)
    d, _, masks, _ = _scan(code)
    assert (d, len(masks)) == (12, GLEASON_56_EXTREMAL[12])
    assert levels == ["P1", "Q1", "P2", "Q2", "P3", "Q3", "P4", "Q4", "P5", "Q5", "P6"]
    once = sorted(levels)
    levels.clear()
    d, _, masks, _ = _scan(code, abort_below=12)
    assert (d, len(masks)) == (12, GLEASON_56_EXTREMAL[12])
    assert levels == ["P1", "P2", "P3", "Q1", "Q2", "Q3", "P4", "Q4", "P5", "Q5", "P6"]
    assert sorted(levels) == once
    levels.clear()
    assert min_weight(code) == 12
    assert levels == ["P1", "P2", "P3", "P4", "P5", "Q1", "Q2", "Q3", "Q4", "Q5", "P6"]
    assert sorted(levels) == once


def test_gate_continuing_the_screen_matches_a_fresh_two_set_listing():
    # the two-set path continues the screen's and min_weight's P levels; the
    # result must not depend on where the P side was started
    form = standard_form(load_seed("D11"))
    y = make_yi(28, 4)
    xs = sampled_x(28, y, 1500, rng_seed=22, rule="mod4")
    codes = [load_seed(name) for name in CIRCULANT_SEED_NAMES]
    codes += [transform_code(form, TransformPair(xs[i], y)) for i in _PROBE_MISSES]
    assert len(codes) == 14
    for code in codes:
        fresh = _scan(code)  # no head: P1, Q1, P2, ...
        d, dist, words, aborted = _scan(code, 12)
        assert aborted == (fresh[0] < 12) and min_weight(code) == fresh[0]
        if aborted:
            assert fresh[0] <= d < 12 and dist is None
        else:
            assert (d, dict(dist.counts)) == (fresh[0], dict(fresh[1].counts))
            assert sorted(words.tolist()) == sorted(fresh[2].tolist())


def test_one_function_calls_next_level():
    # every listing goes through the one producer, _levels, so a new path
    # cannot build levels of its own beside the listing of _scan
    assert _callers("_next_level") == ["minweight._levels"]


def test_one_function_lists_levels():
    # the screen, min_weight and the two-set path are one loop in _scan
    assert _callers("_levels") == ["minweight._scan"]


def test_gate_returns_its_words_as_one_packed_array():
    # the two-set path: D11's weight-12 words, one uint64 word each
    words = _scan(load_seed("D11"))[2]
    assert isinstance(words, np.ndarray) and words.dtype == np.uint64
    assert words.shape == (GLEASON_56_EXTREMAL[12],)
    # the walk, at one packed word per row (n = 40) and at two (n = 70):
    # _packed_rows layout, and the public enumeration's ints in Gray order
    for code in (load_a_block_code("a40226"), random_code(random.Random(7), GF2, 70, 12)):
        d, _, words, _ = _scan(code)
        walked = codeword_masks_of_weight(code, d)
        assert isinstance(words, np.ndarray) and words.dtype == np.uint64
        assert words.shape == (len(walked),) + (() if code.n <= 64 else (2,))
        rows = words.reshape(len(words), -1).tolist()
        assert [sum(x << 64 * i for i, x in enumerate(row)) for row in rows] == walked


def test_gleason_solver_matches_the_table_and_walked_distributions(monkeypatch):
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)  # so that golay + golay (k = 24) threads
    assert _gleason_distribution(56, [1, 0, 0]) == GLEASON_56_EXTREMAL
    golay = bordered_golay()
    # floor(n/24) = 0, 1, 1 (A_4 = 14 > 0) and 2 (A_8 = 1518); e8 + e8 is a
    # non-extremal [16,8,4] code with A_4 = 28
    for code in (direct_sum(_E8, _E8), golay, direct_sum(golay, _E8),
                 direct_sum(golay, golay)):
        dist = dict(walked_distribution(code, threads=2).counts)
        low = [dist.get(w, 0) for w in range(0, 4 * (code.n // 24) + 1, 4)]
        assert _gleason_distribution(code.n, low) == dist
    assert dict(walked_distribution(direct_sum(_E8, _E8)).counts)[4] == 28


def _gleason_distribution_uncached(n, low):
    """The solver as it was before its basis polynomials were cached: each
    call builds them again."""
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

    basis = [mul(power([1, 14, 1], n // 8 - 3 * j), power([0, 1, -4, 6, -4, 1], j)) for j in range(len(low))]
    coeffs = []
    for j, a in enumerate(low):
        coeffs.append(a - sum(c * b[j] for c, b in zip(coeffs, basis)))
    dist = {4 * i: sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(size)}
    return {w: c for w, c in dist.items() if c}


def test_gleason_solver_is_unchanged_by_its_basis_cache():
    rng = random.Random(167)
    for n in range(8, 65, 8):
        terms = n // 24 + 1
        # a one-term prefix first: a longer one at the same n needs its own basis
        lows = [[1], [1] + [0] * (terms - 1)] + [[1] + [rng.randrange(2000) for _ in range(terms - 1)]
                                                 for _ in range(3)]
        for low in lows + lows:  # the second pass reads every basis from the cache
            assert _gleason_distribution(n, low) == _gleason_distribution_uncached(n, low)


def _walk_mutant(monkeypatch, change):
    """Patch _scan_range so that a counting walk's result goes through ``change``."""
    scan_range = hullkit.minweight._scan_range

    def mutant(*args):
        best, tally, words, aborted = scan_range(*args)
        if tally is not None:
            tally, words = change(tally.copy(), words)
        return best, tally, words, aborted

    monkeypatch.setattr(hullkit.minweight, "_scan_range", mutant)
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 2)


def _drop_one_count(tally, words):
    tally[0] -= 1
    return tally, words


def _drop_one_word(tally, words):
    return tally, words[1:] if len(words) else words


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("change, message", [(_drop_one_count, "counted"), (_drop_one_word, "kept")])
def test_a_completed_walk_checks_its_count_and_its_words(monkeypatch, threads, change, message):
    monkeypatch.setattr(hullkit.minweight, "_THREADED_MIN_K", 20)
    code = load_a_block_code("a37225")  # LCD, k = 22: the gate walks it, threaded at 2
    d, dist, words, _ = _scan(code, threads=threads)
    assert dist.total() == 1 << code.k and len(words) == dist[d]
    _walk_mutant(monkeypatch, change)
    with pytest.raises(PostconditionError, match=message):
        _scan(code, threads=threads)


def test_the_zero_code_walk_keeps_no_words():
    code = LinearCode(FieldMatrix.zeros(GF2, 0, 9))
    d, dist, words, aborted = _scan(code)
    assert (d, dist.items(), len(words), aborted) == (10, [(0, 1)], 0, False)
