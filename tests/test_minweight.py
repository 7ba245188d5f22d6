import os
import random
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
from hullkit.errors import PredicateError
from hullkit.minweight import (
    _PROBE_ROWS,
    _gleason_distribution,
    _next_level,
    _packed_rows,
    _scan,
    _scan_binary,
    _scan_generic,
    _scan_two_sets,
    _words,
)
from hullkit.invariant import nt_from_masks
from hullkit.search import _digest

from conftest import (
    GF3,
    GF5,
    GLEASON_56_EXTREMAL,
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


def test_threaded_scan_matches_single_threaded():
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


def test_codewords_emitted_in_gray_order():
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
    # the walk's popcounts and offsets and the words it keeps are 2-D
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(65, 90)
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
    # a pool.
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


def test_gate_matches_the_walk_on_the_lcd_seeds_and_their_upgrades():
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
    seed = load_a_block_code("a40226")  # d = 6
    for w in (None, 6, 7):
        walked.clear()
        assert nt_sequence(seed, w).weight == (6 if w is None else w)
        assert walked == [seed]
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
    code = random_code(random.Random(17), GF2, 24, 20)  # 4 blocks of 2^18
    serial = _scan_binary(code)
    monkeypatch.setattr(hullkit.minweight, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(hullkit.minweight, "_usable_cpus", lambda: 3)
    best, dist, words, aborted = _scan_binary(code, threads=100_000)
    assert (workers, len(jobs)) == ([3], 4)  # min(3 * 4, 4 blocks) jobs
    assert (best, dist.tolist(), words.tolist(), aborted) == \
        (serial[0], serial[1].tolist(), serial[2].tolist(), serial[3])


# --- two information sets -------------------------------------------------------

def _assert_two_sets_match_walk(code, dist=None, threads=1):
    """_scan_two_sets gives the walk's d, weight-d words (as a set),
    distribution and fingerprint; ``dist`` stands in for a walked
    distribution that another test already pins."""
    if dist is None:
        dist = dict(walked_distribution(code, threads=threads).counts)
    d, got, words, aborted = _scan_two_sets(code)
    assert not aborted
    assert d == min(w for w in dist if w > 0)
    assert {w: int(c) for w, c in enumerate(got) if c} == dist
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


def test_two_sets_need_a_self_dual_code():
    # [I | 0] has n = 2k, but A A^T = 0, not I
    code = LinearCode(FieldMatrix.from_bit_rows([1, 2, 4, 8], 8))
    with pytest.raises(PredicateError, match="self-dual"):
        _scan_two_sets(code)


def test_two_sets_screen_is_exact_on_bundled_codes():
    for name in CIRCULANT_SEED_NAMES:
        low = 1 if name == "D11" else 12
        _assert_screen_exact(load_seed(name), GLEASON_56_EXTREMAL, range(low, 58),
                             scan=_scan_two_sets)
    for code in (extended_hamming(), bordered_golay()):
        dist = walked_distribution(code).counts
        _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan_two_sets)


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
    _assert_screen_exact(code, dist, range(1, code.n + 2), scan=_scan_two_sets)


def test_two_sets_decide_the_sd_screen_probe_misses(monkeypatch):
    # The D11/y4 candidates of this pool whose light words all need four
    # information rows: the screen's levels 1-3 pass them to the two-set
    # path, and both scans find the same weight-8 word bound.
    form = standard_form(load_seed("D11"))
    y = make_yi(28, 4)
    xs = sampled_x(28, y, 1500, rng_seed=22, rule="mod4")
    outs = [transform_code(form, TransformPair(x, y)) for x in xs]
    handed = []
    with monkeypatch.context() as m:
        m.setattr(hullkit.minweight, "_scan_two_sets",
                  lambda code, **kwargs: handed.append(code) or (8, None, [], True))
        for out in outs:
            _scan(out, 12)
    misses = [i for i, out in enumerate(outs) if any(out is c for c in handed)]
    assert misses == [294, 569, 640, 853, 864, 1057, 1267, 1420]
    for i in misses:
        walked = _scan_binary(outs[i], abort_below=12)
        assert walked[0] == 8 and walked[3]
        assert _scan_two_sets(outs[i], abort_below=12) == (8, None, [], True)
        assert _scan_two_sets(outs[i])[0] == 8


def test_two_sets_stop_after_the_last_levels_p_side(monkeypatch):
    # D11 (d = 12) needs P-side levels 1-6 and Q-side levels 1-5: a word
    # missing from them has at least 7 ones on P and 6 on Q
    levels = []

    def counting(prev, rows, r):
        levels.append(r)
        return _next_level(prev, rows, r)

    monkeypatch.setattr(hullkit.minweight, "_next_level", counting)
    d, _, masks, _ = _scan_two_sets(load_seed("D11"))
    assert (d, len(masks)) == (12, GLEASON_56_EXTREMAL[12])
    assert levels == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]


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


def test_gleason_solver_matches_the_table_and_walked_distributions():
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
