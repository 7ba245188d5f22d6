import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullkit import (
    GF2,
    CapacityError,
    FieldMatrix,
    FieldVector,
    LinearCode,
    codeword_masks_of_weight,
    codewords_of_weight,
    min_weight,
    weight_distribution,
)
from hullkit.artifacts import CIRCULANT_SEED_NAMES, load_a_block_code, load_seed
from hullkit.minweight import _PROBE_ROWS, _scan_binary

from conftest import (
    GF3,
    GF5,
    GLEASON_56_EXTREMAL,
    extended_hamming,
    random_code,
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
    dist = weight_distribution(d11)
    assert dict(dist.counts) == GLEASON_56_EXTREMAL
    assert dist[12] == 8190
    assert min_weight(d11) == 12


def test_threaded_scan_matches_single_threaded():
    d11 = load_seed("D11")
    assert dict(weight_distribution(d11, threads=2).counts) == GLEASON_56_EXTREMAL
    code = load_a_block_code("a37225")
    assert min_weight(code, threads=2) == min_weight(code) == 5


def test_doubly_even_distribution_sanity():
    for name in ("D11", "C56.2"):
        dist = weight_distribution(load_seed(name))
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


def test_capacity_errors_name_limits():
    big = LinearCode(FieldMatrix.identity(GF2, 31))
    with pytest.raises(CapacityError, match="k <= 30"):
        min_weight(big)
    gf3_big = LinearCode(FieldMatrix.identity(GF3, 13))
    with pytest.raises(CapacityError, match="k <= 12"):
        min_weight(gf3_big)


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


def test_sum_counts_is_2k():
    rng = random.Random(107)
    for _ in range(5):
        c = random_code(rng, GF2, 16, rng.randint(1, 10))
        assert weight_distribution(c).total() == 2**c.k


def _assert_screen_exact(code, dist, ts):
    """_scan_binary(abort_below=t) aborts exactly when d < t; an abort
    returns the weight of a word with d <= weight < t, a full walk d."""
    d = min(w for w in dist if w > 0)
    for t in ts:
        best, _, _, aborted = _scan_binary(code, abort_below=t)
        assert aborted == (d < t), (code, t, d)
        if aborted:
            assert d <= best < t, (code, t, best)
        else:
            assert best == d, (code, t, best)


def test_screen_is_exact_on_bundled_codes():
    # Every t on D11 and the small codes.  On the other [56,28,12] seeds t
    # runs from d up: a screen below d can abort neither in the probe nor in
    # the walk (no nonzero word is lighter than d), so it walks exactly as
    # the t = d screen does, at 0.5 s a walk.
    for name in CIRCULANT_SEED_NAMES:
        code = load_seed(name)
        low = 1 if name == "D11" else 12
        _assert_screen_exact(code, GLEASON_56_EXTREMAL, range(low, code.n + 2))
    small = [load_a_block_code(nm) for nm in ("a37225", "a381310", "a40226")]
    for code in small + [extended_hamming()]:
        dist = weight_distribution(code).counts
        _assert_screen_exact(code, dist, range(1, code.n + 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_screen_is_exact_on_random_codes(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    code = random_code(rng, GF2, n, rng.randint(1, min(n, 12)))
    _assert_screen_exact(code, weight_distribution_naive(code), range(1, n + 2))


def _code_with_hidden_light_word(k: int, m: int, seed: int) -> LinearCode:
    """[I_k | A] with heavy random rows a_i, except a_k = a_(k-1) + a_(k-2) +
    a_(k-3): the sum of the last four generator rows has weight 4."""
    rng = random.Random(seed)
    a = [rng.getrandbits(m) for _ in range(k - 1)]
    a.append(a[-1] ^ a[-2] ^ a[-3])
    return LinearCode(FieldMatrix.from_bit_rows([1 << i | ai << k for i, ai in enumerate(a)], k + m))


def test_threaded_abort_when_the_probe_misses():
    # The only light word needs four rows, all in the top bits the blocks
    # walk, so the probe misses it and a threaded walk must find it in one
    # chunk and stop the rest.
    code = _code_with_hidden_light_word(22, 40, seed=5)
    rows = code.generator.row_bits
    t = 5
    for size in range(1, _PROBE_ROWS + 1):
        for idx in combinations(rows, size):
            acc = 0
            for r in idx:
                acc ^= r
            assert acc.bit_count() >= t
    single = _scan_binary(code, abort_below=t, threads=1)
    assert single[3] and single[0] == 4 and single[1] is None
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the chunks as often as possible
    try:
        for threads in (2, 4):
            assert _scan_binary(code, abort_below=t, threads=threads) == single
    finally:
        sys.setswitchinterval(switch)
