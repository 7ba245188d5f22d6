import random

import pytest

from hullkit import (
    GF2,
    CodeParseError,
    DimensionError,
    FieldMatrix,
    FieldVector,
    HypothesisError,
    LinearCode,
    PostconditionError,
    TransformPair,
    apply_column_permutation,
    exhaustive_isotropic_pairs,
    hull_dim,
    inner_product,
    is_doubly_even,
    is_lcd,
    is_self_dual,
    m_matrix,
    matmul,
    min_weight,
    sd_search,
    standard_form,
    transform_code,
    transform_rows,
    transpose,
)
import hullkit.transform
from hullkit.artifacts import CIRCULANT_SEED_NAMES, PAIR_SEED, load_a_block_code, load_pair, load_seed
from hullkit.search import make_yi, sampled_x
from hullkit.transform import _m_matrix_symbols, _transform_rows_symbols

from conftest import (
    GF3,
    GF5,
    enumerate_codewords_naive,
    extended_hamming,
    mod4_weight_check,
    random_de_safe_pair,
    random_isotropic_pair,
    random_matrix,
    random_standard_code,
    random_vector,
    sign_variants,
    weight_identity_check,
)


def bits(s):
    return FieldVector(GF2, [int(c) for c in s])


def test_pair_flags_and_rejections():
    p = TransformPair(bits("0011"), bits("1100"))
    assert p.isotropic
    assert not p.de_safe  # weights 2, not 0 mod 4
    assert not TransformPair(bits("0011"), bits("0101")).isotropic  # (x,y) = 1
    q = TransformPair(bits("1111"), bits("1111"))
    assert q.isotropic and q.de_safe
    with pytest.raises(ValueError):
        TransformPair(bits("0000"), bits("1111"))
    with pytest.raises(DimensionError):
        TransformPair(bits("11"), bits("111"))


def test_pair_text_round_trip():
    p = load_pair("c37226")
    assert TransformPair.parse(p.to_text()) == p
    with pytest.raises(CodeParseError):
        TransformPair.parse("x=01\nz=10")
    with pytest.raises(CodeParseError):
        TransformPair.parse("x=01")
    # these once raised ValueError or DimensionError from the constructor, naming no line
    with pytest.raises(CodeParseError, match=r"^<string>:1: x is a zero vector, which makes the transform trivial$"):
        TransformPair.parse("x=0000\ny=1111")
    with pytest.raises(CodeParseError, match=r"^<string>:2: y is an empty vector"):
        TransformPair.parse("x=1111\ny=")
    with pytest.raises(CodeParseError, match=r"^<string>:2: x has length 4, y has length 3$"):
        TransformPair.parse("x=1111\ny=111")
    with pytest.raises(CodeParseError, match=r"^<string>:4: invalid literal"):
        TransformPair.parse("\nx=1100\n\ny=11a0")
    with pytest.raises(CodeParseError, match=r"^<string>:5: x has length 4, y has length 3$"):
        TransformPair.parse("x=1111\n\n\n\ny=111\n\n")
    # a repeated name once raised "<string>: need exactly one x= line and one y= line", naming no line
    with pytest.raises(CodeParseError, match=r"^<string>:2: a second x= line; need exactly one x= line and one y= line$"):
        TransformPair.parse("x=1100\nx=0011")
    with pytest.raises(CodeParseError, match=r"^<string>:4: a second y= line"):
        TransformPair.parse("y=1100\n\n\ny=0011")
    # a wrong line count once raised "<string>: expected two lines ...", naming no line
    with pytest.raises(CodeParseError, match=r"^<string>:3: expected two lines 'x=\.\.\.' and 'y=\.\.\.'$"):
        TransformPair.parse("x=1100\ny=0011\nx=1111")
    with pytest.raises(CodeParseError, match=r"^<string>:1: expected two lines"):
        TransformPair.parse("x=1100")
    with pytest.raises(CodeParseError, match=r"^<string>:3: expected two lines"):
        TransformPair.parse("\n\nx=1100\n\n")
    with pytest.raises(CodeParseError, match=r"^<string>:1: expected two lines"):
        TransformPair.parse("")


def test_transform_rows_fixes_orthogonal_rows():
    # (r,x) = (r,y) = 0 for every row leaves the matrix unchanged
    a = FieldMatrix(GF2, [[1, 0, 0, 0]], cols=4)
    pair = TransformPair(bits("0011"), bits("0101"))
    assert transform_rows(a, pair) == a
    rng = random.Random(31)
    code = random_standard_code(rng, GF2, 12, 4)
    a = code.generator.take_columns(range(4, 12))
    from hullkit import dual

    dual_rows = dual(LinearCode(a)).generator
    if dual_rows.rows >= 2:
        x, y = dual_rows.row(0), dual_rows.row(1)
        if not x.is_zero() and not y.is_zero():
            assert transform_rows(a, TransformPair(x, y)) == a


def test_transform_rows_reproduces_lcd_upgrade_matrix():
    code = load_a_block_code("a37225")
    a = standard_form(code).a_block
    a2 = transform_rows(a, load_pair("c37226"))
    upgraded = LinearCode(FieldMatrix.identity(GF2, 22).hstack(a2))
    assert is_lcd(upgraded)
    assert min_weight(upgraded) == 6


def test_m_matrix_examples():
    # x = y over GF(2): the two outer products cancel identically
    pair = TransformPair(bits("1111"), bits("1111"))
    assert m_matrix(pair) == FieldMatrix.identity(GF2, 4)
    p = TransformPair(FieldVector(GF3, [1, 0]), FieldVector(GF3, [0, 1]))
    assert m_matrix(p) == FieldMatrix(GF3, [[1, 2], [1, 1]], cols=2)


def test_factorization_differential():
    # A(x,y) = A M(x,y) for random pairs, isotropic or not, over GF(2)/3/5
    rng = random.Random(41)
    for field in (GF2, GF3, GF5):
        for _ in range(100):
            k, m = rng.randint(1, 6), rng.randint(2, 8)
            a = random_matrix(rng, field, k, m)
            x = random_vector(rng, field, m)
            y = random_vector(rng, field, m)
            if x.is_zero() or y.is_zero():
                continue
            pair = TransformPair(x, y)
            assert transform_rows(a, pair) == matmul(a, m_matrix(pair))


def test_gf2_packed_vs_signed_generic_rows():
    rng = random.Random(43)
    for _ in range(200):
        k, m = rng.randint(1, 6), rng.randint(2, 10)
        a = random_matrix(rng, GF2, k, m)
        x = FieldVector.from_bits(rng.getrandbits(m) | 1, m)
        y = FieldVector.from_bits(rng.getrandbits(m) | 1, m)
        pair = TransformPair(x, y)
        assert transform_rows(a, pair) == _transform_rows_symbols(a, pair)


def test_gram_invariance_under_isotropic_pairs():
    rng = random.Random(47)
    for field in (GF2, GF3, GF5):
        for _ in range(40):
            n = rng.randint(6, 14)
            k = rng.randint(1, n - 4)
            code = random_standard_code(rng, field, n, k)
            pair = random_isotropic_pair(rng, field, n - k)
            out = transform_code(code, pair)
            g1, g2 = code.generator, out.generator
            assert matmul(g1, transpose(g1)) == matmul(g2, transpose(g2))
            assert hull_dim(out) == hull_dim(code)


def test_transform_code_lcd_reproductions():
    for code_name, pair_name, d_expect in [
        ("a381310", "c381311", 11),
        ("a40226", "c40227", 7),
    ]:
        seed = load_a_block_code(code_name)
        out = transform_code(seed, load_pair(pair_name))
        assert is_lcd(out)
        assert min_weight(out) == d_expect


def test_transform_code_checked_requires_hypothesis():
    code = random_standard_code(random.Random(53), GF2, 10, 4)
    bad = TransformPair(bits("100000"), bits("010000"))  # odd weights
    assert not bad.isotropic and not bad.de_safe
    with pytest.raises(HypothesisError):
        transform_code(code, bad)
    out = transform_code(code, bad, mode="unchecked")
    assert (out.n, out.k) == (10, 4)


def test_checked_mode_catches_a_bug_after_seed_facts_are_cached(monkeypatch):
    ham = extended_hamming()
    form = standard_form(ham)
    y4 = FieldVector(GF2, [1, 1, 1, 1])
    pair = TransformPair(y4, y4)
    assert pair.isotropic and pair.de_safe
    transform_code(form, pair, mode="checked")
    assert {"a_gram", "doubly_even"} <= vars(form).keys()  # seed side now cached

    real = transform_rows

    def flip_one_bit(a, p):
        rows = list(real(a, p).row_bits)
        rows[0] ^= 1
        return FieldMatrix.from_bit_rows(rows, a.cols)

    monkeypatch.setattr(hullkit.transform, "transform_rows", flip_one_bit)
    with pytest.raises(PostconditionError):
        transform_code(form, pair, mode="checked")
    iso_only = TransformPair(FieldVector(GF2, [1, 1, 0, 0]), FieldVector(GF2, [0, 0, 1, 1]))
    assert iso_only.isotropic and not iso_only.de_safe  # the Gram check alone
    with pytest.raises(PostconditionError):
        transform_code(form, iso_only, mode="checked")
    with pytest.raises(PostconditionError):
        sd_search(ham, y4, [y4], d_target=4)



def test_checked_mode_catches_lost_double_evenness_behind_a_passing_gram(monkeypatch):
    # A' = I passes the Gram check on the extended Hamming seed, since
    # I I^T = A A^T = I, but every row of [I | I] has weight 2
    ham = extended_hamming()
    form = standard_form(ham)
    y4 = FieldVector(GF2, [1, 1, 1, 1])
    pair = TransformPair(y4, y4)
    assert pair.isotropic and pair.de_safe and form.a_gram == FieldMatrix.identity(GF2, 4)
    monkeypatch.setattr(hullkit.transform, "transform_rows", lambda a, p: FieldMatrix.identity(GF2, 4))
    with pytest.raises(PostconditionError, match="double evenness lost under a de_safe pair"):
        transform_code(form, pair, mode="checked")
    with pytest.raises(PostconditionError, match="double evenness lost"):
        sd_search(ham, y4, [y4], d_target=4)

def test_transform_code_records_permutation_provenance():
    c = LinearCode(FieldMatrix(GF2, [[0, 0, 1, 1], [0, 1, 0, 1]], cols=4))
    pair = TransformPair(bits("11"), bits("11"))
    out = transform_code(c, pair)
    assert out.provenance["column_permutation"] == (2, 3, 1, 4)


def test_exhaustive_de_safe_pairs_on_extended_hamming():
    ham = extended_hamming()
    m = 4
    outputs = 0
    for xv in range(1, 1 << m):
        for yv in range(1, 1 << m):
            if xv.bit_count() % 4 or yv.bit_count() % 4:
                continue
            if (xv & yv).bit_count() % 2:
                continue
            pair = TransformPair(FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m))
            assert pair.de_safe
            out = transform_code(ham, pair)
            weights = {sum(map(bool, w)) for w in enumerate_codewords_naive(out)}
            assert weights <= {0, 4, 8}
            assert is_doubly_even(out) and is_self_dual(out)
            outputs += 1
    assert outputs >= 1


def test_sign_variants_gf2_collapse():
    # over GF(2), -v = v: the orbit collapses to the classes {(x,y)} and {(y,x)}
    pair = TransformPair(bits("0011"), bits("1100"))
    variants = sign_variants(pair)
    assert variants[0] == variants[1] == variants[3] == variants[4] == pair
    assert variants[2] == pair.swapped()


def test_gf2_m_matrix_depends_only_on_the_span():
    # over GF(2), M(x,y) = I + x^T y + y^T x is the same for every basis of span{x, y}
    pairs = 0
    for m in range(2, 7):
        for pair in exhaustive_isotropic_pairs(m):
            x, y = pair.x, pair.y
            if x == y:
                continue
            other = TransformPair(x, FieldVector.from_bits(x.bits ^ y.bits, m))
            assert m_matrix(pair) == m_matrix(pair.swapped()) == m_matrix(other)
            pairs += 1
    assert pairs == 18 + 90 + 450  # x != y among the 1, 3, 25, 105 and 481 pairs at m = 2..6


def test_sign_variants_requires_isotropy():
    with pytest.raises(HypothesisError):
        sign_variants(TransformPair(bits("100"), bits("010")))


def _codeword_set(code):
    return set(enumerate_codewords_naive(code))


def test_sign_variant_code_equalities_gf3_gf5():
    rng = random.Random(59)
    for field in (GF3, GF5):
        for _ in range(20):
            seed = random_standard_code(rng, field, 6, 3)
            pair = random_isotropic_pair(rng, field, 3)
            v = sign_variants(pair)
            codes = [_codeword_set(transform_code(seed, p)) for p in v]
            assert codes[0] == codes[1]
            assert codes[2] == codes[3] == codes[4]


def test_m_matrix_swap_inverts_under_isotropy():
    # exploratory: no API claim, but on tested instances M(x,y) M(y,x) = I
    rng = random.Random(61)
    for field in (GF2, GF3, GF5):
        for _ in range(10):
            pair = random_isotropic_pair(rng, field, 6)
            prod = matmul(m_matrix(pair), m_matrix(pair.swapped()))
            assert prod == FieldMatrix.identity(field, 6)


def test_weight_identity_examples_and_random():
    u = bits("1100")
    assert weight_identity_check(u, u)
    assert weight_identity_check(bits("1100"), bits("0110"))
    rng = random.Random(67)
    for _ in range(1000):
        a = FieldVector.from_bits(rng.getrandbits(64), 64)
        b = FieldVector.from_bits(rng.getrandbits(64), 64)
        assert weight_identity_check(a, b)


def test_mod4_congruence_checks():
    rng = random.Random(71)
    d11 = load_seed("D11")
    a = standard_form(d11).a_block
    for _ in range(100):
        pair = random_de_safe_pair(rng, 28)
        assert mod4_weight_check(a, pair)
    a37 = standard_form(load_a_block_code("a37225")).a_block
    for _ in range(25):
        pair = random_de_safe_pair(rng, 15)
        assert mod4_weight_check(a37, pair)
    with pytest.raises(HypothesisError):
        mod4_weight_check(a37, TransformPair(bits("1" * 15), bits("1" * 15)))


def test_even_lcd_specialization_with_all_ones():
    # even LCD seed, m even, even-weight x, y = all-ones:
    # transformed row i equals r_i + x + (r_i, x) * ones
    rng = random.Random(73)
    m = 6
    ones = FieldVector.all_ones(GF2, m)
    found = 0
    while found < 10:
        a = FieldMatrix(
            GF2,
            [[rng.getrandbits(1) for _ in range(m)] for _ in range(4)],
            cols=m,
        )
        # force odd-weight A rows so the code [I|A] is even
        a = FieldMatrix(
            GF2,
            [row[:-1] + ((1 - sum(row[:-1]) % 2),) for row in a.entries],
            cols=m,
        )
        code = LinearCode(FieldMatrix.identity(GF2, 4).hstack(a))
        from hullkit import is_even, is_lcd as _is_lcd

        if not (_is_lcd(code) and is_even(code)):
            continue
        found += 1
        xv = rng.getrandbits(m)
        if xv == 0 or xv.bit_count() % 2:
            continue
        x = FieldVector.from_bits(xv, m)
        pair = TransformPair(x, ones)
        out = transform_rows(a, pair)
        for i in range(a.rows):
            r = a.row(i)
            expected = r + x if inner_product(r, x) == 0 else r + x + ones
            assert out.row(i) == expected


def test_doubly_even_self_dual_specialization_with_all_ones():
    # doubly even self-dual seed, wt(x) = 0 mod 4, y = all-ones: same row identity
    for seed in (extended_hamming(), load_seed("D11")):
        m = seed.n - seed.k
        a = standard_form(seed).a_block
        ones = FieldVector.all_ones(GF2, m)
        rng = random.Random(79 + m)
        for _ in range(10):
            xv = rng.getrandbits(m)
            if xv == 0 or xv.bit_count() % 4:
                continue
            x = FieldVector.from_bits(xv, m)
            out = transform_rows(a, TransformPair(x, ones))
            for i in range(a.rows):
                r = a.row(i)
                expected = r + x if inner_product(r, x) == 0 else r + x + ones
                assert out.row(i) == expected


@pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic-indic", "fullwidth"])
def test_pair_text_takes_only_ascii_digits(digit):
    # int() reads both as 1
    with pytest.raises(CodeParseError, match="<string>:1: invalid literal"):
        TransformPair.parse(f"x={digit}{digit}00\ny=0011")
    with pytest.raises(CodeParseError, match="<string>:2: .*out of range"):
        TransformPair.parse("x=1100\ny=0012")


def test_transform_outputs_are_their_own_reduced_form():
    # every output of the one [I_k | A] constructor is already in RREF, pivots first
    rng = random.Random(24)
    cases = [(load_seed(name), make_yi(28, 4)) for name in CIRCULANT_SEED_NAMES]
    cases += [(load_a_block_code(PAIR_SEED[name]), load_pair(name)) for name in PAIR_SEED]
    for seed, pair_or_y in cases:
        perm = list(range(1, seed.n + 1))
        permuted = seed
        while standard_form(permuted).is_identity_permutation:
            rng.shuffle(perm)
            permuted = apply_column_permutation(seed, perm)
        for code in (seed, permuted):
            form = standard_form(code)
            if isinstance(pair_or_y, TransformPair):
                pairs = [pair_or_y]
            else:
                pairs = [TransformPair(x, pair_or_y) for x in sampled_x(28, pair_or_y, 3, rng_seed=7)]
            for pair in pairs:
                out = transform_code(form, pair)
                assert out.generator == FieldMatrix.identity(GF2, out.k).hstack(transform_rows(form.a_block, pair))
                assert out._reduced == out.generator
                assert out._pivots == tuple(range(out.k))
                assert out.provenance == ({} if form.is_identity_permutation
                                          else {"column_permutation": form.column_permutation})
        assert not form.is_identity_permutation
        direct = LinearCode.systematic(form.a_block)
        assert (direct._reduced, direct._pivots) == (direct.generator, tuple(range(direct.k)))


@pytest.mark.parametrize("seed", range(4))
def test_packed_m_matrix_matches_the_symbol_path(seed):
    rng = random.Random(seed)
    for _ in range(15):
        m = rng.choice([rng.randint(1, 20), rng.randint(60, 80)])
        x, y = (FieldVector.from_bits(rng.getrandbits(m) | 1 << rng.randrange(m), m) for _ in range(2))
        packed = m_matrix(TransformPair(x, y))
        assert packed._entries is None and x._symbols is None and y._symbols is None
        symbolic = _m_matrix_symbols(TransformPair(FieldVector(GF2, x.symbols), FieldVector(GF2, y.symbols)))
        assert packed == symbolic and packed.entries == symbolic.entries
