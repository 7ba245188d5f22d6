import random

import pytest

from hullkit import (
    GF2,
    CodeParseError,
    DimensionError,
    FieldMatrix,
    FieldVector,
    LinearCode,
    PredicateError,
    UnsupportedFieldError,
    apply_column_permutation,
    dual,
    format_code,
    hull_dim,
    is_doubly_even,
    is_even,
    is_extremal_doubly_even_self_dual,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
    parse_code,
    puncture,
    same_code,
    shorten,
    standard_form,
)
from hullkit.artifacts import load_a_block_code, load_seed

from conftest import (
    GF3,
    enumerate_codewords_naive,
    extended_hamming,
    hull_dim_naive,
    random_code,
    weight_distribution_naive,
)


def _code(rows, field=GF2, n=None):
    return LinearCode(FieldMatrix(field, rows, cols=n))


def test_generator_must_be_full_rank():
    with pytest.raises(ValueError, match="row 3"):
        _code([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_more_rows_than_columns_is_a_dimension_error():
    # checked before the rank: such a generator is always rank-deficient
    with pytest.raises(DimensionError, match="exceeds length"):
        _code([[1, 0], [0, 1], [1, 1]])


def test_membership():
    c = _code([[1, 0, 1], [0, 1, 1]])
    assert c.contains(FieldVector(GF2, [1, 1, 0]))
    assert c.contains(FieldVector(GF2, [0, 0, 0]))
    assert not c.contains(FieldVector(GF2, [1, 1, 1]))
    with pytest.raises(DimensionError):
        c.contains(FieldVector(GF2, [1, 1]))


def test_standard_form_identity_cases():
    sf = standard_form(_code([[1, 0, 1], [0, 1, 1]]))
    assert sf.is_identity_permutation
    assert sf.a_block.entries == ((1,), (1,))
    # swapped pivot rows still reduce to the identity permutation
    sf = standard_form(_code([[0, 1, 1], [1, 0, 1]]))
    assert sf.is_identity_permutation


def test_standard_form_permutation_case():
    # pivots in columns {2,3} move forward; all 4 codewords must map across
    c = _code([[0, 0, 1, 1], [0, 1, 0, 1]])
    sf = standard_form(c)
    assert sf.column_permutation == (2, 3, 1, 4)
    permuted = apply_column_permutation(c, sf.column_permutation)
    sf_code = sf.code()
    words_direct = {w for w in enumerate_codewords_naive(permuted)}
    words_form = {w for w in enumerate_codewords_naive(sf_code)}
    assert words_direct == words_form
    assert len(words_direct) == 4


def test_standard_form_preserves_invariants_under_permutation():
    rng = random.Random(5)
    for _ in range(25):
        c = random_code(rng, GF2, 9, rng.randint(1, 5))
        sf = standard_form(c)
        assert hull_dim(sf.code()) == hull_dim(c)


def test_dual_of_full_space_is_zero_code():
    full = _code([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z = dual(full)
    assert (z.n, z.k) == (3, 0)
    assert dual(z).k == 3  # and back


def test_dual_dual_round_trip():
    rng = random.Random(9)
    for _ in range(10):
        c = random_code(rng, GF2, 10, 4)
        dd = dual(dual(c))
        assert same_code(c, dd)
        for word in enumerate_codewords_naive(c):
            assert dd.contains(FieldVector(GF2, word))


def test_dual_rows_orthogonal_generic():
    rng = random.Random(10)
    for field in (GF2, GF3):
        c = random_code(rng, field, 8, 3)
        d = dual(c)
        assert d.k == 5
        for i in range(c.k):
            for j in range(d.k):
                from hullkit import inner_product

                assert inner_product(c.generator.row(i), d.generator.row(j)) == 0


def test_d11_is_self_dual():
    d11 = load_seed("D11")
    assert same_code(dual(d11), d11)
    assert is_self_dual(d11)


def test_hull_dim_examples():
    assert hull_dim(load_seed("D11")) == 28
    assert hull_dim(load_a_block_code("a37225")) == 0
    assert is_lcd(load_a_block_code("a381310"))


def test_hull_dim_matches_direct_intersection_oracle():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(4, 12)
        k = rng.randint(1, min(6, n - 1))
        c = random_code(rng, GF2, n, k)
        assert hull_dim(c) == hull_dim_naive(c)


def test_predicate_examples():
    two = _code([[1, 1]])
    assert is_self_orthogonal(two)
    assert not is_lcd(two)
    assert not is_self_dual(_code([[1, 1, 0]]))
    assert is_self_dual(_code([[1, 1]]))


def test_even_and_doubly_even():
    ham = extended_hamming()
    assert is_even(ham)
    assert is_doubly_even(ham)
    # enumeration oracle: all 16 weights divisible by 4
    weights = {sum(w) for w in enumerate_codewords_naive(ham)}
    assert weights == {0, 4, 8}
    assert not is_even(_code([[1, 0]]))
    assert is_doubly_even(load_seed("D11"))
    with pytest.raises(UnsupportedFieldError):
        is_even(random_code(random.Random(1), GF3, 4, 2))


def test_doubly_even_implies_self_orthogonal():
    for name in ("D11", "C56.1"):
        c = load_seed(name)
        if is_doubly_even(c):
            assert is_self_orthogonal(c)
    assert is_self_orthogonal(extended_hamming())


def test_extremality_bound():
    d11 = load_seed("D11")
    assert is_extremal_doubly_even_self_dual(d11, 12)
    assert not is_extremal_doubly_even_self_dual(d11, 8)
    assert is_extremal_doubly_even_self_dual(extended_hamming(), 4)
    with pytest.raises(PredicateError):
        is_extremal_doubly_even_self_dual(_code([[1, 0]]), 1)


def test_shorten_basics():
    full = _code([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    s = shorten(full, {1})
    assert (s.n, s.k) == (2, 2)
    with pytest.raises(DimensionError):
        shorten(full, {0})
    with pytest.raises(DimensionError):
        shorten(full, {4})


def test_puncture_extended_hamming_gives_7_4_3():
    ham = extended_hamming()
    p = puncture(ham, {8})
    assert (p.n, p.k) == (7, 4)
    dist = weight_distribution_naive(p)
    assert min(w for w in dist if w > 0) == 3


def test_shorten_reinflates_into_parent():
    rng = random.Random(21)
    for _ in range(20):
        c = random_code(rng, GF2, 9, 4)
        t = sorted(rng.sample(range(1, 10), rng.randint(1, 3)))
        s = shorten(c, t)
        keep = [j for j in range(9) if j + 1 not in t]
        for word in enumerate_codewords_naive(s):
            inflated = [0] * 9
            for j, s_j in zip(keep, word):
                inflated[j] = s_j
            assert c.contains(FieldVector(GF2, inflated))


def test_shorten_matches_naive_oracle():
    # shorten goes through dual(puncture(dual(C))); check it against the
    # definition instead: the codewords of C that vanish on T, T deleted
    rng = random.Random(23)
    for field in (GF2, GF3):
        for _ in range(20):
            n = rng.randint(2, 8)
            c = random_code(rng, field, n, rng.randint(1, min(4, n)))
            t = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            keep = [j for j in range(n) if j + 1 not in t]
            expected = {
                tuple(word[j] for j in keep)
                for word in enumerate_codewords_naive(c)
                if all(word[j - 1] == 0 for j in t)
            }
            s = shorten(c, t)
            assert s.n == len(keep)
            assert set(enumerate_codewords_naive(s)) == expected


def test_puncture_shorten_duality():
    rng = random.Random(22)
    for field in (GF2, GF3):
        for _ in range(15):
            c = random_code(rng, field, 8, 3)
            t = sorted(rng.sample(range(1, 9), 2))
            lhs = puncture(dual(c), t)
            rhs = dual(shorten(c, t))
            assert same_code(lhs, rhs)


def test_code_file_round_trip():
    c = extended_hamming()
    text = format_code(c)
    c2 = parse_code(text)
    assert c2.generator == c.generator
    assert format_code(c2) == text


def test_code_file_diagnostics():
    with pytest.raises(CodeParseError, match="1"):
        parse_code("")
    with pytest.raises(CodeParseError, match="q n k"):
        parse_code("2 4\n1111")
    with pytest.raises(CodeParseError, match="expected 2 generator rows"):
        parse_code("2 4 2\n1100")
    with pytest.raises(CodeParseError, match=":2"):
        parse_code("2 4 1\n110")
    with pytest.raises(CodeParseError, match="out of range"):
        parse_code("2 4 1\n1121")
    with pytest.raises(CodeParseError, match="row 2 is linearly dependent"):
        parse_code("2 4 2\n1100\n1100")


@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_dependency_diagnostics_name_the_first_dependent_row(field):
    # row 3 = row 1 + row 2 (row 4 also depends, but row 3 comes first)
    rows = [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 2 % field.p, 1], [1, 0, 1, 0]]
    with pytest.raises(ValueError, match="row 3 depends on earlier rows"):
        _code(rows, field=field)
    text = f"{field.p} 4 4\n" + "\n".join("".join(map(str, r)) for r in rows)
    with pytest.raises(CodeParseError, match=r"<string>:4: row 3 is linearly dependent on rows 1\.\.2"):
        parse_code(text)
    # a zero first row depends on the empty set of rows before it
    rows = [[0, 0, 0, 0], [1, 0, 1, 0]]
    with pytest.raises(ValueError, match="row 1 depends on earlier rows"):
        _code(rows, field=field)
    with pytest.raises(CodeParseError, match="<string>:2: row 1 is linearly dependent"):
        parse_code(f"{field.p} 4 2\n0000\n1010")


def test_zero_code_and_full_space_are_legal_degenerates():
    z = dual(_code([[1, 0], [0, 1]]))
    assert z.k == 0
    assert z.contains(FieldVector(GF2, [0, 0]))
    assert not z.contains(FieldVector(GF2, [1, 0]))
    with pytest.raises(PredicateError):
        standard_form(z)


def test_standard_form_generic_field_permutation():
    c = _code([[0, 0, 1, 2], [0, 2, 0, 1]], field=GF3)
    sf = standard_form(c)
    assert sf.column_permutation == (2, 3, 1, 4)
    permuted = apply_column_permutation(c, sf.column_permutation)
    assert same_code(permuted, sf.code())
    assert hull_dim(sf.code()) == hull_dim(c)


def test_code_file_round_trip_random():
    rng = random.Random(211)
    for field in (GF2, GF3):
        for _ in range(25):
            n = rng.randint(2, 12)
            c = random_code(rng, field, n, rng.randint(1, n))
            c2 = parse_code(format_code(c))
            assert c2.generator == c.generator
            assert format_code(c2) == format_code(c)
