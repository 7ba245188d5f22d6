import ast
import random
from pathlib import Path

import pytest

import hullkit
from hullkit import (
    GF2,
    CirculantSpec,
    CodeParseError,
    DimensionError,
    FieldMatrix,
    FieldVector,
    LinearCode,
    PredicateError,
    TransformPair,
    UnsupportedFieldError,
    apply_column_permutation,
    bordered_double_circulant,
    dual,
    format_code,
    hull_dim,
    is_doubly_even,
    is_equivalent,
    is_even,
    is_extremal_doubly_even_self_dual,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
    m_matrix,
    parse_code,
    puncture,
    pure_double_circulant,
    rref,
    same_code,
    shorten,
    standard_form,
    transform_code,
)
from hullkit.artifacts import load_a_block_code, load_seed
from hullkit.search import make_yi
from hullkit.verify import run_verification

from conftest import (
    GF3,
    GF5,
    dual_symbolwise,
    enumerate_codewords_naive,
    extended_hamming,
    hull_dim_naive,
    random_code,
    spanning_basis,
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
    # a negative n or k once surfaced as a dependent row 1 or as "expected -1 generator rows"
    with pytest.raises(CodeParseError, match=r"^<string>:1: n and k must be non-negative, got n=-1, k=0$"):
        parse_code("2 -1 0")
    with pytest.raises(CodeParseError, match=r"^<string>:1: n and k must be non-negative, got n=2, k=-1$"):
        parse_code("2 2 -1")
    # lines are those of the text, blank lines counted
    with pytest.raises(CodeParseError, match=r"^<string>:3: n and k must be non-negative"):
        parse_code("\n\n2 2 -1")
    with pytest.raises(CodeParseError, match=r"^<string>:6: row 2 is linearly dependent on rows 1\.\.1$"):
        parse_code("\n\n2 4 2\n1100\n\n1100\n")
    # a wrong row count once named no line: missing rows name the header, extra ones the first extra row
    with pytest.raises(CodeParseError, match=r"^<string>:1: expected 2 generator rows, found 1$"):
        parse_code("2 4 2\n1100")
    with pytest.raises(CodeParseError, match=r"^<string>:2: expected 2 generator rows, found 0$"):
        parse_code("\n2 4 2\n\n")
    with pytest.raises(CodeParseError, match=r"^<string>:4: expected 2 generator rows, found 3$"):
        parse_code("2 4 2\n1100\n0011\n1111")
    with pytest.raises(CodeParseError, match=r"^<string>:6: expected 2 generator rows, found 4$"):
        parse_code("2 4 2\n1100\n\n0011\n\n1111\n1010")


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


@pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic-indic", "fullwidth"])
def test_code_file_takes_only_ascii_digits(digit):
    # int() reads both as 1
    with pytest.raises(CodeParseError, match=r"<string>:2: invalid literal"):
        parse_code(f"2 4 2\n1{digit}00\n0101\n")
    with pytest.raises(CodeParseError, match=r"<string>:3: invalid literal"):
        parse_code(f"3 3 2\n120\n0{digit}1\n")


def test_code_file_with_more_rows_than_columns_names_a_dependent_row():
    with pytest.raises(CodeParseError, match=r"<string>:4: row 3 is linearly dependent on rows 1\.\.2"):
        parse_code("2 2 3\n10\n01\n11\n")


def _punctured_oracle(code, coords):
    keep = [j for j in range(code.n) if j + 1 not in coords]
    return spanning_basis(code.field, [[r[j] for j in keep] for r in code.generator.entries], len(keep))


def _shortened_oracle(code, coords):
    """The reduced dual of the punctured dual, every step on the oracles."""
    punctured = LinearCode(_punctured_oracle(LinearCode(dual_symbolwise(code)), coords))
    return rref(dual_symbolwise(punctured))[0]


@pytest.mark.parametrize("field", [GF2, GF3, GF5], ids=["GF2", "GF3", "GF5"])
def test_dual_puncture_and_shorten_match_the_symbolwise_oracles(field):
    rng = random.Random(4100 + field.p)
    codes = [LinearCode(FieldMatrix.zeros(field, 0, 6)), LinearCode(FieldMatrix.identity(field, 6))]
    for i in range(30):
        n = rng.randint(2, 10)
        code = random_code(rng, field, n, rng.randint(1, n - 1))
        if i % 2:  # a zero first column is never a pivot
            codes.append(LinearCode(FieldMatrix.zeros(field, code.k, 1).hstack(code.generator)))
        else:
            codes.append(_permuted(code, rng.random()))
    assert [c.k for c in codes[:2]] == [0, 6]
    assert sum(c._pivots != tuple(range(c.k)) for c in codes) >= 15
    for code in codes:
        assert dual(code).generator == dual_symbolwise(code)
        coords = set(rng.sample(range(1, code.n + 1), rng.randint(1, code.n - 1)))
        assert puncture(code, coords).generator == _punctured_oracle(code, coords)
        assert shorten(code, coords).generator == _shortened_oracle(code, coords)


def _no_unpacking(monkeypatch):
    """Make unpacking a packed GF(2) matrix or vector raise."""
    for cls, name, slot in ((FieldMatrix, "entries", "_entries"), (FieldVector, "symbols", "_symbols")):
        unpack = getattr(cls, name).fget

        def guarded(self, unpack=unpack, slot=slot):
            if getattr(self, slot) is None:
                raise AssertionError(f"{type(self).__name__} unpacked")
            return unpack(self)

        monkeypatch.setattr(cls, name, property(guarded))


def _permuted(code, seed):
    perm = list(range(1, code.n + 1))
    random.Random(seed).shuffle(perm)
    return apply_column_permutation(code, perm)


_PACKED_CALLS = {
    "dual": dual,
    "dual-k0": lambda c: dual(dual(LinearCode(FieldMatrix.identity(GF2, 5)))),
    "dual-kn": lambda c: dual(LinearCode(FieldMatrix.identity(GF2, 5))),
    "puncture": lambda c: puncture(c, [1, 4, 9]),
    "shorten": lambda c: shorten(c, [2, 3, 20]),
    "same_code": lambda c: same_code(c, _permuted(c, 0)),
    "format_code": format_code,
    "parse_code": lambda c: parse_code(format_code(c)),
    "standard_form": standard_form,
    "transform_code": lambda c: transform_code(c, TransformPair(make_yi(28, 4), make_yi(28, 8))),
    "is_equivalent": lambda c: is_equivalent(load_seed("D11"), c, node_budget=2000),
    "run_verification": lambda c: run_verification(),
    "load_seed": lambda c: _built_packed(load_seed("D11")),
    "pure_double_circulant": lambda c: _built_packed(pure_double_circulant(CirculantSpec(c.generator.row(0)))),
    "bordered_double_circulant":
        lambda c: _built_packed(bordered_double_circulant(CirculantSpec(c.generator.row(0)))),
    "m_matrix": lambda c: _built_packed(m_matrix(TransformPair(
        *(FieldVector.from_bits(make_yi(28, i).bits, 28) for i in (4, 8))))),
}


def _built_packed(value):
    matrix = value.generator if isinstance(value, LinearCode) else value
    assert matrix._entries is None, "built on unpacked rows"
    return value


@pytest.mark.parametrize("call", list(_PACKED_CALLS))
def test_code_operations_never_unpack_packed_rows(monkeypatch, call):
    code = _permuted(load_seed("D11"), 3)  # packed rows, pivots not first
    assert code.generator._entries is None and code._pivots != tuple(range(code.k))
    _no_unpacking(monkeypatch)
    with pytest.raises(AssertionError, match="FieldMatrix unpacked"):
        code.generator.entries
    _PACKED_CALLS[call](code)


def test_one_constructor_assembles_identity_and_a_block():
    # FieldMatrix.identity(...).hstack(...) is built by LinearCode.systematic alone
    src = Path(hullkit.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "hstack" and isinstance(node.func.value, ast.Call)
                            and getattr(node.func.value.func, "attr", None) == "identity"):
                        sites.append((path.name, fn.name))
    assert sites == [("code.py", "systematic")]


def test_is_self_dual_builds_no_gram_unless_n_is_2k(monkeypatch):
    gram = hullkit.code.gram
    calls = []
    monkeypatch.setattr(hullkit.code, "gram", lambda m: calls.append(m) or gram(m))
    code = load_a_block_code("a37225")
    assert (code.n, code.k) == (37, 22)
    assert not is_self_dual(code) and calls == []
    assert is_self_dual(load_seed("D11")) and len(calls) == 1
