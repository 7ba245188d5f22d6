import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullkit
from hullkit import (
    GF2,
    DimensionError,
    FieldMatrix,
    FieldVector,
    PrimeField,
    TransformPair,
    inner_product,
    m_matrix,
    matmul,
    rank,
    rref,
    transform_rows,
    transpose,
)
from hullkit.field import _inner_product_symbols, _matmul_symbols, gram, parse_symbols

from conftest import GF3, GF5, random_matrix, random_vector


def test_prime_validation():
    PrimeField(2)
    PrimeField(251)
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_element_range_checked():
    with pytest.raises(ValueError):
        FieldVector(GF2, [0, 2])
    with pytest.raises(ValueError):
        FieldVector(GF3, [-1])


def test_gf2_vector_packs_and_round_trips():
    v = FieldVector(GF2, [1, 0, 1, 1, 0])
    assert v.bits == 0b01101
    assert FieldVector.from_bits(v.bits, 5) == v
    assert v.weight == 3
    assert v.to_string() == "10110"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_packed_vector_matches_symbol_built(n_bits):
    n, bits = n_bits
    packed = FieldVector.from_bits(bits, n)
    sym = FieldVector(GF2, [(bits >> i) & 1 for i in range(n)])
    assert len(packed) == n
    assert packed.to_string() == sym.to_string()
    assert packed.is_zero() == sym.is_zero() == (bits == 0)
    assert packed == sym and hash(packed) == hash(sym)
    assert packed.symbols == sym.symbols
    assert packed != FieldVector.from_bits(bits, n + 1)


def test_inner_product_examples():
    u = FieldVector(GF2, [1, 1, 0, 0])
    v = FieldVector(GF2, [0, 1, 1, 0])
    assert inner_product(u, v) == 1
    y4 = FieldVector(GF2, [1, 1, 1, 1])
    assert inner_product(y4, y4) == 0
    assert inner_product(FieldVector(GF3, [1, 2]), FieldVector(GF3, [2, 2])) == 0


def test_inner_product_mismatches():
    with pytest.raises(DimensionError):
        inner_product(FieldVector(GF2, [1, 0]), FieldVector(GF2, [1, 0, 0]))
    with pytest.raises(DimensionError):
        inner_product(FieldVector(GF2, [1, 0]), FieldVector(GF3, [1, 0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_inner_product_symmetric_bilinear_gf2(a, b, c):
    u = FieldVector.from_bits(a, 10)
    v = FieldVector.from_bits(b, 10)
    w = FieldVector.from_bits(c, 10)
    assert inner_product(u, v) == inner_product(v, u)
    assert inner_product(u + v, w) == (inner_product(u, w) + inner_product(v, w)) % 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([3, 5]))
def test_inner_product_symmetric_bilinear_generic(seed, p):
    rng = random.Random(seed)
    field = PrimeField(p)
    u = random_vector(rng, field, 7)
    v = random_vector(rng, field, 7)
    w = random_vector(rng, field, 7)
    a = rng.randrange(p)
    assert inner_product(u, v) == inner_product(v, u)
    lhs = inner_product(u.scale(a) + v, w)
    rhs = (a * inner_product(u, w) + inner_product(v, w)) % p
    assert lhs == rhs


def test_packed_vs_symbolic_differential():
    rng = random.Random(7)
    for _ in range(1000):
        m = rng.randint(1, 40)
        u = FieldVector.from_bits(rng.getrandbits(m), m)
        v = FieldVector.from_bits(rng.getrandbits(m), m)
        assert inner_product(u, v) == _inner_product_symbols(u, v)
    for _ in range(1000):
        r, inner, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, GF2, r, inner)
        b = random_matrix(rng, GF2, inner, c)
        assert matmul(a, b) == _matmul_symbols(a, b)


def test_rank_examples():
    assert rank(FieldMatrix.identity(GF2, 3)) == 3
    assert rank(FieldMatrix.zeros(GF2, 3, 3)) == 0


def test_rank_gram_of_extended_hamming_standard_form():
    # oracle: direct elimination on the 4x4 product; hull dim 4 forces rank 0
    from conftest import extended_hamming

    g = extended_hamming().generator
    gram = matmul(g, transpose(g))
    assert gram == FieldMatrix.zeros(GF2, 4, 4)
    assert rank(gram) == 0


def test_matmul_identity_and_errors():
    rng = random.Random(3)
    m = random_matrix(rng, GF3, 2, 5)
    assert matmul(FieldMatrix.identity(GF3, 2), m) == m
    with pytest.raises(DimensionError):
        matmul(m, m)
    with pytest.raises(DimensionError):
        matmul(m, random_matrix(rng, GF5, 5, 2))


def test_rref_swapped_identity():
    reduced, pivots = rref(FieldMatrix(GF2, [[0, 1], [1, 0]], cols=2))
    assert reduced == FieldMatrix.identity(GF2, 2)
    assert pivots == (1, 2)


def test_rref_pivots_increasing_and_scaled():
    m = FieldMatrix(GF3, [[0, 2, 1], [2, 1, 0]], cols=3)
    reduced, pivots = rref(m)
    assert pivots == (1, 2)
    for i, p in enumerate(pivots):
        assert reduced.entries[i][p - 1] == 1


def test_transpose_involution():
    rng = random.Random(11)
    for _ in range(100):
        m = random_matrix(rng, GF3, 5, 7)
        assert transpose(transpose(m)) == m


def test_rank_transpose_agreement():
    rng = random.Random(13)
    for field in (GF2, GF3, GF5):
        for _ in range(50):
            m = random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
            assert rank(m) == rank(transpose(m))


def test_matrices_are_immutable_values():
    m = FieldMatrix.identity(GF2, 2)
    with pytest.raises(AttributeError):
        m.rows = 5
    v = FieldVector(GF2, [1, 0])
    with pytest.raises(AttributeError):
        v.bits = 3


def test_from_bit_rows_rejects_rows_that_do_not_fit():
    with pytest.raises(ValueError):
        FieldMatrix.from_bit_rows([0b100, 0b11], 2)
    with pytest.raises(ValueError):
        FieldMatrix.from_bit_rows([-1], 4)
    with pytest.raises(ValueError):
        FieldMatrix.from_bit_rows([1], 0)
    m = FieldMatrix.from_bit_rows([0b10, 0b11], 2)
    assert m.entries == ((0, 1), (1, 1))
    assert m != FieldMatrix.from_bit_rows([0b10, 0b01], 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_packed_matrix_ops_match_symbol_built(seed):
    # oracle: the same matrices built entry by entry through the symbol constructor
    rng = random.Random(seed)
    r, c, c2 = rng.randint(0, 8), rng.randint(0, 70), rng.randint(0, 9)
    ent = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
    sym = FieldMatrix(GF2, ent, cols=c)
    packed = FieldMatrix.from_bit_rows(sym.row_bits, c)
    assert packed == sym and hash(packed) == hash(sym)
    assert packed.entries == sym.entries
    t = FieldMatrix(GF2, [[ent[i][j] for i in range(r)] for j in range(c)], cols=r)
    assert transpose(packed) == t
    other = random_matrix(rng, GF2, r, c2)
    joined = [a + list(b) for a, b in zip(ent, other.entries)]
    assert packed.hstack(other) == FieldMatrix(GF2, joined, cols=c + c2)
    js = [rng.randrange(c) for _ in range(rng.randint(0, 6))] if c else []
    assert packed.take_columns(js) == FieldMatrix(GF2, [[row[j] for j in js] for row in ent],
                                                  cols=len(js))
    assert gram(packed) == _matmul_symbols(sym, t)
    b = random_matrix(rng, GF2, c, c2)
    assert matmul(packed, b) == _matmul_symbols(sym, b)
    size = rng.randint(0, 8)
    eye = FieldMatrix(GF2, [[int(i == j) for j in range(size)] for i in range(size)], cols=size)
    assert FieldMatrix.identity(GF2, size) == eye
    assert hash(FieldMatrix.identity(GF2, size)) == hash(eye)


def test_gram_generic_field_matches_symbol_product():
    rng = random.Random(17)
    for field in (GF3, GF5):
        m = random_matrix(rng, field, 4, 6)
        assert gram(m) == _matmul_symbols(m, transpose(m))


def test_parse_symbols_reads_ascii_digits_only():
    assert parse_symbols(GF3, "0120") == (0, 1, 2, 0)
    assert parse_symbols(GF2, "") == ()
    for text in ("1\u0661", "\uff11", "1 0", "1a"):
        with pytest.raises(ValueError, match="invalid literal for a GF\\(2\\) symbol"):
            parse_symbols(GF2, text)
    with pytest.raises(ValueError, match="out of range"):
        parse_symbols(GF3, "0130")


@pytest.mark.parametrize("seed", range(4))
def test_row_negation_and_row_selection_match_symbol_built(seed):
    rng = random.Random(seed)
    for field in (GF2, GF3, GF5):
        r, c = rng.randint(0, 5), rng.randint(0, 7)
        sym = random_matrix(rng, field, r, c)
        m = FieldMatrix.from_bit_rows(sym.row_bits, c) if field.binary else sym
        rows = [rng.randrange(r) for _ in range(rng.randint(0, 4))] if r else []
        assert m.take_rows(rows).entries == tuple(sym.entries[i] for i in rows)
        assert (-m).entries == tuple(tuple(-s % field.p for s in row) for row in sym.entries)
        for i in range(r):
            assert m.row(i) == FieldVector(field, sym.entries[i])
            if field.binary:
                assert m.row(i).bits == m.row_bits[i] and m.row(i)._symbols is None


def test_from_bit_rows_still_checks_and_converts_rows_from_outside():
    with pytest.raises(ValueError, match="do not fit"):
        FieldMatrix.from_bit_rows([0b1, -2], 3)
    with pytest.raises(ValueError, match="do not fit"):
        FieldMatrix.from_bit_rows([1 << 70], 70)
    with pytest.raises(ValueError, match="do not fit"):
        FieldMatrix.from_bit_rows(np.array([8], dtype=np.uint64), 3)
    m = FieldMatrix.from_bit_rows(np.array([5, 2**63 + 1], dtype=np.uint64), 64)
    assert [type(b) for b in m.row_bits] == [int, int] and m.row_bits == (5, 2**63 + 1)
    assert FieldMatrix.from_bit_rows([np.int64(3)], 2).row_bits == (3,)


@pytest.mark.parametrize("shape", ["cols <= 64", "cols > 64", "no rows"])
@pytest.mark.parametrize("seed", range(6))
def test_packed_operations_build_int_rows_that_fit(shape, seed):
    # the operations build on FieldMatrix._trusted, which checks nothing, so
    # every row they return must already be a Python int below 2^cols
    rng = random.Random(seed)
    r = 0 if shape == "no rows" else rng.randint(1, 8)
    c = rng.randint(65, 140) if shape == "cols > 64" else rng.randint(1, 64)
    c2 = rng.choice([rng.randint(0, 64), rng.randint(65, 100)])
    m = FieldMatrix.from_bit_rows([rng.getrandbits(c) for _ in range(r)], c)
    other = FieldMatrix.from_bit_rows([rng.getrandbits(c2) for _ in range(r)], c2)
    b = FieldMatrix.from_bit_rows([rng.getrandbits(c2) for _ in range(c)], c2)
    x, y = (FieldVector.from_bits(rng.getrandbits(c) | 1 << rng.randrange(c), c) for _ in range(2))
    pair = TransformPair(x, y)
    built = {
        "identity": FieldMatrix.identity(GF2, c),
        "zeros": FieldMatrix.zeros(GF2, r, c),
        "hstack": m.hstack(other),
        "take_columns": m.take_columns([rng.randrange(c) for _ in range(rng.randint(0, 80))]),
        "take_rows": m.take_rows([rng.randrange(r) for _ in range(rng.randint(0, 9))] if r else []),
        "transpose": transpose(m),
        "matmul": matmul(m, b),
        "gram": gram(m),
        "rref": rref(m)[0],
        "transform_rows": transform_rows(m, pair),
        "m_matrix": m_matrix(pair),
    }
    for name, out in built.items():
        assert out.rows == len(out.row_bits) and out._entries is None, name
        assert all(type(row) is int and 0 <= row < 1 << out.cols for row in out.row_bits), name


def test_only_field_and_transform_build_on_trusted_rows():
    # rows from anywhere else enter through the checked constructors
    callers = set()
    for path in sorted(Path(hullkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                callers.add(path.stem)
    assert callers == {"field", "transform"}


@pytest.mark.parametrize("field", [GF2, GF3])
def test_row_and_column_selection_refuse_indices_out_of_range(field):
    m = random_matrix(random.Random(5), field, 2, 3)
    if field.binary:
        m = FieldMatrix.from_bit_rows(m.row_bits, 3)  # the packed path
    for js in ([0, 7], [-1], [3], [2, 0, -4]):
        with pytest.raises(IndexError, match="column index"):
            m.take_columns(js)
    for rs in ([-1], [2], [0, 5]):
        with pytest.raises(IndexError, match="row index"):
            m.take_rows(rs)
    assert m.take_columns([2, 0]).entries == tuple((row[2], row[0]) for row in m.entries)
    assert m.take_rows([1, 1]).entries == (m.entries[1], m.entries[1])
    assert m.take_columns([]).cols == 0 and m.take_rows([]).rows == 0
