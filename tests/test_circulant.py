import random

import pytest

from hullkit import (
    GF2,
    CirculantSpec,
    FieldMatrix,
    FieldVector,
    LinearCode,
    bordered_double_circulant,
    circulant_matrix,
    is_doubly_even,
    is_self_dual,
    pure_double_circulant,
    standard_form,
)
from hullkit.artifacts import ARTIFACTS, CIRCULANT_SEED_NAMES, load_seed

from conftest import GF3, enumerate_codewords_naive


def spec_of(symbols):
    return CirculantSpec(FieldVector(GF2, symbols))


def test_circulant_matrix_examples():
    assert circulant_matrix(spec_of([1, 0, 0])) == FieldMatrix.identity(GF2, 3)
    assert circulant_matrix(spec_of([1, 1, 0])) == FieldMatrix(
        GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], cols=3
    )


def test_circulant_row_sums_constant():
    rng = random.Random(83)
    for _ in range(50):
        l = rng.randint(1, 12)
        row = FieldVector.from_bits(rng.getrandbits(l), l)
        mat = circulant_matrix(CirculantSpec(row))
        for r in mat.entries:
            assert sum(r) == row.weight


def test_an_empty_first_row_is_refused():
    with pytest.raises(ValueError, match="empty"):
        CirculantSpec(FieldVector(GF2, []))


def test_pure_double_circulant_examples():
    c = pure_double_circulant(spec_of([1]))
    assert (c.n, c.k) == (2, 1)
    assert set(enumerate_codewords_naive(c)) == {(0, 0), (1, 1)}
    c = pure_double_circulant(spec_of([1, 1, 0]))
    assert (c.n, c.k) == (6, 3)
    assert c.generator.entries[0][:3] == (1, 0, 0)


def test_pure_double_circulant_standard_form_is_identity():
    rng = random.Random(89)
    for _ in range(20):
        l = rng.randint(1, 10)
        row = FieldVector.from_bits(rng.getrandbits(l), l)
        sf = standard_form(pure_double_circulant(CirculantSpec(row)))
        assert sf.is_identity_permutation


def test_bordered_small_example():
    # first row (1): generator rows enumerate to a 4-codeword [4,2] code
    c = bordered_double_circulant(spec_of([1]))
    assert c.generator.entries == ((1, 0, 0, 1), (0, 1, 1, 1))
    words = set(enumerate_codewords_naive(c))
    assert words == {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)}


def test_bordered_border_pattern():
    rng = random.Random(97)
    for _ in range(10):
        l = rng.randint(1, 9)
        row = FieldVector.from_bits(rng.getrandbits(l), l)
        c = bordered_double_circulant(CirculantSpec(row))
        k = l + 1
        b_rows = [r[k:] for r in c.generator.entries]
        assert b_rows[0] == tuple([0] + [1] * l)
        assert all(br[0] == 1 for br in b_rows[1:])


def test_six_bundled_seeds_are_56_28_doubly_even_self_dual():
    assert set(CIRCULANT_SEED_NAMES) == {
        n for n, a in ARTIFACTS.items() if a.kind == "circulant-seed"
    }
    for name in CIRCULANT_SEED_NAMES:
        code = load_seed(name)
        assert (code.n, code.k) == (56, 28)
        assert is_self_dual(code)
        assert is_doubly_even(code)


def test_seed_payloads_round_trip():
    for name in CIRCULANT_SEED_NAMES:
        payload = ARTIFACTS[name].payload
        assert len(payload) == 27
        assert FieldVector(GF2, [int(c) for c in payload]).to_string() == payload


def test_bordered_golay_hits_length_24_extremal_bound():
    # 1s at {0} plus the quadratic residues mod 11: the [24,12,8] Golay code
    from hullkit import is_extremal_doubly_even_self_dual, min_weight

    row = [1 if i in {0, 1, 3, 4, 5, 9} else 0 for i in range(11)]
    code = bordered_double_circulant(spec_of(row))
    assert (code.n, code.k) == (24, 12)
    assert is_self_dual(code) and is_doubly_even(code)
    d = min_weight(code)
    assert d == 8
    assert is_extremal_doubly_even_self_dual(code, d)
    assert not is_extremal_doubly_even_self_dual(code, 4)


@pytest.mark.parametrize("seed", range(4))
def test_packed_circulants_match_symbol_built(seed):
    # oracle: the same matrices built entry by entry from the first row's symbols
    rng = random.Random(seed)
    for _ in range(15):
        l = rng.choice([rng.randint(1, 20), rng.randint(60, 80)])
        bits = rng.getrandbits(l)
        syms = [(bits >> j) & 1 for j in range(l)]
        circ = [[syms[(j - i) % l] for j in range(l)] for i in range(l)]
        spec = CirculantSpec(FieldVector.from_bits(bits, l))
        assert circulant_matrix(spec) == FieldMatrix(GF2, circ, cols=l)
        assert pure_double_circulant(spec).generator == (
            LinearCode.systematic(FieldMatrix(GF2, circ, cols=l)).generator)
        border = [[0] + [1] * l] + [[1] + row for row in circ]
        assert bordered_double_circulant(spec).generator == (
            LinearCode.systematic(FieldMatrix(GF2, border, cols=l + 1)).generator)
        assert spec.first_row._symbols is None  # never unpacked


def test_circulants_keep_the_symbol_path_for_odd_p():
    row = FieldVector(GF3, [1, 2, 0])
    assert circulant_matrix(CirculantSpec(row)) == FieldMatrix(
        GF3, [[1, 2, 0], [0, 1, 2], [2, 0, 1]], cols=3)
    code = bordered_double_circulant(CirculantSpec(row))
    assert code.generator.entries[1] == (0, 1, 0, 0, 1, 1, 2, 0)
