"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's fast paths: weight
distributions come from symbol-level enumeration, hull dimensions from
direct membership counting, N_t from a quadruple loop, and equivalence
from brute force over all n! permutations.  Tests freeze expected values
computed by these, then check the production kernels against them.
"""
from __future__ import annotations

import ast
import importlib.util
import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import hullkit
from hullkit import (
    GF2,
    DimensionError,
    FieldMatrix,
    FieldVector,
    HypothesisError,
    LinearCode,
    PrimeField,
    TransformPair,
    UnsupportedFieldError,
    apply_column_permutation,
    bordered_double_circulant,
    dual,
    is_equivalent,
    nt_sequence,
    pure_double_circulant,
    rref,
    same_code,
    transform_rows,
    weight_distribution,
)
from hullkit.circulant import CirculantSpec
from hullkit.minweight import WeightDistribution, _distribution, _scan_binary

GF3 = PrimeField(3)
GF5 = PrimeField(5)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str, monkeypatch):
    """Import perfbench/<name>.py for one test.  Its sibling modules import
    each other by bare name, so the directory goes on sys.path first."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _functions_where(found) -> list[str]:
    """module.function (module.Class.method for a method) for every
    function of hullkit that holds an AST node for which ``found`` holds."""
    source = Path(hullkit.__file__).resolve().parent
    names = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {fn: f"{cls.name}." for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(found, ast.walk(fn))):
                names.append(f"{path.stem}.{owners.get(fn, '')}{fn.name}")
    return names


def _callers(name: str) -> list[str]:
    """Every function of hullkit that calls ``name``, as ``_functions_where`` names it."""
    return _functions_where(lambda node: isinstance(node, ast.Call) and name in
                            (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _writers(attr: str) -> list[str]:
    """Every function of hullkit that assigns ``attr`` of an object, or sets
    it through ``setattr`` or ``__setattr__`` by its name."""
    def writes(node):
        if isinstance(node, ast.Attribute):
            return node.attr == attr and isinstance(node.ctx, ast.Store)
        return (isinstance(node, ast.Call)
                and "setattr" in (getattr(node.func, "id", None), getattr(node.func, "attr", "").strip("_"))
                and any(isinstance(a, ast.Constant) and a.value == attr for a in node.args))
    return _functions_where(writes)


# Weight enumerator of ANY extremal doubly even self-dual [56,28,12] code,
# uniquely determined by the Gleason polynomial basis once A_4 = A_8 = 0
# (pinned by test_minweight.test_gleason_oracle_recomputes).
GLEASON_56_EXTREMAL = {
    0: 1, 12: 8190, 16: 622314, 20: 11699688, 24: 64909845, 28: 113955380,
    32: 64909845, 36: 11699688, 40: 622314, 44: 8190, 56: 1,
}


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


def extended_hamming() -> LinearCode:
    """The [8,4,4] extended Hamming code as a pure double circulant."""
    return pure_double_circulant(CirculantSpec(FieldVector(GF2, [0, 1, 1, 1])))


def bordered_golay() -> LinearCode:
    """The [24,12,8] extended Golay code as a bordered double circulant: 1s
    at {0} plus the quadratic residues mod 11."""
    row = FieldVector(GF2, [1 if i in {0, 1, 3, 4, 5, 9} else 0 for i in range(11)])
    return bordered_double_circulant(CirculantSpec(row))


def direct_sum(*codes: LinearCode) -> LinearCode:
    """The binary code with block-diagonal generator diag(G_1, G_2, ...)."""
    rows, n = [], 0
    for c in codes:
        rows += [b << n for b in c.generator.row_bits]
        n += c.n
    return LinearCode(FieldMatrix.from_bit_rows(rows, n))


def random_matrix(rng: random.Random, field: PrimeField, r: int, c: int) -> FieldMatrix:
    return FieldMatrix(field, [[rng.randrange(field.p) for _ in range(c)] for _ in range(r)], cols=c)


def random_code(rng: random.Random, field: PrimeField, n: int, k: int) -> LinearCode:
    """Random [n,k] code with a full-rank generator (rejection sampled)."""
    while True:
        try:
            return LinearCode(random_matrix(rng, field, k, n))
        except ValueError:
            continue


def random_standard_code(rng: random.Random, field: PrimeField, n: int, k: int) -> LinearCode:
    """Random code already in [I_k | A] form."""
    a = random_matrix(rng, field, k, n - k)
    return LinearCode(FieldMatrix.identity(field, k).hstack(a))


def random_vector(rng: random.Random, field: PrimeField, m: int) -> FieldVector:
    return FieldVector(field, [rng.randrange(field.p) for _ in range(m)])


def random_isotropic_pair(rng: random.Random, field: PrimeField, m: int) -> TransformPair:
    """Rejection-sample (x, y) with (x,x) = (y,y) = (x,y) = 0, both nonzero."""
    def iso(v):
        return sum(s * s for s in v.symbols) % field.p == 0

    while True:
        x = random_vector(rng, field, m)
        if x.is_zero() or not iso(x):
            continue
        for _ in range(200):
            y = random_vector(rng, field, m)
            if y.is_zero() or not iso(y):
                continue
            if sum(a * b for a, b in zip(x.symbols, y.symbols)) % field.p == 0:
                return TransformPair(x, y)


def random_de_safe_pair(rng: random.Random, m: int) -> TransformPair:
    """GF(2) pair with wt(x), wt(y) divisible by 4 and (x, y) = 0."""
    assert m >= 4
    while True:
        xv = rng.getrandbits(m)
        if xv == 0 or xv.bit_count() % 4:
            continue
        for _ in range(200):
            yv = rng.getrandbits(m)
            if yv == 0 or yv.bit_count() % 4:
                continue
            if (xv & yv).bit_count() % 2 == 0:
                return TransformPair(
                    FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m)
                )


def sign_variants(pair: TransformPair) -> list[TransformPair]:
    """The sign/swap orbit of an isotropic pair: [(x,y), (-x,-y), (y,x),
    (x,-y), (-x,y)].  The first two always produce equal codes, and the last
    three produce equal codes.  Over GF(2), where -v = v and M(x,y) = M(y,x),
    all five produce one code."""
    if not pair.isotropic:
        raise HypothesisError("sign identities hold for isotropic pairs")
    x, y = pair.x, pair.y
    return [TransformPair(x, y), TransformPair(-x, -y), TransformPair(y, x),
            TransformPair(x, -y), TransformPair(-x, y)]


def tied_pairs(rng, draws, sizes):
    """(earlier code, later code, is_equivalent result) for each random
    binary code, of a size (n, k) drawn from ``sizes``, that ties with an
    earlier draw on weight distribution and N_t and that is_equivalent does
    not call equivalent to it.  An "equivalent" verdict has its witness
    checked here and drops the later code, so each class keeps one code."""
    classes = {}
    for _ in range(draws):
        n, k = rng.choice(sizes)
        code = random_code(rng, GF2, n, k)
        key = (n, k, tuple(weight_distribution(code).items()), nt_sequence(code).sequence)
        for other in classes.get(key, []):
            res = is_equivalent(other, code)
            if res.verdict == "equivalent":
                assert same_code(apply_column_permutation(other, res.witness), code)
                break
            yield other, code, res
        else:
            classes.setdefault(key, []).append(code)


# --- oracles ------------------------------------------------------------------

def enumerate_codewords_naive(code: LinearCode) -> list[tuple[int, ...]]:
    """All q^k codewords by symbol-level linear combination (no fast paths)."""
    p = code.field.p
    words = []
    for coeffs in product(range(p), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(coeffs, code.generator.entries):
            if c:
                for j in range(code.n):
                    word[j] = (word[j] + c * row[j]) % p
        words.append(tuple(word))
    return words


def weight_distribution_naive(code: LinearCode) -> dict[int, int]:
    counts: dict[int, int] = {}
    for word in enumerate_codewords_naive(code):
        w = sum(1 for s in word if s)
        counts[w] = counts.get(w, 0) + 1
    return counts


def walked_distribution(code: LinearCode, threads: int = 1) -> WeightDistribution:
    """A binary code's distribution from the exhaustive Gray walk alone, the
    reference the scan gate is held to (the public functions take the gate)."""
    return _distribution(code.n, _scan_binary(code, threads=threads)[1])


def dual_symbolwise(code: LinearCode) -> FieldMatrix:
    """A dual generator built one word at a time from the reduced generator:
    for each non-pivot column f, 1 at f and minus column f on the pivots."""
    n, p = code.n, code.field.p
    reduced, pivots = rref(code.generator)
    piv0 = [c - 1 for c in pivots]
    basis = []
    for f in sorted(set(range(n)) - set(piv0)):
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(piv0):
            v[pc] = (-reduced.entries[i][f]) % p
        basis.append(v)
    return FieldMatrix(code.field, basis, cols=n)


def spanning_basis(field: PrimeField, rows, n: int) -> FieldMatrix:
    """The nonzero rows of the reduced row-echelon form of ``rows``: a
    generator of the code they span."""
    reduced, pivots = rref(FieldMatrix(field, rows, cols=n))
    return FieldMatrix(field, [reduced.entries[i] for i in range(len(pivots))], cols=n)


def hull_dim_naive(code: LinearCode) -> int:
    """Count codewords lying in the dual; the hull has 2^dim of them."""
    dcode = dual(code)
    members = sum(
        1 for word in enumerate_codewords_naive(code)
        if dcode.contains(FieldVector(code.field, word))
    )
    dim = members.bit_length() - 1
    assert code.field.p ** dim == members or code.field.p != 2
    if code.field.p != 2:
        dim = 0
        while code.field.p ** (dim + 1) <= members:
            dim += 1
        assert code.field.p ** dim == members
    return dim


def nt_counts_naive(code: LinearCode, w: int) -> dict[int, int]:
    """Quadruple-loop N_t oracle over symbol-level codewords."""
    rows = [word for word in enumerate_codewords_naive(code) if sum(map(bool, word)) == w]
    counts: dict[int, int] = {}
    for subset in combinations(range(code.n), 4):
        t = 0
        for word in rows:
            prod = 1
            for j in subset:
                prod *= word[j]
            t += prod
        if t:
            counts[t] = counts.get(t, 0) + 1
    return counts


def nt_masks_naive(masks: list[int], n: int) -> dict[int, int]:
    """N_t from packed words: count every 4-subset of every word's support
    in a dict keyed by the subset, then count the subsets per cover count."""
    cover: dict[tuple[int, ...], int] = {}
    for m in masks:
        support = [j for j in range(n) if m >> j & 1]
        for subset in combinations(support, 4):
            cover[subset] = cover.get(subset, 0) + 1
    counts: dict[int, int] = {}
    for t in cover.values():
        counts[t] = counts.get(t, 0) + 1
    return counts


def column_masks(codeword_masks: list[int], n: int) -> list[int]:
    """Per-column incidence masks: bit i of column j is codeword i's j-th bit."""
    cols = [0] * n
    for i, m in enumerate(codeword_masks):
        bit = 1 << i
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def subset_cover_count(cols: list[int], subset: tuple[int, ...]) -> int:
    """Number of codewords that are 1 on every column of ``subset``, from the
    per-column incidence masks of :func:`column_masks`."""
    acc = cols[subset[0]]
    for j in subset[1:]:
        acc &= cols[j]
    return acc.bit_count()


def equivalent_brute_force(c1: LinearCode, c2: LinearCode) -> bool:
    """Try all n! column permutations (binary, tiny n)."""
    assert c1.field.binary and c2.field.binary
    if (c1.n, c1.k) != (c2.n, c2.k):
        return False
    n = c1.n
    set2 = set()
    for word in enumerate_codewords_naive(c2):
        mask = 0
        for j, s in enumerate(word):
            if s:
                mask |= 1 << j
        set2.add(mask)
    gens = list(c1.generator.row_bits)
    for perm in permutations(range(n)):
        ok = True
        for g in gens:
            mapped = 0
            for j in range(n):
                if (g >> j) & 1:
                    mapped |= 1 << perm[j]
            if mapped not in set2:
                ok = False
                break
        if ok:
            return True
    return False


def equivalent_by_columns(c1: LinearCode, c2: LinearCode) -> bool:
    """Permutation equivalence of binary codes of small k over all k x k
    matrices A: the codes are equivalent exactly when some A (necessarily
    invertible) maps the multiset of generator columns of c1 onto that of
    c2.  Costs 2^(k^2) trials, independent of n."""
    assert c1.field.binary and c2.field.binary
    if (c1.n, c1.k) != (c2.n, c2.k):
        return False
    k = c1.k

    def columns(code):
        rows = code.generator.row_bits
        return [sum((rows[i] >> j & 1) << i for i in range(k)) for j in range(code.n)]

    cols1, target = columns(c1), sorted(columns(c2))
    for images in product(range(1 << k), repeat=k):  # images of the unit vectors
        table = [0] * (1 << k)
        for x in range(1, 1 << k):
            low = (x & -x).bit_length() - 1
            table[x] = table[x & (x - 1)] ^ images[low]
        if sorted(table[x] for x in cols1) == target:
            return True
    return False


def weight_identity_check(u: FieldVector, v: FieldVector) -> bool:
    """wt(u+v) = wt(u) + wt(v) - 2 wt(u*v) over GF(2) (test oracle; always true)."""
    if not u.field.binary or not v.field.binary:
        raise UnsupportedFieldError("weight identity is a GF(2) statement")
    if len(u) != len(v):
        raise DimensionError("length mismatch")
    product = FieldVector(GF2, [a * b for a, b in zip(u.symbols, v.symbols)])
    return (u + v).weight == u.weight + v.weight - 2 * product.weight


def mod4_weight_check(a: FieldMatrix, pair: TransformPair) -> bool:
    """Every row of A(x,y) has weight congruent to its source row mod 4.

    Requires a de_safe pair (test oracle; always true under the hypothesis).
    """
    if not a.field.binary:
        raise UnsupportedFieldError("mod-4 weight congruence is a GF(2) statement")
    if not pair.de_safe:
        raise HypothesisError("mod-4 congruence needs wt(x)=wt(y)=0 mod 4 and (x,y)=0")
    out = transform_rows(a, pair)
    return all(
        rb.bit_count() % 4 == ob.bit_count() % 4
        for rb, ob in zip(a.row_bits, out.row_bits)
    )
