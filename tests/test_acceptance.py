"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is split in two: the parameter/predicate/min-weight half, and
the weight-12 count half.  The latter checks every seed against the
Gleason-forced count A_12 = 8190: the Gleason polynomial basis for doubly
even self-dual codes fixes the whole weight enumerator of any extremal
[56,28,12] code, so the earlier external reference of 8196 was unattainable.
The expected value is read from the test-side table GLEASON_56_EXTREMAL,
which test_minweight.test_gleason_oracle_recomputes pins with sympy.
"""
import random
from itertools import combinations

import pytest

from hullkit import (
    GF2,
    FieldVector,
    TransformPair,
    apply_column_permutation,
    hull_dim,
    is_doubly_even,
    is_extremal_doubly_even_self_dual,
    is_lcd,
    is_self_dual,
    m_matrix,
    make_yi,
    matmul,
    min_weight,
    replay,
    sampled_x,
    sd_search,
    transform_code,
    transform_rows,
    transpose,
)
from hullkit.artifacts import (
    CIRCULANT_SEED_NAMES,
    load_a_block_code,
    load_pair,
    load_seed,
)
from hullkit.invariant import is_equivalent, nt_sequence
from hullkit.minweight import codeword_masks_of_weight

from conftest import (
    GF3,
    GF5,
    GLEASON_56_EXTREMAL,
    column_masks,
    enumerate_codewords_naive,
    equivalent_brute_force,
    extended_hamming,
    mod4_weight_check,
    nt_counts_naive,
    random_code,
    random_de_safe_pair,
    random_isotropic_pair,
    random_matrix,
    random_standard_code,
    random_vector,
    sign_variants,
    subset_cover_count,
    walked_distribution,
    weight_identity_check,
)

THREADS = 2


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def seed_distributions():
    out = {}
    for name in CIRCULANT_SEED_NAMES:
        code = load_seed(name)
        out[name] = (code, walked_distribution(code, threads=THREADS))
    return out


def test_criterion_1_seed_parameters(seed_distributions):
    failures = []
    for name, (code, dist) in seed_distributions.items():
        d = dist.min_nonzero()
        if (code.n, code.k) != (56, 28):
            failures.append(f"{name}: parameters [{code.n},{code.k}]")
        if not is_self_dual(code) or not is_doubly_even(code):
            failures.append(f"{name}: predicates")
        if d != 12 or not is_extremal_doubly_even_self_dual(code, d):
            failures.append(f"{name}: d={d}")
    ok = not failures
    report("1 (seed parameters, predicates, d)", ok,
           "six bordered seeds are extremal doubly even self-dual [56,28,12]"
           if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_1_weight12_count(seed_distributions):
    stated = GLEASON_56_EXTREMAL[12]
    measured = {name: dist[12] for name, (_, dist) in seed_distributions.items()}
    ok = all(v == stated for v in measured.values())
    report("1 (weight-12 codeword count)", ok,
           f"stated count {stated}; measured {sorted(set(measured.values()))}")
    assert ok, (
        f"every extremal [56,28,12] code has A_12 = {stated}, forced by the "
        f"Gleason basis for doubly even self-dual codes (recomputed in "
        f"test_minweight.test_gleason_oracle_recomputes; the earlier external "
        f"reference 8196 is unattainable), but the seeds measure {measured}"
    )


def test_criterion_2_lcd_reproduction():
    cases = [
        ("a37225", "c37226", 5, 6),
        ("a381310", "c381311", 10, 11),
        ("a40226", "c40227", 6, 7),
    ]
    for code_name, pair_name, d_before, d_after in cases:
        code = load_a_block_code(code_name)
        assert is_lcd(code)
        assert min_weight(code, threads=THREADS) == d_before
        out = transform_code(code, load_pair(pair_name))
        assert is_lcd(out)
        assert min_weight(out, threads=THREADS) == d_after
    report("2 (LCD reproduction)", True,
           "base codes LCD with d = 5/10/6; transformed LCD with d = 6/11/7")


def _random_binary_isotropic_pair(rng, m):
    while True:
        xv = rng.getrandbits(m)
        if xv == 0 or xv.bit_count() % 2:
            continue
        for _ in range(100):
            yv = rng.getrandbits(m)
            if yv == 0 or yv.bit_count() % 2:
                continue
            if (xv & yv).bit_count() % 2 == 0:
                return TransformPair(
                    FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m)
                )


def test_criterion_3_hull_preservation_suite():
    rng = random.Random(20250301)
    count = 0
    for _ in range(500):
        n = rng.randint(6, 16)
        k = rng.randint(1, n - 2)
        code = random_standard_code(rng, GF2, n, k)
        pair = _random_binary_isotropic_pair(rng, n - k)
        out = transform_code(code, pair)
        g1, g2 = code.generator, out.generator
        assert matmul(g1, transpose(g1)) == matmul(g2, transpose(g2))
        assert hull_dim(out) == hull_dim(code)
        count += 1
    for field in (GF3, GF5):
        for _ in range(100):
            n = rng.randint(7, 16)
            k = rng.randint(1, n - 3)
            code = random_standard_code(rng, field, n, k)
            pair = random_isotropic_pair(rng, field, n - k)
            out = transform_code(code, pair)
            g1, g2 = code.generator, out.generator
            assert matmul(g1, transpose(g1)) == matmul(g2, transpose(g2))
            assert hull_dim(out) == hull_dim(code)
            count += 1
    report("3 (hull preservation)", True,
           f"{count} random (code, isotropic pair) instances over GF(2)/GF(3)/GF(5)")


def test_criterion_4_factorization_differential():
    rng = random.Random(20250402)

    def nonzero_vector(field, m):
        while True:
            v = random_vector(rng, field, m)
            if not v.is_zero():
                return v

    count = 0
    fields = [GF2] * 334 + [GF3] * 333 + [GF5] * 333
    for field in fields:
        k, m = rng.randint(1, 6), rng.randint(2, 8)
        a = random_matrix(rng, field, k, m)
        pair = TransformPair(nonzero_vector(field, m), nonzero_vector(field, m))
        assert transform_rows(a, pair) == matmul(a, m_matrix(pair))
        count += 1
    assert count == 1000
    report("4 (A(x,y) = A M(x,y))", True, f"{count} random pairs, isotropy not required")


def test_criterion_5_sign_identities():
    rng = random.Random(20250503)
    for field in (GF3, GF5):
        for _ in range(100):
            seed = random_standard_code(rng, field, 6, 3)
            pair = random_isotropic_pair(rng, field, 3)
            variants = sign_variants(pair)
            sets = [
                frozenset(enumerate_codewords_naive(transform_code(seed, p)))
                for p in variants
            ]
            assert sets[0] == sets[1]
            assert sets[2] == sets[3] == sets[4]
    report("5 (sign identities over GF(3)/GF(5))", True,
           "100 isotropic pairs per field on random [6,3] seeds, full enumeration")


def test_criterion_6_doubly_even_micro_check():
    ham = extended_hamming()
    m = ham.n - ham.k
    pairs = 0
    for xv in range(1, 1 << m):
        for yv in range(1, 1 << m):
            if xv.bit_count() % 4 or yv.bit_count() % 4 or (xv & yv).bit_count() % 2:
                continue
            pair = TransformPair(FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m))
            out = transform_code(ham, pair)
            words = enumerate_codewords_naive(out)
            assert len(words) == 16
            assert all(sum(map(bool, w)) % 4 == 0 for w in words)
            assert is_doubly_even(out) and is_self_dual(out)
            pairs += 1
    assert pairs >= 1
    report("6 (doubly even preservation, exhaustive n=8)", True,
           f"{pairs} valid pair(s), outputs verified by enumerating all 16 codewords")


def test_criterion_7_weight_identity_suites():
    rng = random.Random(20250607)
    for _ in range(1000):
        u = FieldVector.from_bits(rng.getrandbits(64), 64)
        v = FieldVector.from_bits(rng.getrandbits(64), 64)
        assert weight_identity_check(u, v)
    for _ in range(1000):
        k, m = rng.randint(1, 6), rng.choice([8, 12, 16])
        a = random_matrix(rng, GF2, k, m)
        pair = random_de_safe_pair(rng, m)
        assert mod4_weight_check(a, pair)
    report("7 (weight identities)", True, "1000 instances per identity, all exact")


def test_criterion_8_nt_correctness(seed_distributions):
    # mask-based vs naive oracle on every n <= 12 code in this collection
    rng = random.Random(20250708)
    ham = extended_hamming()
    small = [ham]
    from hullkit import puncture, shorten

    small.append(puncture(ham, {8}))
    small.append(shorten(ham, {1}))
    for _ in range(8):
        n = rng.randint(6, 12)
        small.append(random_code(rng, GF2, n, rng.randint(2, min(6, n - 1))))
    checked = 0
    for code in small:
        w = min(
            w for w in range(1, code.n + 1) if codeword_masks_of_weight(code, w)
        )
        assert dict(nt_sequence(code, w).counts) == nt_counts_naive(code, w)
        checked += 1

    # permutation invariance on extended Hamming through the full public path
    perm = tuple(rng.sample(range(1, 9), 8))
    assert nt_sequence(ham, 4).counts == nt_sequence(
        apply_column_permutation(ham, perm), 4).counts

    # D11: one full re-enumeration anchor, then 50 mask-level permutations
    # checked on a fixed sample of 10,000 column 4-subsets
    d11, _ = seed_distributions["D11"]
    masks = codeword_masks_of_weight(d11, 12, threads=THREADS)
    cols = column_masks(masks, 56)
    perm0 = tuple(rng.sample(range(1, 57), 56))
    permuted_code = apply_column_permutation(d11, perm0)
    s_orig = nt_sequence(d11, 12, threads=THREADS)
    s_perm = nt_sequence(permuted_code, 12, threads=THREADS)
    assert s_orig.counts == s_perm.counts

    all_subsets = list(combinations(range(56), 4))
    sample = rng.sample(all_subsets, 10_000)
    for _ in range(50):
        perm = rng.sample(range(56), 56)  # functional: column j -> perm[j]
        pcols = [0] * 56
        for j in range(56):
            pcols[perm[j]] = cols[j]
        for subset in sample:
            mapped = tuple(perm[j] for j in subset)
            assert subset_cover_count(cols, subset) == subset_cover_count(pcols, mapped)
    report("8 (N_t correctness)", True,
           f"naive-oracle agreement on {checked} small codes; D11 full-permutation "
           f"anchor plus 50 permutations x 10,000 sampled subsets")


def test_criterion_9_equivalence_oracle():
    rng = random.Random(20250809)
    agreements = 0
    for n in (6, 7, 8):
        for i in range(10):
            k = rng.randint(2, min(4, n - 2))
            c1 = random_code(rng, GF2, n, k)
            if i % 2 == 0:
                perm = tuple(rng.sample(range(1, n + 1), n))
                c2 = apply_column_permutation(c1, perm)
            else:
                c2 = random_code(rng, GF2, n, k)
            expected = equivalent_brute_force(c1, c2)
            res = is_equivalent(c1, c2)
            assert res.verdict in ("equivalent", "inequivalent")
            assert (res.verdict == "equivalent") == expected
            agreements += 1
    assert agreements == 30
    report("9 (equivalence oracle)", True,
           "30 pairs at n in {6,7,8} agree with brute force over all n! permutations")


def test_criterion_10_sd_search_substitute(seed_distributions):
    d11, _ = seed_distributions["D11"]
    y4 = make_yi(28, 4)
    xs = sampled_x(28, y4, 200, rng_seed=42)
    records = sd_search(d11, y4, xs, d_target=12, seed_id="D11", threads=THREADS)
    store = {"D11": d11}
    for rec in records:
        assert rec.self_dual and rec.doubly_even
        assert rec.d == 12
        code = replay(rec, store, threads=THREADS)
        assert is_extremal_doubly_even_self_dual(code, rec.d)
    report("10 (sd_search at scale)", True,
           f"200 sampled candidates screened; {len(records)} emitted record(s), "
           f"all certified and replay-verified")


def test_criterion_10_support_nonvacuous_emission(seed_distributions):
    # a candidate guaranteed to survive (x = y_4 gives the identity transform)
    # keeps the certification + replay path exercised even when the random
    # sample above yields no survivors
    d11, _ = seed_distributions["D11"]
    y4 = make_yi(28, 4)
    xs = [y4] + sampled_x(28, y4, 3, rng_seed=11)
    records = sd_search(d11, y4, xs, d_target=12, seed_id="D11", threads=THREADS)
    assert len(records) >= 1
    store = {"D11": d11}
    for rec in records:
        assert rec.d == 12 and rec.self_dual and rec.doubly_even
        code = replay(rec, store, threads=THREADS)
        assert is_extremal_doubly_even_self_dual(code, 12)
    # determinism: identical inputs give byte-identical payloads
    records2 = sd_search(d11, y4, xs, d_target=12, seed_id="D11", threads=THREADS)
    assert [r.to_json_line() for r in records] == [r.to_json_line() for r in records2]
    report("10 (supporting emission check)", True,
           f"{len(records)} record(s) from a known-surviving candidate; "
           f"replay and determinism verified")
