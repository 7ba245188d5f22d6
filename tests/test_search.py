import dataclasses
import hashlib
import json
import random

import pytest

import hullkit
from hullkit import (
    GF2,
    CapacityError,
    FieldVector,
    IntegrityError,
    PredicateError,
    TransformPair,
    exhaustive_isotropic_pairs,
    exhaustive_x,
    apply_column_permutation,
    fingerprint_code,
    is_equivalent,
    lcd_improve,
    make_yi,
    min_weight,
    read_records,
    replay,
    sampled_isotropic_pairs,
    sampled_x,
    sd_search,
    write_records,
)
from hullkit.artifacts import CIRCULANT_SEED_NAMES, load_a_block_code, load_pair, load_seed, seed_store
from hullkit.search import SearchRecord

from conftest import extended_hamming


def test_make_yi():
    y = make_yi(28, 4)
    assert y.symbols == (0,) * 24 + (1,) * 4
    assert make_yi(4, 4) == FieldVector.all_ones(GF2, 4)
    assert make_yi(6, 1).symbols == (0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        make_yi(4, 0)
    with pytest.raises(ValueError):
        make_yi(4, 5)


def test_exhaustive_x_lexicographic_and_guarded():
    y = make_yi(6, 2)
    xs = list(exhaustive_x(6, y, rule="mod4"))
    vals = [x.bits for x in xs]
    assert vals == sorted(vals)
    for x in xs:
        assert x.weight % 4 == 0
        assert (x.bits & y.bits).bit_count() % 2 == 0
        assert x.bits != 0


def test_sampled_x_deterministic():
    y = make_yi(20, 4)
    a = sampled_x(20, y, 25, rng_seed=99)
    b = sampled_x(20, y, 25, rng_seed=99)
    assert a == b
    assert len(set(v.bits for v in a)) == 25
    assert a != sampled_x(20, y, 25, rng_seed=100)


# SHA-256 over the newline-joined draws ("x" or "x,y" per line), taken before
# the two samplers shared one loop: a record header's rng_seed must keep
# naming the same candidates
GOLDEN_SAMPLES = {
    ("x", "mod4"): "24e63b75bd0d83dc717545b8d284df76a45a87aa184751d3c55cf8be54deda66",
    ("x", "even"): "fa8536fabc0ad57898276a84f32310605c7fb07ff0cb499d030c6c5470bdcb25",
    ("pairs", 25): "09b6bc87250971fbf516efcc3a0e961a0f5e90cf34e422f7a599dcffe9ae171c",
    ("pairs", 15): "51f0297496a0c4f97a893df0979d3cd3603f6edaacb7ef16909b1cb3136d46dc",
}


def _lines_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_samplers_match_golden_digests():
    y = make_yi(28, 4)
    for rule in ("mod4", "even"):
        xs = sampled_x(28, y, 1500, rng_seed=1, rule=rule)
        assert _lines_digest(x.to_string() for x in xs) == GOLDEN_SAMPLES[("x", rule)]
    for m in (25, 15):
        pairs = sampled_isotropic_pairs(m, 400, rng_seed=7)
        digest = _lines_digest(f"{p.x.to_string()},{p.y.to_string()}" for p in pairs)
        assert digest == GOLDEN_SAMPLES[("pairs", m)]


def test_samplers_name_their_capacity_limit():
    # 1111 is the only valid x for y = 1111, and 11 the only even pair half at m = 2
    with pytest.raises(CapacityError) as e:
        sampled_x(4, make_yi(4, 4), 2, rng_seed=0)
    assert str(e.value) == "could not sample 2 valid x in 100000 attempts (m=4)"
    with pytest.raises(CapacityError) as e:
        sampled_isotropic_pairs(2, 2, rng_seed=0)
    assert str(e.value) == "could not sample 2 isotropic pairs in 100000 attempts (m=2)"


def test_sd_search_extended_hamming_exhaustive():
    ham = extended_hamming()
    y = make_yi(4, 4)
    records = sd_search(ham, y, exhaustive_x(4, y), d_target=4, seed_id="ham8")
    assert len(records) == 1
    rec = records[0]
    assert (rec.n, rec.k, rec.d) == (8, 4, 4)
    assert rec.self_dual and rec.doubly_even and not rec.lcd
    assert rec.x == "1111" and rec.y == "1111"


def test_sd_search_skips_invalid_candidates():
    ham = extended_hamming()
    y = make_yi(4, 4)
    bad = [FieldVector(GF2, [1, 0, 0, 0])]  # weight 1: fails the mod-4 rule
    assert sd_search(ham, y, bad, d_target=1) == []


def test_sd_search_preconditions():
    ham = extended_hamming()
    with pytest.raises(PredicateError):
        sd_search(load_a_block_code("a37225"), make_yi(15, 4), [], d_target=1)
    with pytest.raises(PredicateError):
        sd_search(ham, make_yi(4, 2), [], d_target=1)  # wt(y) not 0 mod 4
    with pytest.raises(ValueError, match="unknown rule"):
        sd_search(ham, make_yi(4, 4), [], d_target=1, rule="bogus")


def test_sd_search_even_rule_post_hoc_verifies():
    ham = extended_hamming()
    y = make_yi(4, 4)
    records = sd_search(ham, y, exhaustive_x(4, y, rule="even"),
                        d_target=4, rule="even", seed_id="ham8")
    assert records  # at least the x = 1111 identity survives
    store = {"ham8": ham}
    for rec in records:
        assert rec.self_dual and rec.doubly_even
        replay(rec, store)


def test_lcd_improve_reproduces_upgrades():
    cases = [
        ("a37225", "c37226", 6),
        ("a381310", "c381311", 11),
        ("a40226", "c40227", 7),
    ]
    for seed_name, pair_name, d in cases:
        seed = load_a_block_code(seed_name)
        records = lcd_improve(seed, [load_pair(pair_name)], d_target=d,
                              seed_id=seed_name)
        assert len(records) == 1
        assert records[0].d == d
        assert records[0].lcd


def test_lcd_improve_guards_and_preconditions():
    seed = load_a_block_code("a381310")
    non_iso = TransformPair(
        FieldVector.from_bits(0b1, 25), FieldVector.from_bits(0b10, 25)
    )
    assert not non_iso.isotropic
    assert lcd_improve(seed, [non_iso], d_target=1) == []
    with pytest.raises(PredicateError):
        lcd_improve(extended_hamming(), [], d_target=1)  # self-dual, not LCD


def test_lcd_improve_dedupes_repeated_candidates():
    seed = load_a_block_code("a381310")
    pair = load_pair("c381311")
    records = lcd_improve(seed, [pair, pair], d_target=11)
    assert len(records) == 1  # identical A(x,y): merged by fingerprint + equivalence


def test_search_determinism_byte_identical():
    seed = load_a_block_code("a381310")
    pairs1 = sampled_isotropic_pairs(25, 6, rng_seed=5)
    pairs2 = sampled_isotropic_pairs(25, 6, rng_seed=5)
    r1 = lcd_improve(seed, pairs1, d_target=8, seed_id="a381310")
    r2 = lcd_improve(seed, pairs2, d_target=8, seed_id="a381310")
    assert [r.to_json_line() for r in r1] == [r.to_json_line() for r in r2]


# SHA-256 over the newline-joined sorted-key JSON payloads, taken from the two
# separate drivers that preceded search._search, not from the code under test
GOLDEN_PAYLOADS = {
    ("ham8", "mod4"): (1, "a41878ae639bd8f48f79d4964a61c83ac0d424149fe1e1181616bb621698383a"),
    ("ham8", "even"): (1, "a41878ae639bd8f48f79d4964a61c83ac0d424149fe1e1181616bb621698383a"),
    ("a381310", "lcd"): (19, "878a4db227e0a91da0fd2cc88c337018345006c75ba3d543d77592cd45b08503"),
}


def _payload_digest(records):
    blob = "\n".join(json.dumps(r.payload(), sort_keys=True) for r in records)
    return len(records), hashlib.sha256(blob.encode()).hexdigest()


def test_search_payloads_match_golden_digests():
    ham = extended_hamming()
    y = make_yi(4, 4)
    for rule in ("mod4", "even"):
        records = sd_search(ham, y, exhaustive_x(4, y, rule=rule), d_target=4,
                            rule=rule, seed_id="ham8")
        assert _payload_digest(records) == GOLDEN_PAYLOADS[("ham8", rule)]
    records = lcd_improve(load_a_block_code("a381310"),
                          sampled_isotropic_pairs(25, 24, rng_seed=7),
                          d_target=8, seed_id="a381310")
    assert len(records) >= 5
    assert _payload_digest(records) == GOLDEN_PAYLOADS[("a381310", "lcd")]


def test_records_write_read_replay_round_trip(tmp_path):
    seed = load_a_block_code("a381310")
    pairs = sampled_isotropic_pairs(25, 24, rng_seed=7)
    records = lcd_improve(seed, pairs, d_target=8, seed_id="a381310")
    assert len(records) >= 5
    path = tmp_path / "records.jsonl"
    write_records(str(path), records, header={"search": "lcd", "rng_seed": 7})
    header, loaded = read_records(str(path))
    assert header["rng_seed"] == 7
    assert [r.payload() for r in loaded] == [r.payload() for r in records]
    store = seed_store()
    for rec in loaded[:20]:
        code = replay(rec, store)
        assert min_weight(code) == rec.d


REQUIRED_RECORD_FIELDS = ["seed_id", "x", "y", "n", "k", "d",
                          "self_dual", "doubly_even", "lcd", "fingerprint"]


def test_required_record_fields_are_the_ones_without_defaults():
    assert REQUIRED_RECORD_FIELDS == [f.name for f in dataclasses.fields(SearchRecord)
                                      if f.default is dataclasses.MISSING]


@pytest.mark.parametrize("name", REQUIRED_RECORD_FIELDS)
def test_read_records_names_a_missing_field(tmp_path, name):
    rec = SearchRecord(seed_id="ham8", x="1111", y="1111", n=8, k=4, d=4,
                       self_dual=True, doubly_even=True, lcd=False,
                       fingerprint={"distribution": "a", "nt": "b"})
    doc = json.loads(rec.to_json_line())
    del doc[name]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=f":1: record has no '{name}' field"):
        read_records(str(path))


def test_replay_detects_tampering():
    ham = extended_hamming()
    y = make_yi(4, 4)
    rec = sd_search(ham, y, exhaustive_x(4, y), d_target=4, seed_id="ham8")[0]
    store = {"ham8": ham}
    replay(rec, store)
    rec.x = "0011"  # valid pair, different transform
    with pytest.raises(IntegrityError):
        replay(rec, store)
    with pytest.raises(IntegrityError):
        replay(rec, {})


@pytest.mark.parametrize("x, reason", [
    ("11a1", "invalid literal"),
    ("1121", "out of range"),
    ("0000", "zero vector"),
])
def test_replay_names_a_malformed_vector(x, reason):
    ham = extended_hamming()
    y = make_yi(4, 4)
    rec = sd_search(ham, y, exhaustive_x(4, y), d_target=4, seed_id="ham8")[0]
    rec.x = x
    with pytest.raises(IntegrityError, match=f"record x='{x}'.*{reason}"):
        replay(rec, {"ham8": ham})


def test_doubly_even_self_dual_codes_need_no_gray_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("Gray walk on a doubly even self-dual code")

    monkeypatch.setattr(hullkit.minweight, "_scan_binary", no_walk)
    d11 = load_seed("D11")
    res = is_equivalent(d11, load_seed("C56.1"))
    assert (res.verdict, res.nodes) == ("inequivalent", 0)
    perm = list(range(1, d11.n + 1))
    random.Random(11).shuffle(perm)
    res = is_equivalent(d11, apply_column_permutation(d11, perm), node_budget=2000)
    assert (res.verdict, res.nodes) == ("unknown", 2001)
    for name in CIRCULANT_SEED_NAMES:
        assert set(fingerprint_code(load_seed(name))) == {"distribution", "nt"}
    y = make_yi(28, 4)
    (rec,) = sd_search(d11, y, [y], d_target=12, seed_id="D11")
    assert replay(rec, {"D11": d11}).k == 28


def test_fingerprint_stability():
    ham = extended_hamming()
    fp1 = fingerprint_code(ham)
    assert set(fp1) == {"distribution", "nt"}
    other = fingerprint_code(load_a_block_code("a381310"))
    assert other != fp1


def test_dedup_keeps_annotated_collision_when_equivalence_unresolved():
    # equal fingerprints + distinct-but-equivalent codes + zero budget:
    # the equivalence check returns "unknown", so both records stay, the
    # second annotated (different fingerprints are never merged by keying)
    from hullkit import apply_column_permutation
    from hullkit.search import SearchRecord, _emit

    ham = extended_hamming()
    permuted = apply_column_permutation(ham, (2, 1, 3, 4, 5, 6, 7, 8))
    fp = fingerprint_code(ham)
    assert fingerprint_code(permuted) == fp  # permutation-invariant key

    def rec():
        return SearchRecord(
            seed_id="ham8", x="1111", y="1111", n=8, k=4, d=4,
            self_dual=True, doubly_even=True, lcd=False, fingerprint=dict(fp),
        )

    records, dedup = [], {}
    _emit(records, dedup, rec(), ham, node_budget=0, threads=1)
    _emit(records, dedup, rec(), permuted, node_budget=0, threads=1)
    assert len(records) == 2
    assert records[0].collision is None
    assert "unknown" in records[1].collision

    # with budget, the same pair of codes merges
    records, dedup = [], {}
    _emit(records, dedup, rec(), ham, node_budget=10_000, threads=1)
    _emit(records, dedup, rec(), permuted, node_budget=10_000, threads=1)
    assert len(records) == 1


def test_exhaustive_pairs_small_m():
    pairs = list(exhaustive_isotropic_pairs(4))
    for p in pairs:
        assert p.isotropic
    # all even-weight nonzero (x, y) with (x,y)=0: 7 choices of x pair with
    # compatible y; count must match a direct filter
    count = 0
    for xv in range(1, 16):
        for yv in range(1, 16):
            if xv.bit_count() % 2 == 0 and yv.bit_count() % 2 == 0 \
                    and (xv & yv).bit_count() % 2 == 0:
                count += 1
    assert len(pairs) == count
