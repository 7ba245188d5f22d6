import dataclasses
import hashlib
import json
import random
import re
import types
from math import comb

import pytest

import hullkit
from hullkit import (
    GF2,
    CapacityError,
    DimensionError,
    FieldMatrix,
    FieldVector,
    IntegrityError,
    LinearCode,
    PostconditionError,
    PredicateError,
    TransformPair,
    exhaustive_isotropic_pairs,
    exhaustive_x,
    apply_column_permutation,
    fingerprint_code,
    inner_product,
    is_doubly_even,
    is_equivalent,
    is_self_dual,
    lcd_improve,
    make_yi,
    min_weight,
    nt_sequence,
    read_records,
    replay,
    same_code,
    sampled_isotropic_pairs,
    sampled_x,
    sd_search,
    standard_form,
    transform_code,
    weight_distribution,
    write_records,
)
from hullkit.artifacts import CIRCULANT_SEED_NAMES, load_a_block_code, load_pair, load_seed, seed_store
from hullkit.search import (
    SEARCH_NODE_BUDGET,
    SearchRecord,
    _certify,
    _emit,
    _isotropic_pair_count,
    _valid_x_count,
)

from conftest import (
    GF3,
    GLEASON_56_EXTREMAL,
    direct_sum,
    equivalent_brute_force,
    extended_hamming,
    hull_dim_naive,
    random_code,
    tied_pairs,
    weight_distribution_naive,
)


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
    assert str(e.value) == "cannot sample 2 valid x: only 1 exist (m=4)"
    with pytest.raises(CapacityError) as e:
        sampled_isotropic_pairs(2, 2, rng_seed=0)
    assert str(e.value) == "cannot sample 2 isotropic pairs: only 1 exist (m=2)"


def test_sampler_counts_match_brute_force():
    for m in range(11):
        evens = [v for v in range(1, 1 << m) if v.bit_count() % 2 == 0]
        assert _isotropic_pair_count(m) == sum(
            1 for x in evens for y in evens if (x & y).bit_count() % 2 == 0)
        for i in range(m + 1):
            y = FieldVector.from_bits((1 << i) - 1, m)
            for rule, mod in (("mod4", 4), ("even", 2)):
                assert _valid_x_count(m, y, rule) == sum(
                    1 for v in range(1, 1 << m)
                    if (v & y.bits).bit_count() % 2 == 0 and v.bit_count() % mod == 0)


def test_samplers_refuse_more_than_exist_before_any_draw(monkeypatch):
    y = make_yi(12, 4)  # 479 valid x
    assert sorted(x.bits for x in sampled_x(12, y, 479, rng_seed=1)) == \
        [x.bits for x in exhaustive_x(12, y)]

    class NoDraws(random.Random):
        def getrandbits(self, k):
            raise AssertionError("drew although too few items exist")

    monkeypatch.setattr(hullkit.search, "random", types.SimpleNamespace(Random=NoDraws))
    with pytest.raises(CapacityError, match="only 479 exist"):
        sampled_x(12, y, 480, rng_seed=1)
    with pytest.raises(CapacityError, match=f"only {_isotropic_pair_count(6)} exist"):
        sampled_isotropic_pairs(6, _isotropic_pair_count(6) + 1, rng_seed=1)


def test_sampled_x_builds_vectors_only_for_kept_draws(monkeypatch):
    # 11,762 draws keep 1,500 x here: one vector per kept x, plus at most
    # one for checking y
    calls = []
    from_bits = FieldVector.from_bits
    monkeypatch.setattr(FieldVector, "from_bits",
                        lambda bits, length: calls.append(bits) or from_bits(bits, length))
    assert len(sampled_x(28, make_yi(28, 4), 1500, rng_seed=1)) == 1500
    assert len(calls) <= 1501


def test_sampled_x_checks_y_and_rule_before_any_draw():
    with pytest.raises(DimensionError) as e:
        sampled_x(28, make_yi(20, 4), 5, rng_seed=1)
    assert str(e.value) == "length mismatch: 28 vs 20"
    with pytest.raises(DimensionError, match="field mismatch"):
        sampled_x(4, FieldVector(GF3, [1, 1, 1, 1]), 5, rng_seed=1)
    with pytest.raises(ValueError, match="unknown rule 'odd'"):
        sampled_x(28, make_yi(28, 4), 0, rng_seed=1, rule="odd")
    with pytest.raises(ValueError, match="unknown rule 'odd'"):
        exhaustive_x(4, make_yi(4, 4), rule="odd")


def test_samplers_refuse_negative_seeds_and_counts():
    # random.Random(-7) seeds as 7: a header naming -7 would replay seed 7's draws
    y = make_yi(28, 4)
    for sample in (lambda count, seed: sampled_x(28, y, count, seed),
                   lambda count, seed: sampled_isotropic_pairs(15, count, seed)):
        with pytest.raises(ValueError, match="rng_seed >= 0"):
            sample(5, -7)
        with pytest.raises(ValueError, match="count >= 0"):
            sample(-3, 7)
        assert sample(0, 7) == []
        assert len(sample(5, 0)) == 5


def _x_reference(m, y, rule):
    """The valid x of length m, each decided on a built vector."""
    mod = {"mod4": 4, "even": 2}[rule]
    out = []
    for v in range(1, 1 << m):
        x = FieldVector.from_bits(v, m)
        if inner_product(x, y) == 0 and x.weight % mod == 0:
            out.append(x)
    return out


def test_exhaustive_x_matches_a_vector_reference():
    rng = random.Random(19)
    for m in range(1, 9):
        v = rng.getrandbits(m)
        v ^= v.bit_count() & 1  # flip bit 0 of an odd-weight draw
        ys = [make_yi(m, i) for i in range(1, m + 1)] + [FieldVector.from_bits(v, m)]
        for y in ys:
            for rule in ("mod4", "even"):
                assert list(exhaustive_x(m, y, rule)) == _x_reference(m, y, rule), (m, y, rule)


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


def test_sd_search_rejects_a_caller_x_of_the_wrong_length():
    ham, y = extended_hamming(), make_yi(4, 4)
    for x in (FieldVector.from_bits(0b11110, 5), FieldVector.from_bits(0, 5)):
        with pytest.raises(DimensionError) as e:
            sd_search(ham, y, [x], d_target=4)
        assert str(e.value) == "length mismatch: 5 vs 4"


def test_lcd_improve_guards_and_preconditions():
    seed = load_a_block_code("a381310")
    non_iso = TransformPair(
        FieldVector.from_bits(0b1, 25), FieldVector.from_bits(0b10, 25)
    )
    assert not non_iso.isotropic
    assert lcd_improve(seed, [non_iso], d_target=1) == []
    with pytest.raises(PredicateError):
        lcd_improve(extended_hamming(), [], d_target=1)  # self-dual, not LCD


def test_checked_search_raises_on_a_survivor_that_misses_its_target(monkeypatch):
    # the seed passes the entry check; its certified upgrade reads as non-LCD
    seed = load_a_block_code("a381310")
    monkeypatch.setattr(hullkit.search, "is_lcd", lambda code: code is seed)
    with pytest.raises(PostconditionError, match="lcd_improve emitted a non-LCD code"):
        lcd_improve(seed, [load_pair("c381311")], d_target=11)


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


def test_read_records_names_the_line_that_is_not_utf8(tmp_path):
    rec = SearchRecord(seed_id="ham8", x="1111", y="1111", n=8, k=4, d=4,
                       self_dual=True, doubly_even=True, lcd=False,
                       fingerprint={"distribution": "a", "nt": "b"})
    path = tmp_path / "records.jsonl"
    path.write_bytes(rec.to_json_line().encode() + b"\n" + b'{"kind": "\xff"}\n')
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
        read_records(str(path))


def test_write_records_writes_the_same_bytes_to_a_path_and_to_an_open_file(tmp_path):
    rec = SearchRecord(seed_id="ham8", x="1111", y="1111", n=8, k=4, d=4,
                       self_dual=True, doubly_even=True, lcd=False,
                       fingerprint={"distribution": "a", "nt": "b"})
    write_records(str(tmp_path / "a"), [rec, rec], header={"search": "sd"})
    write_records(tmp_path / "p", [rec, rec], header={"search": "sd"})  # a path object, as open() takes
    with open(tmp_path / "b", "w", encoding="utf-8") as fh:
        write_records(fh, [rec, rec], header={"search": "sd"})
    assert (tmp_path / "a").read_bytes() == (tmp_path / "p").read_bytes() == (tmp_path / "b").read_bytes()
    assert read_records(str(tmp_path / "b")) == ({"search": "sd"}, [rec, rec])


# one field of a valid record set to a value of the wrong JSON type, or an
# unknown field, and the refusal read_records names
MISTYPED_RECORD_FIELDS = [
    ("x", None, "field 'x' must be a string, got null"),
    ("seed_id", ["ham8"], "field 'seed_id' must be a string, got an array"),
    ("d", "4", "field 'd' must be an integer, got a string"),
    ("n", 8.0, "field 'n' must be an integer, got a number"),
    ("k", True, "field 'k' must be an integer, got a boolean"),
    ("lcd", 0, "field 'lcd' must be a boolean, got an integer"),
    ("collision", 3, "field 'collision' must be a string or null, got an integer"),
    ("created", {}, "field 'created' must be a string or null, got an object"),
    ("fingerprint", "ab", "field 'fingerprint' must be an object, got a string"),
    ("fingerprint", {"distribution": "a"}, "field 'fingerprint' must hold exactly"),
    ("fingerprint", {"distribution": "a", "nt": "b", "d": "c"}, "field 'fingerprint' must hold exactly"),
    ("fingerprint", {"distribution": "a", "nt": 1}, "field 'fingerprint' must hold exactly"),
    ("zzz", 1, "unknown field 'zzz'"),
]


def test_every_record_field_has_a_json_type():
    assert list(hullkit.search._RECORD_TYPES) == [f.name for f in dataclasses.fields(SearchRecord)]


@pytest.mark.parametrize("name, value, message", MISTYPED_RECORD_FIELDS)
def test_read_records_refuses_a_field_of_the_wrong_type(tmp_path, name, value, message):
    rec = SearchRecord(seed_id="ham8", x="1111", y="1111", n=8, k=4, d=4,
                       self_dual=True, doubly_even=True, lcd=False,
                       fingerprint={"distribution": "a", "nt": "b"}, created="2026-01-01T00:00:00Z")
    path = tmp_path / "records.jsonl"
    path.write_text(rec.to_json_line() + "\n", encoding="utf-8")
    assert read_records(str(path))[1] == [rec]
    doc = json.loads(rec.to_json_line())
    path.write_text(rec.to_json_line() + "\n" + json.dumps({**doc, name: value}) + "\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}:2: malformed record: {re.escape(message)}"):
        read_records(str(path))


def test_replay_detects_tampering():
    ham = extended_hamming()
    y = make_yi(4, 4)
    rec = sd_search(ham, y, exhaustive_x(4, y), d_target=4, seed_id="ham8")[0]
    store = {"ham8": ham}
    replay(rec, store)
    with pytest.raises(IntegrityError, match="replayed predicates .* do not match record"):
        replay(dataclasses.replace(rec, lcd=not rec.lcd), store)
    tampered = dataclasses.replace(rec, fingerprint={**rec.fingerprint, "nt": "0" * 64})
    with pytest.raises(IntegrityError, match="replayed fingerprint does not match record"):
        replay(tampered, store)
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
    permuted = apply_column_permutation(d11, perm)
    res = is_equivalent(d11, permuted, node_budget=2000)
    assert res.verdict == "equivalent" and res.nodes <= 2000
    assert same_code(apply_column_permutation(d11, res.witness), permuted)
    for name in CIRCULANT_SEED_NAMES:
        assert set(fingerprint_code(load_seed(name))) == {"distribution", "nt"}
    y = make_yi(28, 4)
    (rec,) = sd_search(d11, y, [y], d_target=12, seed_id="D11")
    assert replay(rec, {"D11": d11}).k == 28
    # the public scans take the same gate
    assert min_weight(d11) == min_weight(d11, abort_above=12) == 12
    assert dict(weight_distribution(d11).counts) == GLEASON_56_EXTREMAL
    seq = nt_sequence(d11, 12)
    assert sum(t * c for t, c in seq.counts.items()) == GLEASON_56_EXTREMAL[12] * comb(12, 4)


def test_dedup_merges_a_permuted_d11_at_the_search_budget():
    from hullkit.search import SEARCH_NODE_BUDGET, _emit

    d11 = load_seed("D11")
    perm = list(range(1, d11.n + 1))
    random.Random(13).shuffle(perm)
    permuted = apply_column_permutation(d11, perm)
    fp = fingerprint_code(d11)
    assert fingerprint_code(permuted) == fp
    records, dedup = [], {}
    for code in (d11, permuted):
        rec = SearchRecord(seed_id="D11", x="0" * 28, y="0" * 28, n=56, k=28, d=12,
                           self_dual=True, doubly_even=True, lcd=False, fingerprint=dict(fp))
        _emit(records, dedup, rec, code, threads=1)
    assert len(records) == 1 and records[0].collision is None


def test_dedup_decides_over_certificates_without_a_scan(monkeypatch):
    # the merge reuses what certifying both codes computed: no gate call, and
    # the representative is the code, which keeps its words but not its 0.73 MB cover
    scans = []

    def counting(*args, **kwargs):
        scans.append(args[0])
        return gate(*args, **kwargs)

    gate = hullkit.invariant._scan
    monkeypatch.setattr(hullkit.invariant, "_scan", counting)
    d11 = load_seed("D11")
    perm = list(range(1, d11.n + 1))
    random.Random(13).shuffle(perm)
    permuted = apply_column_permutation(d11, perm)
    (first, _, fp), (second, _, fp2) = _certify(d11), _certify(permuted)
    assert scans == [d11, permuted] and fp == fp2
    records, dedup = [], {}
    for code in (d11, permuted):
        rec = SearchRecord(seed_id="D11", x="0" * 28, y="0" * 28, n=56, k=28, d=12,
                           self_dual=True, doubly_even=True, lcd=False, fingerprint=dict(fp))
        _emit(records, dedup, rec, code, threads=1)
    assert scans == [d11, permuted]  # the merge itself scanned nothing
    assert len(records) == 1
    ((index, rep),) = dedup[(fp["distribution"], fp["nt"])]
    assert index == 0 and rep is d11 and rep._facts is first
    assert first._fields == ("d", "distribution", "words", "nt", "profile")  # no cover kept


def test_replay_certifies_the_code_it_rebuilds_with_one_scan(monkeypatch):
    scans = []

    def counting(*args, **kwargs):
        scans.append(args[0])
        return gate(*args, **kwargs)

    gate = hullkit.invariant._scan
    monkeypatch.setattr(hullkit.invariant, "_scan", counting)
    d11, y4 = load_seed("D11"), make_yi(28, 4)
    (rec,) = sd_search(d11, y4, [y4], d_target=12, seed_id="D11")
    assert len(scans) == 1
    out = replay(rec, {"D11": d11})
    assert scans[1:] == [out] and out._facts is not None and out._facts[3] is not None
    assert nt_sequence(out).counts and len(scans) == 2  # the replayed code keeps its certificate
    # facts follow the object: replaying again rebuilds and certifies a new code
    again = replay(rec, {"D11": d11})
    assert again is not out and scans[2:] == [again]


def test_fingerprint_stability():
    ham = extended_hamming()
    fp1 = fingerprint_code(ham)
    assert set(fp1) == {"distribution", "nt"}
    other = fingerprint_code(load_a_block_code("a381310"))
    assert other != fp1


def test_dedup_keeps_annotated_collision_when_equivalence_unresolved(monkeypatch):
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
    monkeypatch.setattr(hullkit.search, "SEARCH_NODE_BUDGET", 0)
    _emit(records, dedup, rec(), ham, threads=1)
    _emit(records, dedup, rec(), permuted, threads=1)
    assert len(records) == 2
    assert records[0].collision is None
    assert "unknown" in records[1].collision

    # at the search's budget, the same pair of codes merges
    records, dedup = [], {}
    monkeypatch.undo()
    _emit(records, dedup, rec(), ham, threads=1)
    _emit(records, dedup, rec(), permuted, threads=1)
    assert len(records) == 1


def _emit_all(codes):
    records, dedup = [], {}
    for code in codes:
        rec = SearchRecord(seed_id="s", x="1", y="1", n=code.n, k=code.k, d=min_weight(code),
                           self_dual=False, doubly_even=False, lcd=False,
                           fingerprint=fingerprint_code(code))
        _emit(records, dedup, rec, code, threads=1)
    return records


def test_dedup_merges_with_a_representative_behind_a_collision():
    # two inequivalent codes tie on the fingerprint; a permuted copy of the
    # second must merge with it, not become a second collision record
    c1, c2, res = next(tied_pairs(random.Random(157), 400,
                                  [(n, k) for n in (6, 7, 8) for k in range(2, n - 1)]))
    assert res.verdict == "inequivalent"
    perm = list(range(1, c2.n + 1))
    random.Random(17).shuffle(perm)
    c3 = apply_column_permutation(c2, perm)
    assert fingerprint_code(c1) == fingerprint_code(c2) == fingerprint_code(c3)
    records = _emit_all([c1, c2, c3])
    assert [r.collision for r in records] == [
        None, "fingerprint collision with record 0 (equivalence: inequivalent)"]


def test_dedup_collision_note_names_every_record_compared(monkeypatch):
    monkeypatch.setattr(hullkit.search, "SEARCH_NODE_BUDGET", 0)
    ham = extended_hamming()
    copies = [apply_column_permutation(ham, p)
              for p in [(2, 1, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 8, 7)]]
    records = _emit_all([ham] + copies)
    assert [r.collision for r in records] == [
        None,
        "fingerprint collision with record 0 (equivalence: unknown)",
        "fingerprint collision with records 0 (equivalence: unknown), "
        "1 (equivalence: unknown)",
    ]


def test_lcd_search_keeps_one_record_per_equivalence_class():
    # transform, screen, certify and dedup together against brute force:
    # the survivors' classes, each found once among the records
    seed = random_code(random.Random(58), GF2, 8, 2)
    assert hull_dim_naive(seed) == 0
    d_target = 3  # the seed's d: the screen drops the 120 outputs of d = 2
    form = standard_form(seed)
    pairs = list(exhaustive_isotropic_pairs(6))
    reps = []  # (naive distribution, code) of one survivor per class

    def class_of(code):
        dist = weight_distribution_naive(code)
        for i, (rep_dist, rep) in enumerate(reps):
            if rep_dist == dist and equivalent_brute_force(rep, code):
                return i
        reps.append((dist, code))
        return len(reps) - 1

    for pair in pairs:
        out = transform_code(form, pair, mode="unchecked")
        dist = weight_distribution_naive(out)
        if hull_dim_naive(out) == 0 and min(w for w in dist if w) >= d_target:
            class_of(out)
    classes = len(reps)
    assert classes > 1
    records = lcd_improve(seed, pairs, d_target=d_target, seed_id="s")
    assert sorted(class_of(replay(r, {"s": seed})) for r in records) == list(range(classes))


@pytest.mark.parametrize("rule", ["mod4", "even"])
def test_sd_search_keeps_one_record_per_equivalence_class(rule):
    # the self-dual counterpart of the LCD test above, over every valid y
    # (only y = 1111 has weight 0 mod 4) and every valid x; under "even" the
    # six x of weight 2 give singly even outputs, which the search drops
    ham = extended_hamming()
    form = standard_form(ham)
    ys = [FieldVector.from_bits(v, 4) for v in range(1, 16) if v.bit_count() % 4 == 0]
    for y in ys:
        reps = []  # one survivor per class

        def class_of(code):
            for i, rep in enumerate(reps):
                if equivalent_brute_force(rep, code):
                    return i
            reps.append(code)
            return len(reps) - 1

        for x in exhaustive_x(4, y, rule=rule):
            out = transform_code(form, TransformPair(x, y), mode="unchecked")
            dist = weight_distribution_naive(out)
            if hull_dim_naive(out) == out.k and all(w % 4 == 0 for w in dist):
                class_of(out)
        records = sd_search(ham, y, exhaustive_x(4, y, rule=rule), d_target=1,
                            rule=rule, seed_id="ham8")
        assert all(r.collision is None for r in records)
        assert sorted(class_of(replay(r, {"ham8": ham})) for r in records) \
            == list(range(len(reps)))


@pytest.mark.parametrize("y", ["11110000", "00001111", "10011001"])
def test_sd_search_from_e8_e8_finds_both_doubly_even_self_dual_16_codes(y):
    # e8 + e8 and d16+ are the only doubly even self-dual [16,8] codes (Pless
    # 1972); they share the weight enumerator and the whole fingerprint, so
    # each sweep's dedup decides every output by the equivalence search
    seed = direct_sum(extended_hamming(), extended_hamming())
    rows = [0b1111 << 2 * i for i in range(7)] + [sum(1 << j for j in range(1, 16, 2))]  # glue 0101...01
    d16 = LinearCode(FieldMatrix.from_bit_rows(rows, 16))
    assert is_self_dual(d16) and is_doubly_even(d16) and weight_distribution(d16)[4] == 28
    assert is_equivalent(seed, d16).verdict == "inequivalent"
    yv = FieldVector(GF2, [int(c) for c in y])
    records = sd_search(seed, yv, exhaustive_x(8, yv), d_target=4, seed_id="e8e8")
    assert len(records) == 2
    assert records[0].collision is None
    assert records[1].collision == "fingerprint collision with record 0 (equivalence: inequivalent)"
    codes = [replay(rec, {"e8e8": seed}) for rec in records]
    found = [[is_equivalent(code, known).verdict for known in (seed, d16)] for code in codes]
    assert sorted(found) == [["equivalent", "inequivalent"], ["inequivalent", "equivalent"]]


def _e8_cubed() -> LinearCode:
    """e8 + e8 + e8 on columns 0-7, 8-15 and 16-23, where e8 is the span of
    11110000, 00111100, 00001111 and 01010101."""
    e8 = LinearCode(FieldMatrix(GF2, [[int(c) for c in r] for r in ("11110000", "00111100", "00001111", "01010101")],
                                cols=8))
    return direct_sum(e8, e8, e8)


def _bits(text: str) -> FieldVector:
    return FieldVector(GF2, [int(c) for c in text])


# two x whose outputs of e8 + e8 + e8 at y = y4 are equivalent, and
# (nodes, SHA-256 of the witness's bytes) of their decision at the search budget
E8_CUBED_Y4, E8_CUBED_XS = "000000001111", ("100011100000", "010011100000")
E8_CUBED_PATH = (11, "460b341597faded1df3adc872a0e7aa5f5a2c197c11d5f453d3461cb1130b053")


def test_equivalence_decides_a_pair_of_e8_cubed_outputs():
    # both outputs have large automorphism groups, in which a search can retrace symmetric subtrees
    form = standard_form(_e8_cubed())
    a, b = (transform_code(form, TransformPair(_bits(x), _bits(E8_CUBED_Y4))) for x in E8_CUBED_XS)
    assert not same_code(a, b)
    res = is_equivalent(a, b, node_budget=SEARCH_NODE_BUDGET)
    assert res.verdict == "equivalent" and same_code(apply_column_permutation(a, res.witness), b)
    assert (res.nodes, hashlib.sha256(bytes(res.witness)).hexdigest()) == E8_CUBED_PATH


def test_sd_search_merges_the_e8_cubed_pair_through_is_equivalent(monkeypatch):
    decisions = []

    def deciding(*args, **kwargs):
        decisions.append(decide(*args, **kwargs))
        return decisions[-1]

    decide = hullkit.search.is_equivalent
    monkeypatch.setattr(hullkit.search, "is_equivalent", deciding)
    records = sd_search(_e8_cubed(), _bits(E8_CUBED_Y4), [_bits(x) for x in E8_CUBED_XS], d_target=4)
    assert len(records) == 1 and records[0].collision is None and records[0].x == E8_CUBED_XS[0]
    assert [(r.verdict, r.nodes) for r in decisions] == [("equivalent", E8_CUBED_PATH[0])]


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


@pytest.mark.parametrize("zero, one", [("\u0660", "\u0661"), ("\uff10", "\uff11")],
                         ids=["arabic-indic", "fullwidth"])
def test_replay_refuses_non_ascii_digits(zero, one):
    # int() reads these digits as 0 and 1, but the payload is not the emitted one
    (rec,) = lcd_improve(load_a_block_code("a40226"), [load_pair("c40227")], d_target=7,
                         seed_id="a40226")
    store = {"a40226": load_a_block_code("a40226")}
    replay(rec, store)
    for name in ("x", "y"):
        text = getattr(rec, name).translate(str.maketrans("01", zero + one))
        bad = dataclasses.replace(rec, **{name: text})
        assert bad.payload() != rec.payload()
        with pytest.raises(IntegrityError, match=f"record {name}=.*invalid literal"):
            replay(bad, store)


def test_sd_search_rejects_a_caller_x_of_another_field():
    ham, y = extended_hamming(), make_yi(4, 4)
    with pytest.raises(DimensionError, match="field mismatch: GF\\(3\\) vs GF\\(2\\)"):
        sd_search(ham, y, [FieldVector(GF3, [1, 1, 1, 0])], d_target=4)


def test_sd_search_builds_its_x_test_once(monkeypatch):
    calls = []
    x_test = hullkit.search._x_test
    monkeypatch.setattr(hullkit.search, "_x_test", lambda *a: calls.append(a) or x_test(*a))
    ham, y = extended_hamming(), make_yi(4, 4)
    xs = [FieldVector.from_bits(v, 4) for v in range(1, 16)]
    records = sd_search(ham, y, xs, d_target=4, seed_id="ham8")
    assert len(calls) == 1
    assert [r.x for r in records] == [r.x for r in sd_search(ham, y, exhaustive_x(4, y), d_target=4)]
