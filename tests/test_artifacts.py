from hullkit import GF2, FieldVector
from hullkit.artifacts import (
    ARTIFACTS,
    PAIR_SEED,
    BundledArtifact,
    artifact_names,
    bundled_code,
    load_a_block_code,
    load_pair,
    load_seed,
    seed_store,
)

import pytest

EXPECTED_DIMS = {"a37225": (22, 15), "a381310": (13, 25), "a40226": (22, 18)}


def test_catalog_contents():
    assert len(artifact_names("circulant-seed")) == 6
    assert len(artifact_names("generator-A-block")) == 3
    assert len(artifact_names("transform-pair")) == 3
    assert all(isinstance(a, BundledArtifact) for a in ARTIFACTS.values())


def test_a_block_dimensions_and_round_trip():
    for name, (k, m) in EXPECTED_DIMS.items():
        code = load_a_block_code(name)
        assert (code.n, code.k) == (k + m, k)
        a_rows = ["".join(str(s) for s in r[k:]) for r in code.generator.entries]
        assert "\n".join(a_rows) == ARTIFACTS[name].payload
        ident = [r[:k] for r in code.generator.entries]
        assert all(row[i] == (1 if i == j else 0) for j, row in enumerate(ident)
                   for i in range(k))


def test_pairs_match_their_seeds_and_round_trip():
    for pair_name, seed_name in PAIR_SEED.items():
        pair = load_pair(pair_name)
        code = load_a_block_code(seed_name)
        assert pair.length == code.n - code.k
        assert pair.isotropic
        assert pair.to_text() == ARTIFACTS[pair_name].payload


def test_seed_round_trip():
    for name in artifact_names("circulant-seed"):
        payload = ARTIFACTS[name].payload
        assert FieldVector(GF2, [int(c) for c in payload]).to_string() == payload
        assert load_seed(name).n == 56


def test_lookup_errors():
    with pytest.raises(KeyError):
        load_seed("a37225")
    with pytest.raises(KeyError):
        load_pair("D11")
    with pytest.raises(KeyError):
        bundled_code("c37226")
    with pytest.raises(KeyError):
        bundled_code("nope")


def test_seed_store_covers_codes_only():
    store = seed_store()
    assert set(store) == set(artifact_names("circulant-seed")) | set(
        artifact_names("generator-A-block")
    )


@pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic-indic", "fullwidth"])
def test_loaders_take_only_ascii_digits(monkeypatch, digit):
    # int() reads both as 1
    for name, load in (("D11", load_seed), ("a37225", load_a_block_code)):
        art = ARTIFACTS[name]
        monkeypatch.setitem(ARTIFACTS, name, BundledArtifact(name, art.kind, digit + art.payload[1:]))
        with pytest.raises(ValueError, match="invalid literal"):
            load(name)
