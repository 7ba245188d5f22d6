"""Bundled reference data: the six length-27 circulant first rows, the three
LCD generator A-blocks, and their transform pairs, stored as canonical
strings (bit-exact payloads) with typed loaders.

Artifact names double as CLI seed/pair identifiers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circulant import CirculantSpec, bordered_double_circulant
from .code import LinearCode
from .errors import CodeParseError
from .field import GF2, FieldMatrix, FieldVector, parse_symbols
from .transform import TransformPair

CIRCULANT_SEED_NAMES = ("D11", "C56.1", "C56.2", "C56.3", "C56.4", "C56.5")

_SEED_ROWS = {
    "D11":   "000101011011111000111111111",
    "C56.1": "000000000000110010101111011",
    "C56.2": "000000001011011111110010111",
    "C56.3": "000000010011100111101110111",
    "C56.4": "000000011011001001111101111",
    "C56.5": "000000101001111101011101011",
}

_A_BLOCKS = {
    "a37225": (
        "000110111001011\n100100110001100\n011100010000100\n001110001000010\n"
        "001001001100011\n111101001100101\n000011111101010\n100101001111001\n"
        "101011001101000\n111111011111010\n011111101111101\n111000010101000\n"
        "111000111011000\n010010010101110\n000111000010101\n111010001011110\n"
        "110111111100001\n101100011100110\n110010111111111\n100000110101011\n"
        "001101000001101\n010101110011100"
    ),
    "a381310": (
        "1101001110101100011010111\n0010011101001101111011001\n"
        "1000111010010001010001001\n1101101001111111000100001\n"
        "1111000000001000001110101\n1110010100110011101011111\n"
        "1110111110101110011001010\n1010010001111011010110010\n"
        "1010011011011100001010111\n1110100100010100010010111\n"
        "1110100110111101100101110\n0111010011011110110010111\n"
        "0111010011110100101111001"
    ),
    "a40226": (
        "010111001011101001\n011100100111010110\n001011001011101100\n"
        "110010010010001001\n000110111001101111\n000001100100101101\n"
        "001111111001011111\n100101000000000011\n101011011001101010\n"
        "010100011111010000\n101100110000010100\n011010010101010110\n"
        "011011011101000100\n001010001100001010\n010100000000111001\n"
        "110110011100011011\n111000011001011111\n000000110101101010\n"
        "101101110011011100\n001001010100000011\n010110110100111100\n"
        "001001101110010111"
    ),
}

_PAIRS = {
    "c37226":  "x=010110011011111\ny=110010110000001",
    "c381311": "x=0010011100110001011000100\ny=1110100001110101110001101",
    "c40227":  "x=101111011011010011\ny=001011100011100001",
}

# each pair upgrades the like-named A-block code
PAIR_SEED = {"c37226": "a37225", "c381311": "a381310", "c40227": "a40226"}

_EXPECTED_A_DIMS = {"a37225": (22, 15), "a381310": (13, 25), "a40226": (22, 18)}


@dataclass(frozen=True)
class BundledArtifact:
    name: str
    kind: str  # "circulant-seed" | "generator-A-block" | "transform-pair"
    payload: str


ARTIFACTS: dict[str, BundledArtifact] = {}
for _name, _row in _SEED_ROWS.items():
    ARTIFACTS[_name] = BundledArtifact(_name, "circulant-seed", _row)
for _name, _block in _A_BLOCKS.items():
    ARTIFACTS[_name] = BundledArtifact(_name, "generator-A-block", _block)
for _name, _pair in _PAIRS.items():
    ARTIFACTS[_name] = BundledArtifact(_name, "transform-pair", _pair)


def artifact_names(kind: str | None = None) -> list[str]:
    return [n for n, a in ARTIFACTS.items() if kind is None or a.kind == kind]


def load_seed(name: str) -> LinearCode:
    """Bordered double circulant code from a named first row."""
    art = ARTIFACTS.get(name)
    if art is None or art.kind != "circulant-seed":
        raise KeyError(f"no bundled circulant seed named {name!r}")
    if len(art.payload) != 27:
        raise CodeParseError(f"seed {name}: expected 27 symbols, got {len(art.payload)}")
    row = FieldVector(GF2, parse_symbols(GF2, art.payload))
    return bordered_double_circulant(CirculantSpec(row))


def load_a_block_code(name: str) -> LinearCode:
    """[I_k | A] code from a named A-block."""
    art = ARTIFACTS.get(name)
    if art is None or art.kind != "generator-A-block":
        raise KeyError(f"no bundled A-block named {name!r}")
    rows = art.payload.split("\n")
    k, m = _EXPECTED_A_DIMS[name]
    if len(rows) != k or any(len(r) != m for r in rows):
        raise CodeParseError(f"A-block {name}: expected {k} rows of {m} symbols")
    a = FieldMatrix(GF2, [parse_symbols(GF2, r) for r in rows], cols=m)
    return LinearCode.systematic(a)


def load_pair(name: str) -> TransformPair:
    art = ARTIFACTS.get(name)
    if art is None or art.kind != "transform-pair":
        raise KeyError(f"no bundled transform pair named {name!r}")
    return TransformPair.parse(art.payload, source=f"bundled:{name}")


def bundled_code(name: str) -> LinearCode:
    """Resolve any bundled code-producing artifact by name."""
    art = ARTIFACTS.get(name)
    if art is None:
        raise KeyError(f"no bundled artifact named {name!r}")
    if art.kind == "circulant-seed":
        return load_seed(name)
    if art.kind == "generator-A-block":
        return load_a_block_code(name)
    raise KeyError(f"artifact {name!r} is a {art.kind}, not a code")


def seed_store() -> dict[str, LinearCode]:
    """All bundled codes keyed by artifact name (for search/replay)."""
    return {n: bundled_code(n) for n in ARTIFACTS
            if ARTIFACTS[n].kind in ("circulant-seed", "generator-A-block")}
