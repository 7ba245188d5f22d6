"""The text loaders take arbitrary input and raise only their documented
errors: ``parse_code`` and ``TransformPair.parse`` a ``CodeParseError``, and
``read_records`` plus ``replay`` an ``IntegrityError`` or another
``HullkitError``, never ``TypeError``, ``KeyError`` or ``AttributeError``."""
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullkit import (
    GF2,
    CodeParseError,
    FieldVector,
    HullkitError,
    TransformPair,
    exhaustive_x,
    parse_code,
    read_records,
    replay,
    sd_search,
)
from hullkit.search import _RECORD_TYPES

from conftest import direct_sum, extended_hamming

# lines that get past the first checks: headers, digit rows and pair lines
_HEADER = st.builds("{} {} {}".format, st.integers(-3, 12), st.integers(-2, 12), st.integers(-2, 6))
_DIGITS = st.text(alphabet="0123 ", max_size=12)
_LINE = st.one_of(_HEADER, _DIGITS, st.builds("{}={}".format, st.sampled_from(["x", "y", " x", "z", ""]), _DIGITS),
                  st.text(max_size=12))
_TEXT = st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join))


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example("2305843009213693951 3 1\n111")  # a huge prime q once took minutes of trial division
@example("2 100000000000 0")  # no rows: row reduction once visited every column
def test_parse_code_raises_only_code_parse_errors(text):
    try:
        code = parse_code(text, source="f")
    except CodeParseError as e:
        assert str(e).startswith("f:")
    else:
        assert code.generator.rows == code.k <= code.n


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_transform_pair_parse_raises_only_code_parse_errors(text):
    try:
        pair = TransformPair.parse(text, source="f")
    except CodeParseError as e:
        assert str(e).startswith("f:")
    else:
        assert len(pair.x) == len(pair.y) and not pair.x.is_zero() and not pair.y.is_zero()


@pytest.fixture(scope="module")
def e8e8_record(tmp_path_factory):
    """A record of ``sd_search`` from e8 + e8 that no x = y gives, its seed
    store, and a path to write records to."""
    seed = direct_sum(extended_hamming(), extended_hamming())
    y = FieldVector(GF2, [1, 1, 1, 1, 0, 0, 0, 0])
    records = sd_search(seed, y, exhaustive_x(8, y), d_target=4, seed_id="e8e8")
    return records[1].payload(), {"e8e8": seed}, tmp_path_factory.mktemp("records") / "r.jsonl"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
# values of the right type that a valid record could almost hold
_NEAR = st.one_of(st.text(alphabet="012", min_size=7, max_size=9), st.integers(-1, 20),
                  st.fixed_dictionaries({"distribution": st.text(max_size=4), "nt": st.text(max_size=4)}))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_RECORD_TYPES)), value=st.one_of(_JSON, _NEAR))
def test_a_record_with_any_json_value_in_one_field_raises_only_documented_errors(e8e8_record, name, value):
    payload, store, path = e8e8_record
    path.write_text(json.dumps({"kind": "header"}) + "\n"
                    + json.dumps({"kind": "record", **payload, name: value}) + "\n", encoding="utf-8")
    try:
        _, (record,) = read_records(str(path))
        code = replay(record, store)
    except HullkitError:
        return
    # a record replays with another note or stamp, or another x or y whose
    # code has the same parameters and fingerprint, and with nothing else changed
    assert (code.n, code.k) == (payload["n"], payload["k"])
    assert name in ("created", "collision", "x", "y") or value == payload[name]
