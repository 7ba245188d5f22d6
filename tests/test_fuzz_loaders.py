"""The text loaders take arbitrary input and raise only their documented
errors: ``parse_code`` and ``TransformPair.parse`` a ``CodeParseError``, and
``read_records`` plus ``replay`` an ``IntegrityError`` or another
``HullkitError``, never ``TypeError``, ``KeyError`` or ``AttributeError``.
The ``artifacts`` loaders take any name and raise only ``KeyError``, and the
CLI reads any file into exit 0, or exit 1 with one error line."""
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullkit import (
    GF2,
    CodeParseError,
    FieldVector,
    HullkitError,
    LinearCode,
    TransformPair,
    exhaustive_x,
    parse_code,
    read_records,
    replay,
    sd_search,
)
from hullkit import artifacts
from hullkit.cli import main
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


@settings(max_examples=300, deadline=None)
@given(load=st.sampled_from([artifacts.load_seed, artifacts.load_a_block_code, artifacts.load_pair,
                             artifacts.bundled_code]),
       name=st.one_of(st.sampled_from(sorted(artifacts.ARTIFACTS)), st.text(max_size=8)))
def test_artifact_loaders_return_their_object_or_raise_key_error(load, name):
    try:
        loaded = load(name)
    except KeyError:
        return
    assert isinstance(loaded, TransformPair if load is artifacts.load_pair else LinearCode)


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "input.txt"


@pytest.mark.parametrize("argv", [["info", "--minweight", "{}"], ["transform", "--seed", "a37225", "--pair", "{}"],
                                  ["equiv", "{}", "{}"], ["invariant", "{}"], ["replay", "--records", "{}"]],
                         ids=lambda argv: argv[0])
@settings(max_examples=100, deadline=None)
@given(text=_TEXT)
@example(text="2 8 4\n11110000\n00111100\n00001111\n01010101")  # e8: info, equiv and invariant exit 0
@example(text=artifacts.ARTIFACTS["c37226"].payload)  # a37225's pair: transform exits 0
def test_the_cli_reads_any_file_into_exit_0_or_one_error_line(text_file, argv, text):
    text_file.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main([str(text_file) if arg == "{}" else arg for arg in argv])
    assert status in (0, 1)
    lines = err.getvalue().splitlines()
    if status == 1:
        assert len(lines) == 1 and lines[0].startswith("hullkit: error: "), lines
