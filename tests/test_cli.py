import io
import json
import random
import subprocess
import sys

import pytest

from hullkit import (GF2, FieldVector, exhaustive_isotropic_pairs, format_code, lcd_improve,
                     sampled_x, sd_search)
from hullkit import cli
from hullkit.cli import main
from hullkit.search import read_records

from conftest import bordered_golay, extended_hamming, hull_dim_naive, random_code


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_on_bundled_seed(capsys):
    code, out, _ = run_cli(capsys, "info", "D11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"]) == (56, 28)
    assert doc["self_dual"] and doc["doubly_even"]
    assert doc["hull_dim"] == 28


def test_info_with_minweight(capsys):
    code, out, _ = run_cli(capsys, "info", "a381310", "--minweight", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 10 and doc["lcd"]
    code, out, _ = run_cli(capsys, "info", "D11", "--minweight")
    assert code == 0
    assert out.splitlines()[-2:] == ["d: 12", "extremal: True"]


def test_build_circulant_and_file_round_trip(tmp_path, capsys):
    path = tmp_path / "d11.code"
    code, _, _ = run_cli(capsys, "build-circulant", "D11", "-o", str(path))
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "2 56 28"
    code, out, _ = run_cli(capsys, "info", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["self_dual"]


def test_build_circulant_pure_row(capsys, tmp_path):
    path = tmp_path / "ham.code"
    code, _, _ = run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    assert code == 0
    from hullkit import parse_code

    assert parse_code(path.read_text()).generator == extended_hamming().generator


def test_transform_pipeline(capsys, tmp_path):
    out_path = tmp_path / "c37226.code"
    code, _, _ = run_cli(capsys, "transform", "--seed", "a37225",
                         "--pair", "c37226", "-o", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "minweight", str(out_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["d"] == 6


def test_minweight_has_no_distribution_option(capsys):
    # `hullkit distribution` prints the counts
    with pytest.raises(SystemExit) as exc:
        main(["minweight", "D11", "--distribution"])
    assert exc.value.code == 2


def test_minweight_abort_above(capsys):
    code, out, _ = run_cli(capsys, "minweight", "a37225", "--abort-above", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] < 6
    assert "verdict" in doc


def test_distribution_json(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    code, out, _ = run_cli(capsys, "distribution", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [[0, 1], [4, 14], [8, 1]]


def test_distribution_and_invariant_text(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    assert run_cli(capsys, "distribution", str(path)) == (0, "0: 1\n4: 14\n8: 1\n", "")
    # the 14 weight-4 words form a 3-(8,4,1) design: no 4-subset lies in two
    assert run_cli(capsys, "invariant", str(path)) == (
        0, "weight: 4\nsequence: [14, 0, 0, 0, 0, 0, 0, 0]\n", "")


def test_invariant_json(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    code, out, _ = run_cli(capsys, "invariant", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 4
    assert doc["sequence"][0] == 14


def test_invariant_json_prints_counts_above_n(capsys, tmp_path):
    path = tmp_path / "golay.code"
    path.write_text(format_code(bordered_golay()))
    code, out, _ = run_cli(capsys, "invariant", str(path), "--weight", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["weight"]) == (24, 12)
    assert doc["sequence"] == [0] * 119 + [10626]


def test_equiv_json(capsys, tmp_path):
    p1 = tmp_path / "a.code"
    p2 = tmp_path / "b.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(p1))
    run_cli(capsys, "build-circulant", "1110", "--pure", "-o", str(p2))
    code, out, _ = run_cli(capsys, "equiv", str(p1), str(p2), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] in ("equivalent", "inequivalent")


def test_shorten_puncture(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    code, out, _ = run_cli(capsys, "puncture", str(path), "--coords", "8")
    assert code == 0
    assert out.splitlines()[0] == "2 7 4"
    code, out, _ = run_cli(capsys, "shorten", str(path), "--coords", "1,2")
    assert code == 0
    assert out.splitlines()[0].startswith("2 6")


def test_search_and_replay(capsys, tmp_path):
    records = tmp_path / "lcd.jsonl"
    code, out, _ = run_cli(capsys, "search-lcd", "--seed", "a381310",
                           "--sample", "8", "--rng-seed", "3",
                           "--d-target", "8", "--out", str(records))
    assert code == 0
    lines = records.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["rng_seed"] == 3
    code, out, _ = run_cli(capsys, "replay", "--records", str(records))
    assert code == 0
    assert "replay OK" in out or len(lines) == 1


HAMMING_TEXT = "2 8 4\n10000111\n01001011\n00101101\n00011110\n"
GF3_TEXT = "3 7 3\n1201102\n0112021\n2210110\n"

# frozen output of each command: shorten prints its code in RREF, dual does not
CODE_OPS = [
    (HAMMING_TEXT, ("shorten", "--coords", "1,2"), "2 6 2\n101101\n011110\n"),
    (HAMMING_TEXT, ("shorten", "--coords", "3,1"), "2 6 2\n101011\n011110\n"),
    (HAMMING_TEXT, ("shorten", "--coords", "2"), "2 7 3\n1000111\n0101101\n0011110\n"),
    (HAMMING_TEXT, ("shorten", "--coords", "1,2,3,4,5,6,7,8"), "2 0 0\n"),
    (HAMMING_TEXT, ("puncture", "--coords", "8"),
     "2 7 4\n1000011\n0100101\n0010110\n0001111\n"),
    (HAMMING_TEXT, ("puncture", "--coords", "2,5"),
     "2 6 4\n100100\n010101\n001101\n000011\n"),
    (HAMMING_TEXT, ("dual",), "2 8 4\n01111000\n10110100\n11010010\n11100001\n"),
    (GF3_TEXT, ("shorten", "--coords", "4"), "3 6 2\n101120\n011100\n"),
    (GF3_TEXT, ("shorten", "--coords", "1,7"), "3 5 1\n11010\n"),
    (GF3_TEXT, ("shorten", "--coords", "1,2,3,4,5"), "3 2 0\n"),
    (GF3_TEXT, ("puncture", "--coords", "2,5"), "3 5 3\n10020\n01000\n00112\n"),
    (GF3_TEXT, ("puncture", "--coords", "7"), "3 6 3\n101012\n011010\n000111\n"),
    (GF3_TEXT, ("dual",), "3 7 4\n2210000\n2202100\n1002010\n0001001\n"),
]


@pytest.mark.parametrize("text, op, expected", CODE_OPS,
                         ids=[f"q{t[0]}-{' '.join(op)}" for t, op, _ in CODE_OPS])
def test_code_operation_output_is_exact(capsys, tmp_path, text, op, expected):
    path = tmp_path / "in.code"
    path.write_text(text)
    code, out, err = run_cli(capsys, op[0], str(path), *op[1:])
    assert (code, out, err) == (0, expected, "")


def _lcd_records(capsys, tmp_path, extra_line=None):
    """A header and one record line from a search, then ``extra_line``
    (default: a second copy of the record)."""
    records = tmp_path / "lcd.jsonl"
    code, _, _ = run_cli(capsys, "search-lcd", "--seed", "a37225", "--pair", "c37226",
                         "--d-target", "6", "--out", str(records))
    assert code == 0
    header, record = records.read_text().splitlines()
    records.write_text("\n".join([header, record, extra_line or record]) + "\n")
    return records


def test_replay_index_labels_the_picked_record(capsys, tmp_path):
    records = _lcd_records(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "replay", "--records", str(records), "--index", "1")
    assert code == 0
    assert out == "record 1: [37,22,6] replay OK\n"
    code, out, _ = run_cli(capsys, "replay", "--records", str(records))
    assert code == 0
    assert [ln.split(":")[0] for ln in out.splitlines()] == ["record 0", "record 1"]


@pytest.mark.parametrize("index", ["7", "2", "-1"])
def test_replay_index_out_of_range_is_a_domain_error(capsys, tmp_path, index):
    records = _lcd_records(capsys, tmp_path)
    code, out, err = run_cli(capsys, "replay", "--records", str(records), "--index", index)
    assert (code, out) == (1, "")
    assert err.startswith("hullkit: error: --index ") and "2 record(s)" in err


@pytest.mark.parametrize("bad_line, reason", [
    ("{not json", "invalid JSON"),
    ('{"kind": "record", "x": "0"}', "no 'seed_id' field"),
    ('["kind", "record"]', "expected a JSON object"),
    ('{"kind": "record", "seed_id": "a37225", "x": "0", "y": "0", "n": 37, "k": 22, '
     '"d": 6, "self_dual": false, "doubly_even": false, "lcd": true, "fingerprint": 5}',
     "malformed record"),
])
def test_replay_names_the_bad_line(capsys, tmp_path, bad_line, reason):
    records = _lcd_records(capsys, tmp_path, bad_line)
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")
    assert err.startswith(f"hullkit: error: {records}:3: ")
    assert reason in err


@pytest.mark.parametrize("name, value, message", [
    ("x", None, "field 'x' must be a string, got null"),
    ("seed_id", ["a37225"], "field 'seed_id' must be a string, got an array"),
    ("d", "6", "field 'd' must be an integer, got a string"),
    ("n", 37.0, "field 'n' must be an integer, got a number"),
    ("zzz", 1, "unknown field 'zzz'"),
])
def test_replay_refuses_a_record_field_of_the_wrong_type(capsys, tmp_path, name, value, message):
    # each once crashed replay with a TypeError, replayed as a mismatch or was accepted
    records = _lcd_records(capsys, tmp_path)
    header, record, _ = records.read_text().splitlines()
    records.write_text("\n".join([header, record, json.dumps({**json.loads(record), name: value})]) + "\n")
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")
    assert err == f"hullkit: error: {records}:3: malformed record: {message}\n"


def test_replay_names_a_malformed_vector(capsys, tmp_path):
    records = _lcd_records(capsys, tmp_path)
    header, record, _ = records.read_text().splitlines()
    doc = json.loads(record)
    doc["x"] = doc["x"][:-1] + "a"
    records.write_text("\n".join([header, json.dumps(doc)]) + "\n")
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")
    assert err.startswith(f"hullkit: error: record x='{doc['x']}'")


def test_replay_resolves_a_seed_file(capsys, tmp_path):
    seed_path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(seed_path))
    records = tmp_path / "sd.jsonl"
    code, _, _ = run_cli(capsys, "search-sd", "--seed", str(seed_path), "--y", "y4",
                         "--exhaustive", "--d-target", "4", "--out", str(records))
    assert code == 0
    code, out, _ = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")  # the record names a seed that is not bundled
    code, out, err = run_cli(capsys, "replay", "--records", str(records),
                             "--seed-file", f"{seed_path}={seed_path}")
    assert (code, out, err) == (0, "record 0: [8,4,4] replay OK\n", "")


@pytest.mark.parametrize("spec", ["a40226", "=foo", "a40226="])
def test_replay_names_a_malformed_seed_file_spec(capsys, tmp_path, spec):
    records = _lcd_records(capsys, tmp_path)
    code, out, err = run_cli(capsys, "replay", "--records", str(records), "--seed-file", spec)
    assert (code, out) == (1, "")
    assert err == f"hullkit: error: --seed-file {spec!r} is not NAME=PATH\n"


def test_search_sd_cli(capsys, tmp_path):
    seed_path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(seed_path))
    records = tmp_path / "sd.jsonl"
    code, out, _ = run_cli(capsys, "search-sd", "--seed", str(seed_path),
                           "--y", "y4", "--exhaustive", "--d-target", "4",
                           "--out", str(records))
    assert code == 0
    assert "1 record(s)" in out


def test_search_sd_samples_with_an_explicit_y(capsys, tmp_path):
    seed_path = tmp_path / "ham.code"
    seed_path.write_text(format_code(extended_hamming()))
    records = tmp_path / "sd.jsonl"
    code, out, _ = run_cli(capsys, "search-sd", "--seed", str(seed_path), "--y", "1111",
                           "--sample", "1", "--rng-seed", "3", "--d-target", "4",
                           "--out", str(records))
    assert (code, out) == (0, f"1 record(s) written to {records}\n")
    header, got = read_records(str(records))
    assert header == {"search": "sd", "seed": str(seed_path), "y": "1111", "d_target": 4,
                      "rule": "mod4", "x_source": "sample", "count": 1,
                      "rng": "python-random-mt19937", "rng_seed": 3}
    y = FieldVector(GF2, [1, 1, 1, 1])
    want = sd_search(extended_hamming(), y, sampled_x(4, y, 1, 3), 4, seed_id=str(seed_path))
    assert [r.payload() for r in got] == [r.payload() for r in want]
    code, out, err = run_cli(capsys, "search-sd", "--seed", str(seed_path), "--y", "111",
                             "--sample", "1", "--rng-seed", "3", "--d-target", "4",
                             "--out", str(records))
    assert (code, out, err) == (1, "", "hullkit: error: y has length 3, seed needs 4\n")


def test_search_lcd_exhaustive(capsys, tmp_path):
    records = tmp_path / "lcd.jsonl"
    code, out, err = run_cli(capsys, "search-lcd", "--seed", "a381310", "--exhaustive",
                             "--d-target", "11", "--out", str(records))
    assert (code, out) == (1, "")
    assert err == "hullkit: error: exhaustive pair enumeration supports m <= 14, got 25\n"
    seed = random_code(random.Random(58), GF2, 8, 2)  # an [8,2] LCD code, m = 6
    assert hull_dim_naive(seed) == 0
    seed_path = tmp_path / "lcd8.code"
    seed_path.write_text(format_code(seed))
    code, out, _ = run_cli(capsys, "search-lcd", "--seed", str(seed_path), "--exhaustive",
                           "--d-target", "3", "--out", str(records))
    header, got = read_records(str(records))
    want = lcd_improve(seed, exhaustive_isotropic_pairs(6), 3, seed_id=str(seed_path))
    assert (code, out) == (0, f"{len(want)} record(s) written to {records}\n")
    assert header["pair_source"] == "exhaustive" and len(want) > 1
    assert [r.payload() for r in got] == [r.payload() for r in want]


def test_sample_requires_rng_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["search-lcd", "--seed", "a381310", "--sample", "5",
              "--d-target", "8", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["search-lcd", "--seed", "a37225", "--pair", "c37226", "--d-target", "6"],
    ["search-lcd", "--seed", "a381310", "--exhaustive", "--d-target", "8"],
    ["search-sd", "--seed", "D11", "--y", "y4", "--exhaustive", "--d-target", "12"],
])
def test_rng_seed_is_refused_where_nothing_is_drawn(capsys, tmp_path, argv):
    out = tmp_path / "x.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--rng-seed", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--rng-seed applies only to --sample" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("2 4 2\n1100\n1100\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 1
    assert "dependent" in err


@pytest.mark.parametrize("command, text, message", [
    ("info", "2 -1 0\n", "{path}:1: n and k must be non-negative, got n=-1, k=0"),
    ("info", "2 2 -1\n", "{path}:1: n and k must be non-negative, got n=2, k=-1"),
    ("transform", "x=0000000000000000\ny=1111000000000000\n",
     "{path}:1: x is a zero vector, which makes the transform trivial"),
    ("transform", "x=\ny=1111000000000000\n", "{path}:1: x is an empty vector, which makes the transform trivial"),
    ("transform", "x=1111000000000000\ny=11110000\n", "{path}:2: x has length 16, y has length 8"),
], ids=["negative-n", "negative-k", "zero-x", "empty-x", "short-y"])
def test_a_malformed_input_file_names_its_line(capsys, tmp_path, command, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    argv = ["info", str(path)] if command == "info" else ["transform", "--seed", "a381310", "--pair", str(path)]
    assert run_cli(capsys, *argv) == (1, "", f"hullkit: error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv", [
    ["replay", "--records", "{dir}"],
    ["dual", "a37225", "-o", "{dir}"],
    ["replay", "--records", "{records}", "--seed-file", "X={dir}"],
    ["info", "{dir}"],
    ["dual", "a37225", "-o", "{dir}/missing/out.code"],
], ids=["records-dir", "out-dir", "seed-file-dir", "code-dir", "out-missing-dir"])
def test_an_unreadable_or_unwritable_path_is_one_error_line(capsys, tmp_path, argv):
    # a directory once escaped main() as an IsADirectoryError traceback
    records = _lcd_records(capsys, tmp_path)
    argv = [a.format(dir=tmp_path, records=records) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("hullkit: error: ")


@pytest.mark.parametrize("argv, message", [
    (["transform", "--seed", "a37225", "--pair", "D11"], "no bundled transform pair named 'D11'"),
    (["info", "c37226"], "artifact 'c37226' is a transform-pair, not a code"),
], ids=["pair-D11", "code-c37226"])
def test_a_key_error_prints_its_message_without_quotes(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"hullkit: error: {message}\n")


@pytest.mark.parametrize("flags", [[], ["--pure"]])
def test_build_circulant_refuses_an_empty_row(capsys, tmp_path, flags):
    # it once wrote the [2,1] code, or with --pure the zero code
    out_path = tmp_path / "out.code"
    code, out, err = run_cli(capsys, "build-circulant", "", *flags, "-o", str(out_path))
    assert (code, out) == (1, "") and not out_path.exists()
    assert err == "hullkit: error: a circulant first row must not be empty\n"


def test_verify_paper(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-paper", "--out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert set(doc) == {"checks"}
    seeds = [c for c in doc["checks"] if c["name"].startswith("seed ")]
    assert len(seeds) == 6
    assert all("enumerator exact" in c["detail"] for c in seeds)
    assert out.splitlines()[-1] == "verification PASSED (13/13)"


def test_verify_paper_has_no_quick_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-paper"],
    ["search-sd", "--seed", "D11", "--y", "y4", "--sample", "1", "--rng-seed", "1",
     "--d-target", "12", "--out", "records.jsonl"],
    ["search-lcd", "--seed", "a37225", "--pair", "c37226", "--d-target", "6",
     "--out", "records.jsonl"],
    ["replay", "--records", "records.jsonl"],
], ids=lambda argv: argv[0])
def test_search_replay_and_verify_have_no_threads_option(capsys, monkeypatch, tmp_path, argv):
    # their screens run on one thread, and their walks are of small LCD
    # codes, where threads bought nothing
    monkeypatch.chdir(tmp_path)  # a command that took the option would write here
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["info", "minweight", "distribution", "invariant"])
def test_threads_below_one_is_a_usage_error(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([command, "a37225", "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["0", "-1"])
def test_invariant_weight_below_one_is_a_usage_error(capsys, weight):
    # --weight -1 walked every codeword and printed an all-zero sequence
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "a381310", "--weight", weight])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--weight must be at least 1, got {weight}" in err


def test_invariant_weight_above_n_is_an_error(capsys):
    # a381310 has n = 38: --weight 39 printed 38 zeros and exited 0
    assert main(["invariant", "a381310", "--weight", "39"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "weight must be in 1..38, got 39" in err


@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_equiv_node_budget_below_zero_is_a_usage_error(capsys, budget):
    # --node-budget -5 ran, and answered "unknown" after one node as 0 does
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "D11", "C56.1", "--node-budget", budget])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--node-budget must be at least 0, got {budget}" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hullkit.cli", "info", "a37225", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lcd"] is True


@pytest.mark.parametrize("argv", [
    ["search-sd", "--seed", "D11", "--y", "y4", "--d-target", "12"],
    ["search-lcd", "--seed", "a381310", "--d-target", "8"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("option, value, low", [
    ("--sample", "-3", 1), ("--sample", "0", 1), ("--rng-seed", "-7", 0),
])
def test_sample_and_rng_seed_below_their_floor_are_usage_errors(capsys, tmp_path, argv,
                                                                 option, value, low):
    # random.Random(-7) seeds as 7, and a count below 1 wrote a header and no records
    out = tmp_path / "o.jsonl"
    args = {"--sample": "5", "--rng-seed": "1", option: value}
    with pytest.raises(SystemExit) as exc:
        main(argv + [a for kv in args.items() for a in kv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"{option} must be at least {low}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("digits", ["\u0660\u0661", "\uff10\uff11"], ids=["arabic-indic", "fullwidth"])
def test_replay_fails_on_non_ascii_digits(capsys, tmp_path, digits):
    records = _lcd_records(capsys, tmp_path)
    header, record, _ = records.read_text().splitlines()
    doc = json.loads(record)
    doc["x"] = doc["x"].translate(str.maketrans("01", digits))
    records.write_text("\n".join([header, json.dumps(doc)]) + "\n")
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")
    assert err.startswith(f"hullkit: error: record x='{doc['x']}' is not a vector: invalid literal")


@pytest.mark.parametrize("spec", ["y\u0664", "y\uff14"], ids=["arabic-indic", "fullwidth"])
def test_search_sd_y_count_takes_only_ascii_digits(capsys, tmp_path, spec):
    # int() reads both as y4
    code, out, err = run_cli(capsys, "search-sd", "--seed", "D11", "--y", spec, "--sample", "1",
                             "--rng-seed", "1", "--d-target", "12", "--out", str(tmp_path / "r"))
    assert (code, out) == (1, "")
    assert err.startswith(f"hullkit: error: cannot parse y spec {spec!r}")


def test_a_code_file_that_is_not_utf8_is_named(capsys, tmp_path):
    path = tmp_path / "code.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "info", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"hullkit: error: {path}: not UTF-8 text")


def test_stdin_that_is_not_utf8_is_named(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, out, err = run_cli(capsys, "info", "-")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("hullkit: error: <stdin>: not UTF-8 text")


def test_replay_names_the_line_that_is_not_utf8(capsys, tmp_path):
    records = _lcd_records(capsys, tmp_path)
    header, record, _ = records.read_bytes().splitlines()
    records.write_bytes(header + b"\n" + record.replace(b'"x"', b'"\xff"') + b"\n")
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out, err) == (1, "", f"hullkit: error: {records}:2: not UTF-8 text\n")


@pytest.mark.parametrize("argv", [
    ["search-sd", "--seed", "D11", "--y", "y4", "--sample", "3", "--rng-seed", "1", "--d-target", "12"],
    ["search-lcd", "--seed", "a381310", "--sample", "3", "--rng-seed", "1", "--d-target", "8"],
], ids=lambda argv: argv[0])
def test_search_refuses_an_unwritable_out_before_it_searches(capsys, monkeypatch, tmp_path, argv):
    # the output file was opened only after the whole search had run
    def searched(*args, **kwargs):
        raise AssertionError("the search ran before --out was opened")

    monkeypatch.setattr(cli, "sd_search", searched)
    monkeypatch.setattr(cli, "lcd_improve", searched)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("hullkit: error: ")


@pytest.mark.parametrize("argv", [
    ["search-lcd", "--seed", "a381310", "--exhaustive", "--d-target", "11"],  # m = 25 > 14
    ["search-lcd", "--seed", "D11", "--sample", "3", "--rng-seed", "1", "--d-target", "12"],  # not LCD
    ["search-sd", "--seed", "a37225", "--y", "y4", "--sample", "3", "--rng-seed", "1",
     "--d-target", "6"],  # not self-dual
], ids=["exhaustive-m25", "lcd-not-lcd", "sd-not-self-dual"])
def test_a_refused_search_leaves_out_as_it_was(capsys, tmp_path, argv):
    # --out was once opened with mode "w" before the search checked its input, which emptied it
    target = tmp_path / "records.jsonl"
    before = b'{"kind": "header", "search": "lcd"}\nearlier content\n'
    target.write_bytes(before)
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("hullkit: error: ")
    assert target.read_bytes() == before


def test_a_refused_search_leaves_no_new_out(capsys, tmp_path):
    # --out was once created before the search checked its input, and left empty
    target = tmp_path / "records.jsonl"
    argv = ["search-lcd", "--seed", "D11", "--sample", "3", "--rng-seed", "1", "--d-target", "12"]  # not LCD
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("hullkit: error: ")
    assert not target.exists()
