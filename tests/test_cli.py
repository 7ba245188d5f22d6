import json
import subprocess
import sys

import pytest

from hullkit.cli import main

from conftest import extended_hamming


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


def test_minweight_with_distribution(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    code, out, _ = run_cli(capsys, "minweight", str(path), "--distribution",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["counts"] == [[0, 1], [4, 14], [8, 1]]


def test_minweight_distribution_of_the_zero_code(capsys, tmp_path):
    path = tmp_path / "zero.code"
    path.write_text("2 4 0\n")
    code, out, err = run_cli(capsys, "minweight", str(path), "--distribution")
    assert (code, out) == (1, "")
    assert err == "hullkit: error: the zero code has no nonzero codewords\n"


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


def test_invariant_json(capsys, tmp_path):
    path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(path))
    code, out, _ = run_cli(capsys, "invariant", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 4
    assert doc["sequence"][0] == 14


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


def test_replay_names_a_malformed_vector(capsys, tmp_path):
    records = _lcd_records(capsys, tmp_path)
    header, record, _ = records.read_text().splitlines()
    doc = json.loads(record)
    doc["x"] = doc["x"][:-1] + "a"
    records.write_text("\n".join([header, json.dumps(doc)]) + "\n")
    code, out, err = run_cli(capsys, "replay", "--records", str(records))
    assert (code, out) == (1, "")
    assert err.startswith(f"hullkit: error: record x='{doc['x']}'")


def test_search_sd_cli(capsys, tmp_path):
    seed_path = tmp_path / "ham.code"
    run_cli(capsys, "build-circulant", "0111", "--pure", "-o", str(seed_path))
    records = tmp_path / "sd.jsonl"
    code, out, _ = run_cli(capsys, "search-sd", "--seed", str(seed_path),
                           "--y", "y4", "--exhaustive", "--d-target", "4",
                           "--out", str(records))
    assert code == 0
    assert "1 record(s)" in out


def test_sample_requires_rng_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["search-lcd", "--seed", "a381310", "--sample", "5",
              "--d-target", "8", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


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


def test_verify_paper_quick(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-paper", "--quick", "--out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert "PASSED" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hullkit.cli", "info", "a37225", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lcd"] is True
