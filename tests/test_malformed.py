"""Malformed inputs end in exit status 1 with a line number, never a traceback.

Each bad line comes after enough valid ones that decoding the file in
chunks, rather than line by line, would misplace it.
"""

import json
import warnings

import pytest

from probeval.cli import main
from probeval.errors import RecordParseError
from probeval.io import read_forecasts, read_runs, validate_forecast_file, validate_run_file

LEADING = 400

BIG_INT = b"1" + b"0" * 400


def samples_line(record_id, target=b"0.5", values=b"[1.0, 2.0]") -> bytes:
    line = b'{"id": %s, "target": %s, "type": "samples", "values": %s}'
    return line % (record_id, target, values)


BAD_FORECASTS = {
    "target too large for a float": samples_line(b'"b"', target=BIG_INT),
    "value too large for a float": samples_line(b'"b"', values=b"[1.0, %s]" % BIG_INT),
    "nesting 10^5 deep": samples_line(b'"b"', values=b"[" * 100_000 + b"]" * 100_000),
    "byte that is not UTF-8": samples_line(b'"b\xff"'),
    "unhashable type": b'{"id": "b", "target": 0.5, "type": [], "values": [1.0]}',
    "lone surrogate id": samples_line(b'"\\udc80"'),
    "infinite total mass": json.dumps({"id": "b", "target": 0.5, "type": "histogram",
                                       "edges": [0, 1, 2], "probs": [1e308, 1e308]}).encode(),
    "numeric strings in values": samples_line(b'"b"', values=b'["1.5", " 2 ", "1e1"]'),
    "booleans in values": samples_line(b'"b"', values=b"[true, false, 2]"),
    "numeric string in edges": json.dumps({"id": "b", "target": 0.5, "type": "histogram",
                                           "edges": [0, "1", 2], "probs": [0.5, 0.5]}).encode(),
}

BAD_RUNS = {
    "byte that is not UTF-8": b"m,d\xff,0,crps,1.0",
    "field over the CSV size limit": b"m," + b"x" * 200_000 + b",0,crps,1.0",
}


def forecast_file(tmp_path, bad: bytes):
    lines = [samples_line(b'"%d"' % i) for i in range(LEADING)] + [bad, samples_line(b'"z"')]
    path = tmp_path / "fc.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, LEADING + 1


def run_file(tmp_path, bad: bytes):
    rows = [b"m,d%d,0,crps,1.0" % i for i in range(LEADING)]
    lines = [b"model,dataset,fold,metric,value", *rows, bad, b"n,d0,0,crps,2.0"]
    path = tmp_path / "runs.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path, LEADING + 2


@pytest.mark.parametrize("bad", BAD_FORECASTS.values(), ids=BAD_FORECASTS)
def test_bad_forecast_line(tmp_path, capsys, bad):
    path, line = forecast_file(tmp_path, bad)
    with pytest.raises(RecordParseError) as err:
        read_forecasts(path)
    assert err.value.line == line

    assert main(["score", "--forecasts", str(path), "--metrics", "crps",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert f"line {line}: " in capsys.readouterr().err

    assert main(["validate", "--forecasts", str(path)]) == 1
    assert f"line {line}: {err.value.message}\n" in capsys.readouterr().out
    n, repaired, violations = validate_forecast_file(path)
    assert (n, repaired, [v.line for v in violations]) == (LEADING + 2, 0, [line])


def test_overflowing_mass_prints_only_the_error_line(tmp_path, capsys):
    path = tmp_path / "fc.jsonl"
    path.write_bytes(BAD_FORECASTS["infinite total mass"] + b"\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would also reach the terminal
        code = main(["score", "--forecasts", str(path), "--metrics", "crps",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: line 1: probs must carry positive, finite total mass\n"
    )


@pytest.mark.parametrize("bad", BAD_RUNS.values(), ids=BAD_RUNS)
def test_bad_run_row(tmp_path, capsys, bad):
    path, line = run_file(tmp_path, bad)
    with pytest.raises(RecordParseError) as err:
        read_runs(path)
    assert err.value.line == line

    assert main(["leaderboard", "--runs", str(path), "--metric", "crps", "--seed", "1",
                 "--out", str(tmp_path / "lb.csv")]) == 1
    assert f"line {line}: " in capsys.readouterr().err

    assert main(["validate", "--runs", str(path)]) == 1
    assert f"line {line}: {err.value.message}\n" in capsys.readouterr().out
    n, violations = validate_run_file(path)
    assert (n, [v.line for v in violations]) == (LEADING + 2, [line])


@pytest.mark.parametrize("row, wording", [
    ("a,x,first,crps,1.0", "fold must be an integer, got 'first'"),
    ("a,x,-1,crps,1.0", "fold must be nonnegative, got -1"),
    ("a,x,0,crps,abc", "value must be a number, got 'abc'"),
    ("a,x,0,crps,inf", "non-finite value 'inf'"),
    ("a,x,0,crps", "expected 5 columns, got 4"),
])
def test_validate_takes_the_reader_wording(tmp_path, row, wording):
    path = tmp_path / "runs.csv"
    path.write_text(f"model,dataset,fold,metric,value\nb,x,0,crps,1.0\n{row}\n", encoding="utf-8")
    with pytest.raises(RecordParseError) as err:
        read_runs(path)
    assert (err.value.line, err.value.message) == (3, wording)
    n, violations = validate_run_file(path)
    assert n == 2
    assert [(v.line, v.message) for v in violations] == [(3, wording)]


def test_validate_reports_a_bad_header_in_the_reader_wording(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("model,dataset,value\na,x,1.0\n", encoding="utf-8")
    with pytest.raises(RecordParseError) as err:
        read_runs(path)
    n, violations = validate_run_file(path)
    assert (n, [(v.line, v.message) for v in violations]) == (0, [(1, err.value.message)])
    assert err.value.message == (
        "header must be model,dataset,fold,metric,value, got model,dataset,value"
    )


def test_run_rows_are_numbered_by_physical_line(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text('model,dataset,fold,metric,value\n"a\nb",x,0,crps,1.0\na,x,z,crps,1.0\n',
                    encoding="utf-8")
    with pytest.raises(RecordParseError) as err:
        read_runs(path)
    assert err.value.line == 4


def test_forecast_parse_error_is_reported_once(tmp_path):
    path = tmp_path / "fc.jsonl"
    path.write_text('{"id": "a", "target": 0.5, "type": "gaussian"}\n', encoding="utf-8")
    n, repaired, violations = validate_forecast_file(path)
    assert (n, repaired) == (1, 0)
    assert [(v.line, v.message) for v in violations] == [(1, "unknown forecast type 'gaussian'")]


def quantiles_line(levels: bytes, values: bytes) -> bytes:
    line = b'{"id": "b", "target": 0.5, "type": "quantiles", "levels": %s, "values": %s}'
    return line % (levels, values)


@pytest.mark.parametrize("bad, message", [
    (json.dumps({"id": "b", "target": 0.5, "type": "histogram", "edges": [0, 1, 2],
                 "probs": [1.0]}).encode(), "len(edges) must equal len(probs) + 1"),
    (quantiles_line(b"[0.25, 0.75]", b"[0.0, 1e400]"), "values must contain only finite values"),
    (quantiles_line(b"[0.25, 0.75]", b"[0.0]"), "levels and values must have the same length"),
    (quantiles_line(b"[0.75, 0.25]", b"[0.0, 1.0]"), "levels must be strictly increasing"),
], ids=["edges and probs", "infinite quantile value", "levels and values", "levels order"])
def test_a_constructor_error_names_its_line(tmp_path, capsys, bad, message):
    path, line = forecast_file(tmp_path, bad)
    with pytest.raises(RecordParseError) as err:
        read_forecasts(path)
    assert (err.value.line, err.value.message) == (line, message)

    assert main(["score", "--forecasts", str(path), "--metrics", "crps",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    assert main(["validate", "--forecasts", str(path)]) == 1
    assert f"line {line}: {message}\n" in capsys.readouterr().out


def test_a_header_field_over_the_csv_size_limit(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_bytes(b"model," + b"x" * 200_000 + b",fold,metric,value\nm,d,0,crps,1.0\n")
    message = "malformed CSV: field larger than field limit (131072)"
    assert main(["leaderboard", "--runs", str(path), "--metric", "crps", "--seed", "1",
                 "--out", str(tmp_path / "lb.csv")]) == 1
    assert capsys.readouterr().err == f"error: line 1: {message}\n"
    n, violations = validate_run_file(path)
    assert (n, [(v.line, v.message) for v in violations]) == (0, [(1, message)])
    assert main(["validate", "--runs", str(path)]) == 1
    assert capsys.readouterr().out == f"line 1: {message}\n0 row(s), 1 violations\n"


@pytest.mark.parametrize("bad, key", [
    (b'{"id": "a", "id": "b", "target": 0.5, "type": "samples", "values": [1, 2]}', "id"),
    (b'{"id": "b", "target": 0.5, "type": "samples", "values": [1, 2], "values": [3]}', "values"),
    (b'{"id": {"k": 1, "k": 2}, "target": 0.5, "type": "samples", "values": [1]}', "k"),
], ids=["id", "values", "nested"])
def test_a_repeated_key_is_rejected(tmp_path, capsys, bad, key):
    path, line = forecast_file(tmp_path, bad)
    message = f"repeated key {key!r}"
    with pytest.raises(RecordParseError) as err:
        read_forecasts(path)
    assert (err.value.line, err.value.message) == (line, message)

    assert main(["score", "--forecasts", str(path), "--metrics", "crps",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    assert main(["validate", "--forecasts", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"line {line}: {message}\n{LEADING + 2} record(s), 0 quantile record(s) repaired, "
        "1 violations\n"
    )
