"""Fuzz of both input formats through the CLI, in process.

Valid lines written from ``synth`` output are mutated: fields dropped or
retyped, integers too large for a float, deep nesting, bytes that are not
UTF-8, oversized CSV fields.  Three properties must hold for every file:

* no exception escapes ``cli.main`` for ``score``, ``leaderboard`` or
  ``validate``;
* every exit status 1 names a line;
* ``read_*`` rejects line N exactly when the first violation from
  ``validate_*`` that is not a lint finding is at line N.
"""

import contextlib
import io as text_io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from probeval import QuantileForecast, SampleForecast, io, synth
from probeval.cli import main
from probeval.errors import RecordParseError
from probeval.io import ForecastRecord

FUZZ_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Findings validate reports on records the reader accepts.
LINT = ("probability mass sums to", "non-monotone quantile values")

METRICS = ",".join([
    "crps", "crls", "log_score", "energy_score_beta_0.5", "wcrps_center", "interval_score_90",
    "coverage_90", "rmse",
])


def _file_lines(write, records) -> list[bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid"
        write(records, path)
        return path.read_bytes().splitlines(keepends=True)


FORECAST_LINES = _file_lines(io.write_forecasts, [
    *synth.self_calibrated_records(3, seed=1),
    ForecastRecord("q", 0.3, QuantileForecast([0.1, 0.5, 0.9], [-1.0, 0.2, 1.4])),
    ForecastRecord("s", 2.0, SampleForecast([1.8, 2.1, 2.4, 2.1])),
])
RUN_LINES = _file_lines(io.write_runs, synth.generate_runs(
    synth.ScenarioSpec("dominant", models=2, datasets=3, folds=2, seed=1)
))

BIG_INT = "1" + "0" * 400
DEEP = "[" * 100_000 + "]" * 100_000

json_junk = st.sampled_from([
    None, True, False, "", "x", "1.5", [], {}, [1, "a"], [[1.0]], [None], -1, 0, 0.5,
    1e308, [1e308, 1e308], [-1e308, 1e308], "\udc80", [0.5, 0.4], [2.0, 1.0],
])
raw_junk = st.sampled_from([BIG_INT, f"[{BIG_INT}]", DEEP, "[" * 900 + "]" * 900, "1e999", "-0"])
csv_junk = st.sampled_from([
    "", "x", "-1", "1.5", "nan", "inf", "1e999", BIG_INT, "1" + "0" * 5000, "x" * 140_000,
    '"', 'a"b', '"a\nb"', "\x00", "a,b", " 1", "1.7e308",
])
bad_bytes = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\x00", b"\r", b"\n"])


def _splice(line: bytes, at: int, insert: bytes) -> bytes:
    return line[:at] + insert + line[at:]


@st.composite
def json_mutation(draw, line: bytes) -> bytes:
    kind = draw(st.sampled_from(["drop", "retype", "raw", "element", "scale", "bytes", "truncate"]))
    try:
        obj = json.loads(line)
        keys = [*obj, "edges", "probs", "levels", "values", "extra"]
        lists = [k for k, v in obj.items() if isinstance(v, list)]
    except (ValueError, TypeError, RecursionError):  # an earlier mutation broke it
        kind = "bytes"
    if kind == "drop" and obj:
        obj.pop(draw(st.sampled_from(list(obj))))
    elif kind == "retype":
        obj[draw(st.sampled_from(keys))] = draw(json_junk)
    elif kind == "element" and lists:
        key = draw(st.sampled_from(lists))
        obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(json_junk)
    elif kind == "scale" and lists:
        key = draw(st.sampled_from(lists))
        factor = draw(st.sampled_from([1e300, 1e307, -1.0, 0.0, 1e-320]))
        fill = draw(st.sampled_from([None, 1e308]))
        sign = draw(st.sampled_from([1, -1]))
        obj[key] = [fill * sign**i if fill else v * factor if type(v) is float else v
                    for i, v in enumerate(obj[key])]
    elif kind == "raw":
        key = draw(st.sampled_from(keys))
        obj[key] = "@@"
        return json.dumps(obj).replace('"@@"', draw(raw_junk)).encode() + b"\n"
    elif kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))] + b"\n"
    else:
        return _splice(line, draw(st.integers(0, len(line))), draw(bad_bytes))
    return json.dumps(obj).encode() + b"\n"


@st.composite
def csv_mutation(draw, line: bytes) -> bytes:
    kind = draw(st.sampled_from(["drop", "add", "replace", "bytes", "truncate"]))
    try:
        fields = line.decode().rstrip("\n").split(",")
    except UnicodeDecodeError:  # an earlier mutation broke it
        kind = "bytes"
    if kind == "drop":
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    elif kind == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(csv_junk))
    elif kind == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(csv_junk)
    elif kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))] + b"\n"
    else:
        return _splice(line, draw(st.integers(0, len(line))), draw(bad_bytes))
    return ",".join(fields).encode() + b"\n"


@st.composite
def mutated_files(draw, valid: list[bytes], mutation) -> bytes:
    lines = list(valid)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["mutate", "mutate", "mutate", "duplicate", "blank"]))
        if action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "blank":
            lines.insert(i, draw(st.sampled_from([b"\n", b"  \n", b"\t\r\n"])))
        elif lines[i].strip():
            lines[i] = draw(mutation(lines[i]))
    return b"".join(lines)


def run_main(*args) -> tuple[int, str, str]:
    out, err = text_io.StringIO(), text_io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def first_rejection(read, path):
    try:
        read(path)
    except RecordParseError as exc:
        return exc.line
    return None


def check_file(data: bytes, command, flag, read, validate):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(tmp) / "input"
        path.write_bytes(data)
        code, _, err = run_main(*command(path, Path(tmp) / "out.csv"))
        assert code in (0, 1, 2)
        rejected = first_rejection(read, path)
        if code == 1:
            assert re.search(r"\bline \d+: ", err), err
        assert (code == 1) == (rejected is not None)
        if rejected is not None:
            assert f"line {rejected}: " in err

        vcode, vout, _ = run_main("validate", flag, path)
        *_, violations = validate(path)
        assert vcode == (1 if violations else 0)
        for v in violations:
            assert f"line {v.line}: {v.message}\n" in vout
        rejections = [v.line for v in violations if not v.message.startswith(LINT)]
        assert (rejections[0] if rejections else None) == rejected


def score_command(path, out):
    return ("score", "--forecasts", path, "--metrics", METRICS, "--out", out)


def leaderboard_command(path, out):
    return ("leaderboard", "--runs", path, "--metric", "crps", "--nsim", 50, "--seed", 3,
            "--out", out)


@FUZZ_SETTINGS
@given(mutated_files(FORECAST_LINES, json_mutation))
def test_forecast_files(data):
    check_file(data, score_command, "--forecasts", io.read_forecasts, io.validate_forecast_file)


@FUZZ_SETTINGS
@given(mutated_files(RUN_LINES, csv_mutation))
# One model's folds on one dataset sum past the largest float.
@example(b"model,dataset,fold,metric,value\na,x,0,crps,1.7e308\na,x,1,crps,1.7e308\n"
         b"a,y,0,crps,1.0\nb,x,0,crps,1.0\nb,x,1,crps,2.0\nb,y,0,crps,2.0\n")
def test_run_files(data):
    check_file(data, leaderboard_command, "--runs", io.read_runs, io.validate_run_file)


def test_valid_files_pass():
    check_file(b"".join(FORECAST_LINES), score_command, "--forecasts", io.read_forecasts,
               io.validate_forecast_file)
    check_file(b"".join(RUN_LINES), leaderboard_command, "--runs", io.read_runs,
               io.validate_run_file)
