import csv
import io as text_io
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from probeval import io
from probeval import (
    DiscreteForecast,
    HistogramForecast,
    LeaderboardRow,
    QuantileForecast,
    RunRecord,
    SampleForecast,
)
from probeval.io import (
    ForecastRecord,
    read_forecasts,
    read_runs,
    validate_forecast_file,
    validate_run_file,
    write_forecasts,
    write_leaderboard,
    write_runs,
    write_scores,
)
from probeval.errors import (
    AmbiguousFormError,
    DuplicateKeyError,
    InvalidValueError,
    ProbevalError,
    RecordParseError,
    UnknownFormError,
)
from probeval.ranking import aggregate_folds


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestReadForecasts:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_forecasts(path) == []

    def test_single_histogram_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_lines(path, [json.dumps(
            {"id": "a", "target": 0.5, "type": "histogram", "edges": [0, 1], "probs": [1.0]}
        )])
        records = read_forecasts(path)
        assert len(records) == 1
        assert records[0].id == "a"
        assert records[0].target == 0.5
        assert isinstance(records[0].forecast, HistogramForecast)

    def test_quantile_and_sample_records(self, tmp_path):
        path = tmp_path / "two.jsonl"
        write_lines(path, [
            json.dumps({"id": "q", "target": 1.0, "type": "quantiles",
                        "levels": [0.25, 0.75], "values": [0.0, 1.0]}),
            json.dumps({"id": "s", "target": 2.0, "type": "samples", "values": [1.0, 2.0]}),
        ])
        records = read_forecasts(path)
        assert isinstance(records[0].forecast, QuantileForecast)
        assert isinstance(records[1].forecast, SampleForecast)

    def test_two_forms_is_ambiguous(self, tmp_path):
        path = tmp_path / "amb.jsonl"
        write_lines(path, [json.dumps(
            {"id": "a", "target": 0.5, "type": "histogram",
             "edges": [0, 1], "probs": [1.0], "levels": [0.5], "values": [1.0]}
        )])
        with pytest.raises(AmbiguousFormError):
            read_forecasts(path)

    def test_unknown_form(self, tmp_path):
        path = tmp_path / "unk.jsonl"
        write_lines(path, [json.dumps({"id": "a", "target": 0.5, "type": "gaussian"})])
        with pytest.raises(UnknownFormError):
            read_forecasts(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [
            json.dumps({"id": "a", "target": 0.0, "type": "samples", "values": [1.0]}),
            "not json at all {",
        ])
        with pytest.raises(RecordParseError) as err:
            read_forecasts(path)
        assert err.value.line == 2

    def test_non_finite_target_rejected(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        write_lines(path, ['{"id": "a", "target": NaN, "type": "samples", "values": [1.0]}'])
        with pytest.raises(RecordParseError):
            read_forecasts(path)

    def test_boolean_target_rejected(self, tmp_path):
        path = tmp_path / "bool.jsonl"
        write_lines(path, [
            json.dumps({"id": "a", "target": 0.5, "type": "samples", "values": [1.0]}),
            json.dumps({"id": "b", "target": True, "type": "samples", "values": [1.0]}),
        ])
        with pytest.raises(RecordParseError, match="target") as err:
            read_forecasts(path)
        assert err.value.line == 2

    def test_non_sequence_values_rejected(self, tmp_path):
        path = tmp_path / "obj.jsonl"
        write_lines(path, [json.dumps({"id": "a", "target": 0.5, "type": "samples",
                                       "values": {"x": 1}})])
        with pytest.raises(RecordParseError) as err:
            read_forecasts(path)
        assert err.value.line == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        write_lines(path, [json.dumps({"id": "a", "type": "samples", "values": [1.0]})])
        with pytest.raises(RecordParseError, match="target"):
            read_forecasts(path)

    def test_round_trip(self, tmp_path):
        records = [
            ForecastRecord("h", 0.1, HistogramForecast([0, 1, 2], [0.3, 0.7])),
            ForecastRecord("q", 0.2, QuantileForecast([0.1, 0.9], [-1.0, 1.0])),
            ForecastRecord("s", 0.3, SampleForecast([5.0, 5.0, 6.0])),
        ]
        path = tmp_path / "rt.jsonl"
        write_forecasts(records, path)
        back = read_forecasts(path)
        assert [(r.id, r.target, type(r.forecast)) for r in back] == [
            (r.id, r.target, type(r.forecast)) for r in records
        ]
        fields = {"h": ("edges", "probs"), "q": ("levels", "values"), "s": ("values",)}
        for rec, got in zip(records, back):
            for name in fields[rec.id]:
                assert getattr(got.forecast, name).tobytes() == getattr(rec.forecast, name).tobytes()

    def test_point_masses_are_not_serialized(self, tmp_path):
        records = [ForecastRecord("d", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5]))]
        with pytest.raises(TypeError) as info:
            write_forecasts(records, tmp_path / "d.jsonl")
        assert str(info.value) == "cannot serialize forecast of type DiscreteForecast"


class TestReadRuns:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_lines(path, [
            "model,dataset,fold,metric,value",
            "a,x,0,crps,1.5",
            "b,x,0,crps,2.5",
        ])
        records = list(read_runs(path))
        assert records == [RunRecord("a", "x", 0, "crps", 1.5), RunRecord("b", "x", 0, "crps", 2.5)]

    def test_a_table_indexes_like_its_rows(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_lines(path, [
            "model,dataset,fold,metric,value",
            "a,x,0,crps,1.5",
            "b,x,0,crps,2.5",
            "a,y,1,rmse,0.25",
            "b,y,1,rmse,-3.0",
        ])
        table = read_runs(path)
        rows = list(table)
        assert [table[i] for i in range(len(rows))] == rows
        assert [table[-1], table[-4]] == [rows[-1], rows[-4]]
        for part in (slice(1, 3), slice(None, None, -2), slice(5, 9), slice(-3, None)):
            assert table[part] == rows[part]

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, [
            "model,dataset,fold,metric,value",
            "a,x,0,crps,1.5",
            "a,x,0,crps,1.6",
        ])
        with pytest.raises(DuplicateKeyError, match="line 3"):
            read_runs(path)

    def test_nan_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_lines(path, ["model,dataset,fold,metric,value", "a,x,0,crps,NaN"])
        with pytest.raises(InvalidValueError):
            read_runs(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_lines(path, ["model,dataset,value", "a,x,1.0"])
        with pytest.raises(RecordParseError, match="header"):
            read_runs(path)

    def test_bad_fold(self, tmp_path):
        path = tmp_path / "fold.csv"
        write_lines(path, ["model,dataset,fold,metric,value", "a,x,first,crps,1.0"])
        with pytest.raises(RecordParseError, match="fold"):
            read_runs(path)

    def test_round_trip_exact(self, tmp_path):
        records = [
            RunRecord("a", "x", 0, "crps", 0.1 + 0.2),
            RunRecord("b", "x", 4, "crps", 1.0 / 3.0),
            RunRecord("a", "y", 1, "rmse", -2.718281828459045e-12),
        ]
        path = tmp_path / "rt.csv"
        write_runs(records, path)
        assert list(read_runs(path)) == records


BIG_INT = "1" + "0" * 400

# Fields that need quoting, and folds and values that Python's int() and
# float() read differently from numpy.  Few names, so that keys repeat.
run_names = st.sampled_from(["a", "b", "a,b", "x\ny", "x\r\ny", 'q"t', "a\x00", "é"])
good_folds = st.sampled_from(["0", "1", "2", "7", "007", " 3", "1_0", "-0", BIG_INT])
good_values = st.sampled_from(["1.5", "-2", "0.1", "1.7e308", "-0.0", " 1", "1_0", "1E-300"])
bad_folds = st.sampled_from(["-1", "x", "", "1.0", "1" + "0" * 5000])
bad_values = st.sampled_from(["1e400", "nan", "inf", "x", "", BIG_INT, "0x10"])
junk_lines = st.sampled_from([
    b"\n", b"\r\n", b"a,x\xff,0,crps,1\n", b"\xc3\n", b'a,"x,0,crps,1\n', b"a,x\rb,0,crps,1\n",
    b"m," + b"x" * 140_000 + b",0,crps,1\n", b"a,x,0,crps\n", b"a,x,0,crps,1,z\n",
])


@st.composite
def run_row(draw, junk: bool) -> bytes:
    """A CSV row of five fields, with a bad fold or value when ``junk``."""
    fold, value = draw(good_folds), draw(good_values)
    if junk:
        fold, value = draw(st.sampled_from([(fold, draw(bad_values)), (draw(bad_folds), value),
                                            (draw(bad_folds), draw(bad_values))]))
    fields = [draw(run_names), draw(run_names), fold, draw(st.sampled_from(["crps", "mae"])), value]
    out = text_io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerow(fields)
    return out.getvalue().encode("utf-8")


@st.composite
def run_files(draw) -> bytes:
    """A run file; in about half the files every row reads."""
    header = b"model,dataset,fold,metric,value\n"
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([
            b"model,dataset,fold,metric,value\r\n", b"model,dataset,value\n", b"\n", b"",
            b"model\xff\n", b"\xef\xbb\xbfmodel,dataset,fold,metric,value\n",
            b'"model\n,dataset",fold,metric,value\n', b"model,dataset,fold,metric,value",
        ]))
    lines = draw(st.lists(run_row(junk=False), max_size=20))
    if draw(st.booleans()):
        lines += draw(st.lists(st.one_of(run_row(junk=True), junk_lines), max_size=10))
        # Repeat some lines, good and bad, to make duplicate keys.
        lines += draw(st.lists(st.sampled_from(lines), max_size=5) if lines else st.just([]))
        lines = draw(st.permutations(lines))
    return header + b"".join(lines)


def outcome(read, path):
    """The records a reader returns, or the class, line and message of its error."""
    try:
        return [repr(record) for record in read(path)]
    except RecordParseError as exc:
        return type(exc), exc.line, exc.message


def aggregated(records):
    """aggregate_folds' matrix bytes and warnings, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            matrix = aggregate_folds(records, "crps")
        except ProbevalError as exc:
            result = type(exc), str(exc)
        else:
            result = matrix.models, matrix.datasets, matrix.values.tobytes()
    return result, [(w.category, str(w.message), w.filename) for w in caught]


class TestRunReaderMatchesTheRowOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=run_files(), block=st.sampled_from([1, 2, 3, io._RUN_BLOCK]))
    def test_records_errors_and_violations(self, tmp_path_factory, data, block):
        # Small blocks put block boundaries between the rows a check compares.
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        path.write_bytes(data)
        with mock.patch.object(io, "_RUN_BLOCK", block):
            got = outcome(read_runs, path)
            assert got == outcome(oracle.read_runs, path)
            assert validate_run_file(path) == oracle.validate_run_file(path)
            if isinstance(got, list):
                table = read_runs(path)
                assert aggregated(table) == aggregated(list(table))

    @pytest.mark.parametrize("header", [
        b"\xef\xbb\xbfmodel,dataset,fold,metric,value\n",
        b'"model,dataset,fold,metric,value\n',
        b'"model\n,dataset",fold,metric,value\n',
        b"model,dataset,fold,metric,value",
        b"model,dataset,fold,metric,value\n",
        b"model\xff,dataset,fold,metric,value\n",
        b'model,dataset,fold,metric,"value',
    ], ids=["bom", "unclosed-quote", "quoted-newline", "no-newline", "header-only",
            "not-utf8", "unclosed-last-field"])
    @pytest.mark.parametrize("rows", [b"", b"a,x,0,crps,1\n"], ids=["alone", "with-a-row"])
    def test_header_cases(self, tmp_path, header, rows):
        path = tmp_path / "runs.csv"
        path.write_bytes(header + rows)
        assert outcome(read_runs, path) == outcome(oracle.read_runs, path)
        assert validate_run_file(path) == oracle.validate_run_file(path)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c,d"]), st.sampled_from(["x", "y", "z"]),
                              st.integers(0, 3), st.sampled_from(["crps", "crps", "mae"]),
                              st.sampled_from([0.5, -1.25, 0.1, 1.7e308, -1.7e308, 3.0, 0.0])),
                    max_size=40, unique_by=lambda row: row[:4]))
    def test_a_read_table_aggregates_like_its_records(self, tmp_path_factory, rows):
        records = [RunRecord(*row) for row in rows]
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        write_runs(records, path)
        table = read_runs(path)
        assert aggregated(table) == aggregated(list(table)) == aggregated(records)


class TestWriteLeaderboard:
    def test_three_decimal_rounding(self, tmp_path):
        rows = [LeaderboardRow(1, "m", 0.000049, 1.234567, 1.4)]
        path = tmp_path / "lb.csv"
        write_leaderboard(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Rank,Model,p-value,Observed,AverageRank"
        assert lines[1] == "1,m,0.000,1.235,1.400"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "lb.csv"
        write_leaderboard([], path)
        assert path.read_text(encoding="utf-8") == "Rank,Model,p-value,Observed,AverageRank\n"

    def test_two_rows_in_rank_order(self, tmp_path):
        rows = [
            LeaderboardRow(1, "best", 0.001, 0.5, 1.0),
            LeaderboardRow(2, "other", 1.0, 1.5, 2.0),
        ]
        path = tmp_path / "lb.csv"
        write_leaderboard(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("1,best,")
        assert lines[2].startswith("2,other,")

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lb.csv"
        write_leaderboard([LeaderboardRow(1, "m", 0.5, 0.5, 1.0)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_wide_columns_keep_full_precision(self, tmp_path):
        rows = [LeaderboardRow(1, "m", 1.0 / 20001.0, 1.2345678901234, 1.4)]
        path = tmp_path / "lb.csv"
        write_leaderboard(rows, path, wide=True)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith("p-value-full,Observed-full,AverageRank-full")
        assert repr(1.0 / 20001.0) in lines[1]

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [LeaderboardRow(1, "m", 0.25, 0.333333, 1.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_leaderboard(rows, a)
        write_leaderboard(rows, b)
        assert a.read_bytes() == b.read_bytes()


class TestWriteScores:
    def test_table_layout(self, tmp_path):
        from probeval import score_batch

        records = [
            ForecastRecord("a", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5])),
            ForecastRecord("b", 1.0, DiscreteForecast([1.0], [1.0])),
        ]
        results = score_batch(records, ["crps", "rmse"])
        path = tmp_path / "scores.csv"
        write_scores(records, results, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,target,crps,rmse"
        assert lines[1].split(",")[0] == "a"
        assert lines[1].split(",")[3] == ""  # rmse has no per-instance value
        assert lines[-1].split(",")[0] == "mean"
        assert float(lines[-1].split(",")[2]) == pytest.approx(results["crps"].mean)
        assert float(lines[-1].split(",")[3]) == pytest.approx(results["rmse"].mean)


    def test_bytes_match_per_cell_formatting(self, tmp_path):
        from probeval import score_batch

        records = [
            ForecastRecord("h", 0.25, HistogramForecast([0, 1, 2], [0.4, 0.6])),
            ForecastRecord("s", 1.5, SampleForecast([1.0, 2.0, 2.0])),
            ForecastRecord("d", -0.1, DiscreteForecast([-1.0, 0.3], [0.3, 0.7])),
        ]
        results = score_batch(records, ["crps", "log_score", "rmse", "dispersion", "coverage_90"])
        assert np.isnan(results["log_score"].values).any()
        path = tmp_path / "scores.csv"
        write_scores(records, results, path)

        # The table as formatted one cell at a time.
        lines = ["id,target," + ",".join(results)]
        for i, rec in enumerate(records):
            cells = [rec.id, repr(rec.target)]
            for result in results.values():
                v = None if result.values is None else result.values[i]
                cells.append("" if v is None or np.isnan(v) else repr(float(v)))
            lines.append(",".join(cells))
        lines.append(",".join(["mean", ""] + [repr(r.mean) for r in results.values()]))
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")

    def test_columns_of_unequal_length_are_an_error(self, tmp_path):
        from probeval import score_batch

        records = [ForecastRecord(str(i), 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5]))
                   for i in range(3)]
        results = score_batch(records, ["crps"])
        path = tmp_path / "scores.csv"
        path.write_bytes(b"an earlier table\n")
        with pytest.raises(ValueError, match="shorter"):
            write_scores(records[:2] + records, results, path)
        assert path.read_bytes() == b"an earlier table\n"


class TestValidators:
    def test_clean_forecast_file(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        write_lines(path, [json.dumps(
            {"id": "a", "target": 0.5, "type": "histogram", "edges": [0, 1], "probs": [1.0]}
        )])
        n, repaired, violations = validate_forecast_file(path)
        assert (n, repaired, violations) == (1, 0, [])

    def test_crossing_quantiles_counted(self, tmp_path):
        path = tmp_path / "crossing.jsonl"
        write_lines(path, [json.dumps(
            {"id": "q", "target": 0.5, "type": "quantiles",
             "levels": [0.2, 0.8], "values": [2.0, 1.0]}
        )])
        n, repaired, violations = validate_forecast_file(path)
        assert n == 1
        assert repaired == 1
        assert any("repaired" in v.message for v in violations)

    def test_mass_deviation_reported(self, tmp_path):
        path = tmp_path / "mass.jsonl"
        write_lines(path, [json.dumps(
            {"id": "h", "target": 0.5, "type": "histogram", "edges": [0, 1, 2], "probs": [0.5, 0.4]}
        )])
        n, repaired, violations = validate_forecast_file(path)
        assert any("mass" in v.message for v in violations)

    def test_run_duplicates_listed_with_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, [
            "model,dataset,fold,metric,value",
            "a,x,0,crps,1.0",
            "a,x,0,crps,2.0",
        ])
        n, violations = validate_run_file(path)
        assert n == 2
        assert len(violations) == 1
        assert violations[0].line == 3
        assert "line 2" in violations[0].message

    def test_clean_run_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_lines(path, ["model,dataset,fold,metric,value", "a,x,0,crps,1.0"])
        assert validate_run_file(path) == (1, [])
