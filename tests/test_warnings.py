"""Library warnings name the line of the caller's code, not a line of the package."""

import warnings

import pytest

from probeval import (
    ForecastBatch,
    QuantileForecast,
    RunRecord,
    brier_score,
    build_leaderboard,
    log_score,
    read_forecasts,
    score_batch,
)
from probeval.errors import ConversionWarning, DroppedDatasetWarning, QuantileCrossingWarning
from probeval.io import ForecastRecord

CONVERTED = "1 quantile record(s) converted to histograms for density scores"


def caught(call, action="always"):
    """(category, message, filename) of each warning ``call()`` issues under ``action``."""
    with warnings.catch_warnings(record=True) as out:
        warnings.simplefilter(action)
        call()
    return [(w.category, str(w.message), w.filename) for w in out]


def two_by_two(extra):
    """Runs of models a and b on datasets d0 and d1, where a is better, plus ``extra``."""
    runs = [RunRecord(m, f"d{j}", 0, "crps", float(i + j)) for i, m in enumerate("ab") for j in range(2)]
    return runs + extra


def test_a_crossing_quantile_forecast():
    assert caught(lambda: QuantileForecast([0.25, 0.75], [1.0, 0.0])) == [
        (QuantileCrossingWarning, "1 quantile crossing(s) repaired by monotone rearrangement", __file__),
    ]


def test_a_crossing_record_read_from_a_file(tmp_path):
    path = tmp_path / "forecasts.jsonl"
    path.write_text('{"id": "q", "target": 0.5, "type": "quantiles", '
                    '"levels": [0.25, 0.75], "values": [1.0, 0.0]}\n')
    assert caught(lambda: read_forecasts(path)) == [
        (QuantileCrossingWarning,
         "line 1, record 'q': 1 quantile crossing(s) repaired by monotone rearrangement", __file__),
    ]


@pytest.mark.parametrize("scalar", [log_score, brier_score])
def test_a_scalar_histogram_score_of_quantiles(scalar):
    q = QuantileForecast([0.25, 0.75], [0.0, 1.0])
    assert caught(lambda: scalar(q, 0.5)) == [(ConversionWarning, CONVERTED, __file__)]


def test_score_batch_called_directly():
    records = [ForecastRecord("q", 0.5, QuantileForecast([0.25, 0.75], [0.0, 1.0]))]
    assert caught(lambda: score_batch(records, ["log_score"])) == [
        (ConversionWarning, CONVERTED, __file__),
    ]


def test_an_omitted_metric():
    records = [ForecastRecord("q", 0.5, QuantileForecast([0.5], [0.0]))]
    assert caught(lambda: score_batch(records, ["log_score"])) == [
        (ConversionWarning, "log_score is undefined for every record; omitted", __file__),
    ]


def test_a_dataset_with_a_missing_model():
    runs = two_by_two([RunRecord("a", "dx", 0, "crps", 1.0)])
    assert caught(lambda: build_leaderboard(runs, "crps", nsim=10)) == [
        (DroppedDatasetWarning, "dataset 'dx' dropped: no runs for b", __file__),
    ]


def test_a_dataset_of_zero_variance():
    runs = two_by_two([RunRecord(m, "dz", 0, "crps", 1.0) for m in "ab"])
    assert caught(lambda: build_leaderboard(runs, "crps", nsim=10)) == [
        (DroppedDatasetWarning, "dataset 'dz' dropped: all models scored identically", __file__),
    ]


def test_the_default_filter_shows_a_warning_once_per_calling_line():
    q = QuantileForecast([0.25, 0.75], [0.0, 1.0])

    def calls():
        for _ in range(2):
            log_score(q, 0.5)
        log_score(q, 0.5)

    assert caught(calls, "default") == [(ConversionWarning, CONVERTED, __file__)] * 2


def test_only_quantile_records_that_form_bins_are_counted_as_converted():
    batch = ForecastBatch.from_forecasts([QuantileForecast([0.5], [0.0]),
                                          QuantileForecast([0.25, 0.75], [0.0, 1.0])])
    assert caught(batch.histograms) == [(ConversionWarning, CONVERTED, __file__)]
