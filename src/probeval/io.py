"""Readers and writers for the external file formats.

Forecast record streams are newline-delimited JSON, one record per test
instance: an ``id``, the observed ``target``, and exactly one forecast
form tagged by ``type`` (histogram: edges/probs, quantiles: levels/values,
samples: values).  Run records and leaderboards are UTF-8 CSV with LF
line endings; leaderboard emission is byte-deterministic.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import reprlib
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AmbiguousFormError,
    DuplicateKeyError,
    InvalidValueError,
    ProbevalError,
    RecordParseError,
    UnknownFormError,
)
from .forecast import (
    MASS_TOL,
    Forecast,
    HistogramForecast,
    QuantileForecast,
    SampleForecast,
)
from .ranking import LeaderboardRow, RunRecord
from .scoring import ScoreResult

RUNS_HEADER = ("model", "dataset", "fold", "metric", "value")
LEADERBOARD_HEADER = ("Rank", "Model", "p-value", "Observed", "AverageRank")

# Each forecast form: its class and the JSON fields that carry it, in the
# order of the class's constructor arguments.
_FORMS = {
    "histogram": (HistogramForecast, ("edges", "probs")),
    "quantiles": (QuantileForecast, ("levels", "values")),
    "samples": (SampleForecast, ("values",)),
}
_FORM_KEYS = tuple(dict.fromkeys(key for _, keys in _FORMS.values() for key in keys))


@dataclass(frozen=True)
class ForecastRecord:
    """One test instance: opaque id, observed target, one forecast form."""

    id: str
    target: float
    forecast: Forecast


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


_JSON = json.JSONDecoder(parse_constant=_reject_constant)

# The Python types of a JSON number.  bool is an int subclass, but JSON
# true/false is not a number.
_NUMBER_TYPES = frozenset((int, float))


def _parse_forecast(line: str, line_no: int) -> tuple[dict, ForecastRecord]:
    """Turn one JSON line into its decoded object and its record, or raise."""
    try:
        obj = _JSON.decode(line)
    except (ValueError, RecursionError) as exc:
        raise RecordParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordParseError(line_no, "record must be a JSON object")
    if "type" not in obj:
        raise RecordParseError(line_no, "missing forecast 'type'")
    form = obj["type"]
    if not isinstance(form, str) or form not in _FORMS:
        raise UnknownFormError(line_no, f"unknown forecast type {reprlib.repr(form)}")
    cls, keys = _FORMS[form]
    foreign = [k for k in _FORM_KEYS if k in obj and k not in keys]
    if foreign:
        raise AmbiguousFormError(
            line_no, f"{form} record also carries {', '.join(foreign)}; exactly one form allowed"
        )
    for key in ("id", "target", *keys):
        if key not in obj:
            raise RecordParseError(line_no, f"missing field {key!r}")
    target = obj["target"]
    # An integer literal too large for a float counts as infinite.
    try:
        y = float(target) if type(target) in _NUMBER_TYPES else math.nan
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise RecordParseError(
            line_no, f"target must be a finite number, got {reprlib.repr(target)}"
        )
    for key in keys:
        # numpy would convert numeric strings and booleans as well.
        values = obj[key]
        if isinstance(values, list) and not set(map(type, values)) <= _NUMBER_TYPES:
            bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
            raise RecordParseError(
                line_no, f"{key} must contain only numbers, got {reprlib.repr(bad)}"
            )
    args = [obj[key] for key in keys]
    caught: list[warnings.WarningMessage] = []
    try:
        if cls is QuantileForecast:
            # A crossing repair is re-issued below with the record's line and id.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forecast = cls(*args)
        else:
            forecast = cls(*args)
        record_id = str(obj["id"])
        record_id.encode("utf-8")  # a lone surrogate escape could never be written out
    except (ValueError, TypeError, OverflowError, RecursionError, ProbevalError) as exc:
        raise RecordParseError(line_no, str(exc)) from None
    for w in caught:
        warnings.warn(f"line {line_no}, record {record_id!r}: {w.message}", w.category)
    return obj, ForecastRecord(id=record_id, target=y, forecast=forecast)


def _scan_forecasts(path) -> Iterator[tuple[int, dict | None, ForecastRecord | RecordParseError]]:
    """Yield (line number, decoded object or None, record or error) per non-blank line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj, record = _parse_forecast(line, line_no)
            except UnicodeDecodeError as exc:
                yield line_no, None, RecordParseError(line_no, f"not valid UTF-8: {exc}")
            except RecordParseError as exc:
                yield line_no, None, exc
            else:
                yield line_no, obj, record


def _records(results: Iterable) -> list:
    """The records of a scan, or its first error raised."""
    records = []
    for result in results:
        if isinstance(result, RecordParseError):
            raise result
        records.append(result)
    return records


def read_forecasts(path) -> list[ForecastRecord]:
    """Parse a forecast record stream, preserving file order.

    Raises a :class:`RecordParseError` (or a subclass) carrying the line
    number of the first malformed record.
    """
    return _records(result for _, _, result in _scan_forecasts(path))


def write_forecasts(records: Iterable[ForecastRecord], path) -> None:
    """Emit forecast records as newline-delimited JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            f = rec.forecast
            form = next((form for form, (cls, _) in _FORMS.items() if isinstance(f, cls)), None)
            if form is None:
                raise TypeError(f"cannot serialize forecast of type {type(f).__name__}")
            obj: dict = {"id": rec.id, "target": rec.target, "type": form}
            obj.update((key, getattr(f, key).tolist()) for key in _FORMS[form][1])
            fh.write(json.dumps(obj) + "\n")


def _parse_run(row: list[str], line_no: int, seen: dict[tuple, int]) -> RunRecord:
    """Turn one CSV data row into its run record, or raise; ``seen`` maps keys to lines."""
    try:
        model, dataset, fold_s, metric, value_s = row
    except ValueError:
        raise RecordParseError(line_no, f"expected 5 columns, got {len(row)}") from None
    try:
        fold = int(fold_s)
    except ValueError:
        raise RecordParseError(line_no, f"fold must be an integer, got {fold_s!r}") from None
    if fold < 0:
        raise RecordParseError(line_no, f"fold must be nonnegative, got {fold}")
    try:
        value = float(value_s)
    except ValueError:
        raise RecordParseError(line_no, f"value must be a number, got {value_s!r}") from None
    if not math.isfinite(value):
        raise InvalidValueError(line_no, f"non-finite value {value_s!r}")
    key = (model, dataset, fold, metric)
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise DuplicateKeyError(line_no, f"duplicate run key {key} (first seen on line {first})")
    return RunRecord(model, dataset, fold, metric, value)


def _scan_runs(path) -> Iterator[RunRecord | RecordParseError]:
    """Yield the record or error of each non-blank data row; raise a bad header."""
    seen: dict[tuple, int] = {}
    # Lines are decoded one at a time so that a byte that is not UTF-8 is
    # reported on its own line; the CSV reader never sees such a line.
    skipped = 0
    with open(path, "rb") as fh:
        reader = csv.reader(map(bytes.decode, fh))
        while True:
            line_no = reader.line_num + skipped + 1
            try:
                row = next(reader)
                if line_no > 1:
                    if row:
                        yield _parse_run(row, line_no, seen)
                elif tuple(row) != RUNS_HEADER:
                    raise RecordParseError(
                        1, f"header must be {','.join(RUNS_HEADER)}, got {','.join(row)}"
                    )
            except StopIteration:
                if line_no == 1:
                    raise RecordParseError(1, "empty run file; expected a header row") from None
                return
            except UnicodeDecodeError as exc:
                skipped += 1
                error = RecordParseError(reader.line_num + skipped, f"not valid UTF-8: {exc}")
            except csv.Error as exc:
                error = RecordParseError(reader.line_num + skipped, f"malformed CSV: {exc}")
            except RecordParseError as exc:
                error = exc
            else:
                continue
            if line_no == 1:  # no row after a bad header can be read
                raise error
            yield error


def read_runs(path) -> list[RunRecord]:
    """Parse a run-record CSV with header model,dataset,fold,metric,value.

    Raises a :class:`RecordParseError` (or a subclass) carrying the line
    number of the first malformed row.
    """
    return _records(_scan_runs(path))


def write_runs(records: Iterable[RunRecord], path) -> None:
    """Emit run records at full precision so read_runs round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUNS_HEADER)
        for r in records:
            writer.writerow([r.model, r.dataset, r.fold, r.metric, repr(r.value)])


def write_leaderboard(rows: Sequence[LeaderboardRow], path, wide: bool = False) -> None:
    """Emit a leaderboard as Rank,Model,p-value,Observed,AverageRank.

    p-value, Observed, and AverageRank are printed with three fixed
    decimals (round-half-to-even).  ``wide`` appends full-precision
    columns for downstream tooling.
    """
    header = list(LEADERBOARD_HEADER)
    if wide:
        header += ["p-value-full", "Observed-full", "AverageRank-full"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            out = [
                row.rank,
                row.model,
                f"{row.p_value:.3f}",
                f"{row.observed:.3f}",
                f"{row.average_rank:.3f}",
            ]
            if wide:
                out += [repr(row.p_value), repr(row.observed), repr(row.average_rank)]
            writer.writerow(out)


def write_scores(
    records: Sequence[ForecastRecord],
    results: dict[str, ScoreResult],
    path,
) -> None:
    """Emit per-instance scores plus a final ``mean`` row.

    One column per metric; per-instance cells are empty for batch-level
    metrics (rmse, r2, dispersion) and for records where a metric is
    undefined, while the mean row always carries the batch score.
    """
    names = list(results)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "target", *names])
        # One generator per column: each row is formatted as it is written.
        columns = [(rec.id for rec in records), (repr(rec.target) for rec in records)]
        for name in names:
            values = results[name].values
            if values is None:
                columns.append(itertools.repeat("", len(records)))
            else:
                columns.append("" if math.isnan(v) else repr(v) for v in map(float, values))
        writer.writerows(zip(*columns, strict=True))
        writer.writerow(["mean", "", *[repr(results[name].mean) for name in names]])


@dataclass(frozen=True)
class Violation:
    """One file-validation finding, anchored to a line number."""

    line: int
    message: str


def validate_forecast_file(path) -> tuple[int, int, list[Violation]]:
    """Check every record of a forecast stream.

    Returns (records seen, quantile records repaired, violations).  The
    violations are every record :func:`read_forecasts` rejects, in its
    words, plus two findings on records it accepts: a histogram whose raw
    mass is off 1 by more than ``MASS_TOL``, and quantile crossings
    repaired by sorting.
    """
    violations: list[Violation] = []
    n_records = 0
    repaired = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for line_no, obj, record in _scan_forecasts(path):
            n_records += 1
            if isinstance(record, RecordParseError):
                violations.append(Violation(line_no, record.message))
                continue
            f = record.forecast
            if isinstance(f, HistogramForecast):
                total = math.fsum(np.asarray(obj["probs"], dtype=float).tolist())
                if abs(total - 1.0) > MASS_TOL:
                    violations.append(
                        Violation(line_no, f"probability mass sums to {total!r}, not 1")
                    )
            if isinstance(f, QuantileForecast) and f.repaired:
                repaired += 1
                violations.append(
                    Violation(line_no, "non-monotone quantile values (repaired by sorting)")
                )
    return n_records, repaired, violations


def validate_run_file(path) -> tuple[int, list[Violation]]:
    """Check a run-record table; returns (data rows seen, violations).

    The violations are every row :func:`read_runs` rejects, in its words.
    """
    violations: list[Violation] = []
    n_rows = 0
    try:
        for record in _scan_runs(path):
            n_rows += 1
            if isinstance(record, RecordParseError):
                violations.append(Violation(record.line, record.message))
    except RecordParseError as exc:  # a bad header
        violations.append(Violation(exc.line, exc.message))
    return n_rows, violations
