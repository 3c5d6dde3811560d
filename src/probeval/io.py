"""Readers and writers for the external file formats.

Forecast record streams are newline-delimited JSON, one record per test
instance: an ``id``, the observed ``target``, and exactly one forecast
form tagged by ``type`` (histogram: edges/probs, quantiles: levels/values,
samples: values).  Run records and leaderboards are UTF-8 CSV with LF
line endings; leaderboard emission is byte-deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AmbiguousFormError,
    DuplicateKeyError,
    InvalidValueError,
    ProbevalError,
    RecordParseError,
    UnknownFormError,
)
from .forecast import (
    Forecast,
    HistogramForecast,
    QuantileForecast,
    SampleForecast,
)
from .ranking import LeaderboardRow, RunRecord
from .scoring import ScoreResult

RUNS_HEADER = ("model", "dataset", "fold", "metric", "value")
LEADERBOARD_HEADER = ("Rank", "Model", "p-value", "Observed", "AverageRank")

_FORM_FIELDS = {
    "histogram": ("edges", "probs"),
    "quantiles": ("levels", "values"),
    "samples": ("values",),
}
_ALL_FORM_FIELDS = ("edges", "probs", "levels", "values")

_SCORE_ROWS_PER_CHUNK = 512


@dataclass(frozen=True)
class ForecastRecord:
    """One test instance: opaque id, observed target, one forecast form."""

    id: str
    target: float
    forecast: Forecast


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


def _parse_forecast_line(line: str, line_no: int) -> ForecastRecord:
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        raise RecordParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordParseError(line_no, "record must be a JSON object")
    if "type" not in obj:
        raise RecordParseError(line_no, "missing forecast 'type'")
    form = obj["type"]
    if form not in _FORM_FIELDS:
        raise UnknownFormError(line_no, f"unknown forecast type {form!r}")
    required = _FORM_FIELDS[form]
    foreign = [k for k in _ALL_FORM_FIELDS if k in obj and k not in required]
    if foreign:
        raise AmbiguousFormError(
            line_no, f"{form} record also carries {', '.join(foreign)}; exactly one form allowed"
        )
    for key in ("id", "target", *required):
        if key not in obj:
            raise RecordParseError(line_no, f"missing field {key!r}")
    target = obj["target"]
    # bool is an int subclass, but JSON true/false is not a number.
    is_number = isinstance(target, (int, float)) and not isinstance(target, bool)
    if not is_number or not math.isfinite(target):
        raise RecordParseError(line_no, f"target must be a finite number, got {target!r}")
    try:
        if form == "histogram":
            forecast: Forecast = HistogramForecast(obj["edges"], obj["probs"])
        elif form == "quantiles":
            forecast = QuantileForecast(obj["levels"], obj["values"])
        else:
            forecast = SampleForecast(obj["values"])
    except (ValueError, TypeError, ProbevalError) as exc:
        raise RecordParseError(line_no, str(exc)) from None
    return ForecastRecord(id=str(obj["id"]), target=float(target), forecast=forecast)


def read_forecasts(path) -> list[ForecastRecord]:
    """Parse a forecast record stream, preserving file order.

    Raises a :class:`RecordParseError` (or a subclass) carrying the line
    number of the first malformed record.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                records.append(_parse_forecast_line(line, line_no))
    return records


def write_forecasts(records: Iterable[ForecastRecord], path) -> None:
    """Emit forecast records as newline-delimited JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            f = rec.forecast
            obj: dict = {"id": rec.id, "target": rec.target}
            if isinstance(f, HistogramForecast):
                obj.update(type="histogram", edges=f.edges.tolist(), probs=f.probs.tolist())
            elif isinstance(f, QuantileForecast):
                obj.update(type="quantiles", levels=f.levels.tolist(), values=f.values.tolist())
            elif isinstance(f, SampleForecast):
                obj.update(type="samples", values=f.values.tolist())
            else:
                raise TypeError(f"cannot serialize forecast of type {type(f).__name__}")
            fh.write(json.dumps(obj) + "\n")


def read_runs(path) -> list[RunRecord]:
    """Parse a run-record CSV with header model,dataset,fold,metric,value."""
    records: list[RunRecord] = []
    seen: dict[tuple, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordParseError(1, "empty run file; expected a header row") from None
        if tuple(header) != RUNS_HEADER:
            raise RecordParseError(1, f"header must be {','.join(RUNS_HEADER)}, got {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise RecordParseError(line_no, f"expected 5 columns, got {len(row)}")
            model, dataset, fold_s, metric, value_s = row
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
                raise InvalidValueError(f"line {line_no}: non-finite value {value_s!r}")
            key = (model, dataset, fold, metric)
            if key in seen:
                raise DuplicateKeyError(
                    f"line {line_no}: duplicate run key {key} (first seen on line {seen[key]})"
                )
            seen[key] = line_no
            records.append(RunRecord(model, dataset, fold, metric, value))
    return records


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
        # Cells are formatted a column at a time, in row chunks so that only
        # one chunk's strings are alive at once.
        for lo in range(0, len(records), _SCORE_ROWS_PER_CHUNK):
            chunk = records[lo : lo + _SCORE_ROWS_PER_CHUNK]
            columns = [[rec.id for rec in chunk], [repr(rec.target) for rec in chunk]]
            for name in names:
                values = results[name].values
                if values is None:
                    columns.append([""] * len(chunk))
                else:
                    cells = values[lo : lo + len(chunk)].tolist()
                    columns.append(["" if math.isnan(v) else repr(v) for v in cells])
            writer.writerows(zip(*columns))
        writer.writerow(["mean", "", *[repr(results[name].mean) for name in names]])


def _numbers(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, (int, float)) for v in values)


@dataclass(frozen=True)
class Violation:
    """One file-validation finding, anchored to a line number."""

    line: int
    message: str


def validate_forecast_file(path) -> tuple[int, int, list[Violation]]:
    """Check every record of a forecast stream against its invariants.

    Returns (records parsed, quantile records repaired, violations).
    Repaired quantile crossings and pre-normalization mass deviations
    beyond 1e-9 are violations; so is any unparsable record.
    """
    violations: list[Violation] = []
    n_records = 0
    repaired = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n_records += 1
            raw = None
            try:
                raw = json.loads(line, parse_constant=_reject_constant)
            except ValueError:
                pass
            if isinstance(raw, dict):
                # The raw checks read lists of numbers only; anything else
                # is reported by the parse below.
                probs = raw.get("probs")
                if _numbers(probs) and probs:
                    total = math.fsum(probs)
                    if abs(total - 1.0) > 1e-9:
                        violations.append(
                            Violation(line_no, f"probability mass sums to {total!r}, not 1")
                        )
                values = raw.get("values")
                if raw.get("type") == "quantiles" and _numbers(values):
                    if any(b < a for a, b in zip(values, values[1:])):
                        repaired += 1
                        violations.append(
                            Violation(line_no, "non-monotone quantile values (repaired by sorting)")
                        )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _parse_forecast_line(line, line_no)
            except RecordParseError as exc:
                violations.append(Violation(line_no, str(exc)))
    return n_records, repaired, violations


def validate_run_file(path) -> tuple[int, list[Violation]]:
    """Check a run-record table; returns (data rows seen, violations)."""
    violations: list[Violation] = []
    n_rows = 0
    seen: dict[tuple, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RUNS_HEADER:
            violations.append(Violation(1, f"header must be {','.join(RUNS_HEADER)}"))
            return 0, violations
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            n_rows += 1
            if len(row) != 5:
                violations.append(Violation(line_no, f"expected 5 columns, got {len(row)}"))
                continue
            model, dataset, fold_s, metric, value_s = row
            try:
                fold = int(fold_s)
                if fold < 0:
                    raise ValueError
            except ValueError:
                violations.append(Violation(line_no, f"bad fold {fold_s!r}"))
                continue
            try:
                value = float(value_s)
            except ValueError:
                violations.append(Violation(line_no, f"bad value {value_s!r}"))
                continue
            if not math.isfinite(value):
                violations.append(Violation(line_no, f"non-finite value {value_s!r}"))
            key = (model, dataset, fold, metric)
            if key in seen:
                violations.append(
                    Violation(line_no, f"duplicate run key {key} (first seen on line {seen[key]})")
                )
            else:
                seen[key] = line_no
    return n_rows, violations
