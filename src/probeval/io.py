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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AmbiguousFormError,
    DuplicateKeyError,
    InvalidValueError,
    QuantileCrossingWarning,
    RecordParseError,
    UnknownFormError,
    warn,
)
from .forecast import (
    _INIT_FIELDS,
    BLOCK_ELEMENTS,
    _NOT_1D,
    MASS_TOL,
    ForecastBatch,
    ForecastRecord,
    ForecastTable,
    HistogramForecast,
    QuantileForecast,
    SampleForecast,
    _as_field,
    _check,
    _crossing_note,
    _FormColumns,
    _offsets,
    _readonly,
)
from .ranking import LeaderboardRow, RunRecord, RunTable, _Codes, _intern
from .scoring import ScoreResult

RUNS_HEADER = RunRecord._fields
LEADERBOARD_HEADER = ("Rank", "Model", "p-value", "Observed", "AverageRank")

# Each forecast form: its class and the JSON fields that carry it.
_FORMS = {
    form: (cls, _INIT_FIELDS[cls])
    for form, cls in [("histogram", HistogramForecast), ("quantiles", QuantileForecast),
                      ("samples", SampleForecast)]
}
_FORM_KEYS = tuple(dict.fromkeys(key for _, keys in _FORMS.values() for key in keys))


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


class _RepeatedKey(Exception):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(f"repeated key {reprlib.repr(key)}")
            seen.add(key)
    return obj


_JSON = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_unique_keys)

# The Python types of a JSON number.  bool is an int subclass, but JSON
# true/false is not a number.
_NUMBER_TYPES = frozenset((int, float))


def _parse_forecast(line: str, line_no: int) -> tuple:
    """Decode one JSON line and check its keys and types, or raise.

    Returns (form, id, target, field values).  An id that could never be
    written out is returned as its error: it counts only if the record
    passes the rules of its form, which are checked in bulk and come first.
    """
    try:
        obj = _JSON.decode(line)
    except _RepeatedKey as exc:
        raise RecordParseError(line_no, str(exc)) from None
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
    try:
        record_id = str(obj["id"])
        record_id.encode("utf-8")  # a lone surrogate escape could never be written out
    except (ValueError, RecursionError) as exc:
        record_id = RecordParseError(line_no, str(exc))
    return cls, record_id, y, [obj[key] for key in keys]


def _float_buffer():
    import array  # not at start-up: only reading a forecast file needs it

    return array.array("d")


class _FormBuffer:
    """The records of one form: each one's row among the file's records, its
    line, and its fields in columns, checked in bulk a block at a time.

    Each line's values are converted to float64 as the line is read, so no
    more than one line's values are ever held as Python floats.  A field
    that is no list of numbers a float can hold gets an empty part and, in
    ``problems``, the error converting it gives, as
    :class:`forecast._Checks` takes it.  A block ends once its values reach
    ``BLOCK_ELEMENTS``; :meth:`check` then checks its records and drops its
    values, keeping only the checked fields (``kept``) when asked to.
    """

    def __init__(self, form: type, keep: bool):
        self.form, self.keep = form, keep
        self.rows: list[int] = []
        self.lines: list[int] = []
        n_fields = len(_INIT_FIELDS[form])
        self.lengths: list[list[int]] = [[] for _ in range(n_fields)]
        self.kept = [_float_buffer() for _ in range(n_fields)]
        self.crossings: list[np.ndarray] = []
        self.failed: dict[int, RecordParseError] = {}
        # (line, raw total) of each accepted histogram whose mass is off 1,
        # noted for validation when the fields are not kept.
        self.off_mass: list[tuple[int, float]] = []
        self._new_block()

    def _new_block(self) -> None:
        self.start = len(self.rows)
        self.values = [_float_buffer() for _ in self.lengths]
        self.problems: list[dict] = [{} for _ in self.lengths]
        self.id_errors: dict[int, RecordParseError] = {}

    def add(self, row: int, line: int, record_id, fields: list) -> bool:
        """Buffer a record; True when its block is full."""
        j = len(self.rows) - self.start
        if type(record_id) is not str:
            self.id_errors[j] = record_id
        self.rows.append(row)
        self.lines.append(line)
        for values, lengths, problems, field in zip(self.values, self.lengths, self.problems,
                                                    fields):
            size = len(values)
            if type(field) is list:
                try:
                    values.extend(field)
                except OverflowError as exc:  # an integer too large for a float
                    del values[size:]
                    problems[j] = exc
            else:
                # A JSON value other than a list converts to no one-dimensional array.
                problem = _as_field(field)
                problems[j] = problem if isinstance(problem, Exception) else _NOT_1D
            lengths.append(len(values) - size)
        return sum(map(len, self.values)) >= BLOCK_ELEMENTS

    def check(self) -> bool:
        """Check the records of the block and start a new one; True if one failed."""
        start = self.start
        c = _check(self.form, [np.frombuffer(v, dtype=float) for v in self.values],
                   [_offsets(lengths[start:]) for lengths in self.lengths], self.problems)
        failed = {j: RecordParseError(self.lines[start + j], str(exc))
                  for j, exc in c.errors.items()}
        for j, error in self.id_errors.items():
            failed.setdefault(j, error)
        self.failed.update((start + j, error) for j, error in failed.items())
        if c.crossings is not None:
            self.crossings.append(c.crossings)
        if self.keep:
            if c.checked is not None:
                for kept, field in zip(self.kept, c.checked):
                    kept.frombytes(field.data.cast("B"))
        elif self.form is HistogramForecast:
            probs, offsets = c.fields[1], c.offsets[1]
            for j in range(len(self.rows) - start):
                if j not in failed:
                    total = math.fsum(probs[offsets[j] : offsets[j + 1]].tolist())
                    if abs(total - 1.0) > MASS_TOL:
                        self.off_mass.append((self.lines[start + j], total))
        self._new_block()
        return bool(failed)

    def accepted(self) -> Iterator[int]:
        return (j for j in range(len(self.rows)) if j not in self.failed)

    def columns(self) -> _FormColumns:
        return _FormColumns(
            self.form, np.array(self.rows, dtype=np.intp),
            tuple(_readonly(np.frombuffer(kept, dtype=float)) for kept in self.kept),
            tuple(_readonly(_offsets(lengths)) for lengths in self.lengths),
            np.concatenate(self.crossings) > 0 if self.crossings else None,
        )


class _ForecastColumns:
    """The records of a forecast file, read into per-form columns.

    Each line is decoded and its keys and types checked as it is read; the
    rules of each form are checked in bulk, a block at a time, the last
    blocks by :meth:`finish`.  ``errors`` then holds every rejected line's
    error, in line order.
    """

    def __init__(self, keep: bool):
        self.n_records = 0
        self.errors: list[RecordParseError] = []
        self.ids: list = []
        self.targets: list[float] = []
        self.forms = {cls: _FormBuffer(cls, keep) for cls, _ in _FORMS.values()}

    def reject(self, error: RecordParseError) -> None:
        self.n_records += 1
        self.errors.append(error)

    def add(self, line: int, form: type, record_id, target: float, values: list) -> bool:
        """Buffer a record; True if it ended a block that holds a rejected record."""
        self.n_records += 1
        buffer = self.forms[form]
        full = buffer.add(len(self.targets), line, record_id, values)
        self.ids.append(record_id)
        self.targets.append(target)
        return full and buffer.check()

    def finish(self) -> None:
        for buffer in self.forms.values():
            buffer.check()
            self.errors += buffer.failed.values()
        self.errors.sort(key=lambda error: error.line)

    def repairs(self) -> list[tuple[int, str, int]]:
        """(line, id, crossings) of each accepted quantile record whose crossings were sorted."""
        quantiles = self.forms[QuantileForecast]
        crossings = np.concatenate(quantiles.crossings)
        return [(quantiles.lines[j], self.ids[quantiles.rows[j]], int(crossings[j]))
                for j in quantiles.accepted() if crossings[j]]

    def table(self) -> ForecastTable:
        """The records as a table; only when no line was rejected."""
        columns = tuple(b.columns() for b in self.forms.values() if b.rows)
        batch = ForecastBatch._from_columns(columns, len(self.targets))
        return ForecastTable(tuple(self.ids), np.array(self.targets, dtype=float), batch)


def _scan_forecasts(path, validate: bool) -> _ForecastColumns:
    """Read and check the lines of a forecast file.

    To read it, the scan stops at the first line rejected on its own, or
    at the first block holding a rejected record: no later line can hold
    the first error.  To ``validate`` it, every line is read, and each
    block's values are dropped once checked.
    """
    columns = _ForecastColumns(keep=not validate)
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip() or not columns.add(line_no, *_parse_forecast(line, line_no)):
                    continue
            except UnicodeDecodeError as exc:
                columns.reject(RecordParseError(line_no, f"not valid UTF-8: {exc}"))
            except RecordParseError as exc:
                columns.reject(exc)
            if not validate:
                break
    columns.finish()
    return columns


def read_forecasts(path) -> ForecastTable:
    """Parse a forecast record stream into a :class:`ForecastTable`, in file order.

    Raises a :class:`RecordParseError` (or a subclass) carrying the line
    number of the first malformed record, after a
    :class:`QuantileCrossingWarning` for each record before it whose
    crossing quantiles were sorted.
    """
    columns = _scan_forecasts(path, validate=False)
    first = columns.errors[0].line if columns.errors else math.inf
    for line, record_id, crossings in columns.repairs():
        if line < first:
            warn(f"line {line}, record {record_id!r}: {_crossing_note(crossings)}",
                 QuantileCrossingWarning)
    if columns.errors:
        raise columns.errors[0]
    return columns.table()


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


# Run rows are checked and interned this many at a time, so that the raw
# fields of one block at most are held as strings.  Ranking a 160,000-row
# file on a 2-core Xeon, the CLI peaked at 48 MiB with 2**12 rows, 51 MiB
# with 2**13 and 64 MiB with 2**15, in the same time.
_RUN_BLOCK = 1 << 12

# The fold code of a fold text that is not an integer, or is negative.
_NOT_INTEGER, _NEGATIVE = -1, -2


class _RunColumns:
    """The data rows of a run file, checked and interned into columns a block at a time.

    Each row's checks run in this order, and the first that fails names
    the row: fold is an integer, fold >= 0, value is a number, value is
    finite; then, among the rows that passed, no key repeats an earlier
    one.  Rows that fail are kept out of the columns.
    """

    def __init__(self):
        self.errors: list[RecordParseError] = []
        self.n_rows = 0
        self.models = _Codes()
        self.datasets = _Codes()
        self.metrics = _Codes()
        self.folds = _Codes()
        # Each distinct fold text is read once: its code in ``folds``, or
        # _NOT_INTEGER or _NEGATIVE.
        self.fold_texts = _Codes()
        self.fold_of_text: list[int] = []
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def reject(self, error: RecordParseError) -> None:
        """Count a row (or an unreadable line) that failed before it was split into columns."""
        self.n_rows += 1
        self.errors.append(error)

    def add_block(self, fields: list[str], lines: list[int]) -> None:
        """Check and intern the rows whose five fields are laid end to end in ``fields``."""
        self.n_rows += len(lines)
        fold_texts, value_texts = fields[2::5], fields[4::5]
        text_codes = _intern(fold_texts, self.fold_texts)
        for text in itertools.islice(self.fold_texts, len(self.fold_of_text), None):
            self.fold_of_text.append(self._fold_code(text))
        folds = np.array(self.fold_of_text, dtype=np.intp)[text_codes]
        try:
            values = np.fromiter(map(float, value_texts), np.float64, len(value_texts))
            number = np.ones(len(values), dtype=bool)
        except ValueError:
            parsed = [_number_or_none(text) for text in value_texts]
            number = np.array([v is not None for v in parsed], dtype=bool)
            values = np.array([math.nan if v is None else v for v in parsed])
        bad = (folds < 0) | ~np.isfinite(values)
        for i in np.flatnonzero(bad).tolist():
            line, fold, value = lines[i], fold_texts[i], value_texts[i]
            if folds[i] == _NOT_INTEGER:
                error = RecordParseError(line, f"fold must be an integer, got {fold!r}")
            elif folds[i] == _NEGATIVE:
                error = RecordParseError(line, f"fold must be nonnegative, got {int(fold)}")
            elif not number[i]:
                error = RecordParseError(line, f"value must be a number, got {value!r}")
            else:
                error = InvalidValueError(line, f"non-finite value {value!r}")
            self.errors.append(error)
        ok = ~bad
        codes = np.stack([
            _intern(fields[0::5], self.models),
            _intern(fields[1::5], self.datasets),
            folds,
            _intern(fields[3::5], self.metrics),
        ])
        self.blocks.append((codes[:, ok], values[ok], np.array(lines)[ok]))

    def _fold_code(self, text: str) -> int:
        try:
            fold = int(text)
        except ValueError:
            return _NOT_INTEGER
        return _NEGATIVE if fold < 0 else self.folds[fold]

    def finish(self) -> tuple[int, list[RecordParseError], RunTable | None]:
        """(rows seen, every error in line order, the table if there is no error)."""
        codes = np.concatenate([b[0] for b in self.blocks] or [np.empty((4, 0), np.intp)], axis=1)
        values = np.concatenate([b[1] for b in self.blocks] or [np.empty(0)])
        lines = np.concatenate([b[2] for b in self.blocks] or [np.empty(0, np.intp)])
        self.blocks.clear()
        # A stable sort keeps each key's rows in line order, the first one leading.
        order = np.lexsort(codes[::-1])
        ordered = codes[:, order]
        repeat = np.concatenate(([False], (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)))
        if repeat.any():
            position = np.arange(len(order))
            first = order[np.maximum.accumulate(np.where(repeat, 0, position))]
            names = [list(self.models), list(self.datasets), list(self.folds), list(self.metrics)]
            line_of = lines.tolist()
            for row, head in zip(order[repeat].tolist(), first[repeat].tolist()):
                key = tuple(column[code] for column, code in zip(names, codes[:, row].tolist()))
                self.errors.append(DuplicateKeyError(
                    line_of[row], f"duplicate run key {key} (first seen on line {line_of[head]})"
                ))
        if self.errors:
            self.errors.sort(key=lambda error: error.line)
            return self.n_rows, self.errors, None
        table = RunTable(tuple(self.models), tuple(self.datasets), tuple(self.folds),
                         tuple(self.metrics), *codes, values)
        return self.n_rows, [], table


def _number_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _scan_runs(path) -> tuple[int, list[RecordParseError], RunTable | None]:
    """Read a run file: (data rows seen, errors in line order, the table if no error).

    A blank row is skipped and a bad header is raised.
    """
    columns = _RunColumns()
    fields: list[str] = []
    lines: list[int] = []
    # Lines are decoded one at a time so that a byte that is not UTF-8 is
    # reported on its own line; the CSV reader never sees such a line.
    skipped = 0
    with open(path, "rb") as fh:
        reader = csv.reader(map(bytes.decode, fh))
        while True:
            # The physical line each row starts on.
            line_no = reader.line_num + skipped + 1
            try:
                for row in reader:
                    if line_no == 1:
                        if tuple(row) != RUNS_HEADER:
                            raise RecordParseError(
                                1, f"header must be {','.join(RUNS_HEADER)}, got {','.join(row)}"
                            )
                    elif len(row) == 5:
                        fields += row
                        lines.append(line_no)
                        if len(lines) == _RUN_BLOCK:
                            columns.add_block(fields, lines)
                            fields, lines = [], []
                    elif row:
                        columns.reject(
                            RecordParseError(line_no, f"expected 5 columns, got {len(row)}")
                        )
                    line_no = reader.line_num + skipped + 1
                break
            except UnicodeDecodeError as exc:
                skipped += 1
                error = RecordParseError(reader.line_num + skipped, f"not valid UTF-8: {exc}")
            except csv.Error as exc:
                error = RecordParseError(reader.line_num + skipped, f"malformed CSV: {exc}")
            if line_no == 1:
                raise error
            columns.reject(error)
    if line_no == 1:
        raise RecordParseError(1, "empty run file; expected a header row")
    if lines:
        columns.add_block(fields, lines)
    return columns.finish()


def read_runs(path) -> RunTable:
    """Parse a run-record CSV with header model,dataset,fold,metric,value.

    Returns the runs as a :class:`RunTable`, in file order.  Raises a
    :class:`RecordParseError` (or a subclass) carrying the line number of
    the first malformed row.
    """
    _, errors, table = _scan_runs(path)
    if errors:
        raise errors[0]
    return table


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
    undefined, while the mean row always carries the batch score.  A
    :class:`ForecastTable`'s ids and targets are read from its columns.
    """
    names = list(results)
    if isinstance(records, ForecastTable):
        ids, targets = records.ids, records.targets.tolist()
    else:
        ids, targets = [rec.id for rec in records], [rec.target for rec in records]
    # Checked before the file is opened, so that no partial table is left.
    for name in names:
        values = results[name].values
        if values is not None and len(values) != len(records):
            side = "shorter" if len(values) < len(records) else "longer"
            raise ValueError(
                f"score column {name!r} is {side} than the records: "
                f"{len(values)} values for {len(records)} records"
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "target", *names])
        # One iterable per column: each row is formatted as it is written.
        columns = [ids, map(repr, targets)]
        for name in names:
            values = results[name].values
            if values is None:
                columns.append(itertools.repeat("", len(records)))
            else:
                values = np.asarray(values, dtype=float).tolist()
                columns.append("" if math.isnan(v) else repr(v) for v in values)
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
    columns = _scan_forecasts(path, validate=True)
    violations = [Violation(error.line, error.message) for error in columns.errors]
    violations += [Violation(line, f"probability mass sums to {total!r}, not 1")
                   for line, total in columns.forms[HistogramForecast].off_mass]
    repairs = columns.repairs()
    violations += [Violation(line, "non-monotone quantile values (repaired by sorting)")
                   for line, _, _ in repairs]
    violations.sort(key=lambda v: v.line)
    return columns.n_records, len(repairs), violations


def validate_run_file(path) -> tuple[int, list[Violation]]:
    """Check a run-record table; returns (data rows seen, violations).

    The violations are every row :func:`read_runs` rejects, in its words.
    """
    try:
        n_rows, errors, _ = _scan_runs(path)
    except RecordParseError as exc:  # a bad header
        return 0, [Violation(exc.line, exc.message)]
    return n_rows, [Violation(error.line, error.message) for error in errors]
