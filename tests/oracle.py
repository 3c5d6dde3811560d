"""Reference formulas for the conversions, the scoring rules and the permutation null.

Each scoring function handles one forecast and one observation with plain
numpy on that record alone, the way the scoring rules were first written:
loops over segments, the full double sum for the energy score,
``np.unique`` for the conversions.  The property tests check the batch
kernels of ``probeval`` against these.  ``energy_slabs`` is the energy
score in the kernel's own operation order, which the kernel must match
byte for byte.  ``permutation_null`` is the Monte
Carlo null as first written, a stable argsort per row of hash keys, and
``exact_p`` is its exact limit.  ``read_runs`` and ``validate_run_file``
parse a run-record CSV one row at a time, as the reader was first written;
``read_forecasts`` and ``validate_forecast_file`` do the same for a
forecast file, checking each record with the forecast constructors' rules
as they were first written, one ``if`` after another.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from probeval import DiscreteForecast, HistogramForecast, QuantileForecast, SampleForecast, rng
from probeval.errors import (
    AmbiguousFormError,
    DuplicateKeyError,
    InvalidLevelError,
    InvalidValueError,
    RecordParseError,
    UnknownFormError,
)
from probeval.io import RUNS_HEADER, Violation
from probeval.ranking import _SHUFFLE_STREAM, RunRecord

EPS = 1e-12


def discrete(forecast) -> tuple[np.ndarray, np.ndarray]:
    """(points, probs) of the canonical point-mass form."""
    if isinstance(forecast, DiscreteForecast):
        return forecast.points, forecast.probs
    if isinstance(forecast, HistogramForecast):
        centers = 0.5 * (forecast.edges[:-1] + forecast.edges[1:])
        keep = forecast.probs > 0
        return centers[keep], forecast.probs[keep]
    if isinstance(forecast, QuantileForecast):
        levels = forecast.levels
        bounds = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [1.0]))
        points, inverse = np.unique(forecast.values, return_inverse=True)
        merged = np.zeros(points.size)
        np.add.at(merged, inverse, np.diff(bounds))
        return points, merged
    assert isinstance(forecast, SampleForecast)
    points, counts = np.unique(forecast.values, return_counts=True)
    return points, counts / forecast.values.size


def cdf(points, probs, x):
    cum0 = np.concatenate(([0.0], np.cumsum(probs)))
    cum0[-1] = 1.0
    return cum0[np.searchsorted(points, x, side="right")]


def quantile(points, probs, tau):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return float(points[min(int(np.searchsorted(cum, tau, side="left")), points.size - 1)])


def _segments(points, y):
    xs = np.unique(np.append(points, y))
    return xs[:-1], np.diff(xs)


def crps(points, probs, y):
    left, widths = _segments(points, y)
    diff = cdf(points, probs, left) - (left >= y)
    return float(np.dot(widths, diff * diff))


def crls(points, probs, y):
    left, widths = _segments(points, y)
    arg = np.abs(cdf(points, probs, left) + (left >= y) - 1.0)
    return float(np.dot(widths, -np.log(np.maximum(arg, EPS))))


def energy(points, probs, y, beta):
    dist_y = np.abs(points - y) ** beta
    cross = np.abs(points[:, None] - points[None, :]) ** beta
    return float(probs @ dist_y - 0.5 * probs @ cross @ probs)


def energy_slabs(points, probs, y, beta):
    """The energy score in the batch kernel's own operations and order, for
    one beta: left-to-right sums of p|x - y|^b, then pair matrices taken in
    slabs (the whole matrix up to 64 points, else one row), each summed
    along its rows and then across them.  It agrees with the kernel byte
    for byte, whatever other betas the kernel scores beside it."""
    to_obs = 0.0
    for term in probs * np.abs(points - y) ** beta:
        to_obs += term
    size = points.size
    slab = size if size * size <= 4096 else 1
    cross = 0.0
    for lo in range(0, size - 1, slab):
        hi = min(lo + slab, size - 1)
        d = np.maximum(points[None, lo + 1 :] - points[lo:hi, None], 0.0)
        cross += (d**beta * probs[lo:hi, None] * probs[None, lo + 1 :]).sum(axis=1).sum()
    return (to_obs + 0.0) - cross


def energy_scale(points, probs, y, beta):
    """Size of the two terms the energy score is the difference of."""
    return float(probs @ (np.abs(points - y) ** beta) + np.ptp(points) ** beta)


def interval(points, probs, y, alpha):
    lower, upper = quantile(points, probs, alpha / 2), quantile(points, probs, 1 - alpha / 2)
    score = upper - lower
    if y < lower:
        score += (2.0 / alpha) * (lower - y)
    elif y > upper:
        score += (2.0 / alpha) * (y - upper)
    return score


def covered(points, probs, y, level):
    alpha = 1.0 - level
    return quantile(points, probs, alpha / 2) <= y <= quantile(points, probs, 1 - alpha / 2)


def _weight_integral(kind, a, b, loc, scale):
    za, zb = (a - loc) / scale, (b - loc) / scale
    pdf = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)  # noqa: E731
    if kind == "unit":
        return b - a
    if kind == "center":
        return scale * (ndtr(zb) - ndtr(za))
    prim_a, prim_b = za * ndtr(za) + pdf(za), zb * ndtr(zb) + pdf(zb)
    if kind == "right":
        return scale * (prim_b - prim_a)
    return scale * ((zb - prim_b) - (za - prim_a))


def wcrps(points, probs, y, kind, loc, scale):
    left, widths = _segments(points, y)
    diff = cdf(points, probs, left) - (left >= y)
    return float(np.dot(diff * diff, _weight_integral(kind, left, left + widths, loc, scale)))


def mean(points, probs):
    return float(np.dot(probs, points))


def std(points, probs):
    centered = points - mean(points, probs)
    return math.sqrt(max(float(np.dot(probs, centered * centered)), 0.0))


def _spread_equal_runs(values):
    edges = np.asarray(values, dtype=float).copy()
    i, n = 0, edges.size
    while i < n:
        j = i
        while j + 1 < n and edges[j + 1] == edges[i]:
            j += 1
        if j > i:
            eps = max(1e-9, 1e-9 * abs(edges[i]))
            edges[i : j + 1] = edges[i] + eps * np.linspace(-(j - i) / 2, (j - i) / 2, j - i + 1)
        i = j + 1
    for k in range(1, n):
        if edges[k] <= edges[k - 1]:
            edges[k] = np.nextafter(edges[k - 1], np.inf)
    return edges


def histogram(forecast) -> tuple[np.ndarray, np.ndarray] | None:
    """(edges, probs) of the histogram form, None where there is none."""
    if isinstance(forecast, HistogramForecast):
        return forecast.edges, forecast.probs
    if isinstance(forecast, QuantileForecast) and forecast.levels.size >= 2:
        masses = np.diff(forecast.levels)
        return _spread_equal_runs(forecast.values), masses / float(masses.sum())
    return None


def bin_index(edges, y):
    if y < edges[0] or y > edges[-1]:
        return -1
    return min(int(np.searchsorted(edges, y, side="right")) - 1, edges.size - 2)


def log_score(edges, probs, y):
    k = bin_index(edges, y)
    if k < 0:
        k, p = (0 if y < edges[0] else probs.size - 1), EPS
    else:
        p = max(float(probs[k]), EPS)
    width = float(edges[k + 1] - edges[k])
    density = p / width
    if not math.isfinite(density):  # a bin narrower than about 1e-308
        return math.log(width) - math.log(p)
    return -math.log(density)


def brier(edges, probs, y):
    """Brier score, None where y lies outside the grid."""
    k = bin_index(edges, y)
    if k < 0:
        return None
    return float(np.dot(probs, probs)) - 2.0 * float(probs[k]) + 1.0


def permutation_null(ranks, nsim, seed, chunk_size=None):
    """(nsim, models) null mean ranks: per chunk and dataset, a stable argsort of the keys."""
    ranks = np.asarray(ranks, dtype=float)
    n_models, n_datasets = ranks.shape
    chunk = nsim if chunk_size is None else max(1, int(chunk_size))
    slots = np.arange(n_models, dtype=np.uint64)[None, :]
    out = np.empty((nsim, n_models))
    for lo in range(0, nsim, chunk):
        hi = min(lo + chunk, nsim)
        sims = np.arange(lo, hi, dtype=np.uint64)[:, None]
        sums = np.zeros((hi - lo, n_models))
        for d in range(n_datasets):
            keys = rng.counter_hash(seed, _SHUFFLE_STREAM, d, sims, slots)
            perm = np.argsort(keys, axis=1, kind="stable")
            sums += ranks[perm, d]
        out[lo:hi] = sums / n_datasets
    return out


def exact_p(ranks, model) -> Fraction:
    """P(null mean rank of ``model`` <= its observed mean), exactly.

    Under within-dataset shuffles the model's rank in dataset d is uniform
    over that dataset's rank multiset, independently across datasets.
    Average ranks are integers or halves, so 2 x rank is an integer, and
    the null of the doubled rank sum is the convolution of the datasets'
    value counts (the shift algorithm of Streitberg & Roehmel, 1986),
    kept in Python integers over the M**D equally likely outcomes.
    """
    ranks = np.asarray(ranks, dtype=float)
    n_models, n_datasets = ranks.shape
    twice = np.rint(2 * ranks).astype(np.int64)
    assert np.array_equal(twice, 2 * ranks), "ranks must be integers or halves"
    counts = Counter({0: 1})
    for column in twice.T:
        step = Counter(column.tolist())
        convolved = Counter()
        for total, ways in counts.items():
            for value, times in step.items():
                convolved[total + value] += ways * times
        counts = convolved
    observed = int(twice[model].sum())
    at_most = sum(ways for total, ways in counts.items() if total <= observed)
    return Fraction(at_most, n_models**n_datasets)


def _parse_run(row, line_no, seen):
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


def _scan_runs(path):
    """Yield the record or error of each non-blank data row; raise a bad header."""
    seen = {}
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
            if line_no == 1:
                raise error
            yield error


def read_runs(path):
    """The run records of a file, or its first malformed row raised."""
    records = []
    for result in _scan_runs(path):
        if isinstance(result, RecordParseError):
            raise result
        records.append(result)
    return records


def validate_run_file(path):
    """(data rows seen, violations) of a run-record file."""
    violations = []
    n_rows = 0
    try:
        for record in _scan_runs(path):
            n_rows += 1
            if isinstance(record, RecordParseError):
                violations.append(Violation(record.line, record.message))
    except RecordParseError as exc:
        violations.append(Violation(exc.line, exc.message))
    return n_rows, violations


def _finite_1d(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr.copy()


def _histogram_fields(edges, probs):
    edges = _finite_1d(edges, "edges")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a nonempty one-dimensional sequence")
    if edges.size != probs.size + 1:
        raise ValueError("len(edges) must equal len(probs) + 1")
    if np.any(edges[1:] <= edges[:-1]):
        raise ValueError("edges must be strictly increasing")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError("probs must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = float(probs.sum())
    if not 0 < total < math.inf:
        raise ValueError("probs must carry positive, finite total mass")
    return {"edges": edges, "probs": probs / total}, 0


def _quantile_fields(levels, values):
    levels = _finite_1d(levels, "levels")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must contain only finite values")
    if levels.size != values.size:
        raise ValueError("levels and values must have the same length")
    if np.any(levels[1:] <= levels[:-1]):
        raise ValueError("levels must be strictly increasing")
    if levels[0] <= 0.0 or levels[-1] >= 1.0:
        raise InvalidLevelError("quantile levels must lie strictly inside (0, 1)")
    crossings = int(np.sum(values[1:] < values[:-1]))
    return {"levels": levels, "values": np.sort(values) if crossings else values.copy()}, crossings


def _sample_fields(values):
    return {"values": _finite_1d(values, "values")}, 0


# Each forecast type: its JSON keys and its rules.
FORECAST_FORMS = {
    "histogram": (("edges", "probs"), _histogram_fields),
    "quantiles": (("levels", "values"), _quantile_fields),
    "samples": (("values",), _sample_fields),
}
_FORECAST_KEYS = ("edges", "probs", "levels", "values")


def _no_repeated_keys(pairs):
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise KeyError(key)
    return dict(pairs)


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


def _parse_forecast(line, line_no):
    """((id, target, type, fields, crossings), decoded object) of one JSON line, or raise."""
    try:
        obj = json.loads(line, parse_constant=_reject_constant,
                         object_pairs_hook=_no_repeated_keys)
    except KeyError as exc:
        raise RecordParseError(line_no, f"repeated key {reprlib.repr(exc.args[0])}") from None
    except (ValueError, RecursionError) as exc:
        raise RecordParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordParseError(line_no, "record must be a JSON object")
    if "type" not in obj:
        raise RecordParseError(line_no, "missing forecast 'type'")
    form = obj["type"]
    if not isinstance(form, str) or form not in FORECAST_FORMS:
        raise UnknownFormError(line_no, f"unknown forecast type {reprlib.repr(form)}")
    keys, rules = FORECAST_FORMS[form]
    foreign = [k for k in _FORECAST_KEYS if k in obj and k not in keys]
    if foreign:
        raise AmbiguousFormError(
            line_no, f"{form} record also carries {', '.join(foreign)}; exactly one form allowed"
        )
    for key in ("id", "target", *keys):
        if key not in obj:
            raise RecordParseError(line_no, f"missing field {key!r}")
    target = obj["target"]
    try:
        y = float(target) if type(target) in (int, float) else math.nan
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise RecordParseError(
            line_no, f"target must be a finite number, got {reprlib.repr(target)}"
        )
    for key in keys:
        values = obj[key]
        if isinstance(values, list):
            for v in values:
                if type(v) not in (int, float):
                    raise RecordParseError(
                        line_no, f"{key} must contain only numbers, got {reprlib.repr(v)}"
                    )
    try:
        fields, crossings = rules(*(obj[key] for key in keys))
        record_id = str(obj["id"])
        record_id.encode("utf-8")
    except (ValueError, TypeError, OverflowError, RecursionError, InvalidLevelError) as exc:
        raise RecordParseError(line_no, str(exc)) from None
    return (record_id, y, form, fields, crossings), obj


def scan_forecasts(path):
    """Yield (line number, (record, object) or error) per non-blank line of a forecast file."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                yield line_no, _parse_forecast(line, line_no)
            except UnicodeDecodeError as exc:
                yield line_no, RecordParseError(line_no, f"not valid UTF-8: {exc}")
            except RecordParseError as exc:
                yield line_no, exc


def read_forecasts(path):
    """(records, crossing notes, first error) of a forecast file, read up to
    its first malformed line; records is None when there is one.  A record
    is (id, target, type, {field: float64 array}, crossings repaired)."""
    records, notes = [], []
    for line_no, result in scan_forecasts(path):
        if isinstance(result, RecordParseError):
            return None, notes, result
        record, _ = result
        record_id, _, _, _, crossings = record
        if crossings:
            notes.append(f"line {line_no}, record {record_id!r}: {crossings} quantile "
                         "crossing(s) repaired by monotone rearrangement")
        records.append(record)
    return records, notes, None


def validate_forecast_file(path):
    """(records seen, quantile records repaired, violations) of a forecast file."""
    violations = []
    n_records = repaired = 0
    for line_no, result in scan_forecasts(path):
        n_records += 1
        if isinstance(result, RecordParseError):
            violations.append(Violation(line_no, result.message))
            continue
        (_, _, form, _, crossings), obj = result
        if form == "histogram":
            total = math.fsum(np.asarray(obj["probs"], dtype=float).tolist())
            if abs(total - 1.0) > 1e-9:
                violations.append(Violation(line_no, f"probability mass sums to {total!r}, not 1"))
        if crossings:
            repaired += 1
            violations.append(Violation(line_no, "non-monotone quantile values (repaired by sorting)"))
    return n_records, repaired, violations
