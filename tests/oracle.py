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
parse a run-record CSV one row at a time, as the reader was first written.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from probeval import DiscreteForecast, HistogramForecast, QuantileForecast, SampleForecast, rng
from probeval.errors import DuplicateKeyError, InvalidValueError, RecordParseError
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
