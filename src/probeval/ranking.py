"""Permutation-test leaderboard over (model, dataset, fold) run records.

Cross-validation folds of one dataset are correlated measurements; using
them as independent samples (pseudoreplication) inflates significance.
The pipeline therefore blocks per dataset:

    1. average folds into one score per (model, dataset);
    2. drop zero-variance datasets and rank models within each dataset
       (ranks resolve the incommensurability of scales across datasets);
    3. take each model's observed average rank;
    4. build a null distribution by independently shuffling each
       dataset's rank vector (20,000 simulations by default);
    5. p = (counts + 1) / (nsim + 1), counting null means at least as
       good as observed;
    6. order models by p-value, breaking ties by observed raw means.

The shuffles are driven by counter-based substreams keyed on
(seed, simulation, dataset), so results are byte-identical regardless of
chunking and of the number of threads.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from . import rng
from .errors import (
    DroppedDatasetWarning,
    NoInformativeDatasetsError,
    NotComparableError,
    warn,
)
from .scoring import LOWER_BETTER, MetricSpec, resolve_metric

# Stream tag separating leaderboard shuffles from other consumers of the
# counter-based generator.
_SHUFFLE_STREAM = 0x7065726D

DEFAULT_NSIM = 20_000

# The permutation null takes its simulations in chunks of rows within this
# many rank cells (rows x models), so its temporaries keep the same size
# whatever nsim is.  Of budgets from 2**12 to 2**18 this was the fastest on
# a 20 x 160 rank matrix; below about 2**15, numpy's per-call overhead,
# which holds the GIL, keeps the threads from overlapping.
NULL_ELEMENTS = 1 << 16


class RunRecord(NamedTuple):
    """One observed metric value: (model, dataset, fold, metric, value)."""

    model: str
    dataset: str
    fold: int
    metric: str
    value: float


class _Codes(dict):
    """Names to integer codes; a name not seen before takes the next code."""

    def __missing__(self, name):
        self[name] = code = len(self)
        return code


def _intern(column: Sequence, codes: _Codes) -> np.ndarray:
    """The code of each item of ``column``."""
    return np.fromiter(map(codes.__getitem__, column), np.intp, len(column))


@dataclass(frozen=True, eq=False)
class RunTable(Sequence):
    """Run records held as columns: a read-only sequence of :class:`RunRecord`.

    Each of model, dataset, fold and metric is a tuple of distinct names
    and an integer code array indexing it, one code per run; ``values``
    holds the float64 values.  Indexing and iteration build the records.
    """

    models: tuple
    datasets: tuple
    folds: tuple
    metrics: tuple
    model_codes: np.ndarray
    dataset_codes: np.ndarray
    fold_codes: np.ndarray
    metric_codes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for array in (self.model_codes, self.dataset_codes, self.fold_codes,
                      self.metric_codes, self.values):
            array.flags.writeable = False

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> RunTable:
        """The table of any iterable of records, names interned in first-seen order."""
        rows = [(r.model, r.dataset, r.fold, r.metric, r.value) for r in records]
        *names, values = zip(*rows) if rows else ((),) * 5
        indexes = [_Codes(), _Codes(), _Codes(), _Codes()]
        codes = [_intern(column, index) for column, index in zip(names, indexes)]
        return cls(*map(tuple, indexes), *codes, np.array(values, dtype=float))

    def _columns(self):
        return ((self.models, self.model_codes), (self.datasets, self.dataset_codes),
                (self.folds, self.fold_codes), (self.metrics, self.metric_codes))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return RunRecord(*(names[codes[i]] for names, codes in self._columns()),
                         float(self.values[i]))

    def __iter__(self):
        columns = [map(names.__getitem__, codes.tolist()) for names, codes in self._columns()]
        return map(RunRecord, *columns, self.values.tolist())


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Fold-averaged scores, models by datasets, with metric orientation."""

    models: tuple[str, ...]
    datasets: tuple[str, ...]
    values: np.ndarray
    orientation: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.models), len(self.datasets)):
            raise ValueError("values must be shaped (models, datasets)")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LeaderboardRow:
    """One leaderboard line: Rank, Model, p-value, Observed, AverageRank."""

    rank: int
    model: str
    p_value: float
    observed: float
    average_rank: float


def aggregate_folds(records: Iterable[RunRecord], metric: str | MetricSpec) -> ScoreMatrix:
    """Average folds into one score per (model, dataset) for one metric.

    ``records`` is a :class:`RunTable` or any iterable of run records.
    ``metric`` is a built-in identifier or a :class:`MetricSpec`, whose
    name selects the run records and whose orientation the matrix takes.
    Datasets on which any model is missing are dropped (complete-case)
    with a :class:`DroppedDatasetWarning`.  Fold means use exact summation
    so that duplicated folds cannot perturb the result.
    """
    spec = resolve_metric(metric) if isinstance(metric, str) else metric
    metric = spec.name
    table = records if isinstance(records, RunTable) else RunTable.from_records(records)
    if metric not in table.metrics:
        raise NotComparableError(f"no run records for metric {metric!r}")
    rows = table.metric_codes == table.metrics.index(metric)
    models, model_of = _sorted_names(table.models, table.model_codes[rows])
    if len(models) < 2:
        raise NotComparableError(f"need at least 2 models for metric {metric!r}, found {len(models)}")
    datasets, dataset_of = _sorted_names(table.datasets, table.dataset_codes[rows])

    # One group of runs per (model, dataset) cell, model-major.  fsum is
    # exact, so the order of the runs within a group changes no byte.
    cell = model_of * len(datasets) + dataset_of
    order = np.argsort(cell)
    cell = cell[order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    values = table.values[rows][order].tolist()
    means = []
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(values)]):
        runs = values[lo:hi]
        try:
            mean = math.fsum(runs) / len(runs)
        except OverflowError:  # the sum passes the largest float, the mean need not
            mean = math.fsum(v / len(runs) for v in runs)
        except ValueError:  # +inf and -inf among the folds
            mean = math.nan
        if math.isnan(mean):
            m, d = divmod(int(cell[lo]), len(datasets))
            raise NotComparableError(f"model {models[m]!r} on dataset {datasets[d]!r}: "
                                     f"the fold mean of {metric!r} is NaN")
        means.append(mean)
    grid = np.empty((len(models), len(datasets)))
    present = np.zeros(grid.shape, dtype=bool)
    grid.flat[cell[starts]] = means
    present.flat[cell[starts]] = True

    complete = present.all(axis=0)
    for j in np.flatnonzero(~complete).tolist():
        missing = compress(models, ~present[:, j])
        warn(f"dataset {datasets[j]!r} dropped: no runs for {', '.join(missing)}",
             DroppedDatasetWarning)
    if not complete.any():
        raise NotComparableError(f"no dataset has runs for every model on metric {metric!r}")
    return ScoreMatrix(
        models=models,
        datasets=tuple(compress(datasets, complete)),
        values=grid[:, complete],
        orientation=spec.orientation,
    )


def _sorted_names(names: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The names ``codes`` uses, sorted, and each code's position among them."""
    used = sorted(np.unique(codes).tolist(), key=names.__getitem__)
    position = np.empty(len(names), dtype=np.intp)
    position[used] = np.arange(len(used))
    return tuple(names[c] for c in used), position[codes]


def drop_zero_variance(matrix: ScoreMatrix) -> ScoreMatrix:
    """Remove datasets where all models score exactly the same."""
    values = matrix.values
    keep = (values != values[0]).any(axis=0)
    for name in compress(matrix.datasets, ~keep):
        warn(f"dataset {name!r} dropped: all models scored identically", DroppedDatasetWarning)
    if not keep.any():
        raise NoInformativeDatasetsError("every dataset has zero variance across models")
    return ScoreMatrix(
        models=matrix.models,
        datasets=tuple(compress(matrix.datasets, keep)),
        values=values[:, keep],
        orientation=matrix.orientation,
    )


def rank_transform(matrix: ScoreMatrix) -> np.ndarray:
    """Within-dataset ranks, 1 = best under the metric orientation.

    Ties receive fractional (average) ranks, the standard nonparametric
    convention; a dataset with a NaN score ranks all-NaN.
    """
    oriented = matrix.values if matrix.orientation == LOWER_BETTER else -matrix.values
    return _average_ranks(oriented)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based average ranks down each column of ``x``.

    A value's rank is the mean of its first and last 1-based positions
    in its sorted column, (left + right + 1) / 2 with ``left`` and
    ``right`` its searchsorted positions.  Ranks are small integers or
    halves, so they are exact, and a column holding a NaN comes out
    all-NaN; the result equals ``scipy.stats.rankdata(x, method="average",
    axis=0)`` bit for bit.
    """
    cols = np.asarray(x, dtype=float).T
    ranks = np.empty(cols.shape)
    for col, ordered, out in zip(cols, np.sort(cols, axis=1), ranks):
        out[:] = (ordered.searchsorted(col, "left") + ordered.searchsorted(col, "right") + 1) / 2
    ranks[np.isnan(cols).any(axis=1)] = np.nan
    return ranks.T


def observed_statistics(ranks: np.ndarray, matrix: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-model (average rank, mean raw score) across datasets."""
    values = matrix.values
    if ranks.shape != values.shape:
        raise ValueError("ranks and matrix shapes differ")
    with np.errstate(over="ignore"):
        observed = values.mean(axis=1)
    # Where a sum of finite scores passes the largest float, divide first.
    redo = ~np.isfinite(observed) & np.isfinite(values).all(axis=1)
    if redo.any():
        observed[redo] = (values[redo] / values.shape[1]).sum(axis=1)
    return ranks.mean(axis=1), observed


def permutation_null(
    ranks: np.ndarray,
    nsim: int,
    seed: int,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Null distribution of per-model mean ranks under within-dataset shuffles.

    The permutation for (simulation s, dataset d) is the stable order of M
    keys hashed from its own counter-based substream of ``seed``, so the
    (nsim, models) result is the same for any ``chunk_size`` and thread
    split.  Each dataset's ranks must be whole or half numbers in [1, M]
    or all NaN (the null is then all NaN); anything else is a ValueError.
    Rank r's code 2r - 2 replaces the low b = (2M - 2).bit_length() bits
    of the high 32-bit word of its slot's key; each row of words is
    sorted and its codes are added as integers.  A row whose words agree
    above the low bits (about M**2 / 2**(33 - b) of the rows) argsorts
    its full keys instead.  Simulations are taken ``chunk_size`` rows at
    a time (by default within ``NULL_ELEMENTS`` rank cells), on one
    thread per usable CPU, or per chunk if fewer.
    """
    ranks = np.asarray(ranks, dtype=float)
    n_models, n_datasets = ranks.shape
    if nsim < 1:
        raise ValueError("nsim must be >= 1")
    if n_datasets < 1:
        raise ValueError("ranks must have at least one dataset")
    blank = np.isnan(ranks).all(axis=0)
    twice = 2.0 * ranks[:, ~blank]
    if not ((twice == np.floor(twice)) & (twice >= 2.0) & (twice <= 2.0 * n_models)).all():
        raise ValueError(f"each dataset's ranks must be whole or half numbers in [1, {n_models}], "
                         "or all NaN")
    if blank.any():
        return np.full((nsim, n_models), np.nan)
    if chunk_size is None:
        chunk = max(1, NULL_ELEMENTS // n_models)
    else:
        chunk = max(1, int(chunk_size))
    codes = (twice.T - 2.0).astype(np.uint32, order="C")
    low = np.uint32((1 << (2 * n_models - 2).bit_length()) - 1)
    high_word = 1 if sys.byteorder == "little" else 0
    slots = np.arange(n_models, dtype=np.uint64)
    # Every key of dataset d hashes (seed, stream, d) first.
    prefixes = rng.counter_hash(seed, _SHUFFLE_STREAM, np.arange(n_datasets, dtype=np.uint64))
    out = np.empty((nsim, n_models))

    def fill(lo: int) -> None:
        # Each chunk owns its rows of ``out`` and adds the datasets in
        # order, so no byte depends on the split or the thread.  Its
        # temporaries are allocated once and reused for every dataset.
        sums = out[lo : lo + chunk]
        rows = len(sums)
        sims = np.arange(lo, lo + rows, dtype=np.uint64)[:, None]
        sim_keys, sim_scratch = np.empty((2, rows, 1), dtype=np.uint64)
        keys, scratch = np.empty((2, rows, n_models), dtype=np.uint64)
        high = keys.view(np.uint32)[:, high_word::2]
        words = np.empty((rows, n_models), dtype=np.uint32)
        flat = words.ravel()
        # Neighbours are compared across row ends too, which can only send
        # a row to the argsort needlessly.
        gaps = np.empty(max(flat.size - 1, 0), dtype=np.uint32)
        near = np.empty(gaps.shape, dtype=bool)
        totals = np.zeros((rows, n_models), dtype=np.int64)
        for d, code in enumerate(codes):
            rng._step(prefixes[d : d + 1], sims, sim_keys, sim_scratch)
            rng._step(sim_keys, slots, keys, scratch)
            np.bitwise_and(high, ~low, out=words)
            words |= code
            words.sort(axis=1)
            np.bitwise_xor(flat[1:], flat[:-1], out=gaps)
            np.less_equal(gaps, low, out=near)
            words &= low
            if near.any():
                tied = np.unique(np.flatnonzero(near) // n_models)
                words[tied] = code[np.argsort(keys[tied], axis=1, kind="stable")]
            totals += words
        # Exact, like a float sum of the ranks: the same bytes.
        np.add(totals, 2 * n_datasets, out=sums)
        sums *= 0.5
        sums /= n_datasets

    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, nsim, chunk)
    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        list(pool.map(fill, starts))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def empirical_p(observed_mean: float, null_means) -> float:
    """Pseudo-counted one-sided p-value, p = (counts + 1) / (nsim + 1).

    ``counts`` is the number of null means at least as extreme as the
    observed one; smaller average rank is better, so extreme means
    null <= observed.  The pseudo-count keeps p strictly positive.
    """
    null = np.asarray(null_means, dtype=float)
    if null.size == 0:
        raise ValueError("null sample must be nonempty")
    counts = int(np.count_nonzero(null <= observed_mean))
    return (counts + 1) / (null.size + 1)


def build_leaderboard(
    records: Iterable[RunRecord],
    metric: str | MetricSpec,
    nsim: int = DEFAULT_NSIM,
    seed: int = 0,
    chunk_size: int | None = None,
) -> list[LeaderboardRow]:
    """Full pipeline from run records to ordered leaderboard rows.

    Rows are sorted by p-value ascending with ties broken by the observed
    raw mean (better first under the metric orientation), then by average
    rank and model name for full determinism; ranks run 1..M.
    """
    matrix = drop_zero_variance(aggregate_folds(records, metric))
    ranks = rank_transform(matrix)
    avg_ranks, observed = observed_statistics(ranks, matrix)
    null = permutation_null(ranks, nsim=nsim, seed=seed, chunk_size=chunk_size)
    p_values = [empirical_p(avg_ranks[m], null[:, m]) for m in range(len(matrix.models))]

    sign = 1.0 if matrix.orientation == LOWER_BETTER else -1.0
    order = sorted(
        range(len(matrix.models)),
        key=lambda m: (p_values[m], sign * observed[m], avg_ranks[m], matrix.models[m]),
    )
    return [
        LeaderboardRow(
            rank=position + 1,
            model=matrix.models[m],
            p_value=p_values[m],
            observed=float(observed[m]),
            average_rank=float(avg_ranks[m]),
        )
        for position, m in enumerate(order)
    ]
