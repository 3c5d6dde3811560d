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
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from . import rng
from .errors import (
    DroppedDatasetWarning,
    NoInformativeDatasetsError,
    NotComparableError,
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

    ``metric`` is a built-in identifier or a :class:`MetricSpec`, whose
    name selects the run records and whose orientation the matrix takes.
    Datasets on which any model is missing are dropped (complete-case)
    with a :class:`DroppedDatasetWarning`.  Fold means use exact summation
    so that duplicated folds cannot perturb the result.
    """
    spec = resolve_metric(metric) if isinstance(metric, str) else metric
    metric = spec.name
    rows = [r for r in records if r.metric == metric]
    if not rows:
        raise NotComparableError(f"no run records for metric {metric!r}")
    models = sorted({r.model for r in rows})
    if len(models) < 2:
        raise NotComparableError(f"need at least 2 models for metric {metric!r}, found {len(models)}")
    folds: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in rows:
        folds[(r.model, r.dataset)].append(r.value)

    complete = []
    for d in sorted({r.dataset for r in rows}):
        missing = [m for m in models if (m, d) not in folds]
        if missing:
            warnings.warn(
                f"dataset {d!r} dropped: no runs for {', '.join(missing)}",
                DroppedDatasetWarning,
                stacklevel=2,
            )
        else:
            complete.append(d)
    if not complete:
        raise NotComparableError(f"no dataset has runs for every model on metric {metric!r}")

    values = np.empty((len(models), len(complete)))
    for i, m in enumerate(models):
        for j, d in enumerate(complete):
            runs = folds[(m, d)]
            try:
                values[i, j] = math.fsum(runs) / len(runs)
            except OverflowError:  # the sum passes the largest float, the mean need not
                values[i, j] = math.fsum(v / len(runs) for v in runs)
    return ScoreMatrix(
        models=tuple(models),
        datasets=tuple(complete),
        values=values,
        orientation=spec.orientation,
    )


def drop_zero_variance(matrix: ScoreMatrix) -> ScoreMatrix:
    """Remove datasets where all models score exactly the same."""
    values = matrix.values
    keep = (values != values[0]).any(axis=0)
    for name in compress(matrix.datasets, ~keep):
        warnings.warn(
            f"dataset {name!r} dropped: all models scored identically",
            DroppedDatasetWarning,
            stacklevel=2,
        )
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
    if ranks.shape != matrix.values.shape:
        raise ValueError("ranks and matrix shapes differ")
    return ranks.mean(axis=1), matrix.values.mean(axis=1)


def permutation_null(
    ranks: np.ndarray,
    nsim: int,
    seed: int,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Null distribution of per-model mean ranks under within-dataset shuffles.

    Each simulation independently permutes every dataset's rank vector;
    the permutation for (simulation s, dataset d) is drawn from its own
    counter-based substream of ``seed``, so the (nsim, models) result is
    the same for any ``chunk_size`` and any parallel split.  Simulations
    are taken ``chunk_size`` rows at a time (by default as many as fit in
    ``NULL_ELEMENTS`` rank cells), and the chunks run on a thread pool of
    one thread per CPU the process may use, or per chunk if fewer.
    """
    ranks = np.asarray(ranks, dtype=float)
    n_models, n_datasets = ranks.shape
    if nsim < 1:
        raise ValueError("nsim must be >= 1")
    if n_datasets < 1:
        raise ValueError("ranks must have at least one dataset")
    if chunk_size is None:
        chunk = max(1, NULL_ELEMENTS // max(n_models, 1))
    else:
        chunk = max(1, int(chunk_size))
    columns = np.ascontiguousarray(ranks.T)
    slots = np.arange(n_models, dtype=np.uint64)
    out = np.empty((nsim, n_models))

    def fill(lo: int) -> None:
        # Each chunk owns its rows of ``out`` and adds the datasets in
        # order, so no byte depends on the split or the thread.
        sums = out[lo : lo + chunk]
        sums[...] = 0.0
        sims = np.arange(lo, lo + len(sums), dtype=np.uint64)[:, None]
        for d, column in enumerate(columns):
            keys = rng.counter_hash(seed, _SHUFFLE_STREAM, d, sims, slots)
            sums += column[_stable_order(keys)]
        sums /= n_datasets

    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, nsim, chunk)
    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        list(pool.map(fill, starts))
    return out


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, axis=1, kind="stable")`` of uint64 keys, by sorting values.

    The low b = (M - 1).bit_length() bits of each of a row's M keys are
    replaced by its slot index, the packed values are sorted, and the
    slots are read back from the low bits.  That is the stable argsort
    order unless two keys of a row agree above the low bits; such rows
    (for hashed keys, a share of about M**2 / 2**(65 - b)) are argsorted.
    """
    n = keys.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    packed = keys & ~low
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort(axis=1)
    # Neighbours are compared across row ends too, which can only send a
    # row to the argsort needlessly.
    flat = packed.ravel()
    near = np.flatnonzero((flat[1:] ^ flat[:-1]) <= low)
    packed &= low
    order = packed.view(np.int64)
    if near.size:
        tied = np.unique(near // n)
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return order


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
