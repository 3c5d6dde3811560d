"""Predictive distributions for discretized regression targets.

Models in this domain emit one of three raw forms: a histogram PMF over a
bin grid, a dense set of quantiles, or an ensemble of samples.  Scoring
happens on a canonical point-mass form; the conversions below collapse
each raw form onto it.  Histograms collapse to their bin centers, which
makes CRPS and the beta=1 energy score coincide exactly instead of
approximately.

:class:`ForecastBatch` packs the point masses of many records into flat
arrays (CSR layout) so that conversions and scoring rules run over a whole
batch at once; :class:`DiscreteForecast` is the one-record view of it, as
:func:`to_histogram` gives the one-record view of a :class:`HistogramBatch`.
Per-record work walks a batch one way: records of equal support size are
gathered as the rows of a matrix (:class:`_SizeGroups`, computed once per
batch) and handled by row-wise numpy operations, so each record gets
exactly the result a batch of that record alone would give.

All forecast types are immutable after construction and every operation
here is pure, so instances are safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    ConversionWarning,
    InvalidLevelError,
    NotConvertibleError,
    QuantileCrossingWarning,
    warn,
)

# Tolerance on total probability mass for validation and conversions.
MASS_TOL = 1e-9

# Largest number of array elements a batch operation gathers at once.
# Groups of equal-size records are taken in chunks of rows within this
# budget, so memory follows the chunk size, not the batch size.
BLOCK_ELEMENTS = 1 << 14


def _finite_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return _readonly(arr.copy())


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _view(cls, **fields):
    """A frozen ``cls`` holding ``fields`` as they are, without running its constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class HistogramForecast:
    """Bin-edge plus bin-mass predictive distribution.

    ``edges`` holds the K+1 strictly ascending bin boundaries in target
    units, ``probs`` the K nonnegative bin masses.  Masses are normalized
    to sum to one on construction.
    """

    edges: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        edges = _finite_1d(self.edges, "edges")
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty one-dimensional sequence")
        if edges.size != probs.size + 1:
            raise ValueError("len(edges) must equal len(probs) + 1")
        if np.any(edges[1:] <= edges[:-1]):
            raise ValueError("edges must be strictly increasing")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probs must be finite and nonnegative")
        with np.errstate(over="ignore"):  # an infinite total is rejected below
            total = float(probs.sum())
        if not 0 < total < math.inf:
            raise ValueError("probs must carry positive, finite total mass")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "probs", _readonly(probs / total))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def bin_index(self, y: float) -> int:
        """Index of the bin containing ``y``.

        Bins are left-closed and right-open, except the last bin which is
        closed on both sides.  Returns -1 when ``y`` lies outside the grid.
        """
        k, inside = _bin_index(self.edges[None, :], np.array([[y]], dtype=float))
        return int(k[0]) if inside[0] else -1


@dataclass(frozen=True, eq=False)
class QuantileForecast:
    """Quantile-function forecast: values at strictly ascending levels.

    Crossing (non-monotone) values are repaired by sorting them ascending
    before any use; the repair is recorded on ``repaired`` and surfaced as
    a :class:`QuantileCrossingWarning`.
    """

    levels: np.ndarray
    values: np.ndarray
    repaired: bool = field(init=False, default=False)

    def __post_init__(self):
        levels = _finite_1d(self.levels, "levels")
        values = np.asarray(self.values, dtype=float)
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
        if crossings:
            warn(f"{crossings} quantile crossing(s) repaired by monotone rearrangement",
                 QuantileCrossingWarning)
            values = np.sort(values)
            object.__setattr__(self, "repaired", True)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "values", _readonly(values.copy()))


@dataclass(frozen=True, eq=False)
class SampleForecast:
    """Ensemble forecast: n >= 1 finite sample values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_1d(self.values, "values"))


@dataclass(frozen=True, eq=False)
class DiscreteForecast:
    """Point-mass distribution: strictly ascending support, positive masses.

    This is the canonical scoring form, a one-record view of a
    :class:`ForecastBatch`.  The CDF is the right-continuous step function
    P(X <= x); quantiles use the generalized inverse (the smallest support
    point at which the CDF reaches the requested level).
    """

    points: np.ndarray
    probs: np.ndarray
    batch: ForecastBatch = field(init=False, repr=False, default=None)

    def __post_init__(self):
        batch = ForecastBatch(self.points, self.probs, [0, np.size(self.points)])
        self.__dict__.update(points=batch.points, probs=batch.probs, batch=batch)

    def cdf(self, x):
        """Right-continuous step CDF of a scalar or an array; NaN where ``x`` is NaN."""
        x_arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x_arr, side="right")
        out = np.where(idx > 0, self.batch.cdf[np.maximum(idx - 1, 0)], 0.0)
        out = np.where(np.isnan(x_arr), math.nan, out)  # searchsorted puts NaN last
        return float(out) if x_arr.ndim == 0 else out

    def quantile(self, tau: float) -> float:
        """Generalized inverse CDF: the smallest point with cdf >= tau."""
        if not 0.0 < tau < 1.0:
            raise InvalidLevelError(f"quantile level must be in (0, 1), got {tau}")
        return float(self.batch.quantiles(tau)[0])

    def median(self) -> float:
        return self.quantile(0.5)

    def mean(self) -> float:
        return float(self.batch.means()[0])

    def variance(self) -> float:
        return float(self.batch.variances()[0])

    def std(self) -> float:
        return float(self.batch.stds()[0])


Forecast = HistogramForecast | QuantileForecast | SampleForecast | DiscreteForecast


def _record_ids(offsets: np.ndarray) -> np.ndarray:
    """Record index of every element of a CSR array."""
    return np.repeat(np.arange(offsets.size - 1), offsets[1:] - offsets[:-1])


def _offsets(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    out = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=out[1:])
    return out


def _run_starts(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mask of the elements that start a run of equal values within a record."""
    new = np.ones(values.size, dtype=bool)
    new[1:] = values[1:] != values[:-1]
    new[offsets[:-1]] = True
    return new


class _SizeGroups:
    """The records of a CSR layout grouped by segment size, computed once.

    The records of each nonzero size form one group, in record order; the
    groups come in ascending size, and empty records belong to none.
    Callers walk the groups with :meth:`chunks`, each with its own budget.
    """

    __slots__ = ("_groups",)

    def __init__(self, offsets: np.ndarray):
        lengths = offsets[1:] - offsets[:-1]
        if lengths.size == 0:
            groups = []
        elif lengths.min() == lengths.max():
            groups = [np.arange(lengths.size)]
        else:
            order = np.argsort(lengths, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)
        self._groups = [
            (int(lengths[rows[0]]), rows, offsets[rows, None])
            for rows in groups
            if lengths[rows[0]] > 0
        ]

    def chunks(
        self, elements: Callable[[int], int] = lambda size: size
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(record indices, flat indices) of chunks of the records of each size.

        The flat indices form a (records x size) matrix, so ``x[cols]``
        gathers the records of a chunk as rows.  Each group is split so
        that rows * elements(size) stays within BLOCK_ELEMENTS (one row at
        least).  Row-wise numpy operations over a chunk give every record
        the same result as a call on that record alone.
        """
        for size, rows, starts in self._groups:
            step = max(1, BLOCK_ELEMENTS // elements(size))
            for i in range(0, rows.size, step):
                yield rows[i : i + step], starts[i : i + step] + np.arange(size)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row, added left to right from +0.0 whatever its length.

    numpy's pairwise ``sum(axis=1)`` regroups the terms of rows of 8 or
    more elements, which changes last bits; starting from +0.0 makes a row
    of zero terms sum to 0.0, never -0.0.
    """
    return np.cumsum(x, axis=1)[:, -1] + 0.0


def _bin_index(edges: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bin index, inside) of observations ``y`` (a column) in rows of ``edges``.

    Bins are left-closed and right-open, except the last bin which is
    closed on both sides.  Outside the grid the index is that of the
    nearest bin and ``inside`` is False.
    """
    k = np.clip((edges <= y).sum(axis=1) - 1, 0, edges.shape[1] - 2)
    return k, (y[:, 0] >= edges[:, 0]) & (y[:, 0] <= edges[:, -1])


@dataclass(frozen=True, eq=False)
class ForecastBatch:
    """Point-mass forecasts of many records, packed in CSR layout.

    Record r has support ``points[offsets[r]:offsets[r+1]]`` (strictly
    ascending) with masses ``probs`` at the same positions; ``cdf`` holds
    each record's cumulative masses, accumulated per record and pinned to
    exactly 1.0 at its last point; ``by_size`` groups the records by
    support size for every per-record computation.  Construction validates
    every record with the same errors as :class:`DiscreteForecast`.
    """

    points: np.ndarray
    probs: np.ndarray
    offsets: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)
    by_size: _SizeGroups = field(init=False, repr=False)
    sources: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        self._pack(points, np.array(self.probs, dtype=float), self.offsets)

    def _pack(self, points: np.ndarray, probs: np.ndarray, offsets) -> None:
        """Validate and take ownership of float arrays ``points`` and ``probs``."""
        if points.ndim != 1:
            raise ValueError("points must be a nonempty one-dimensional sequence")
        offsets = np.asarray(offsets)
        if (
            offsets.ndim != 1
            or offsets.size == 0
            or offsets.dtype.kind not in "iu"
            or offsets[0] != 0
            or offsets[-1] != points.size
        ):
            raise ValueError("offsets must be integers running from 0 to len(points)")
        offsets = offsets.astype(np.intp)
        if (offsets[1:] <= offsets[:-1]).any():
            raise ValueError("points must be a nonempty one-dimensional sequence")
        if not np.isfinite(points).all():
            raise ValueError("points must contain only finite values")
        if probs.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if probs.size != points.size:
            raise ValueError("points and probs must have the same length")
        unordered = points[1:] <= points[:-1]
        unordered[offsets[1:-1] - 1] = False  # no order across records
        if unordered.any():
            raise ValueError("points must be strictly increasing")
        if not np.isfinite(probs).all() or (probs <= 0).any():
            raise ValueError("probs must be finite and strictly positive")
        by_size = _SizeGroups(offsets)
        cdf = np.empty_like(probs)
        for _, cols in by_size.chunks():
            cdf[cols] = np.cumsum(probs[cols], axis=1)
        totals = cdf[offsets[1:] - 1] + 0.0
        bad = np.abs(totals - 1.0) > MASS_TOL
        if bad.any():
            total = float(totals[np.argmax(bad)])
            raise ValueError(f"probs must sum to 1 within {MASS_TOL}, got {total!r}")
        cdf[offsets[1:] - 1] = 1.0
        object.__setattr__(self, "points", _readonly(points))
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "offsets", _readonly(offsets))
        object.__setattr__(self, "cdf", _readonly(cdf))
        object.__setattr__(self, "by_size", by_size)

    @classmethod
    def from_forecasts(cls, forecasts: Iterable[Forecast]) -> ForecastBatch:
        """Pack forecasts of any form, converting each form in bulk.

        Histograms keep the centers of their nonempty bins, quantiles get
        the midpoint partition of (0, 1) with equal values merged, samples
        become their distinct values with frequencies; point-mass
        forecasts are taken as they are.  The result holds, per record,
        exactly what the one-record conversion gives.
        """
        forecasts = tuple(forecasts)
        points, probs, offsets = _gather(forecasts, _TO_MASSES)
        batch = object.__new__(cls)
        batch._pack(points, probs, offsets)
        object.__setattr__(batch, "sources", forecasts)
        return batch

    @property
    def n(self) -> int:
        """Number of records."""
        return self.offsets.size - 1

    def record(self, i: int) -> DiscreteForecast:
        """Record i as a :class:`DiscreteForecast` sharing this batch's arrays.

        The view has no source forecast, so no histogram form either."""
        start, stop = self.offsets[i], self.offsets[i + 1]
        offsets = np.array([0, stop - start])
        points, probs = self.points[start:stop], self.probs[start:stop]
        sub = _view(ForecastBatch, points=points, probs=probs, offsets=offsets,
                    cdf=self.cdf[start:stop], by_size=_SizeGroups(offsets))
        return _view(DiscreteForecast, points=points, probs=probs, batch=sub)

    def quantiles(self, tau: float) -> np.ndarray:
        """Generalized inverse CDF of every record at level ``tau``."""
        out = np.empty(self.n)
        for rows, cols in self.by_size.chunks():
            below = (self.cdf[cols] < tau).sum(axis=1)
            out[rows] = self.points[cols[:, 0] + np.minimum(below, cols.shape[1] - 1)]
        return out

    def means(self) -> np.ndarray:
        out = np.empty(self.n)
        for rows, cols in self.by_size.chunks():
            out[rows] = _row_sums(self.probs[cols] * self.points[cols])
        return out

    def variances(self) -> np.ndarray:
        out = np.empty(self.n)
        for rows, cols in self.by_size.chunks():
            x, p = self.points[cols], self.probs[cols]
            centered = x - _row_sums(p * x)[:, None]
            out[rows] = _row_sums(p * (centered * centered))
        # Clamp against negative rounding for near-degenerate supports.
        return np.maximum(out, 0.0)

    def stds(self) -> np.ndarray:
        # Centred points past about 1.34e154 overflow their squares, although
        # the standard deviation is finite.  Those records are taken again from
        # the support scaled by 2^-514 and scaled back, both exact, so every
        # finite record keeps its bytes.
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.sqrt(self.variances())
        wide = ~np.isfinite(out)
        if wide.any():
            scaled = _view(ForecastBatch, points=np.ldexp(self.points, -514), probs=self.probs,
                           offsets=self.offsets, cdf=self.cdf, by_size=self.by_size)
            out[wide] = np.ldexp(np.sqrt(scaled.variances()[wide]), 514)
        return out

    def histograms(self) -> HistogramBatch:
        """Histogram form of every record (see :class:`HistogramBatch`).

        Built on first use from the forecasts the batch was packed from; a
        record without one (a batch built from point masses, or a record
        view) has no bins.  Converting quantile records issues one
        :class:`ConversionWarning`.
        """
        hists = self.__dict__.get("_histograms")
        if hists is None:
            hists = (HistogramBatch.from_forecasts(self.sources) if self.sources else
                     HistogramBatch(np.empty(0), np.empty(0), np.zeros(self.n + 1, np.intp)))
            self.__dict__["_histograms"] = hists
            converted = sum(isinstance(f, QuantileForecast) and bins > 0
                            for f, bins in zip(self.sources, np.diff(hists.offsets).tolist()))
            if converted:
                warn(f"{converted} quantile record(s) converted to histograms for density scores",
                     ConversionWarning)
        return hists


@dataclass(frozen=True, eq=False)
class HistogramBatch:
    """Histogram form of many records, packed in CSR layout.

    Record r has bin edges ``edges[offsets[r]:offsets[r+1]]``; ``probs``
    holds each bin's mass at the position of its left edge and 0.0 at the
    last edge.  Records with no density (samples, point masses,
    single-level quantiles) have no edges; ``by_bins`` groups the records
    by edge count.
    """

    edges: np.ndarray
    probs: np.ndarray
    offsets: np.ndarray
    by_bins: _SizeGroups = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "by_bins", _SizeGroups(self.offsets))

    @classmethod
    def from_forecasts(cls, forecasts: Iterable[Forecast]) -> HistogramBatch:
        """Histograms as they are; quantiles through their level gaps."""
        return cls(*_gather(tuple(forecasts), _TO_BINS))


def _form_of(forecast) -> type:
    for form in _TO_MASSES:
        if isinstance(forecast, form):
            return form
    raise TypeError(f"not a forecast: {type(forecast).__name__}")


def _gather(forecasts: tuple, table: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, masses, offsets) of ``forecasts`` packed in CSR layout.

    The records of each form are converted in bulk by that form's entry of
    ``table``, which takes the form's fields laid end to end and the
    offsets of the last one, and returns flat values, flat masses and one
    size per record; a form without an entry gives empty records.
    """
    by_form: dict[type, list[int]] = {}
    for i, f in enumerate(forecasts):
        by_form.setdefault(_form_of(f), []).append(i)
    lengths = np.zeros(len(forecasts), dtype=np.intp)
    parts = []
    for form, rows in by_form.items():
        if form in table:
            group = [forecasts[i] for i in rows]
            names = _INIT_FIELDS[form]
            part_values, part_masses, sizes = table[form](
                *(np.concatenate([getattr(f, name) for f in group]) for name in names),
                _offsets([getattr(f, names[-1]).size for f in group]),
            )
            lengths[rows] = sizes
            parts.append((rows, part_values, part_masses, sizes))
    offsets = _offsets(lengths)
    values = np.empty(offsets[-1])
    masses = np.empty(offsets[-1])
    while parts:
        rows, part_values, part_masses, sizes = parts.pop()
        dest = np.repeat(offsets[rows] - _offsets(sizes)[:-1], sizes) + np.arange(part_values.size)
        values[dest] = part_values
        masses[dest] = part_masses
        del part_values, part_masses, dest
    return values, masses, offsets


def _merge_equal(values: np.ndarray, probs: np.ndarray, offsets: np.ndarray):
    """(points, masses, support sizes), each run of equal values in a record
    merged into one point with the run's total mass; zero totals are dropped."""
    new = _run_starts(values, offsets)
    merged = np.bincount(np.cumsum(new) - 1, weights=probs)
    keep = merged > 0
    rec = _record_ids(offsets)[new][keep]
    return values[new][keep], merged[keep], np.bincount(rec, minlength=offsets.size - 1)


def _histogram_masses(edges: np.ndarray, probs: np.ndarray, offsets: np.ndarray):
    # Bin b of record r is bounded by flat edges b + r and b + r + 1.  Halving
    # each edge first cannot overflow; the bins of equal centers merge.
    left = np.arange(probs.size) + _record_ids(offsets)
    return _merge_equal(0.5 * edges[left] + 0.5 * edges[left + 1], probs, offsets)


def _quantile_masses(levels: np.ndarray, values: np.ndarray, offsets: np.ndarray):
    # Each value carries the mass between the midpoints to its neighbors;
    # the outer values run to 0 and 1.
    mids = 0.5 * (levels[:-1] + levels[1:])
    upper = np.append(mids, 1.0)
    upper[offsets[1:] - 1] = 1.0
    lower = np.insert(mids, 0, 0.0)
    lower[offsets[:-1]] = 0.0
    return _merge_equal(values, upper - lower, offsets)


def _sample_masses(values: np.ndarray, offsets: np.ndarray):
    rec = _record_ids(offsets)
    values = values[np.lexsort((values, rec))]
    new = _run_starts(values, offsets)
    probs = np.bincount(np.cumsum(new) - 1) / np.diff(offsets)[rec[new]]
    return values[new], probs, np.bincount(rec[new], minlength=offsets.size - 1)


def _discrete_masses(points: np.ndarray, probs: np.ndarray, offsets: np.ndarray):
    return points, probs, np.diff(offsets)


_TO_MASSES = {
    DiscreteForecast: _discrete_masses,
    HistogramForecast: _histogram_masses,
    QuantileForecast: _quantile_masses,
    SampleForecast: _sample_masses,
}

# Each form's constructor arguments, in order: the fields it is read, written and converted by.
_INIT_FIELDS = {form: tuple(f.name for f in fields(form) if f.init) for form in _TO_MASSES}


def _spread_equal_runs(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Strictly increasing copy of per-record sorted ``values``.

    Runs of equal values are spread symmetrically around the shared value
    by eps_w = max(1e-9, 1e-9 * |value|) per step, keeping zero-width bins
    finite without shifting their location.
    """
    edges = np.array(values, dtype=float)
    new = _run_starts(edges, offsets)
    size = np.bincount(np.cumsum(new) - 1)
    first = np.flatnonzero(new)[size > 1]
    size = size[size > 1]
    step = np.arange(size.sum()) - np.repeat(_offsets(size)[:-1], size)
    at = np.repeat(first, size) + step
    v = edges[at]
    eps = np.maximum(1e-9, 1e-9 * np.abs(v))
    edges[at] = v + eps * (step - np.repeat((size - 1) / 2, size))
    # Guard for pathological near-ties after spreading, record by record.
    unordered = edges[1:] <= edges[:-1]
    unordered[offsets[1:-1] - 1] = False  # no order across records
    for r in np.unique(np.searchsorted(offsets, np.flatnonzero(unordered), side="right") - 1):
        for k in range(offsets[r] + 1, offsets[r + 1]):
            if edges[k] <= edges[k - 1]:
                edges[k] = np.nextafter(edges[k - 1], np.inf)
    return edges


def _histogram_bins(edges: np.ndarray, probs: np.ndarray, offsets: np.ndarray):
    return edges, np.insert(probs, offsets[1:], 0.0), np.diff(offsets) + 1


def _quantile_bins(levels: np.ndarray, values: np.ndarray, offsets: np.ndarray):
    """Spread quantile values as edges and level gaps over their record's
    total as bin masses; a record of one level forms no bin."""
    sizes = np.diff(offsets)
    keep = np.repeat(sizes > 1, sizes)
    sizes[sizes == 1] = 0
    offsets = _offsets(sizes[sizes > 0])
    edges = _spread_equal_runs(values[keep], offsets)
    masses = np.diff(levels[keep], append=0.0)
    masses[offsets[1:] - 1] = 0.0
    for _, cols in _SizeGroups(offsets).chunks():
        masses[cols] /= masses[cols[:, :-1]].sum(axis=1, keepdims=True)
    return edges, masses, sizes


_TO_BINS = {
    HistogramForecast: _histogram_bins,
    QuantileForecast: _quantile_bins,
}


def histogram_to_discrete(h: HistogramForecast) -> DiscreteForecast:
    """Collapse a histogram to point masses at the centers of nonempty bins."""
    return to_discrete(h)


def quantiles_to_discrete(q: QuantileForecast) -> DiscreteForecast:
    """Turn quantiles into point masses via the midpoint partition of (0, 1).

    Each value receives the probability mass between the midpoints of its
    neighboring levels (the outer values absorb the open tails), so all
    mass stays on observed values.  Equal values are merged.
    """
    return to_discrete(q)


def quantiles_to_histogram(q: QuantileForecast) -> HistogramForecast:
    """Use quantile values as bin edges and level gaps as bin masses.

    The mass in the two open tails is discarded and the remaining masses
    renormalized uniformly.  Needs at least two levels to form a bin.
    """
    return to_histogram(q)


def samples_to_discrete(s: SampleForecast) -> DiscreteForecast:
    """Empirical distribution of the samples: distinct values, frequencies."""
    return to_discrete(s)


def to_discrete(forecast: Forecast) -> DiscreteForecast:
    """Convert any forecast form to the canonical point-mass form."""
    if isinstance(forecast, DiscreteForecast):
        return forecast
    return ForecastBatch.from_forecasts([forecast]).record(0)


def to_histogram(forecast: Forecast) -> HistogramForecast:
    """Convert to histogram form where a density exists.

    The one-record call of :meth:`HistogramBatch.from_forecasts`.  Sample
    and point-mass forecasts have no bin widths and therefore no density,
    and one quantile level forms no bin, so these are not convertible.
    """
    hists = HistogramBatch.from_forecasts([forecast])
    if hists.edges.size == 0:
        raise NotConvertibleError(
            f"{type(forecast).__name__} has no density; histogram scores are undefined"
        )
    return _view(HistogramForecast, edges=_readonly(hists.edges), probs=_readonly(hists.probs[:-1]))
