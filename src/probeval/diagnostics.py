"""Batch-level calibration and concentration diagnostics.

Sharpness is the average predicted standard deviation, dispersion the
population standard deviation of the per-instance standard deviations,
and coverage the fraction of observations inside central prediction
intervals read off the forecast CDFs.  None of these is a proper scoring
rule; they complement the scores in :mod:`probeval.scoring`, and each is
the batch mean that :func:`probeval.scoring.score_batch` gives its metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .forecast import DiscreteForecast
from .io import ForecastRecord
from .scoring import MetricSpec, resolve_metric, score_batch


@dataclass(frozen=True)
class CalibrationReport:
    """Sharpness and dispersion in target units, coverage per nominal level."""

    sharpness: float
    dispersion: float
    coverage: dict[float, float]


def _means(pairs: Iterable[tuple[DiscreteForecast, float]], specs: list) -> list[float]:
    """The ``score_batch`` mean of each spec over (forecast, observation)
    pairs, NaN where ``score_batch`` omits the metric as undefined."""
    records = [ForecastRecord(str(i), y, f) for i, (f, y) in enumerate(pairs)]
    results = score_batch(records, specs)
    return [results[s.name].mean if s.name in results else math.nan for s in specs]


def sharpness(forecasts: Iterable[DiscreteForecast]) -> float:
    """Mean of the per-instance predictive standard deviations."""
    # Sharpness and dispersion read no observation, so any target will do.
    return _means(((f, 0.0) for f in forecasts), [resolve_metric("sharpness")])[0]


def dispersion(forecasts: Iterable[DiscreteForecast]) -> float:
    """Population standard deviation of the per-instance standard deviations.

    The 1/N normalization makes a single-forecast batch well defined
    (dispersion zero).
    """
    return _means(((f, 0.0) for f in forecasts), [resolve_metric("dispersion")])[0]


def coverage(batch: Sequence[tuple[DiscreteForecast, float]], level: float) -> float:
    """Empirical coverage of the central ``level`` prediction intervals.

    Interval bounds come from the generalized inverse CDF and are
    inclusive; atomic CDFs can therefore over-cover the nominal level,
    which is reported as observed rather than corrected.
    """
    # Named by the level itself, so nearby levels of one report (0.9, 0.901) differ.
    return _means(batch, [MetricSpec(f"coverage_{level}", level=level)])[0]


def calibration_report(
    batch: Sequence[tuple[DiscreteForecast, float]],
    levels: Sequence[float] = (0.90, 0.95),
) -> CalibrationReport:
    """Sharpness, dispersion, and coverage at the requested levels."""
    specs = [resolve_metric("sharpness"), resolve_metric("dispersion")]
    specs += [MetricSpec(f"coverage_{level}", level=level) for level in levels]
    sharp, spread, *covered = _means(batch, specs)
    return CalibrationReport(sharp, spread, coverage=dict(zip(levels, covered)))
