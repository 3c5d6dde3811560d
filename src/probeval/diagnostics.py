"""Batch-level calibration and concentration diagnostics.

Sharpness is the average predicted standard deviation, dispersion the
population standard deviation of the per-instance standard deviations,
and coverage the fraction of observations inside central prediction
intervals read off the forecast CDFs.  None of these is a proper scoring
rule; they complement the scores in :mod:`probeval.scoring`, whose batch
kernels compute them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyBatchError
from .forecast import DiscreteForecast, ForecastBatch
from .scoring import MetricSpec, coverage_kernel, dispersion_kernel, sharpness_kernel


@dataclass(frozen=True)
class CalibrationReport:
    """Sharpness and dispersion in target units, coverage per nominal level."""

    sharpness: float
    dispersion: float
    coverage: dict[float, float]


def _pack(forecasts: Iterable[DiscreteForecast]) -> ForecastBatch:
    batch = ForecastBatch.from_forecasts(forecasts)
    if batch.n == 0:
        raise EmptyBatchError("diagnostics need at least one forecast")
    return batch


def _coverage_spec(level: float) -> MetricSpec:
    return MetricSpec(f"coverage_{level}", level=level)


def sharpness(forecasts: Iterable[DiscreteForecast]) -> float:
    """Mean of the per-instance predictive standard deviations."""
    return float(np.mean(sharpness_kernel(_pack(forecasts), None, None)))


def dispersion(forecasts: Iterable[DiscreteForecast]) -> float:
    """Population standard deviation of the per-instance standard deviations.

    The 1/N normalization makes a single-forecast batch well defined
    (dispersion zero).
    """
    return dispersion_kernel(_pack(forecasts), None, None)


def coverage(batch: Sequence[tuple[DiscreteForecast, float]], level: float) -> float:
    """Empirical coverage of the central ``level`` prediction intervals.

    Interval bounds come from the generalized inverse CDF and are
    inclusive; atomic CDFs can therefore over-cover the nominal level,
    which is reported as observed rather than corrected.
    """
    spec = _coverage_spec(level)
    batch = list(batch)
    if not batch:
        raise EmptyBatchError("coverage needs at least one (forecast, observation) pair")
    packed = ForecastBatch.from_forecasts(f for f, _ in batch)
    targets = np.array([y for _, y in batch], dtype=float)
    return float(np.mean(coverage_kernel(packed, targets, spec)))


def calibration_report(
    batch: Sequence[tuple[DiscreteForecast, float]],
    levels: Sequence[float] = (0.90, 0.95),
) -> CalibrationReport:
    """Sharpness, dispersion, and coverage at the requested levels."""
    batch = list(batch)
    packed = _pack(f for f, _ in batch)
    targets = np.array([y for _, y in batch], dtype=float)
    return CalibrationReport(
        sharpness=float(np.mean(sharpness_kernel(packed, targets, None))),
        dispersion=dispersion_kernel(packed, targets, None),
        coverage={
            level: float(np.mean(coverage_kernel(packed, targets, _coverage_spec(level))))
            for level in levels
        },
    )
