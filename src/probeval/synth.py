"""Seed-deterministic synthetic scenarios with known ground truth.

``dominant`` makes model 0 strictly best everywhere, ``intransitive_triple``
builds a balanced rock-paper-scissors cycle over dataset blocks of three
(each model beats one rival on two thirds of the datasets, so all average
ranks are exactly 2), and ``iid_null`` draws every cell independently.
Scenario values sit on a unit scale with a fixed gap of 1.0 between rank
positions and fold noise bounded by 0.25, so the intended rank structure
is exact and never tie-broken by floating noise.

``generate_self_calibrated_batch`` pairs each forecast with an observation
drawn from that same forecast, the oracle for coverage and propriety
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidScenarioError
from .forecast import DiscreteForecast, HistogramForecast
from .io import ForecastRecord
from .ranking import RunRecord
from .scoring import resolve_metric

KINDS = ("dominant", "intransitive_triple", "iid_null", "self_calibrated")

# Stream tags keep the scenario draws disjoint from each other and from
# the leaderboard shuffles.
_BASE_STREAM = 0x62617365
_NOISE_STREAM = 0x6E6F6973
_TRUTH_STREAM = 0x74727574

_GAP = 1.0
_NOISE_HALF_WIDTH = 0.25


@dataclass(frozen=True)
class ScenarioSpec:
    """Scenario kind plus model/dataset/fold counts and the seed."""

    kind: str
    models: int
    datasets: int
    folds: int
    seed: int
    metric: str = "crps"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidScenarioError(f"unknown scenario kind {self.kind!r}; choices: {', '.join(KINDS)}")
        if min(self.models, self.datasets, self.folds) < 1:
            raise InvalidScenarioError("models, datasets, and folds must all be >= 1")
        if self.kind == "intransitive_triple":
            if self.models != 3:
                raise InvalidScenarioError("intransitive_triple requires exactly 3 models")
            if self.datasets % 3 != 0:
                raise InvalidScenarioError("intransitive_triple requires datasets divisible by 3")
        resolve_metric(self.metric)


def generate_runs(spec: ScenarioSpec) -> list[RunRecord]:
    """Run records for a scenario, lower value = better."""
    if spec.kind == "self_calibrated":
        raise InvalidScenarioError(
            "self_calibrated emits forecast records; use generate_self_calibrated_batch"
        )
    n_d, n_m, n_f = spec.datasets, spec.models, spec.folds
    d_ix = np.arange(n_d, dtype=np.uint64)[:, None, None]
    m_ix = np.arange(n_m, dtype=np.uint64)[None, :, None]
    k_ix = np.arange(n_f, dtype=np.uint64)[None, None, :]

    if spec.kind == "iid_null":
        values = rng.uniform01(spec.seed, _NOISE_STREAM, d_ix, m_ix, k_ix)
    else:
        base = rng.uniform01(spec.seed, _BASE_STREAM, np.arange(n_d, dtype=np.uint64))
        noise = _NOISE_HALF_WIDTH * (
            2.0 * rng.uniform01(spec.seed, _NOISE_STREAM, d_ix, m_ix, k_ix) - 1.0
        )
        if spec.kind == "dominant":
            position = np.arange(n_m, dtype=float)[None, :, None]
        else:  # intransitive_triple: the best model cycles across dataset blocks
            offsets = (np.arange(n_d) % 3)[:, None, None]
            position = (np.arange(n_m)[None, :, None] - offsets) % 3
        values = base[:, None, None] + _GAP * position + noise

    return [
        RunRecord(
            model=f"model_{m:02d}",
            dataset=f"dataset_{d:03d}",
            fold=k,
            metric=spec.metric,
            value=float(values[d, m, k]),
        )
        for d in range(n_d)
        for m in range(n_m)
        for k in range(n_f)
    ]


def _self_calibrated_instance(seed: int, index: int) -> tuple[DiscreteForecast, float]:
    # One uniform block per instance: [size, 8 point draws, 8 weight draws, y draw].
    u = rng.uniform01(seed, _TRUTH_STREAM, index, np.arange(18, dtype=np.uint64))
    size = 2 + int(u[0] * 7.0)
    points = np.sort(10.0 * u[1 : 1 + size] - 5.0)
    if np.any(np.diff(points) <= 0):
        points = points + np.arange(size) * 1e-12
    # Shifted exponentials keep every mass bounded away from zero.
    weights = 0.05 - np.log(np.maximum(1.0 - u[9 : 9 + size], 1e-300))
    probs = weights / weights.sum()
    forecast = DiscreteForecast(points, probs)
    cum = np.cumsum(probs)
    draw = min(int(np.searchsorted(cum, u[17], side="right")), size - 1)
    return forecast, float(points[draw])


def generate_self_calibrated_batch(n: int, seed: int) -> list[tuple[DiscreteForecast, float]]:
    """(forecast, observation) pairs where each y is drawn from its forecast.

    Truths are random discrete distributions on 2..8 support points;
    sampling uses the forecast's own inverse CDF, so the batch is
    self-calibrated by construction.
    """
    if n < 1:
        raise InvalidScenarioError("n must be >= 1")
    return [_self_calibrated_instance(seed, i) for i in range(n)]


def _embed_as_histogram(f: DiscreteForecast) -> HistogramForecast:
    """Histogram whose nonempty bin centers are exactly the support points.

    Each point gets a narrow bin centered on it; zero-mass spacer bins
    fill the gaps, so histogram_to_discrete recovers the distribution.
    """
    pts = f.points
    if pts.size == 1:
        half = np.array([0.5])
    else:
        gaps = np.diff(pts)
        half = np.minimum(np.concatenate(([gaps[0]], gaps)), np.concatenate((gaps, [gaps[-1]]))) / 4.0
    edges = np.column_stack((pts - half, pts + half)).ravel()
    probs = np.zeros(2 * pts.size - 1)
    probs[::2] = f.probs
    return HistogramForecast(edges, probs)


def self_calibrated_records(n: int, seed: int) -> list[ForecastRecord]:
    """Self-calibrated batch in the forecast-record wire format."""
    return [
        ForecastRecord(id=str(i), target=y, forecast=_embed_as_histogram(f))
        for i, (f, y) in enumerate(generate_self_calibrated_batch(n, seed))
    ]
