import copy
import csv
import math
import pickle

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import ndtr
from scipy.stats import norm

import oracle
from conftest import random_discrete
from probeval import scoring, synth
from probeval import (
    DiscreteForecast,
    ForecastBatch,
    HistogramForecast,
    MetricSpec,
    QuantileForecast,
    SampleForecast,
    brier_score,
    calibration_report,
    coverage,
    crls,
    crps,
    dispersion,
    energy_score,
    interval_score,
    log_score,
    point_metrics,
    quantiles_to_histogram,
    read_forecasts,
    resolve_metric,
    score_batch,
    sharpness,
    wcrps,
)
from probeval.errors import (
    ConversionWarning,
    EmptyBatchError,
    InvalidBetaError,
    InvalidLevelError,
    InvalidScaleError,
    OutsideSupportError,
    UnknownMetricError,
)
from probeval.io import ForecastRecord
from probeval.scoring import _MAXLOG, _ndtr, family_spec

TWO_POINT = DiscreteForecast([0.0, 1.0], [0.5, 0.5])


def energy_oracle(points, probs, y, beta):
    """Plain double-sum reference, independent of the library path."""
    term1 = sum(p * abs(x - y) ** beta for p, x in zip(probs, points))
    term2 = 0.5 * sum(
        pi * pj * abs(xi - xj) ** beta
        for pi, xi in zip(probs, points)
        for pj, xj in zip(probs, points)
    )
    return term1 - term2


def crls_quadrature(f, y, nodes=1_000_000):
    """Midpoint-rule quadrature of the CRLS integrand with the same clamp."""
    lo = min(float(f.points[0]), y)
    hi = max(float(f.points[-1]), y)
    if hi == lo:
        return 0.0
    xs = lo + (np.arange(nodes) + 0.5) * (hi - lo) / nodes
    cum = np.concatenate(([0.0], np.cumsum(f.probs)))
    cdf = cum[np.searchsorted(f.points, xs, side="right")]
    arg = np.abs(cdf + (xs >= y) - 1.0)
    return float(np.mean(-np.log(np.maximum(arg, 1e-12))) * (hi - lo))


def wcrps_quadrature(f, y, kind, loc, scale, nodes=1_000_000):
    """Riemann-sum reference for the weighted CRPS."""
    lo = min(float(f.points[0]), y)
    hi = max(float(f.points[-1]), y)
    xs = lo + (np.arange(nodes) + 0.5) * (hi - lo) / nodes
    cum = np.concatenate(([0.0], np.cumsum(f.probs)))
    cdf = cum[np.searchsorted(f.points, xs, side="right")]
    z = (xs - loc) / scale
    weight = {
        "left": 1.0 - norm.cdf(z),
        "right": norm.cdf(z),
        "center": norm.pdf(z),
        "unit": np.ones_like(z),
    }[kind]
    sq = (cdf - (xs >= y)) ** 2
    return float(np.mean(weight * sq) * (hi - lo))


class TestCrps:
    def test_point_mass_at_observation(self):
        assert crps(DiscreteForecast([2.0], [1.0]), 2.0) == 0.0

    def test_degenerate_forecast_is_absolute_error(self):
        f = DiscreteForecast([3.0], [1.0])
        assert crps(f, 1.5) == pytest.approx(1.5, abs=1e-12)
        assert crps(f, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_example(self):
        # double-sum oracle: E|X - 0| - 0.5 E|X - X'| = 0.5 - 0.25
        assert energy_oracle([0, 1], [0.5, 0.5], 0.0, 1.0) == pytest.approx(0.25)
        assert crps(TWO_POINT, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_matches_energy_beta1_on_random_forecasts(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            f = random_discrete(rng, max_support=50)
            y = float(rng.uniform(-2, 2))
            span = float(f.points[-1] - f.points[0])
            tol = 1e-9 * (1 + abs(y) + span)
            assert abs(crps(f, y) - energy_score(f, y, 1.0)) <= tol

    def test_crps_is_the_unit_weight_wcrps_kernel(self):
        records = [ForecastRecord(str(i), y, f) for i, (y, f) in enumerate([
            (0.3, TWO_POINT), (-1.0, SampleForecast([0.5, 2.0, 2.0, 3.0])),
            (1.0, QuantileForecast([0.1, 0.5, 0.9], [0.0, 1.0, 4.0])),
            (2.5, HistogramForecast([0.0, 1.0, 3.0], [0.25, 0.75])),
        ])]
        specs = ["crps", MetricSpec("c", kernel=scoring.crps_kernel),
                 MetricSpec("u", weight_kind="unit")]
        together = score_batch(records, specs)
        for spec in specs:
            alone = next(iter(score_batch(records, [spec]).values()))
            assert alone.values.tobytes() == together["crps"].values.tobytes()
        for name in ("c", "u"):
            assert together[name].values.tobytes() == together["crps"].values.tobytes()

    def test_an_invalid_explicit_reference_is_checked(self):
        spec = MetricSpec("crps", weight_loc=0.0, weight_scale=-1.0)
        with pytest.raises(InvalidScaleError, match="weight scale must be > 0"):
            score_batch([ForecastRecord("a", 0.0, TWO_POINT)], [spec])

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_discrete(rng, max_support=10)
            y = float(rng.uniform(-2, 2))
            base = crps(f, y)
            shifted = DiscreteForecast(f.points + 3.0, f.probs)
            assert crps(shifted, y + 3.0) == pytest.approx(base, rel=1e-12)
            doubled = DiscreteForecast(f.points * 2.0, f.probs)
            assert crps(doubled, y * 2.0) == 2.0 * base  # exact for powers of two


class TestCrls:
    def test_point_mass_at_observation(self):
        assert crls(DiscreteForecast([2.0], [1.0]), 2.0) == 0.0

    def test_two_point_inside(self):
        assert crls(TWO_POINT, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_observation_outside_support_is_clamped(self):
        expected = math.log(2) - math.log(1e-12)  # -log(0.5) on [0,1) plus clamp on [1,2)
        got = crls(TWO_POINT, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(crls_quadrature(TWO_POINT, 2.0), rel=1e-4)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            size = int(rng.integers(2, 7))
            points = np.sort(rng.uniform(-2, 2, size=size))
            weights = rng.exponential(size=size) + 0.5
            f = DiscreteForecast(points, weights / weights.sum())
            for y in (float(rng.uniform(-2, 2)), float(points[-1] + rng.uniform(0.5, 2))):
                assert crls(f, y) == pytest.approx(crls_quadrature(f, y), rel=1e-4)


class TestLogScore:
    def test_unit_density(self):
        assert log_score(HistogramForecast([0, 1], [1.0]), 0.5) == 0.0

    def test_an_exact_zero_is_positive(self):
        assert math.copysign(1.0, log_score(HistogramForecast([0, 1], [1.0]), 0.5)) == 1.0

    def test_quantiles_issue_the_batch_conversion_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log_score(QuantileForecast([0.25, 0.75], [0.0, 1.0]), 0.5)
        assert [(w.category, str(w.message)) for w in caught] == [
            (ConversionWarning, "1 quantile record(s) converted to histograms for density scores"),
        ]

    def test_wide_bin(self):
        assert log_score(HistogramForecast([0, 2], [1.0]), 0.5) == pytest.approx(math.log(2))

    def test_direct_density(self):
        h = HistogramForecast([0, 1, 2], [0.2, 0.8])
        assert log_score(h, 1.5) == pytest.approx(-math.log(0.8))

    def test_zero_probability_bin_clamped(self):
        h = HistogramForecast([0, 1, 2], [0.0, 1.0])
        assert log_score(h, 0.5) == pytest.approx(-math.log(1e-12))

    def test_outside_support_uses_nearest_bin(self):
        h = HistogramForecast([0, 1, 3], [0.5, 0.5])
        assert log_score(h, -1.0) == pytest.approx(-math.log(1e-12 / 1.0))
        assert log_score(h, 9.0) == pytest.approx(-math.log(1e-12 / 2.0))

    def test_boundary_conventions(self):
        h = HistogramForecast([0, 1, 2], [0.2, 0.8])
        assert log_score(h, 1.0) == pytest.approx(-math.log(0.8))  # left-closed
        assert log_score(h, 2.0) == pytest.approx(-math.log(0.8))  # last bin right-closed

    def test_subnormal_bin_width_does_not_overflow(self):
        # p / width overflows to inf for a bin 5e-324 wide; the score is
        # log(width) - log(p), about -743.7, not -inf.
        q = QuantileForecast([0.01, 0.02, 0.03], [0.0, 5e-324, 0.25])
        h = quantiles_to_histogram(q)
        value = math.log(5e-324) - math.log(float(h.probs[0]))
        assert value == pytest.approx(-743.7469, abs=1e-3)
        expected = pytest.approx(value, rel=1e-12)
        assert log_score(h, 0.0) == expected
        assert oracle.log_score(h.edges, h.probs, 0.0) == expected
        with pytest.warns(ConversionWarning):
            result = score_batch([ForecastRecord("q", 0.0, q)], ["log_score"])
        assert result["log_score"].values[0] == expected

    def test_a_bin_wider_than_the_float_range(self):
        # The width 2e308 overflows; its log is log(1e308) + log(2).
        h = HistogramForecast([-1e308, 1e308], [1.0])
        q = QuantileForecast([0.25, 0.75], [-1e308, 1e308])
        assert math.log(1e308) + math.log(2.0) == 709.889355822726
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_score(h, 0.5) == 709.889355822726
            assert log_score(h, 2e307) == 709.889355822726
            assert log_score(h, 1.7e308) == 709.889355822726 - math.log(1e-12)
            assert log_score(quantiles_to_histogram(q), 0.5) == 709.889355822726
        records = [ForecastRecord("e", 0.5, q), ForecastRecord("f", 0.5, h)]
        with pytest.warns(ConversionWarning):
            result = score_batch(records, ["log_score"])
        assert result["log_score"].values.tolist() == [709.889355822726] * 2


class TestBrierScore:
    def test_one_hot_forecast(self):
        assert brier_score(HistogramForecast([0, 1, 2], [1.0, 0.0]), 0.5) == 0.0

    def test_even_split(self):
        assert brier_score(HistogramForecast([0, 1, 2], [0.5, 0.5]), 1.5) == pytest.approx(0.5)

    def test_uniform_four_bins(self):
        h = HistogramForecast([0, 1, 2, 3, 4], [0.25] * 4)
        for y in (0.5, 1.5, 2.5, 3.5):
            assert brier_score(h, y) == pytest.approx(0.75)

    def test_outside_support_raises(self):
        with pytest.raises(OutsideSupportError):
            brier_score(HistogramForecast([0, 1], [1.0]), 2.0)

    def test_outside_support_names_the_observation_and_the_grid(self):
        with pytest.raises(OutsideSupportError) as info:
            brier_score(HistogramForecast([0, 1], [1.0]), 2.0)
        assert str(info.value) == "observation 2.0 outside histogram support [0.0, 1.0]"


class TestIntervalScore:
    # TWO_POINT has quantile(0.05) = 0 and quantile(0.95) = 1.

    def test_inside_interval(self):
        assert interval_score(TWO_POINT, 0.5, 0.1) == pytest.approx(1.0)

    def test_above_interval(self):
        assert interval_score(TWO_POINT, 1.5, 0.1) == pytest.approx(11.0)

    def test_below_interval(self):
        assert interval_score(TWO_POINT, -0.25, 0.1) == pytest.approx(6.0)

    def test_invalid_alpha(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidLevelError):
                interval_score(TWO_POINT, 0.5, alpha)

    def test_lower_bound_is_width(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            f = random_discrete(rng, max_support=12)
            y = float(rng.uniform(-2, 2))
            lower, upper = f.quantile(0.05), f.quantile(0.95)
            score = interval_score(f, y, 0.1)
            assert score >= upper - lower - 1e-12
            if lower <= y <= upper:
                assert score == pytest.approx(upper - lower)
            else:
                assert score > upper - lower


class TestEnergyScore:
    def test_beta2_is_squared_mean_error(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            f = random_discrete(rng, max_support=20)
            y = float(rng.uniform(-3, 3))
            expected = (f.mean() - y) ** 2
            span = float(f.points[-1] - f.points[0])
            tol = 1e-9 * expected + 1e-13 * (span + abs(y - f.mean())) ** 2
            assert abs(energy_score(f, y, 2.0) - expected) <= tol

    def test_beta1_two_point(self):
        assert energy_score(TWO_POINT, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_fractional_beta(self):
        expected = 0.5 * (math.sqrt(2) + 1) - 0.25
        assert energy_score(TWO_POINT, 2.0, 0.5) == pytest.approx(expected, abs=1e-12)
        assert energy_score(TWO_POINT, 2.0, 0.5) == pytest.approx(
            energy_oracle([0, 1], [0.5, 0.5], 2.0, 0.5), abs=1e-12
        )

    def test_invalid_beta(self):
        for beta in (0.0, -1.0, 2.5):
            with pytest.raises(InvalidBetaError):
                energy_score(TWO_POINT, 0.0, beta)

    def test_scale_equivariance_with_beta_power(self):
        rng = np.random.default_rng(13)
        for beta in (0.5, 1.0, 1.5):
            f = random_discrete(rng, max_support=8)
            y = float(rng.uniform(-1, 1))
            doubled = DiscreteForecast(f.points * 2.0, f.probs)
            assert energy_score(doubled, 2.0 * y, beta) == pytest.approx(
                2.0**beta * energy_score(f, y, beta), rel=1e-12
            )

    def test_a_support_wider_than_the_float_range(self):
        wide = SampleForecast([-1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert energy_score(wide, 0.0, 1.0) == crps(wide, 0.0) == 5e307
            assert energy_score(wide, 0.0, 0.5) == 6.4644660940672635e153
            assert energy_score(wide, 0.0, 0.5) == pytest.approx(
                (1.0 - math.sqrt(2.0) / 4.0) * 1e154, rel=1e-12
            )
            records = [ForecastRecord("a", 0.3, TWO_POINT), ForecastRecord("wide", 0.0, wide),
                       ForecastRecord("b", 2.0, SampleForecast([1.0, 4.0]))]
            names = [f"energy_score_beta_{beta}" for beta in (0.5, 1.0)]
            results = score_batch(records, names)
            for name, beta in zip(names, (0.5, 1.0)):
                assert results[name].values[1] == energy_score(wide, 0.0, beta)
                assert results[name].values[[0, 2]].tolist() == [
                    energy_score(TWO_POINT, 0.3, beta),
                    energy_score(SampleForecast([1.0, 4.0]), 2.0, beta),
                ]


class TestWcrps:
    def test_unit_weight_recovers_crps(self):
        rng = np.random.default_rng(31)
        spec = MetricSpec("wcrps_left", weight_kind="unit")
        for _ in range(100):
            f = random_discrete(rng, max_support=30)
            y = float(rng.uniform(-2, 2))
            assert abs(wcrps(f, y, spec) - crps(f, y)) <= 1e-6

    def test_point_mass_any_weight(self):
        f = DiscreteForecast([1.5], [1.0])
        for kind in ("left", "right", "center", "unit"):
            spec = MetricSpec("wcrps_" + kind if kind != "unit" else "wcrps_left",
                              weight_kind=kind, weight_loc=0.0, weight_scale=1.0)
            assert wcrps(f, 1.5, spec) == 0.0

    def test_left_weight_example_against_riemann_oracle(self):
        spec = MetricSpec("wcrps_left", weight_kind="left", weight_loc=0.5, weight_scale=1.0)
        got = wcrps(TWO_POINT, 0.0, spec)
        # By symmetry the weight integrates to 1/2 over [0, 1]; the squared
        # CDF term is constant 1/4 there, so the exact value is 1/8.
        assert got == pytest.approx(0.125, abs=1e-12)
        assert abs(got - wcrps_quadrature(TWO_POINT, 0.0, "left", 0.5, 1.0)) <= 1e-5

    def test_all_kinds_against_riemann_oracle(self):
        rng = np.random.default_rng(99)
        for kind in ("left", "right", "center"):
            f = random_discrete(rng, max_support=8)
            y = float(rng.uniform(-1.5, 1.5))
            spec = MetricSpec(f"wcrps_{kind}", weight_kind=kind, weight_loc=0.2, weight_scale=0.8)
            assert wcrps(f, y, spec) == pytest.approx(
                wcrps_quadrature(f, y, kind, 0.2, 0.8), abs=1e-5
            )

    def test_invalid_scale(self):
        spec = MetricSpec("wcrps_left", weight_kind="left", weight_loc=0.0, weight_scale=-1.0)
        with pytest.raises(InvalidScaleError):
            wcrps(TWO_POINT, 0.0, spec)

    @pytest.mark.parametrize("ref", [{"weight_loc": 5.0}, {"weight_scale": 2.0}])
    def test_half_set_reference_is_rejected(self, ref):
        # score_batch used to read a half-set reference as none at all, the
        # scalar wcrps as the missing half's default.
        with pytest.raises(ValueError, match="weight_loc and weight_scale"):
            MetricSpec("wcrps_left", weight_kind="left", **ref)

    def test_batch_and_scalar_read_a_reference_alike(self):
        spec = MetricSpec("wcrps_left", weight_kind="left", weight_loc=5.0, weight_scale=1.0)
        records = [ForecastRecord(str(i), float(i), TWO_POINT) for i in range(3)]
        got = score_batch(records, [spec])["wcrps_left"].values
        assert got.tolist() == [wcrps(TWO_POINT, r.target, spec) for r in records]
        bare = MetricSpec("wcrps_left", weight_kind="left")
        assert wcrps(TWO_POINT, 0.0, bare) == wcrps(TWO_POINT, 0.0, replace(
            spec, weight_loc=0.0, weight_scale=1.0))

    def test_unit_weight_is_crps_on_constant_targets(self):
        # The unit weight reads no batch reference, so zero spread is no error.
        records = [ForecastRecord(str(i), 1.0, f) for i, f in enumerate(
            [TWO_POINT, DiscreteForecast([0.5, 2.0, 3.0], [0.2, 0.5, 0.3]), SampleForecast([1.0])])]
        results = score_batch(records, ["crps", MetricSpec("u", weight_kind="unit")])
        assert results["u"].values.tobytes() == results["crps"].values.tobytes()

    def test_unit_weight_still_checks_an_explicit_reference(self):
        spec = MetricSpec("u", weight_kind="unit", weight_loc=0.0, weight_scale=-1.0)
        records = [ForecastRecord(str(i), 1.0, TWO_POINT) for i in range(3)]
        with pytest.raises(InvalidScaleError, match="weight scale must be > 0"):
            score_batch(records, [spec])

    @pytest.mark.parametrize("kind, expected", [
        ("left", 2.5e199), ("right", 2.5e199), ("center", 2.5e39),
    ])
    def test_a_weight_whose_z_squared_overflows(self, kind, expected):
        # z = +-1e160 at the support's ends: z * z overflows and the density
        # there is exactly 0, so no kind warns, whichever kinds are requested.
        spec = MetricSpec("w", weight_kind=kind, weight_loc=0.0, weight_scale=1e40)
        records = [ForecastRecord("a", 0.0, SampleForecast([-1e200, 1e200]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score_batch(records, [spec])["w"].values.tolist() == [expected]

    @pytest.mark.parametrize("loc, scale", [(math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0)])
    def test_non_finite_reference(self, loc, scale):
        spec = MetricSpec("wcrps_left", weight_kind="left", weight_loc=loc, weight_scale=scale)
        with pytest.raises(InvalidScaleError, match="finite"):
            wcrps(TWO_POINT, 0.0, spec)


def ndtr_port(a) -> np.ndarray:
    """``_ndtr(a)``, failing on any warning it emits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _ndtr(a)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    differ = (got.view(np.int64) != want.view(np.int64)) & ~(np.isnan(got) & np.isnan(want))
    assert not differ.any(), (got[differ][:5], want[differ][:5])


# cephes ndtr's branch edges on its argument a: |a / sqrt(2)| against sqrt(1/2),
# 1 and 8, and (a / sqrt(2))^2 against MAXLOG.
NDTR_EDGES = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG)])
SIGNALLING_NAN = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)


class TestNdtr:
    """The Gaussian wCRPS weights' normal CDF has scipy.special.ndtr's bits."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=20),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True, width=64)))
    def test_any_float64_matches_scipy(self, a):
        assert_same_bits(ndtr_port(a), ndtr(a))

    def test_branch_edges_and_special_values(self):
        edges = np.concatenate([NDTR_EDGES, -NDTR_EDGES])
        a = np.concatenate([
            edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 37.5, -37.5,
             38.5, -38.5, 1e200, -1e200, np.finfo(float).max, -np.finfo(float).max],
            SIGNALLING_NAN,
        ])
        assert_same_bits(ndtr_port(a), ndtr(a))

    def test_random_arguments_match_scipy(self):
        rng = np.random.default_rng(2026)
        magnitudes = np.exp(rng.uniform(-30.0, 6.0, 50_000)) * rng.choice([-1.0, 1.0], 50_000)
        a = np.concatenate([rng.normal(0.0, 3.0, 50_000), rng.uniform(-40.0, 40.0, 50_000),
                            rng.uniform(-1.5, 1.5, 50_000), magnitudes])
        assert_same_bits(ndtr_port(a), ndtr(a))

    @pytest.mark.parametrize("a", [np.float64(-1.25), np.array(2.5), np.empty(0),
                                   np.empty((0, 3)), np.linspace(-12.0, 12.0, 12).reshape(3, 4)])
    def test_shape_is_kept(self, a):
        got = ndtr_port(a)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(a)
        assert_same_bits(got, ndtr(a))


class TestPointMetrics:
    def test_perfect_predictions(self):
        pm = point_metrics([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
        assert pm.mae == 0.0
        assert pm.rmse == 0.0
        assert pm.r2 == 1.0

    def test_null_model_r2_zero(self):
        y = [0.0, 1.0, 2.0]
        pm = point_metrics([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], y)
        assert pm.r2 == pytest.approx(0.0)

    def test_hand_sum(self):
        pm = point_metrics([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
        assert pm.r2 == pytest.approx(-1.5)

    def test_zero_variance_targets(self):
        pm = point_metrics([1.0, 1.0], [1.0, 1.0], [2.0, 2.0])
        assert pm.r2 is None

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            point_metrics([], [], [])


class TestMetricRegistry:
    def test_r2_is_the_only_higher_better(self):
        from probeval import HIGHER_BETTER, METRIC_NAMES

        higher = [n for n in METRIC_NAMES if resolve_metric(n).orientation == HIGHER_BETTER]
        assert higher == ["r2"]

    def test_exact_identifier_set(self):
        from probeval import METRIC_NAMES

        expected = {
            "mae", "rmse", "r2", "crps", "crls", "log_score", "brier_score",
            "energy_score_beta_0.2", "energy_score_beta_0.5", "energy_score_beta_1.0",
            "energy_score_beta_1.5", "energy_score_beta_2.0",
            "wcrps_left", "wcrps_right", "wcrps_center",
            "interval_score_90", "interval_score_95",
            "sharpness", "dispersion", "coverage_90", "coverage_95",
        }
        assert set(METRIC_NAMES) == expected

    def test_unknown_metric_lists_identifiers(self):
        with pytest.raises(UnknownMetricError, match="crps"):
            resolve_metric("nope")

    def test_invalid_parameters(self):
        with pytest.raises(InvalidBetaError):
            MetricSpec("energy_score_beta_3.0", beta=3.0)
        with pytest.raises(InvalidLevelError):
            MetricSpec("interval_score_0", alpha=1.0)

    @pytest.mark.parametrize("params, message", [
        ({"beta": 1.0, "alpha": 0.1}, "metric 'm': parameters imply more than one kernel"),
        ({"orientation": "sideways"}, "unknown orientation: 'sideways'"),
        ({"weight_kind": "both"}, "unknown weight kind: 'both'"),
    ])
    def test_inconsistent_parameters(self, params, message):
        with pytest.raises(ValueError) as info:
            MetricSpec("m", **params)
        assert str(info.value) == message


class TestScoreBatch:
    def test_empty_stream(self):
        with pytest.raises(EmptyBatchError):
            score_batch([], ["crps"])

    def test_single_record_crps(self):
        rec = ForecastRecord("a", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5]))
        results = score_batch([rec], ["crps"])
        assert list(results) == ["crps"]
        assert results["crps"].values.shape == (1,)
        assert results["crps"].mean == pytest.approx(0.25)

    def test_mixed_forms_full_suite(self):
        records = [
            ForecastRecord("h", 0.5, HistogramForecast([0, 1, 2], [0.4, 0.6])),
            ForecastRecord("q", 1.0, QuantileForecast([0.25, 0.5, 0.75], [0.0, 1.0, 2.0])),
            ForecastRecord("s", 1.5, SampleForecast([1.0, 2.0, 2.0])),
        ]
        names = ["crps", "log_score", "brier_score", "energy_score_beta_1.0",
                 "interval_score_90", "mae", "rmse", "r2", "sharpness", "coverage_90"]
        with pytest.warns(ConversionWarning):
            results = score_batch(records, names)

        # Histogram-only metrics: defined for histogram and quantile records,
        # absent for the sample record.
        assert not np.isnan(results["log_score"].values[0])
        assert not np.isnan(results["log_score"].values[1])
        assert np.isnan(results["log_score"].values[2])

        # Cross-check per-instance values against direct calls.
        from probeval import histogram_to_discrete, to_discrete

        d0 = histogram_to_discrete(records[0].forecast)
        assert results["crps"].values[0] == pytest.approx(crps(d0, 0.5))
        assert results["crps"].values[2] == pytest.approx(
            crps(to_discrete(records[2].forecast), 1.5)
        )
        assert results["log_score"].values[0] == pytest.approx(
            log_score(records[0].forecast, 0.5)
        )

        defined = results["log_score"].values[~np.isnan(results["log_score"].values)]
        assert results["log_score"].mean == pytest.approx(float(np.mean(defined)), rel=1e-12)

    def test_batch_mean_matches_per_instance_values(self):
        rng = np.random.default_rng(55)
        records = [
            ForecastRecord(str(i), float(rng.normal()), random_discrete(rng, max_support=10))
            for i in range(40)
        ]
        results = score_batch(records, ["crps", "crls", "wcrps_center", "coverage_90"])
        for name, result in results.items():
            assert result.mean == pytest.approx(float(np.mean(result.values)), rel=1e-12)

    def test_brier_outside_support_names_first_record(self):
        records = [
            ForecastRecord("in", 0.5, HistogramForecast([0, 1], [1.0])),
            ForecastRecord("out1", 5.0, HistogramForecast([0, 1], [1.0])),
            ForecastRecord("out2", -5.0, HistogramForecast([0, 1], [1.0])),
        ]
        with pytest.raises(OutsideSupportError, match="record 'out1'"):
            score_batch(records, ["brier_score"])

    def test_custom_and_parameter_specs(self):
        records = [
            ForecastRecord("a", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5])),
            ForecastRecord("b", 3.0, DiscreteForecast([1.0, 2.0], [0.25, 0.75])),
        ]

        def mean_error(batch, targets, spec):
            return targets - batch.means()

        specs = [
            MetricSpec("mean_error", kernel=mean_error),
            MetricSpec("coverage_80", level=0.8),
            MetricSpec("crps"),
        ]
        results = score_batch(records, specs)
        assert results["mean_error"].values.tolist() == [-0.5, 1.25]
        assert results["coverage_80"].values.tolist() == [1.0, 0.0]
        assert results["crps"].mean == score_batch(records, ["crps"])["crps"].mean

    def test_kernel_result_of_the_wrong_shape_is_an_error(self):
        records = [ForecastRecord(str(i), 0.0, TWO_POINT) for i in range(3)]
        short = MetricSpec("short", kernel=lambda b, t, s: np.zeros(b.n - 1))
        with pytest.raises(ValueError) as info:
            score_batch(records, ["crps", short])
        assert str(info.value) == "metric 'short': kernel returned shape (2,) for 3 records"

    def test_a_kernel_error_without_a_record_index_is_raised_unchanged(self):
        error = OutsideSupportError("outside the custom support")

        def outside(batch, targets, spec):
            raise error

        with pytest.raises(OutsideSupportError) as info:
            score_batch([ForecastRecord("a", 0.0, TWO_POINT)],
                        ["crps", MetricSpec("o", kernel=outside)])
        assert info.value is error
        assert str(info.value) == "outside the custom support"

    def test_conversion_note_counts_quantile_records_of_two_levels_or_more(self):
        records = [
            ForecastRecord("q1", 0.0, QuantileForecast([0.5], [0.0])),
            ForecastRecord("q2", 0.0, QuantileForecast([0.25, 0.75], [-1.0, 1.0])),
            ForecastRecord("h", 0.5, HistogramForecast([0.0, 1.0], [1.0])),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            score_batch(records, ["log_score"])
        assert [str(w.message) for w in caught] == [
            "1 quantile record(s) converted to histograms for density scores"
        ]

    def test_spec_without_kernel_is_unknown(self):
        records = [ForecastRecord("a", 0.0, DiscreteForecast([0.0], [1.0]))]
        with pytest.raises(UnknownMetricError):
            score_batch(records, [MetricSpec("nope")])

    def test_two_specs_with_one_name_are_an_error(self):
        records = [ForecastRecord("a", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5]))]
        with pytest.raises(UnknownMetricError, match="interval_score_90"):
            score_batch(records, [MetricSpec("interval_score_90", alpha=0.096), "interval_score_90"])

    def test_equal_specs_share_one_column(self):
        records = [ForecastRecord("a", 0.0, DiscreteForecast([0.0, 1.0], [0.5, 0.5]))]
        results = score_batch(records, ["crps", MetricSpec("crps"), "crps"])
        assert list(results) == ["crps"]
        assert results["crps"].mean == 0.25

    def test_histogram_metrics_absent_for_samples_only(self):
        records = [ForecastRecord("s", 1.0, SampleForecast([0.0, 1.0, 2.0]))]
        with pytest.warns(ConversionWarning, match="undefined for every record"):
            results = score_batch(records, ["log_score", "crps"])
        assert "log_score" not in results
        assert "crps" in results

    # Targets of zero spread, so wCRPS without a reference fails, and one
    # observation outside its histogram, so the Brier score fails.
    BOTH_FAIL = [
        ForecastRecord("out", 5.0, HistogramForecast([0.0, 1.0], [1.0])),
        ForecastRecord("in", 5.0, HistogramForecast([4.0, 6.0], [1.0])),
    ]

    @pytest.mark.parametrize("names, error, message", [
        (["brier_score", "wcrps_left"], OutsideSupportError, "record 'out': observation 5.0"),
        (["wcrps_left", "brier_score"], InvalidScaleError, "batch targets have zero spread"),
        (["crps", "brier_score", "wcrps_left"], OutsideSupportError, "record 'out'"),
        (["crps", "wcrps_left", "brier_score"], InvalidScaleError, "zero spread"),
        (["energy_score_beta_0.5", "brier_score", "energy_score_beta_1.0", "wcrps_center"],
         OutsideSupportError, "record 'out'"),
    ])
    def test_the_first_failure_in_request_order_raises(self, names, error, message):
        with pytest.raises(error, match=message):
            score_batch(self.BOTH_FAIL, names)

    def test_notes_and_columns_keep_request_order(self):
        # Sample records have no histogram form, and equal targets no r2.
        records = [
            ForecastRecord("a", 1.0, SampleForecast([0.0, 2.0, 2.5])),
            ForecastRecord("b", 1.0, SampleForecast([1.0, 3.0])),
        ]
        specs = [
            "energy_score_beta_2.0", "log_score", "crps", "r2", MetricSpec("e07", beta=0.7),
            "brier_score", MetricSpec("w", weight_kind="center", weight_loc=0.0, weight_scale=2.0),
            "crls", "energy_score_beta_0.5",
        ]
        alone = {}
        for spec in specs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone.update(score_batch(records, [spec]))
        for order in (specs, specs[::-1]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = score_batch(records, order)
            names = [s if isinstance(s, str) else s.name for s in order]
            undefined = ("log_score", "r2", "brier_score")
            assert list(results) == [n for n in names if n not in undefined]
            assert [str(w.message).split()[0] for w in caught] == [
                n for n in names if n in undefined
            ]
            for name, result in results.items():
                assert result.values.tobytes() == alone[name].values.tobytes(), name


class TestFamilyWalks:
    # Two support sizes, so the integrals and energy walks take two chunks each.
    RECORDS = [ForecastRecord(str(i), y, f) for i, (y, f) in enumerate([
        (0.3, TWO_POINT), (-1.0, SampleForecast([0.5, 2.0, 3.0])),
        (1.0, TWO_POINT), (2.5, SampleForecast([0.0, 1.0, 4.0])),
    ])]

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(scoring, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(scoring, name, counted)
        return calls

    def test_an_error_inside_a_walk_raises_without_a_rerun(self, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(args)
            raise RuntimeError("inside the walk")

        monkeypatch.setattr(scoring, "_pieces", failing)
        with pytest.raises(RuntimeError, match="inside the walk"):
            score_batch(self.RECORDS, ["crps", "crls"])
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, builtin", [
        (MetricSpec("my_crls", kernel=scoring.crls_kernel), "crls"),
        (MetricSpec("w", weight_kind="center"), "wcrps_center"),
    ])
    def test_a_member_kernel_joins_its_walk(self, monkeypatch, spec, builtin):
        expected = score_batch(self.RECORDS, [builtin])[builtin].values
        calls = self.count_calls(monkeypatch, "_pieces")
        results = score_batch(self.RECORDS, ["crps", spec])
        assert len(calls) == 2  # one per chunk
        assert results[spec.name].values.tobytes() == expected.tobytes()

    def test_a_beta_joins_the_energy_walk(self, monkeypatch):
        expected = score_batch(self.RECORDS, [MetricSpec("e07", beta=0.7)])["e07"].values
        calls = self.count_calls(monkeypatch, "_energy_rows")
        results = score_batch(self.RECORDS, ["energy_score_beta_0.5", MetricSpec("e07", beta=0.7)])
        assert len(calls) == 2  # one per chunk
        assert results["e07"].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["crps", "crls", "wcrps_left", "energy_score_beta_0.5"])
    def test_a_member_kernel_keeps_its_identity_when_pickled_or_copied(self, name):
        spec = resolve_metric(name)
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert clone.kernel is spec.kernel
            assert score_batch(self.RECORDS, [clone])[name].values.tobytes() == \
                score_batch(self.RECORDS, [spec])[name].values.tobytes()

    def test_a_kernel_of_its_own_runs_alone(self, monkeypatch):
        def mine(batch, targets, spec):
            return scoring.crls_kernel(batch, targets, spec)

        expected = score_batch(self.RECORDS, ["crls"])["crls"].values
        calls = self.count_calls(monkeypatch, "_pieces")
        results = score_batch(self.RECORDS, ["crps", MetricSpec("mine", kernel=mine)])
        assert len(calls) == 4  # two chunks for the crps walk, two for mine
        assert results["mine"].values.tobytes() == expected.tobytes()


DATA = Path(__file__).parent / "data"


def corpus_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the corpus repairs one quantile crossing
        return read_forecasts(DATA / "scores_corpus.jsonl")


def golden_mean_row() -> dict:
    with open(DATA / "scores_golden.csv", newline="") as fh:
        return next(row for row in csv.DictReader(fh) if row["id"] == "mean")


@pytest.mark.parametrize("name, scalar", [("log_score", log_score), ("brier_score", brier_score)])
def test_scalar_histogram_scores_give_the_golden_cells(name, scalar):
    with open(DATA / "scores_golden.csv", newline="") as fh:
        golden = {row["id"]: row[name] for row in csv.DictReader(fh)}
    records = corpus_records()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConversionWarning)
        cells = {}
        for rec in records:
            value = scalar(rec.forecast, rec.target)
            cells[rec.id] = "" if math.isnan(value) else repr(value)
    assert cells == {rec.id: golden[rec.id] for rec in records}


class TestDiagnosticsAreScoreBatchMeans:
    def test_calibration_report_gives_the_golden_mean_row(self):
        pairs = [(rec.forecast, rec.target) for rec in corpus_records()]
        report = calibration_report(pairs)
        mean = golden_mean_row()
        assert repr(report.sharpness) == mean["sharpness"]
        assert repr(report.dispersion) == mean["dispersion"]
        assert repr(report.coverage[0.90]) == mean["coverage_90"]
        assert repr(report.coverage[0.95]) == mean["coverage_95"]

    def test_each_diagnostic_is_its_score_batch_mean(self):
        records = synth.self_calibrated_records(500, 3)
        results = score_batch(records, ["sharpness", "dispersion", "coverage_90"])
        forecasts = [rec.forecast for rec in records]
        assert sharpness(forecasts) == results["sharpness"].mean
        assert dispersion(forecasts) == results["dispersion"].mean
        pairs = [(rec.forecast, rec.target) for rec in records]
        assert coverage(pairs, 0.9) == results["coverage_90"].mean

    def test_a_support_spanning_the_float_range_has_a_finite_spread(self):
        # The squares of its centred points overflow, but its standard
        # deviation (1e308) is finite, and so is the spread of the stds.
        forecasts = [DiscreteForecast([-1e308, 1e308], [0.5, 0.5]),
                     DiscreteForecast([0.0, 1.0], [0.5, 0.5])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sharpness(forecasts) == 5e307
            assert dispersion(forecasts) == 5e307


def test_rmse_and_r2_read_no_medians(monkeypatch):
    records = corpus_records()

    def no_quantiles(self, tau):
        raise AssertionError("rmse and r2 read the forecast means alone")

    monkeypatch.setattr(ForecastBatch, "quantiles", no_quantiles)
    results = score_batch(records, ["rmse", "r2"])
    mean = golden_mean_row()
    assert repr(results["rmse"].mean) == mean["rmse"]
    assert repr(results["r2"].mean) == mean["r2"]


class TestFamilyTable:
    @pytest.mark.parametrize("name, family, value", [
        ("energy_score_beta_0.2", "energy_score", 0.2),
        ("energy_score_beta_0.5", "energy_score", 0.5),
        ("energy_score_beta_1.0", "energy_score", 1.0),
        ("energy_score_beta_1.5", "energy_score", 1.5),
        ("energy_score_beta_2.0", "energy_score", 2.0),
        ("wcrps_left", "wcrps", "left"),
        ("wcrps_right", "wcrps", "right"),
        ("wcrps_center", "wcrps", "center"),
        ("interval_score_90", "interval_score", 0.10),
        ("interval_score_95", "interval_score", 0.05),
        ("coverage_90", "coverage", 0.90),
        ("coverage_95", "coverage", 0.95),
    ])
    def test_a_parametric_builtin_is_its_family_member(self, name, family, value):
        assert resolve_metric(name) == family_spec(family, value)

    def test_an_interval_is_named_by_its_rounded_percentage(self):
        assert family_spec("interval_score", 0.096).name == "interval_score_90"

    @pytest.mark.parametrize("family, error", [
        ("interval_score", InvalidLevelError),
        ("coverage", InvalidLevelError),
        ("energy_score", InvalidBetaError),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_parameter_is_rejected_before_it_is_named(self, family, error, value):
        with pytest.raises(error):
            family_spec(family, value)
