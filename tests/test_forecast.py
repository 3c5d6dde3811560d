import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_discrete
from probeval import (
    DiscreteForecast,
    ForecastBatch,
    HistogramForecast,
    QuantileForecast,
    SampleForecast,
    histogram_to_discrete,
    quantiles_to_discrete,
    quantiles_to_histogram,
    resolve_metric,
    samples_to_discrete,
    to_discrete,
    to_histogram,
)
from probeval.errors import (
    InvalidLevelError,
    NotConvertibleError,
    QuantileCrossingWarning,
)
from probeval.forecast import HistogramBatch


class TestHistogramToDiscrete:
    def test_single_bin_center(self):
        d = histogram_to_discrete(HistogramForecast([0, 1], [1.0]))
        assert d.points.tolist() == [0.5]
        assert d.probs.tolist() == [1.0]

    def test_two_bin_symmetry(self):
        d = histogram_to_discrete(HistogramForecast([0, 1, 2], [0.5, 0.5]))
        assert d.points.tolist() == [0.5, 1.5]
        assert d.probs.tolist() == [0.5, 0.5]

    def test_zero_bin_removal(self):
        d = histogram_to_discrete(HistogramForecast([0, 1, 2, 3], [0.2, 0.0, 0.8]))
        assert d.points.tolist() == [0.5, 2.5]
        assert d.probs.tolist() == [0.2, 0.8]
        assert abs(d.probs.sum() - 1.0) <= 1e-9

    def test_mean_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            edges = np.sort(rng.uniform(-5, 5, size=rng.integers(2, 12)))
            while np.any(np.diff(edges) <= 0):
                edges = np.sort(rng.uniform(-5, 5, size=edges.size))
            probs = rng.exponential(size=edges.size - 1)
            probs[rng.integers(0, probs.size)] = 0.0  # keep a zero bin in play
            if probs.sum() == 0:
                continue
            h = HistogramForecast(edges, probs)
            centers = 0.5 * (h.edges[:-1] + h.edges[1:])
            hist_mean = float(np.dot(h.probs, centers))
            assert histogram_to_discrete(h).mean() == pytest.approx(hist_mean, abs=1e-12)


class TestPublicMembers:
    def test_histogram_widths(self):
        h = HistogramForecast([0.0, 0.5, 2.0], [1.0, 1.0])
        assert h.widths.tolist() == [0.5, 1.5]

    @pytest.mark.parametrize("y, k", [
        (0.0, 0), (0.25, 0), (0.5, 1), (1.9, 1), (2.0, 1), (-0.1, -1), (2.1, -1),
    ])
    def test_histogram_bin_index(self, y, k):
        # Bins are left-closed; the last edge belongs to the last bin.
        assert HistogramForecast([0.0, 0.5, 2.0], [1.0, 1.0]).bin_index(y) == k

    def test_discrete_median_is_the_generalized_inverse(self):
        assert DiscreteForecast([0.0, 1.0, 2.0], [0.25, 0.25, 0.5]).median() == 1.0
        assert DiscreteForecast([0.0, 1.0, 2.0], [0.2, 0.2, 0.6]).median() == 2.0


class TestQuantilesToDiscrete:
    def test_single_quantile_carries_all_mass(self):
        d = quantiles_to_discrete(QuantileForecast([0.5], [3.0]))
        assert d.points.tolist() == [3.0]
        assert d.probs.tolist() == [1.0]

    def test_midpoint_partition_of_two(self):
        d = quantiles_to_discrete(QuantileForecast([0.25, 0.75], [0.0, 1.0]))
        assert d.probs.tolist() == [0.5, 0.5]

    def test_nine_uniform_levels(self):
        levels = np.arange(1, 10) / 10.0
        d = quantiles_to_discrete(QuantileForecast(levels, np.arange(9.0)))
        # Independent oracle: mass between cumulative-level midpoints.
        bounds = [0.0] + [(a + b) / 2 for a, b in zip(levels, levels[1:])] + [1.0]
        expected = np.diff(bounds)
        np.testing.assert_allclose(d.probs, expected, atol=1e-15)
        np.testing.assert_allclose(d.probs, [0.15] + [0.1] * 7 + [0.15], atol=1e-12)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_values_merged(self):
        with pytest.warns(QuantileCrossingWarning):
            q = QuantileForecast([0.2, 0.5, 0.8], [1.0, 0.0, 1.0])
        d = quantiles_to_discrete(q)
        assert d.points.tolist() == [0.0, 1.0]
        assert np.all(d.probs > 0)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestQuantilesToHistogram:
    def test_two_levels(self):
        h = quantiles_to_histogram(QuantileForecast([0.25, 0.75], [0.0, 1.0]))
        assert h.edges.tolist() == [0.0, 1.0]
        assert h.probs.tolist() == [1.0]

    def test_degenerate_width_widened(self):
        h = quantiles_to_histogram(QuantileForecast([1 / 3, 2 / 3], [0.0, 0.0]))
        assert h.probs.tolist() == [1.0]
        assert h.edges[0] < 0.0 < h.edges[1]
        assert h.edges[1] - h.edges[0] == pytest.approx(1e-9, rel=1e-6)
        assert h.edges[0] == pytest.approx(-h.edges[1])  # symmetric around 0

    def test_single_level_not_convertible(self):
        with pytest.raises(NotConvertibleError):
            quantiles_to_histogram(QuantileForecast([0.5], [3.0]))

    def test_a_near_tie_after_spreading_takes_the_next_float(self):
        # The tie at 0.0 spreads to +5e-10, past the next value 1e-10.
        h = to_histogram(QuantileForecast([0.25, 0.5, 0.75], [0.0, 0.0, 1e-10]))
        assert h.edges.tolist() == [-5e-10, 5e-10, 5.000000000000001e-10]
        assert (np.diff(h.edges) > 0).all()


class TestSamplesToDiscrete:
    def test_single_sample(self):
        d = samples_to_discrete(SampleForecast([2.0]))
        assert d.points.tolist() == [2.0]
        assert d.probs.tolist() == [1.0]

    def test_frequency_counting(self):
        d = samples_to_discrete(SampleForecast([1.0, 1.0, 3.0]))
        assert d.points.tolist() == [1.0, 3.0]
        np.testing.assert_allclose(d.probs, [2 / 3, 1 / 3])

    def test_uniform_frequencies(self):
        d = samples_to_discrete(SampleForecast([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(d.probs, [0.25] * 4)


class TestCdf:
    def test_step_values(self):
        f = DiscreteForecast([0.0, 1.0], [0.5, 0.5])
        assert f.cdf(-1.0) == 0.0
        assert f.cdf(0.0) == 0.5  # right-continuous at the atom
        assert f.cdf(1.0) == 1.0
        assert f.cdf(0.999) == 0.5

    def test_monotone_right_continuous_on_random_forecasts(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = random_discrete(rng, max_support=20)
            grid = np.sort(rng.uniform(f.points[0] - 1, f.points[-1] + 1, size=200))
            values = f.cdf(grid)
            assert np.all(np.diff(values) >= 0)
            assert f.cdf(f.points[0] - 1e-9) == 0.0
            assert f.cdf(f.points[-1]) == 1.0
            assert f.cdf(f.points[-1] + 10.0) == 1.0
            eps = np.min(np.diff(f.points)) / 4 if f.points.size > 1 else 0.5
            for p in f.points:
                assert f.cdf(p + eps) == pytest.approx(f.cdf(p), abs=1e-15)

    def test_nan_is_nan_for_a_scalar_and_an_array(self):
        f = DiscreteForecast([0.0, 1.0], [0.5, 0.5])
        assert np.isnan(f.cdf(float("nan")))
        got = f.cdf(np.array([np.nan, -1.0, 0.5, np.nan, 2.0]))
        assert np.isnan(got[[0, 3]]).all()
        assert got[[1, 2, 4]].tolist() == [0.0, 0.5, 1.0]


class TestQuantile:
    def test_generalized_inverse(self):
        f = DiscreteForecast([0.0, 1.0], [0.5, 0.5])
        assert f.quantile(0.25) == 0.0
        assert f.quantile(0.5) == 0.0  # cdf(0) = 0.5 >= 0.5
        assert f.quantile(0.75) == 1.0

    def test_invalid_level(self):
        f = DiscreteForecast([0.0], [1.0])
        for tau in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidLevelError):
                f.quantile(tau)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_discrete(rng, max_support=15)
            for tau in np.linspace(0.01, 0.99, 53):
                expected = min(p for p in f.points if f.cdf(p) >= tau)
                assert f.quantile(tau) == expected


class TestMoments:
    def test_two_point(self):
        f = DiscreteForecast([0.0, 1.0], [0.5, 0.5])
        assert f.mean() == 0.5
        assert f.variance() == 0.25
        assert f.std() == 0.5

    def test_degenerate(self):
        f = DiscreteForecast([3.0], [1.0])
        assert f.mean() == 3.0
        assert f.variance() == 0.0

    def test_symmetric(self):
        f = DiscreteForecast([-1.0, 1.0], [0.5, 0.5])
        assert f.mean() == 0.0
        assert f.std() == 1.0

    def test_a_support_spanning_the_float_range_has_a_finite_std(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DiscreteForecast([-1.5e308, 1.5e308], [0.9, 0.1]).std() == 9e307

    # Values far from the subnormals, whose squares would round differently
    # at different scales.
    value = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(supports=st.lists(st.lists(value, min_size=1, max_size=5, unique=True),
                             min_size=1, max_size=3),
           weights=st.lists(st.integers(1, 9), min_size=15, max_size=15),
           e=st.integers(0, 1000))
    def test_stds_scale_exactly_by_a_power_of_two(self, supports, weights, e):
        points = np.concatenate([np.sort(x) for x in supports])
        assume(np.isfinite(np.ldexp(points, e)).all())
        w = [np.array(weights[5 * i : 5 * i + len(x)], dtype=float) for i, x in enumerate(supports)]
        probs = np.concatenate([v / v.sum() for v in w])
        offsets = np.cumsum([0] + [len(x) for x in supports])
        base = ForecastBatch(points, probs, offsets).stds()
        with np.errstate(over="ignore"):
            expected = np.ldexp(base, e)
        finite = np.isfinite(expected)
        got = ForecastBatch(np.ldexp(points, e), probs, offsets).stds()
        assert got[finite].tobytes() == expected[finite].tobytes()


class TestInvariants:
    def test_conversions_preserve_mass(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            edges = np.sort(rng.uniform(-3, 3, size=6))
            while np.any(np.diff(edges) <= 0):
                edges = np.sort(rng.uniform(-3, 3, size=6))
            h = HistogramForecast(edges, rng.exponential(size=5))
            assert histogram_to_discrete(h).probs.sum() == pytest.approx(1.0, abs=1e-9)

            levels = np.sort(rng.uniform(0.01, 0.99, size=7))
            while np.any(np.diff(levels) <= 0):
                levels = np.sort(rng.uniform(0.01, 0.99, size=7))
            q = QuantileForecast(levels, np.sort(rng.normal(size=7)))
            assert quantiles_to_discrete(q).probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert quantiles_to_histogram(q).probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_crossing_repair_warns_and_flags(self):
        with pytest.warns(QuantileCrossingWarning):
            q = QuantileForecast([0.1, 0.5, 0.9], [2.0, 1.0, 3.0])
        assert q.repaired
        assert q.values.tolist() == [1.0, 2.0, 3.0]

        clean = QuantileForecast([0.1, 0.9], [1.0, 2.0])
        assert not clean.repaired

    def test_construction_invariants_enforced(self):
        with pytest.raises(ValueError):
            HistogramForecast([1, 0], [1.0])  # edges not ascending
        with pytest.raises(ValueError):
            HistogramForecast([0, 1], [-0.5])
        with pytest.raises(ValueError):
            DiscreteForecast([0.0, 1.0], [0.5, 0.4])  # mass 0.9
        with pytest.raises(ValueError):
            DiscreteForecast([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            DiscreteForecast([0.0, 1.0], [1.0, 0.0])  # zero mass point
        with pytest.raises(InvalidLevelError):
            QuantileForecast([0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            SampleForecast([1.0, float("nan")])


class TestDispatchers:
    def test_to_discrete_covers_all_forms(self):
        h = HistogramForecast([0, 2], [1.0])
        q = QuantileForecast([0.5], [1.0])
        s = SampleForecast([1.0, 1.0])
        d = DiscreteForecast([1.0], [1.0])
        for f in (h, q, s, d):
            out = to_discrete(f)
            assert isinstance(out, DiscreteForecast)
            assert out.mean() == 1.0

    def test_to_histogram_rejects_sample_and_discrete(self):
        with pytest.raises(NotConvertibleError):
            to_histogram(SampleForecast([1.0]))
        with pytest.raises(NotConvertibleError):
            to_histogram(DiscreteForecast([1.0], [1.0]))

    def test_to_histogram_rejects_a_single_level_and_a_non_forecast(self):
        with pytest.raises(NotConvertibleError):
            to_histogram(QuantileForecast([0.5], [3.0]))
        with pytest.raises(TypeError, match="not a forecast: list"):
            to_histogram([0.0, 1.0])

    def test_to_histogram_is_a_read_only_copy_of_the_form(self):
        h = HistogramForecast([0.0, 1.0, 3.0], [1.0, 3.0])
        out = to_histogram(h)
        assert out.edges.tolist() == [0.0, 1.0, 3.0]
        assert out.probs.tolist() == [0.25, 0.75]
        assert not out.edges.flags.writeable and not out.probs.flags.writeable


class TestConversionAtFloatLimits:
    # Each of these records is accepted by its constructor; the point-mass
    # conversion used to fail on all three.
    def test_bin_center_of_huge_edges_does_not_overflow(self):
        d = to_discrete(HistogramForecast([1e308, 1.7e308], [1.0]))
        assert d.points.tolist() == [1.35e308]
        assert d.probs.tolist() == [1.0]

    def test_bins_with_equal_centers_merge(self):
        # The centers of these one-ulp bins are 1, 1 + 2**-51 and 1 + 2**-51.
        edges = [1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007]
        d = to_discrete(HistogramForecast(edges, [0.25, 0.25, 0.5]))
        assert d.points.tolist() == [1.0, 1.0000000000000004]
        assert d.probs.tolist() == [0.25, 0.75]

    def test_quantile_values_without_mass_are_dropped(self):
        # The midpoints around the value 2.0 coincide, so it carries no mass.
        levels = [0.5, 0.5000000000000001, 0.5000000000000002, 0.5000000000000003]
        d = to_discrete(QuantileForecast(levels, [0.0, 1.0, 2.0, 3.0]))
        assert d.points.tolist() == [0.0, 1.0, 3.0]
        assert np.all(d.probs > 0)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)


class TestOrderChecksAtFloatLimits:
    # Each check compares neighbours, so a support spanning +-1e308, whose
    # differences overflow, is ordered without a warning.
    @pytest.mark.parametrize("make", [
        lambda: HistogramForecast([-1e308, 1e308], [1.0]),
        lambda: QuantileForecast([0.25, 0.75], [-1e308, 1e308]),
        lambda: DiscreteForecast([-1e308, 1e308], [0.5, 0.5]),
        lambda: to_discrete(SampleForecast([-1e308, 1e308])),
        lambda: to_histogram(QuantileForecast([0.25, 0.75], [-1e308, 1e308])),
    ], ids=["histogram", "quantiles", "discrete", "samples", "quantile histogram"])
    def test_a_support_wider_than_the_float_range_warns_nothing(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make()

    def test_crossings_are_counted_at_the_float_limits(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            q = QuantileForecast([0.25, 0.5, 0.75], [1e308, -1e308, 1.7e308])
        assert [(w.category, str(w.message)) for w in caught] == [
            (QuantileCrossingWarning, "1 quantile crossing(s) repaired by monotone rearrangement")
        ]
        assert q.values.tolist() == [-1e308, 1e308, 1.7e308]

    def test_records_are_ordered_each_on_its_own(self):
        # A batch's support may fall from one record to the next.
        batch = ForecastBatch([5.0, 6.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5], [0, 2, 4])
        assert batch.points.tolist() == [5.0, 6.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="points must be strictly increasing"):
            ForecastBatch([5.0, 6.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], [0, 2, 4])
        # The near-tie repair of a quantile record ignores the record before it.
        tie = QuantileForecast([0.25, 0.5, 0.75], [0.0, 0.0, 1e-10])
        hists = HistogramBatch.from_forecasts([QuantileForecast([0.25, 0.75], [5.0, 6.0]), tie])
        assert hists.edges.tolist() == [5.0, 6.0, *to_histogram(tie).edges.tolist()]


class TestBatchConstructorErrors:
    @pytest.mark.parametrize("points, probs, offsets, message", [
        ([[0.0, 1.0]], [0.5, 0.5], [0, 2], "points must be a nonempty one-dimensional"),
        ([0.0, 1.0], [0.5, 0.5], [0, 1], "offsets must be integers running from 0"),
        ([0.0, 1.0], [0.5, 0.5], [0, 0, 2], "points must be a nonempty one-dimensional"),
    ])
    def test_batch(self, points, probs, offsets, message):
        with pytest.raises(ValueError, match=message):
            ForecastBatch(points, probs, offsets)

    @pytest.mark.parametrize("points, probs, message", [
        ([0.0, np.inf], [0.5, 0.5], "points must contain only finite values"),
        ([0.0, 1.0], [[0.5, 0.5]], "probs must be one-dimensional"),
        ([0.0, 1.0], [1.0], "points and probs must have the same length"),
    ])
    def test_point_masses(self, points, probs, message):
        with pytest.raises(ValueError, match=message):
            DiscreteForecast(points, probs)

    @pytest.mark.parametrize("probs", [[[1.0]], []])
    def test_histogram_probs_of_the_wrong_shape(self, probs):
        with pytest.raises(ValueError, match="probs must be a nonempty one-dimensional sequence"):
            HistogramForecast([0, 1], probs)

    def test_quantile_values_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="values must be one-dimensional"):
            QuantileForecast([0.5], [[1.0]])


class TestHistogramForm:
    log_score = resolve_metric("log_score")

    def test_batch_without_sources_has_one_empty_histogram_per_record(self):
        batch = ForecastBatch([0.0, 1.0, 0.0, 2.0, 3.0], [0.5, 0.5, 0.2, 0.3, 0.5], [0, 2, 5])
        assert batch.histograms().offsets.tolist() == [0, 0, 0]
        got = self.log_score.kernel(batch, np.array([0.5, 1.0]), self.log_score)
        assert got.shape == (2,)
        assert np.isnan(got).all()

    def test_record_view_has_no_histogram_form(self):
        h = HistogramForecast([0.0, 1.0, 2.0], [0.3, 0.7])
        view = ForecastBatch.from_forecasts([h, h]).record(1)
        for d in (view, to_discrete(h)):
            assert d.batch.histograms().offsets.tolist() == [0, 0]
            assert np.isnan(self.log_score.kernel(d.batch, np.array([0.5]), self.log_score)).all()
            with pytest.raises(NotConvertibleError):
                to_histogram(d)
