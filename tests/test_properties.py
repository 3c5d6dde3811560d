"""Property tests: batch kernels against per-record oracles on random ragged batches."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle
from probeval import (
    DiscreteForecast,
    ForecastBatch,
    HistogramForecast,
    METRIC_NAMES,
    MetricSpec,
    QuantileForecast,
    SampleForecast,
    energy_score,
    resolve_metric,
    score_batch,
    to_histogram,
)
from probeval import forecast as forecast_module
from probeval.errors import OutsideSupportError, QuantileCrossingWarning
from probeval.forecast import HistogramBatch
from probeval.io import ForecastRecord
from probeval.scoring import ENERGY_BETAS

REL = 1e-12

PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Values on a coarse grid make ties likely: equal quantile values, repeated
# samples, observations on support points.
grid = st.integers(-12, 12).map(lambda k: k / 4)
value = st.one_of(grid, st.floats(-3.0, 3.0, allow_nan=False, width=64))
observation = st.one_of(grid, value, st.sampled_from([-40.0, 40.0]))


@st.composite
def histograms(draw):
    edges = sorted(draw(st.lists(value, min_size=2, max_size=7, unique=True)))
    assume(np.all(np.diff(edges) > 0))
    probs = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]),
                          min_size=len(edges) - 1, max_size=len(edges) - 1))
    assume(sum(probs) > 0)
    return HistogramForecast(edges, probs)


@st.composite
def quantile_sets(draw):
    levels = sorted(draw(st.lists(st.integers(1, 99), min_size=1, max_size=6, unique=True)))
    values = draw(st.lists(value, min_size=len(levels), max_size=len(levels)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuantileCrossingWarning)
        return QuantileForecast([v / 100 for v in levels], values)


@st.composite
def point_masses(draw):
    points = sorted(draw(st.lists(value, min_size=1, max_size=6, unique=True)))
    assume(np.all(np.diff(points) > 0))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(points),
                                     max_size=len(points))))
    return DiscreteForecast(points, weights / weights.sum())


forecasts = st.one_of(
    histograms(),
    quantile_sets(),
    st.lists(value, min_size=1, max_size=8).map(SampleForecast),
    point_masses(),
)
batches = st.lists(st.tuples(forecasts, observation), min_size=1, max_size=10)


def close(got, want, scale=0.0, ops=0):
    """Relative agreement, plus one subnormal unit 2^-1074 for each of
    ``ops`` rounded operations: results near zero keep few significant bits."""
    return abs(got - want) <= REL * max(abs(want), scale) + ops * math.ulp(0.0)


def kernel_values(name, batch, targets):
    spec = resolve_metric(name)
    return spec.kernel(batch, targets, spec)


@PROPERTY_SETTINGS
@given(batches)
def test_packed_conversion_is_the_per_record_conversion(pairs):
    batch = ForecastBatch.from_forecasts(f for f, _ in pairs)
    for i, (f, _) in enumerate(pairs):
        points, probs = oracle.discrete(f)
        record = batch.record(i)
        assert np.array_equal(record.points, points)
        assert np.array_equal(record.probs, probs)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        assert np.array_equal(batch.cdf[batch.offsets[i]:batch.offsets[i + 1]], cum)


@PROPERTY_SETTINGS
@given(batches)
# A support with subnormal spacing: kernel and oracle differ by 2^-1074.
@example(pairs=[(QuantileForecast([0.01, 0.06], [0.0, 1.43653373e-211]), 0.0)])
def test_kernels_match_per_record_oracles(pairs):
    batch = ForecastBatch.from_forecasts(f for f, _ in pairs)
    targets = np.array([y for _, y in pairs])
    discretes = [oracle.discrete(f) for f, _ in pairs]
    loc, scale = 0.3, 1.7

    per_record = {
        "crps": lambda p, q, y: oracle.crps(p, q, y),
        "crls": lambda p, q, y: oracle.crls(p, q, y),
        "interval_score_90": lambda p, q, y: oracle.interval(p, q, y, 0.10),
        "coverage_95": lambda p, q, y: float(oracle.covered(p, q, y, 0.95)),
        "sharpness": lambda p, q, y: oracle.std(p, q),
        "mae": lambda p, q, y: abs(y - oracle.quantile(p, q, 0.5)),
    }
    for name, rule in per_record.items():
        got = kernel_values(name, batch, targets)
        for g, (p, q), y in zip(got, discretes, targets):
            assert close(g, rule(p, q, y)), name

    for beta in (0.2, 1.0, 1.5, 2.0):
        got = kernel_values(f"energy_score_beta_{beta}", batch, targets)
        for g, (p, q), y in zip(got, discretes, targets):
            want = oracle.energy(p, q, y, beta)
            # Kernel and oracle each round about 5 operations per pair and
            # 4 per support point, in different orders.
            ops = 2 * (5 * p.size * p.size + 4 * p.size)
            assert close(g, want, oracle.energy_scale(p, q, y, beta), ops), beta

    for kind in ("left", "right", "center"):
        spec = MetricSpec(f"wcrps_{kind}", weight_kind=kind, weight_loc=loc, weight_scale=scale)
        got = spec.kernel(batch, targets, spec)
        for g, (p, q), y in zip(got, discretes, targets):
            assert close(g, oracle.wcrps(p, q, y, kind, loc, scale), 1e-300), kind

    hists = [oracle.histogram(f) for f, _ in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        log = kernel_values("log_score", batch, targets)
    for g, h, y in zip(log, hists, targets):
        if h is None:
            assert math.isnan(g)
        else:
            assert close(g, oracle.log_score(*h, y), 1.0)

    briers = [None if h is None else oracle.brier(*h, y) for h, y in zip(hists, targets)]
    outside = [i for i, (h, b) in enumerate(zip(hists, briers)) if h is not None and b is None]
    if outside:
        with pytest.raises(OutsideSupportError) as err:
            kernel_values("brier_score", batch, targets)
        assert err.value.index == outside[0]
    else:
        got = kernel_values("brier_score", batch, targets)
        for g, b in zip(got, briers):
            assert math.isnan(g) if b is None else close(g, b, 1.0)


@PROPERTY_SETTINGS
@given(batches)
def test_scores_do_not_depend_on_the_block_budget(pairs):
    targets = [y for _, y in pairs]
    assume(np.std(targets) > 0)  # the default wCRPS reference needs spread
    records = [ForecastRecord(str(i), y, f) for i, (f, y) in enumerate(pairs)]

    def scored(budget):
        saved = forecast_module.BLOCK_ELEMENTS
        forecast_module.BLOCK_ELEMENTS = budget
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = score_batch(records, [n for n in METRIC_NAMES if n != "brier_score"])
                try:
                    out.update(score_batch(records, ["brier_score"]))
                except OutsideSupportError as exc:
                    out["brier_score"] = str(exc)
            return out
        finally:
            forecast_module.BLOCK_ELEMENTS = saved

    one_record, whole_batch = scored(1), scored(10**9)
    assert one_record.keys() == whole_batch.keys()
    for name, a in one_record.items():
        b = whole_batch[name]
        if isinstance(a, str):
            assert a == b, name
        else:
            assert a.mean == b.mean, name
            if a.values is not None:
                np.testing.assert_array_equal(a.values, b.values, err_msg=name)


def test_energy_slabs_of_every_size():
    # Pair matrices are summed in slabs whose height is the support size (a
    # support of at most 64 points, here 1 and 40) or 1 (here 65, 150, 300).
    rng = np.random.default_rng(17)
    sizes = (1, 65, 150, 150, 300) + (40,) * 120
    samples = [SampleForecast(rng.normal(size=n)) for n in sizes]
    targets = rng.normal(size=len(samples)) * 2.0
    batch = ForecastBatch.from_forecasts(samples)
    for beta in (0.5, 1.0, 2.0):
        spec = MetricSpec(f"energy_score_beta_{beta}", beta=beta)
        got = spec.kernel(batch, targets, spec)
        for i, (f, y) in enumerate(zip(samples, targets)):
            p, q = oracle.discrete(f)
            scale = oracle.energy_scale(p, q, y, beta)
            assert close(got[i], oracle.energy(p, q, y, beta), scale)
            assert close(energy_score(batch.record(i), y, beta), got[i], scale)


@PROPERTY_SETTINGS
@given(batches, st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
# points[0] + 1.0 * (points[-1] - points[0]) rounds above points[-1] here.
@example(pairs=[(QuantileForecast([0.01, 0.02], [-0.25, 1e-9]), 0.0)], where=[1.0] * 10)
def test_a_record_scores_the_same_alone_and_in_its_batch(pairs, where):
    # wCRPS gets an explicit reference, since the default one is taken from
    # all targets of the batch.
    forecasts = [f for f, _ in pairs]
    batch = ForecastBatch.from_forecasts(forecasts)
    alone = [ForecastBatch.from_forecasts([f]) for f in forecasts]
    targets = np.array([y for _, y in pairs])
    # The Brier score needs observations inside the grid, so it gets its
    # own, placed between each record's outer values.
    inside = []
    for f, u in zip(forecasts, where):
        points, _ = oracle.discrete(f)
        inside.append(min(points[0] + u * (points[-1] - points[0]), points[-1]))
    inside = np.array(inside)
    for name in METRIC_NAMES:
        spec = resolve_metric(name)
        if spec.weight_kind is not None:
            spec = replace(spec, weight_loc=0.3, weight_scale=1.7)
        y = inside if name == "brier_score" else targets
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = spec.kernel(batch, y, spec)
            if not isinstance(whole, np.ndarray):
                continue  # a batch-level metric
            for i, one in enumerate(alone):
                assert spec.kernel(one, y[i : i + 1], spec).tobytes() == whole[i : i + 1].tobytes(), (name, i)


def test_an_energy_score_has_the_same_bytes_alone_and_in_its_batch():
    # Support sizes on both sides of the 64 points whose whole pair matrix
    # is taken in one pass, with many and few records of each size.
    rng = np.random.default_rng(5)
    sizes = (3,) * 50 + (10,) * 300 + (40,) * 20 + (70,) * 30 + (100,) * 60 + (200,) * 3
    samples = [SampleForecast(rng.normal(size=n)) for n in sizes]
    targets = rng.normal(size=len(samples)) * 2.0
    batch = ForecastBatch.from_forecasts(samples)
    for beta in ENERGY_BETAS:
        spec = MetricSpec(f"energy_score_beta_{beta}", beta=beta)
        whole = spec.kernel(batch, targets, spec)
        for i, f in enumerate(samples):
            one = spec.kernel(ForecastBatch.from_forecasts([f]), targets[i : i + 1], spec)
            assert one.tobytes() == whole[i : i + 1].tobytes(), (beta, sizes[i], i)


# The members of the two families that score in one walk: the energy
# scores, and the CRPS-type integrals, with wCRPS around two different
# explicit references.
ENERGY_FAMILY = [resolve_metric(f"energy_score_beta_{beta}") for beta in ENERGY_BETAS]
INTEGRAL_FAMILY = [
    resolve_metric("crps"),
    resolve_metric("crls"),
    MetricSpec("wcrps_left", weight_kind="left", weight_loc=0.3, weight_scale=1.7),
    MetricSpec("wcrps_right", weight_kind="right", weight_loc=0.3, weight_scale=1.7),
    MetricSpec("wcrps_center", weight_kind="center", weight_loc=0.3, weight_scale=1.7),
    MetricSpec("wcrps_left_narrow", weight_kind="left", weight_loc=-1.0, weight_scale=0.5),
    MetricSpec("wcrps_center_narrow", weight_kind="center", weight_loc=-1.0, weight_scale=0.5),
    MetricSpec("wcrps_unit", weight_kind="unit"),
]
E07 = MetricSpec("e07", beta=0.7)


@PROPERTY_SETTINGS
@given(batches, st.randoms(use_true_random=False))
def test_a_family_member_has_the_same_bytes_alone_and_with_its_family(pairs, random):
    records = [ForecastRecord(str(i), y, f) for i, (f, y) in enumerate(pairs)]

    def columns(specs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = score_batch(records, specs)
        return {name: (r.values.tobytes(), r.mean) for name, r in results.items()}

    members = ENERGY_FAMILY + INTEGRAL_FAMILY
    calls = [
        columns(ENERGY_FAMILY),
        columns(INTEGRAL_FAMILY),
        columns(random.sample(members, len(members))),
        columns(random.sample(members, len(members)) + [E07]),
    ]
    for spec in members:
        alone = columns([spec])[spec.name]
        assert columns([E07, spec])[spec.name] == alone, spec.name
        assert columns([spec, E07])[spec.name] == alone, spec.name
        for together in calls:
            if spec.name in together:
                assert together[spec.name] == alone, spec.name

    # The walk runs each beta's operations in the order a lone energy score
    # runs them, which the oracle writes out.
    for spec in ENERGY_FAMILY + [E07]:
        want = [oracle.energy_slabs(*oracle.discrete(rec.forecast), rec.target, spec.beta)
                for rec in records]
        assert np.array(want).tobytes() == calls[-1][spec.name][0], spec.name


@PROPERTY_SETTINGS
@given(batches)
def test_packed_histogram_form_is_the_per_record_conversion(pairs):
    forecasts = [f for f, _ in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hists = HistogramBatch.from_forecasts(forecasts)
    for i, f in enumerate(forecasts):
        edges = hists.edges[hists.offsets[i] : hists.offsets[i + 1]]
        probs = hists.probs[hists.offsets[i] : hists.offsets[i + 1]]
        if oracle.histogram(f) is None:
            assert edges.size == 0
            continue
        h = to_histogram(f)
        assert edges.tobytes() == h.edges.tobytes()
        assert probs[:-1].tobytes() == h.probs.tobytes()
        assert probs[-1:].tobytes() == np.zeros(1).tobytes()
