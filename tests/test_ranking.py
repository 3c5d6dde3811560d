import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import oracle
from probeval import ranking, rng
from probeval import (
    HIGHER_BETTER,
    LOWER_BETTER,
    MetricSpec,
    RunRecord,
    ScoreMatrix,
    aggregate_folds,
    build_leaderboard,
    drop_zero_variance,
    empirical_p,
    observed_statistics,
    permutation_null,
    rank_transform,
)
from probeval.errors import (
    DroppedDatasetWarning,
    NoInformativeDatasetsError,
    NotComparableError,
)


def runs_from_matrix(values, metric="crps", folds=1):
    """RunRecords for a models-by-datasets value matrix."""
    records = []
    for m, row in enumerate(values):
        for d, v in enumerate(row):
            for k in range(folds):
                records.append(RunRecord(f"m{m}", f"d{d}", k, metric, float(v)))
    return records


class TestAggregateFolds:
    def test_constant_folds(self):
        records = [RunRecord("a", "x", k, "crps", 2.0) for k in range(5)]
        records += [RunRecord("b", "x", k, "crps", 3.0) for k in range(5)]
        matrix = aggregate_folds(records, "crps")
        assert matrix.values[0, 0] == 2.0

    def test_two_fold_mean(self):
        records = [
            RunRecord("a", "x", 0, "crps", 0.0),
            RunRecord("a", "x", 1, "crps", 1.0),
            RunRecord("b", "x", 0, "crps", 4.0),
        ]
        matrix = aggregate_folds(records, "crps")
        assert matrix.values[0, 0] == 0.5

    def test_fold_sum_past_the_largest_float(self):
        # math.fsum of a's folds overflows; their mean does not.
        records = [RunRecord("a", "x", k, "crps", 1.7e308) for k in range(2)]
        records += [RunRecord("b", "x", 0, "crps", 1.0), RunRecord("b", "x", 1, "crps", 2.0)]
        matrix = aggregate_folds(records, "crps")
        assert matrix.values.tolist() == [[1.7e308], [1.5]]

    def test_incomplete_dataset_dropped_with_warning(self):
        records = [
            RunRecord("a", "x", 0, "crps", 1.0),
            RunRecord("b", "x", 0, "crps", 2.0),
            RunRecord("a", "y", 0, "crps", 5.0),  # model b missing on y
        ]
        with pytest.warns(DroppedDatasetWarning, match="'y'"):
            matrix = aggregate_folds(records, "crps")
        assert matrix.datasets == ("x",)

    def test_single_model_not_comparable(self):
        records = [RunRecord("a", "x", 0, "crps", 1.0)]
        with pytest.raises(NotComparableError):
            aggregate_folds(records, "crps")

    def test_custom_spec_takes_its_own_orientation(self):
        records = runs_from_matrix([[1.0, 2.0], [3.0, 4.0]], metric="skill")
        matrix = aggregate_folds(records, MetricSpec("skill", orientation=HIGHER_BETTER))
        assert matrix.orientation == HIGHER_BETTER
        assert matrix.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_no_records_for_metric(self):
        records = [RunRecord("a", "x", 0, "crps", 1.0)]
        with pytest.raises(NotComparableError):
            aggregate_folds(records, "rmse")

    @pytest.mark.parametrize("folds", [[1.0, math.nan], [math.inf, -math.inf]],
                             ids=["nan", "opposite-infinities"])
    def test_a_nan_fold_mean_is_not_comparable(self, folds):
        # Left in, the NaN cell would rank NaN and make every model significant.
        records = runs_from_matrix([[0.0] * 10, [1.0] * 10])
        records += [RunRecord("m0", "d3", k, "crps", v) for k, v in enumerate(folds, 1)]
        message = "model 'm0' on dataset 'd3': the fold mean of 'crps' is NaN"
        with pytest.raises(NotComparableError, match=message):
            aggregate_folds(records, "crps")
        with pytest.raises(NotComparableError, match=message):
            build_leaderboard(records, "crps", nsim=2000)


class TestDropZeroVariance:
    def test_constant_column_dropped(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0", "d1"),
                             np.array([[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]]), "lower_better")
        with pytest.warns(DroppedDatasetWarning):
            out = drop_zero_variance(matrix)
        assert out.datasets == ("d1",)

    def test_nearly_constant_kept(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0",),
                             np.array([[2.0], [2.0000001], [2.0]]), "lower_better")
        assert drop_zero_variance(matrix).datasets == ("d0",)

    def test_all_constant_raises(self):
        matrix = ScoreMatrix(("a", "b"), ("d0", "d1"),
                             np.array([[1.0, 2.0], [1.0, 2.0]]), "lower_better")
        with pytest.warns(DroppedDatasetWarning):
            with pytest.raises(NoInformativeDatasetsError):
                drop_zero_variance(matrix)


class TestRankTransform:
    def test_lower_better(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0",),
                             np.array([[3.0], [1.0], [2.0]]), "lower_better")
        assert rank_transform(matrix)[:, 0].tolist() == [3.0, 1.0, 2.0]

    def test_higher_better_flips(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0",),
                             np.array([[3.0], [1.0], [2.0]]), "higher_better")
        assert rank_transform(matrix)[:, 0].tolist() == [1.0, 3.0, 2.0]

    def test_fractional_ties(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0",),
                             np.array([[1.0], [1.0], [2.0]]), "lower_better")
        assert rank_transform(matrix)[:, 0].tolist() == [1.5, 1.5, 3.0]

    def test_signed_zeros_tie_and_nan_datasets_rank_nan(self):
        matrix = ScoreMatrix(("a", "b", "c"), ("d0", "d1"),
                             np.array([[0.0, 1.0], [-0.0, np.nan], [np.inf, 2.0]]),
                             "lower_better")
        ranks = rank_transform(matrix)
        assert ranks[:, 0].tolist() == [1.5, 1.5, 3.0]
        assert np.isnan(ranks[:, 1]).all()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scipy_rankdata_bit_for_bit(self, data):
        models = data.draw(st.integers(1, 7))
        datasets = data.draw(st.integers(0, 5))
        # A small pool makes ties likely, -0.0 against 0.0 and infinities included.
        element = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf]),
            st.floats(allow_nan=False, allow_infinity=True),
        )
        values = np.array(
            data.draw(st.lists(st.lists(element, min_size=datasets, max_size=datasets),
                               min_size=models, max_size=models)),
            dtype=float,
        ).reshape(models, datasets)
        for d in data.draw(st.sets(st.integers(0, max(datasets - 1, 0)))):
            if d < datasets:
                values[data.draw(st.integers(0, models - 1)), d] = np.nan
        orientation = data.draw(st.sampled_from([LOWER_BETTER, HIGHER_BETTER]))
        matrix = ScoreMatrix(tuple(f"m{m}" for m in range(models)),
                             tuple(f"d{d}" for d in range(datasets)), values, orientation)
        oriented = values if orientation == LOWER_BETTER else -values
        want = rankdata(oriented, method="average", axis=0)
        got = rank_transform(matrix)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestObservedStatistics:
    def test_single_dataset(self):
        matrix = ScoreMatrix(("a", "b"), ("d0",), np.array([[1.0], [2.0]]), "lower_better")
        ranks = rank_transform(matrix)
        avg_ranks, observed = observed_statistics(ranks, matrix)
        assert avg_ranks.tolist() == [1.0, 2.0]
        assert observed.tolist() == [1.0, 2.0]

    def test_average_across_datasets(self):
        ranks = np.array([[1.0, 2.0, 3.0]])
        matrix = ScoreMatrix(("a",), ("d0", "d1", "d2"),
                             np.array([[1.0, 2.0, 3.0]]), "lower_better")
        avg_ranks, observed = observed_statistics(ranks, matrix)
        assert avg_ranks[0] == 2.0
        assert observed[0] == 2.0

    def test_mean_of_average_ranks_is_center(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 12))
        matrix = ScoreMatrix(tuple("abcde"), tuple(f"d{i}" for i in range(12)),
                             values, "lower_better")
        avg_ranks, _ = observed_statistics(rank_transform(matrix), matrix)
        assert float(np.mean(avg_ranks)) == pytest.approx(3.0, abs=1e-12)

    def test_raw_mean_past_the_largest_float_divides_first(self):
        values = np.array([[1.7e308, 1.7e308], [1.0, 2.0], [np.inf, 1.0]])
        matrix = ScoreMatrix(("a", "b", "c"), ("x", "y"), values, LOWER_BETTER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, observed = observed_statistics(np.ones((3, 2)), matrix)
        assert observed.tolist() == [1.7e308, 1.5, np.inf]


class TestHashStep:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           datasets=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           sims=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
           models=st.integers(1, 9))
    def test_in_place_steps_are_counter_hash(self, seed, stream, datasets, sims, models):
        # As the null takes them: every dataset's prefix at once, then per
        # dataset a block of simulations and its slots, into reused buffers.
        sims = np.array(sims, dtype=np.uint64)[:, None]
        slots = np.arange(models, dtype=np.uint64)
        prefixes = rng.counter_hash(seed, stream, np.array(datasets, dtype=np.uint64))
        sim_keys, sim_scratch = np.empty((2, len(sims), 1), dtype=np.uint64)
        keys, scratch = np.empty((2, len(sims), models), dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, dataset in enumerate(datasets):
                rng._step(prefixes[d : d + 1], sims, sim_keys, sim_scratch)
                rng._step(sim_keys, slots, keys, scratch)
                want = rng.counter_hash(seed, stream, dataset, sims, slots)
                assert keys.tobytes() == want.tobytes()


class TestPermutationNull:
    def test_single_model_is_degenerate(self):
        ranks = np.array([[1.0, 1.0, 1.0]])
        null = permutation_null(ranks, nsim=50, seed=1)
        assert np.all(null == 1.0)

    def test_two_models_one_dataset(self):
        ranks = np.array([[1.0], [2.0]])
        null = permutation_null(ranks, nsim=20000, seed=2)
        assert set(np.unique(null[:, 0])) == {1.0, 2.0}
        frac_one = float(np.mean(null[:, 0] == 1.0))
        assert frac_one == pytest.approx(0.5, abs=0.02)

    def test_two_models_three_datasets_enumeration(self):
        ranks = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        # Exact enumeration oracle over the 2^3 independent shuffles.
        outcomes = [
            np.mean(picks)
            for picks in itertools.product([1.0, 2.0], repeat=3)
        ]
        expected = outcomes.count(1.0) / len(outcomes)
        assert expected == 1.0 / 8.0
        null = permutation_null(ranks, nsim=20000, seed=3)
        frac = float(np.mean(null[:, 0] == 1.0))
        assert frac == pytest.approx(expected, abs=0.02)

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(4, 6))
        matrix = ScoreMatrix(tuple("abcd"), tuple(f"d{i}" for i in range(6)),
                             values, "lower_better")
        ranks = rank_transform(matrix)
        full = permutation_null(ranks, nsim=500, seed=4)
        for chunk in (1, 7, 100, 499, 500, 1000):
            np.testing.assert_array_equal(
                permutation_null(ranks, nsim=500, seed=4, chunk_size=chunk), full
            )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault accounting")
    def test_a_fresh_process_faults_its_temporaries_in_once(self):
        # Temporaries allocated per dataset would be faulted in again for
        # each of the 160 datasets (about 230,000 faults), since nothing big
        # has been allocated before in a fresh interpreter.
        code = """
import resource
import numpy as np
from probeval import ranking
ranks = np.argsort(np.random.default_rng(0).random((20, 160)), axis=0) + 1.0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ranking.permutation_null(ranks, nsim=20_000, seed=7)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert int(done.stdout) < 50_000

    def test_no_datasets_is_an_error(self):
        with pytest.raises(ValueError, match="dataset"):
            permutation_null(np.empty((3, 0)), 5, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_argsort_oracle_byte_for_byte(self, data):
        # Models on both sides of a power of two change the packed key's
        # index width: 0, 1, 4, 5 and 6 bits.
        models = data.draw(st.one_of(st.sampled_from([1, 2, 16, 17, 32, 33]), st.integers(1, 40)))
        datasets = data.draw(st.integers(1, 6))
        nsim = data.draw(st.integers(1, 300))
        chunk = data.draw(st.one_of(st.none(), st.integers(1, nsim + 5)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        # Few distinct scores make tied ranks common.
        values = np.array(data.draw(st.lists(st.integers(0, 3), min_size=models * datasets,
                                             max_size=models * datasets)), dtype=float)
        values = values.reshape(models, datasets)
        if data.draw(st.booleans()):
            values[:, data.draw(st.integers(0, datasets - 1))] = np.nan
        matrix = ScoreMatrix(tuple(f"m{m}" for m in range(models)),
                             tuple(f"d{d}" for d in range(datasets)), values, LOWER_BETTER)
        ranks = rank_transform(matrix)
        got = permutation_null(ranks, nsim=nsim, seed=seed, chunk_size=chunk)
        want = oracle.permutation_null(ranks, nsim=nsim, seed=seed, chunk_size=chunk)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_more_threads_than_cpus_give_the_same_bytes(self, monkeypatch):
        # Eight threads share ``out`` on however few CPUs there are, and a
        # short switch interval makes them interleave often.
        monkeypatch.setattr(ranking, "_usable_cpus", lambda: 8)
        ranks = rank_transform(ScoreMatrix(tuple("abcdefg"), tuple(f"d{i}" for i in range(5)),
                                           np.random.default_rng(3).normal(size=(7, 5)),
                                           LOWER_BETTER))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = permutation_null(ranks, nsim=3000, seed=8, chunk_size=37)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == oracle.permutation_null(ranks, nsim=3000, seed=8).tobytes()

    def test_rows_whose_keys_agree_above_the_low_bits_fall_back_to_argsort(self, monkeypatch):
        def collide(keys, sims, slots):
            # In odd simulations every key of a row shares its high bits, and
            # the 3 low bits of six slots hold (3 * slot + sim) % 4, which
            # repeats: only a stable argsort of the full keys orders the row.
            odd = (sims % 2 == 1)[:, 0]
            low = (slots * np.uint64(3) + sims[odd]) % np.uint64(4)
            keys[odd] = (keys[odd, :1] & ~np.uint64(7)) | low
            return keys

        real_step = rng._step
        sims_of_thread = threading.local()

        def colliding_step(h, stream, out, scratch):
            # Both the null and the oracle hash a block of simulations, then
            # its slots, one step each.
            real_step(h, stream, out, scratch)
            if out.ndim == 2 and out.shape[1] == 1:
                sims_of_thread.sims = stream
            elif out.ndim == 2:
                collide(out, sims_of_thread.sims, stream)
            return out

        monkeypatch.setattr(rng, "_step", colliding_step)
        ranks = np.tile(np.arange(1.0, 7.0)[:, None], (1, 3))
        got = permutation_null(ranks, nsim=40, seed=5, chunk_size=7)
        want = oracle.permutation_null(ranks, nsim=40, seed=5)
        assert got.tobytes() == want.tobytes()
        # Sorting the packed keys alone would keep every odd row in slot
        # order, where each model keeps its own rank.
        assert not (got[1::2] == ranks[:, 0]).all(axis=1).any()

    @pytest.mark.parametrize("chunk", [None, 37])
    def test_real_hashes_agreeing_above_the_low_bits_take_the_argsort(self, chunk):
        # 300 models take b = 10 bits of rank code, which leaves 22 key
        # bits in the high word: about 300**2 / 2**23, one row in a
        # hundred, has two keys agreeing there, with no keys forced.
        models, nsim, seed = 300, 400, 12
        values = np.random.default_rng(30).integers(0, 200, size=(models, 3)).astype(float)
        ranks = rank_transform(ScoreMatrix(tuple(f"m{m}" for m in range(models)),
                                           ("d0", "d1", "d2"), values, LOWER_BETTER))
        sims = np.arange(nsim, dtype=np.uint64)[:, None]
        slots = np.arange(models, dtype=np.uint64)
        tied = 0
        for d in range(3):
            top = rng.counter_hash(seed, ranking._SHUFFLE_STREAM, d, sims, slots) >> np.uint64(42)
            top.sort(axis=1)
            tied += int((np.diff(top, axis=1) == 0).any(axis=1).sum())
        assert 0 < tied < 3 * nsim // 20
        got = permutation_null(ranks, nsim=nsim, seed=seed, chunk_size=chunk)
        want = oracle.permutation_null(ranks, nsim=nsim, seed=seed, chunk_size=chunk)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.5, 4.0, 1.25, np.inf, np.nan],
                             ids=["half", "m-plus-one", "quarter", "inf", "one-nan"])
    def test_ranks_must_be_whole_or_half_numbers_from_one_to_m(self, bad):
        ranks = np.array([[1.0, 1.0], [2.0, 2.5], [3.0, 2.5]])
        ranks[1, 1] = bad
        with pytest.raises(ValueError, match=r"whole or half numbers in \[1, 3\], or all NaN"):
            permutation_null(ranks, nsim=10, seed=1)

    def test_an_all_nan_dataset_gives_the_oracle_bytes(self):
        ranks = np.array([[1.0, np.nan, 2.0], [2.0, np.nan, 1.0], [3.0, np.nan, 3.0]])
        got = permutation_null(ranks, nsim=50, seed=3, chunk_size=7)
        want = oracle.permutation_null(ranks, nsim=50, seed=3, chunk_size=7)
        assert np.isnan(got).all() and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [
        np.random.default_rng(11).normal(size=(4, 6)),
        np.random.default_rng(12).normal(size=(5, 8)) + np.linspace(-2.0, 0.0, 5)[:, None],
        np.random.default_rng(13).integers(0, 3, size=(5, 7)).astype(float),
        np.random.default_rng(14).integers(0, 2, size=(3, 9)).astype(float),
    ], ids=["4x6", "5x8-dominant", "5x7-ties", "3x9-ties"])
    def test_monte_carlo_p_is_within_5_sigma_of_the_exact_p(self, values):
        matrix = ScoreMatrix(tuple(f"m{m}" for m in range(values.shape[0])),
                             tuple(f"d{d}" for d in range(values.shape[1])), values, LOWER_BETTER)
        ranks = rank_transform(matrix)
        avg_ranks, _ = observed_statistics(ranks, matrix)
        nsim = 20_000
        null = permutation_null(ranks, nsim=nsim, seed=21)
        for m in range(ranks.shape[0]):
            exact = float(oracle.exact_p(ranks, m))
            got = empirical_p(avg_ranks[m], null[:, m])
            # The pseudo-count moves p by at most 1 / (nsim + 1).
            bound = 5 * math.sqrt(exact * (1 - exact) / nsim) + 1 / (nsim + 1)
            assert abs(got - exact) <= bound, (m, got, exact)

    def test_exact_p_matches_enumeration(self):
        ranks = np.array([[1.0, 1.5, 2.0], [2.0, 1.5, 1.0], [3.0, 3.0, 3.0]])
        outcomes = list(itertools.product(*(ranks[:, d] for d in range(3))))
        for m in range(3):
            at_most = sum(sum(o) <= ranks[m].sum() for o in outcomes)
            assert oracle.exact_p(ranks, m) == Fraction(at_most, len(outcomes))


class TestEmpiricalP:
    def test_pseudo_count_formula(self):
        null = np.full(20000, 10.0)
        assert empirical_p(1.0, null) == pytest.approx(1.0 / 20001.0)

    def test_upper_bound(self):
        null = np.zeros(20000)
        assert empirical_p(1.0, null) == 1.0

    def test_symmetric_null(self):
        rng = np.random.default_rng(10)
        null = rng.normal(size=20001)
        assert empirical_p(0.0, null) == pytest.approx(0.5, abs=0.02)

    def test_bounds_hold_for_every_model(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(4, 8))
        matrix = ScoreMatrix(tuple("abcd"), tuple(f"d{i}" for i in range(8)),
                             values, "lower_better")
        ranks = rank_transform(matrix)
        avg_ranks, _ = observed_statistics(ranks, matrix)
        nsim = 999
        null = permutation_null(ranks, nsim=nsim, seed=6)
        for m in range(4):
            p = empirical_p(avg_ranks[m], null[:, m])
            assert 1.0 / (nsim + 1) <= p <= 1.0


class TestArgumentChecks:
    matrix = ScoreMatrix(("a", "b"), ("d0", "d1", "d2"), np.arange(6.0).reshape(2, 3),
                         LOWER_BETTER)

    def test_score_matrix_shape(self):
        with pytest.raises(ValueError, match=r"values must be shaped \(models, datasets\)"):
            ScoreMatrix(("a", "b"), ("d0",), [[1.0, 2.0]], LOWER_BETTER)

    def test_observed_statistics_shapes(self):
        with pytest.raises(ValueError, match="ranks and matrix shapes differ"):
            observed_statistics(np.ones((3, 2)), self.matrix)

    def test_permutation_null_needs_a_simulation(self):
        with pytest.raises(ValueError, match="nsim must be >= 1"):
            permutation_null(rank_transform(self.matrix), nsim=0, seed=1)

    def test_empirical_p_needs_a_null_sample(self):
        with pytest.raises(ValueError, match="null sample must be nonempty"):
            empirical_p(1.0, [])

class TestBuildLeaderboard:
    def test_identical_models_not_informative(self):
        records = runs_from_matrix([[1.0, 2.0], [1.0, 2.0]])
        with pytest.warns(DroppedDatasetWarning):
            with pytest.raises(NoInformativeDatasetsError):
                build_leaderboard(records, "crps", nsim=10, seed=1)

    def test_dominant_model_ranks_first(self):
        rng = np.random.default_rng(14)
        values = np.vstack([rng.uniform(0, 1, size=10), rng.uniform(2, 3, size=10)])
        records = runs_from_matrix(values)
        rows = build_leaderboard(records, "crps", nsim=2000, seed=2)
        assert rows[0].model == "m0"
        assert rows[0].rank == 1
        assert rows[0].p_value < 0.05
        assert rows[1].p_value == 1.0
        assert rows[0].average_rank == 1.0

    def test_rows_sorted_and_ranks_consecutive(self):
        rng = np.random.default_rng(15)
        records = runs_from_matrix(rng.normal(size=(5, 9)))
        rows = build_leaderboard(records, "crps", nsim=500, seed=3)
        assert [r.rank for r in rows] == [1, 2, 3, 4, 5]
        assert all(a.p_value <= b.p_value for a, b in zip(rows, rows[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(16)
        records = runs_from_matrix(rng.normal(size=(3, 7)))
        rows_a = build_leaderboard(records, "crps", nsim=400, seed=9)
        rows_b = build_leaderboard(records, "crps", nsim=400, seed=9)
        assert rows_a == rows_b

    def test_higher_better_metric_ranks_high_scores_first(self):
        values = [[0.9] * 8, [0.1] * 8]
        records = runs_from_matrix(values, metric="r2")
        rows = build_leaderboard(records, "r2", nsim=1000, seed=4)
        assert rows[0].model == "m0"
        assert rows[0].observed == pytest.approx(0.9)
        assert rows[0].average_rank == 1.0

    def test_spec_not_in_registry(self):
        # An interval score at a level the CLI can emit (--alpha 0.2).
        records = runs_from_matrix([[1.0, 2.0, 1.5], [3.0, 4.0, 2.5]], metric="interval_score_80")
        spec = MetricSpec("interval_score_80", alpha=0.2)
        rows = build_leaderboard(records, spec, nsim=200, seed=1)
        assert [r.model for r in rows] == ["m0", "m1"]
        assert rows[0].average_rank == 1.0

    def test_tiebreak_uses_observed_under_orientation(self):
        # Split dominance: both models have average rank 1.5.  With a seed
        # whose single null shuffle draws a mixed rank vector, both counts
        # saturate and the p-values tie at 1.0 exactly; the observed raw
        # mean must then decide, in the direction of the orientation.
        split_ranks = np.array([[1.0, 2.0], [2.0, 1.0]])
        seed = next(
            s for s in range(50)
            if permutation_null(split_ranks, nsim=1, seed=s)[0, 0] == 1.5
        )
        values = [[1.0, 10.0], [2.0, 3.0]]  # observed means 5.5 vs 2.5

        rows = build_leaderboard(runs_from_matrix(values), "crps", nsim=1, seed=seed)
        assert rows[0].p_value == rows[1].p_value == 1.0
        assert rows[0].model == "m1"  # lower observed mean wins for crps

        records_r2 = runs_from_matrix(values, metric="r2")
        rows = build_leaderboard(records_r2, "r2", nsim=1, seed=seed)
        assert rows[0].p_value == rows[1].p_value == 1.0
        assert rows[0].model == "m0"  # higher observed mean wins for r2

    def test_fold_mean_replacement_invariance(self):
        rng = np.random.default_rng(18)
        base = rng.normal(size=(3, 6))
        records = runs_from_matrix(base, folds=1)
        rows_single = build_leaderboard(records, "crps", nsim=300, seed=5)

        # Replace each cell by 4 identical folds carrying the cell mean.
        records_rep = runs_from_matrix(base, folds=4)
        rows_rep = build_leaderboard(records_rep, "crps", nsim=300, seed=5)
        assert rows_single == rows_rep

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(20)
        base = rng.uniform(0.1, 2.0, size=(4, 9))
        records = runs_from_matrix(base, folds=1)
        rows_base = build_leaderboard(records, "crps", nsim=400, seed=6)

        transformed = []
        for rec in records:
            d = int(rec.dataset[1:])
            transformed.append(
                RunRecord(rec.model, rec.dataset, rec.fold, rec.metric,
                          rec.value ** 3 * (1.0 + d) + d)
            )
        rows_t = build_leaderboard(transformed, "crps", nsim=400, seed=6)
        assert [r.model for r in rows_t] == [r.model for r in rows_base]
        assert [r.p_value for r in rows_t] == [r.p_value for r in rows_base]
        assert [r.average_rank for r in rows_t] == [r.average_rank for r in rows_base]
