"""Traced replay of one ``probeval score`` or ``probeval leaderboard`` call.

    python3 perfbench/replay.py --workload NAME --input PATH --out PATH \
        --spans PATH --run-id ID

Pass 1 makes the public calls the CLI command makes, in the same order
and with the same arguments, with a span around each one, and writes the
same output file.  Pass 2 breaks the work down: JSON decoding and form
construction, conversion, and each metric kernel family over the
pre-converted batch for scoring; each stage of ``build_leaderboard`` for
ranking.  Pass 2 recomputes what pass 1 produced and exits 3 if any
result differs.

Spans (name, start, end, parent, run id) and counts stay in memory and
are written to the spans file at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from probeval import diagnostics, io, ranking, scoring
from probeval.forecast import (
    HistogramForecast,
    QuantileForecast,
    SampleForecast,
    quantiles_to_histogram,
    to_discrete,
)

from workloads import HISTOGRAM_METRICS, LEADERBOARD_SEED, WORKLOADS

_CONSTRUCTORS = {
    "histogram": lambda o: HistogramForecast(o["edges"], o["probs"]),
    "quantiles": lambda o: QuantileForecast(o["levels"], o["values"]),
    "samples": lambda o: SampleForecast(o["values"]),
}


class Tracer:
    """In-memory spans and counts of one replay."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.monotonic()
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._open.pop()


class Mismatch(Exception):
    """Pass 2 computed something other than pass 1."""


def _expect_mean(name: str, value: float, results: dict) -> None:
    got = results[name].mean
    if not math.isclose(value, got, rel_tol=1e-12, abs_tol=1e-15):
        raise Mismatch(f"{name}: breakdown mean {value!r}, score_batch mean {got!r}")


def replay_score(t: Tracer, spec: dict, path: str, out: str) -> None:
    names = list(spec["metrics"])
    with t.span("cli.score"):
        with t.span("io.read_forecasts"):
            records = io.read_forecasts(path)
        specs = [scoring.resolve_metric(n) for n in names]
        with t.span("scoring.score_batch"):
            results = scoring.score_batch(records, specs)
        with t.span("io.write_scores"):
            io.write_scores(records, results, out)

    with t.span("breakdown"):
        with t.span("io.json_decode"):
            with open(path, encoding="utf-8") as fh:
                objs = [json.loads(line) for line in fh if line.strip()]
        with t.span("forecast.construct"):
            forecasts = [_CONSTRUCTORS[o["type"]](o) for o in objs]
        targets = np.array([r.target for r in records], dtype=float)
        with t.span("forecast.to_discrete"):
            discretes = [to_discrete(f) for f in forecasts]
        hists = None
        if any(n in HISTOGRAM_METRICS for n in names):
            with t.span("forecast.quantiles_to_histogram"):
                hists = [quantiles_to_histogram(f) if isinstance(f, QuantileForecast)
                         else f if isinstance(f, HistogramForecast) else None
                         for f in forecasts]
        pairs = list(zip(discretes, targets))
        for family, run in _kernel_families(names, pairs, hists, targets):
            with t.span(family):
                for name, value in run():
                    _expect_mean(name, value, results)

    forms = [o["type"] for o in objs]
    support = sum(d.points.size for d in discretes)
    parsed = sum(len(o["probs"] if o["type"] == "histogram" else o["values"]) for o in objs)
    betas = sum(n.startswith("energy_score_beta_") for n in names)
    t.counts.update({
        "io.records_histogram": forms.count("histogram"),
        "io.records_quantiles": forms.count("quantiles"),
        "io.records_samples": forms.count("samples"),
        "forecast.support_points": support,
        "forecast.kept_bins_frac": support / parsed,
        "scoring.energy_pairs": betas * sum(d.points.size ** 2 for d in discretes),
    })


def _mean(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.mean(arr[~np.isnan(arr)]))


def _kernel_families(names, pairs, hists, targets):
    """(span name, thunk) per metric family requested; each thunk calls the
    family's public kernels over the pre-converted batch and yields
    (metric name, batch score) for every metric of the family."""
    has = set(names).__contains__
    specs = {n: scoring.resolve_metric(n) for n in names}

    def per_record(kernel, *args):
        return _mean([kernel(f, y, *args) for f, y in pairs])

    def energy():
        for n in names:
            if n.startswith("energy_score_beta_"):
                yield n, per_record(scoring.energy_score, specs[n].beta)

    def wcrps():
        ref = {"weight_loc": float(np.mean(targets)), "weight_scale": float(np.std(targets))}
        for n in names:
            if n.startswith("wcrps_"):
                yield n, per_record(scoring.wcrps, replace(specs[n], **ref))

    def interval():
        for n in names:
            if n.startswith("interval_score_"):
                yield n, per_record(scoring.interval_score, specs[n].alpha)

    def histogram(kernel, name):
        def run():
            yield name, _mean([kernel(h, y) if h is not None else math.nan
                               for h, y in zip(hists, targets)])
        return run

    def point():
        medians = np.array([f.median() for f, _ in pairs])
        means = np.array([f.mean() for f, _ in pairs])
        pm = scoring.point_metrics(medians, means, targets)
        yield from ((n, v) for n, v in (("mae", pm.mae), ("rmse", pm.rmse), ("r2", pm.r2))
                    if has(n))

    def sharpness():
        forecasts = [f for f, _ in pairs]
        if has("sharpness"):
            yield "sharpness", diagnostics.sharpness(forecasts)
        if has("dispersion"):
            yield "dispersion", diagnostics.dispersion(forecasts)

    def coverage():
        for n in names:
            if n.startswith("coverage_"):
                yield n, diagnostics.coverage(pairs, int(n.rsplit("_", 1)[1]) / 100)

    families = [
        ("scoring.crps", has("crps"), lambda: [("crps", per_record(scoring.crps))]),
        ("scoring.crls", has("crls"), lambda: [("crls", per_record(scoring.crls))]),
        ("scoring.energy_score", any(n.startswith("energy_score_") for n in names), energy),
        ("scoring.wcrps", any(n.startswith("wcrps_") for n in names), wcrps),
        ("scoring.interval_score", any(n.startswith("interval_score_") for n in names), interval),
        ("scoring.log_score", has("log_score"), histogram(scoring.log_score, "log_score")),
        ("scoring.brier_score", has("brier_score"), histogram(scoring.brier_score, "brier_score")),
        ("scoring.point_metrics", has("mae") or has("rmse") or has("r2"), point),
        ("diagnostics.sharpness", has("sharpness") or has("dispersion"), sharpness),
        ("diagnostics.coverage", any(n.startswith("coverage_") for n in names), coverage),
    ]
    return [(family, run) for family, wanted, run in families if wanted]


def replay_leaderboard(t: Tracer, spec: dict, path: str, out: str) -> None:
    metric = spec["metrics"][0]
    nsim = ranking.DEFAULT_NSIM if spec["nsim"] is None else spec["nsim"]
    with t.span("cli.leaderboard"):
        with t.span("io.read_runs"):
            records = io.read_runs(path)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            with t.span("ranking.build_leaderboard"):
                rows = ranking.build_leaderboard(
                    records, metric, nsim=nsim, seed=LEADERBOARD_SEED, chunk_size=None)
        with t.span("io.write_leaderboard"):
            io.write_leaderboard(rows, out, wide=True)

    with t.span("breakdown"), warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        with t.span("ranking.aggregate_folds"):
            matrix = ranking.aggregate_folds(records, metric)
        with t.span("ranking.drop_zero_variance"):
            matrix = ranking.drop_zero_variance(matrix)
        with t.span("ranking.rank_transform"):
            ranks = ranking.rank_transform(matrix)
        with t.span("ranking.observed_statistics"):
            avg_ranks, _ = ranking.observed_statistics(ranks, matrix)
        with t.span("ranking.permutation_null"):
            null = ranking.permutation_null(ranks, nsim=nsim, seed=LEADERBOARD_SEED)
        with t.span("ranking.empirical_p"):
            p_values = [ranking.empirical_p(avg_ranks[m], null[:, m])
                        for m in range(len(matrix.models))]
    if sorted(p_values) != sorted(r.p_value for r in rows):
        raise Mismatch("breakdown p-values differ from build_leaderboard's")

    n_models, n_datasets = ranks.shape
    used = sum(r.metric == metric for r in records)
    t.counts.update({
        "io.run_rows": len(records),
        "ranking.rows_used_frac": used / len(records),
        "ranking.null_keys": nsim * n_datasets * n_models,
        # The CLI passes no chunk size, so each uint64 key, int64
        # permutation and float64 sum temporary spans all nsim rows.
        "ranking.null_temp_bytes": nsim * n_models * 8,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    tracer = Tracer(args.run_id)
    replay = replay_score if spec["kind"] == "score" else replay_leaderboard
    try:
        replay(tracer, spec, args.input, args.out)
    except Mismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
