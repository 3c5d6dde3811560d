"""Seeded input generator for the benchmark workloads.

    python3 perfbench/inputs.py --workload NAME --seed N --out PATH

Writes the workload's input file at PATH and a JSON description of it at
PATH.meta.json (record count, the form of each forecast record, the
models of a run file, sha256, library versions).  The same workload and
seed always give the same bytes.

* score-small: ``synth.self_calibrated_records``, as ``probeval synth
  --scenario self_calibrated`` writes them.
* score-dense: records on one fixed 200-bin grid, a third each of 200-bin
  histograms, 199-level quantile sets and 200-member sample ensembles.
  ``synth`` cannot emit this, so it is built here with numpy.
* leaderboard: ``synth.generate_runs`` once per suite metric, written
  with one ``io.write_runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys

import numpy as np
import scipy
from scipy.special import ndtr

from probeval import io, synth
from probeval.forecast import HistogramForecast, QuantileForecast, SampleForecast
from probeval.io import ForecastRecord

from workloads import WORKLOADS

_FORM_CODES = {HistogramForecast: "h", QuantileForecast: "q", SampleForecast: "s"}


def dense_records(n: int, bins: int, seed: int) -> list[ForecastRecord]:
    """Self-calibrated forecasts on one fixed grid over [-10, 10].

    Each record's truth is a normal bin distribution mixed with a 2%
    uniform floor (every bin positive, as a softmax head emits), uniform
    within bins.  The target and the quantile and sample forms are all
    drawn from that truth's piecewise-linear inverse CDF.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(-10.0, 10.0, bins + 1)
    levels = np.arange(1, bins) / bins
    records = []
    for i in range(n):
        loc = rng.uniform(-4.0, 4.0)
        scale = rng.uniform(0.5, 2.5)
        mass = np.diff(ndtr((edges - loc) / scale))
        probs = 0.98 * mass / mass.sum() + 0.02 / bins
        cdf = np.concatenate(([0.0], np.cumsum(probs)))
        cdf[-1] = 1.0
        target = float(np.interp(rng.random(), cdf, edges))
        form = i % 3
        if form == 0:
            forecast = HistogramForecast(edges, probs)
        elif form == 1:
            forecast = QuantileForecast(levels, np.interp(levels, cdf, edges))
        else:
            forecast = SampleForecast(np.interp(rng.random(bins), cdf, edges))
        records.append(ForecastRecord(id=str(i), target=target, forecast=forecast))
    return records


def suite_runs(spec: dict, seed: int) -> list:
    runs = []
    for k, metric in enumerate(spec["metrics"]):
        runs += synth.generate_runs(synth.ScenarioSpec(
            kind=spec["scenario"], models=spec["models"], datasets=spec["datasets"],
            folds=spec["folds"], seed=seed * len(spec["metrics"]) + k, metric=metric,
        ))
    return runs


def generate(name: str, seed: int, path: str) -> dict:
    """Write the input of workload ``name`` for ``seed``; return its description."""
    spec = WORKLOADS[name]
    meta: dict = {"workload": name, "seed": seed}
    if spec["kind"] == "score":
        if name == "score-dense":
            records = dense_records(spec["records"], spec["grid_bins"], seed)
        else:
            records = synth.self_calibrated_records(spec["records"], seed)
        io.write_forecasts(records, path)
        meta["records"] = len(records)
        meta["forms"] = "".join(_FORM_CODES[type(r.forecast)] for r in records)
    else:
        runs = suite_runs(spec, seed)
        io.write_runs(runs, path)
        meta["records"] = len(runs)
        meta["models"] = sorted({r.model for r in runs})
    with open(path, "rb") as fh:
        meta["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    meta["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    meta = generate(args.workload, args.seed, args.out)
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
