"""The benchmark's workloads: input sizes and the command each one times.
Stdlib only, so the parent process never imports the program under test.

Sizes are scaled so that one CLI invocation takes about 2.5-4.5 s on a
2-core Xeon, which lets a run of a few tens of seconds take a median over
several invocations.  Why each workload is here is in NOTES.md.
"""

from __future__ import annotations

# The 21 built-in metric identifiers, frozen here so that a change to the
# program's registry cannot silently change what a workload asks for.
ALL_METRICS = (
    "mae", "rmse", "crps", "crls", "log_score", "brier_score", "r2",
    "energy_score_beta_0.2", "energy_score_beta_0.5", "energy_score_beta_1.0",
    "energy_score_beta_1.5", "energy_score_beta_2.0",
    "wcrps_left", "wcrps_right", "wcrps_center",
    "interval_score_90", "interval_score_95",
    "sharpness", "dispersion", "coverage_90", "coverage_95",
)

# Metrics whose values run through the histogram form of a record.
HISTOGRAM_METRICS = ("log_score", "brier_score")

# Metric families a run-record suite export carries; the leaderboard ranks
# on the first.
SUITE_METRICS = ("crps", "crls", "log_score", "mae", "rmse")

# Seed of the reference inputs whose outputs are recorded in
# references.json.
REFERENCE_SEED = 0

# Seed of the leaderboard's permutation null.
LEADERBOARD_SEED = 7

WORKLOADS = {
    "score-small": {
        "kind": "score",
        "records": 4_000,
        "metrics": ALL_METRICS,
    },
    "score-dense": {
        "kind": "score",
        "records": 1_200,
        "grid_bins": 200,
        # brier_score is left out: see NOTES.md, "Finding".
        "metrics": tuple(m for m in ALL_METRICS if m != "brier_score"),
    },
    "leaderboard": {
        "kind": "leaderboard",
        "scenario": "dominant",
        "models": 20,
        "datasets": 160,
        "folds": 10,
        "metrics": SUITE_METRICS,
        "nsim": None,  # the CLI default, 20,000
    },
}


def cli_args(workload: dict, input_path: str, out_path: str) -> list[str]:
    """Arguments after ``python3 -m probeval.cli`` for one timed invocation."""
    if workload["kind"] == "score":
        return ["score", "--forecasts", input_path,
                "--metrics", ",".join(workload["metrics"]), "--out", out_path]
    # --wide prints full-precision columns, so the byte comparison with the
    # reference sees every digit of the p-values and ranks.
    args = ["leaderboard", "--runs", input_path, "--metric", workload["metrics"][0],
            "--seed", str(LEADERBOARD_SEED), "--wide", "--out", out_path]
    if workload["nsim"] is not None:
        args += ["--nsim", str(workload["nsim"])]
    return args
