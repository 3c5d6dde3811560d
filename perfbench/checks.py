"""Output checks for score tables and leaderboards written by the CLI.

Each check returns a list of problems (empty when the output is right)
plus the facts a later comparison needs: the mean row of a score table,
the text of a leaderboard.  Stdlib only.
"""

from __future__ import annotations

import csv
import math

LEADERBOARD_HEADER = ["Rank", "Model", "p-value", "Observed", "AverageRank",
                      "p-value-full", "Observed-full", "AverageRank-full"]

# CRPS and the beta=1 energy score are the same integral computed two ways.
CRPS_ENERGY_TOL = 1e-9
# Relative tolerance on column means against the recorded reference.
MEAN_REL_TOL = 1e-9


def check_scores(path: str, meta: dict, metrics) -> tuple[list[str], dict[str, float]]:
    """Check a ``probeval score`` table against its input's description.

    * one row per input record, in input order, then a ``mean`` row;
    * ``crps`` equals ``energy_score_beta_1.0`` within 1e-9 on every row;
    * ``log_score`` cells are empty exactly on sample records.

    Returns (problems, column means from the mean row).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    n = meta["records"]
    expected_header = ["id", "target", *metrics]
    if not rows or rows[0] != expected_header:
        return [f"header is {rows[0] if rows else None}, expected {expected_header}"], {}
    body, mean_row = rows[1:-1], rows[-1] if len(rows) > 1 else []
    problems = []
    if len(body) != n or not mean_row or mean_row[0] != "mean":
        problems.append(f"{len(rows) - 1} rows after the header, expected {n} records and a mean row")
        return problems, {}
    col = {name: 2 + i for i, name in enumerate(metrics)}
    for i, row in enumerate(body):
        if row[0] != str(i):
            problems.append(f"row {i + 1}: id {row[0]!r}, expected {i}")
            break
    for row in body + [mean_row]:
        if "crps" in col and "energy_score_beta_1.0" in col:
            a, b = row[col["crps"]], row[col["energy_score_beta_1.0"]]
            if not a or not b or abs(float(a) - float(b)) > CRPS_ENERGY_TOL:
                problems.append(f"record {row[0]}: crps {a!r} != energy_score_beta_1.0 {b!r}")
                break
    if "log_score" in col:
        for row, form in zip(body, meta["forms"]):
            if (row[col["log_score"]] == "") != (form == "s"):
                problems.append(f"record {row[0]}: log_score cell {row[col['log_score']]!r} on a {form!r} record")
                break
    means = {}
    for name in metrics:
        cell = mean_row[col[name]]
        try:
            means[name] = float(cell)
        except ValueError:
            problems.append(f"mean row: {name} is {cell!r}")
    return problems, means


def compare_means(means: dict[str, float], reference: dict[str, float]) -> list[str]:
    """Column means against a recorded reference, within 1e-9 relative."""
    if set(means) != set(reference):
        return [f"mean columns {sorted(means)} differ from the reference {sorted(reference)}"]
    return [
        f"mean of {name} is {means[name]!r}, reference {ref!r}"
        for name, ref in reference.items()
        if not math.isclose(means[name], ref, rel_tol=MEAN_REL_TOL, abs_tol=0.0)
    ]


def check_leaderboard(path: str, meta: dict) -> tuple[list[str], str]:
    """Check a ``probeval leaderboard --wide`` file against its input's description.

    The header is fixed, every model of the input appears once, ranks run
    1..M, p-values lie in (0, 1] in ascending order and average ranks in
    [1, M].  Returns (problems, file text).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(text.splitlines()))
    models = meta["models"]
    m = len(models)
    if not rows or rows[0] != LEADERBOARD_HEADER:
        return [f"header is {rows[0] if rows else None}"], text
    body = rows[1:]
    problems = []
    if [r[0] for r in body] != [str(k) for k in range(1, m + 1)]:
        problems.append(f"ranks are {[r[0] for r in body]}, expected 1..{m}")
    if sorted(r[1] for r in body) != models:
        problems.append("ranked models differ from the input's models")
    try:
        p = [float(r[5]) for r in body]
        avg = [float(r[7]) for r in body]
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable row: {exc}"], text
    if any(not 0.0 < v <= 1.0 for v in p) or p != sorted(p):
        problems.append(f"p-values {p} not ascending within (0, 1]")
    if any(not 1.0 <= v <= m for v in avg):
        problems.append(f"average ranks outside [1, {m}]")
    return problems, text
