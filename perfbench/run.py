"""Benchmark of the ``probeval score`` and ``probeval leaderboard`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

Run from the root of a probeval checkout; the program is imported from
its ``src`` directory.  Set-up generates the workload's input from the
seed, checks one invocation on the recorded reference input against
``references.json`` and, with ``--trace 0``, times ``probeval score
--help`` three times.  Then, for about S seconds, a closed loop runs one
CLI invocation at a time (the next starts when the previous has exited
and its output has been checked).

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` each loop step also runs the traced replay
(replay.py) and the last line carries the per-layer metrics.  ``--record``
re-records the reference output of a workload at the current commit.

Everything the run writes goes under ``.perfbench_work/`` in the
checkout; bulky inputs and outputs are deleted at the end, and a JSON
file with the environment, every sample and the metrics is kept in
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import checks
from workloads import REFERENCE_SEED, WORKLOADS, cli_args

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "frac",
}
# Spans of the traced replay whose self time is a per-layer metric.
LAYER_SPANS = (
    "io.read_forecasts", "io.json_decode", "forecast.construct", "forecast.to_discrete",
    "forecast.quantiles_to_histogram", "scoring.score_batch",
    "scoring.crps", "scoring.crls", "scoring.energy_score", "scoring.wcrps",
    "scoring.interval_score", "scoring.log_score", "scoring.brier_score",
    "scoring.point_metrics", "diagnostics.sharpness", "diagnostics.coverage",
    "io.write_scores",
    "io.read_runs", "ranking.build_leaderboard", "ranking.aggregate_folds",
    "ranking.drop_zero_variance", "ranking.rank_transform", "ranking.observed_statistics",
    "ranking.permutation_null", "ranking.empirical_p", "io.write_leaderboard",
)
# Spans that, with the conversions, make up score_batch's own work.
KERNEL_SPANS = tuple(s for s in LAYER_SPANS if s.startswith(("scoring.", "diagnostics."))
                     and s != "scoring.score_batch")
LAYER_COUNTS = {
    "io.records_histogram": "count", "io.records_quantiles": "count",
    "io.records_samples": "count", "io.run_rows": "count",
    "forecast.support_points": "count", "forecast.kept_bins_frac": "frac",
    "scoring.energy_pairs": "count", "ranking.rows_used_frac": "frac",
    "ranking.null_keys": "count", "ranking.null_temp_bytes": "B",
}


@dataclass
class Invocation:
    """One finished child process."""

    code: int
    start: float
    wall: float
    rss_mib: float
    stderr: str


def spawn(argv: list[str], env: dict, out_path: str) -> Invocation:
    """Run ``argv`` to completion with stdout/stderr in files.

    Wall time runs from just before the spawn to the reap; the child's
    max RSS comes from its own ``wait4`` usage.  A child still running
    after CHILD_TIMEOUT_S, or when this process is interrupted, is killed
    and reaped.
    """
    err_path = out_path + ".stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path + ".stdout", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.monotonic() - start
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Invocation(os.waitstatus_to_exitcode(status), start, wall, usage.ru_maxrss / 1024.0,
                      stderr)


def child_env(root: str) -> dict:
    """The program from this checkout only, BLAS pools capped at nproc, and
    PROBEVAL_WORKERS unset so the CLI takes its default chunking."""
    env = {k: v for k, v in os.environ.items() if k not in ("PROBEVAL_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in BLAS_THREAD_VARS})
    return env


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """Counts and problems of every checked invocation of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, inv: Invocation, problems: list[str]) -> bool:
        self.attempted += 1
        if inv.code != 0:
            tail = inv.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit {inv.code}: {tail[0]}"] + problems
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def generate(name: str, seed: int, path: str, env: dict) -> dict:
    """Write the input of ``name`` for ``seed`` at ``path``; return its description."""
    tmp = f"{path}.{os.getpid()}.tmp"
    inv = spawn([sys.executable, os.path.join(HERE, "inputs.py"), "--workload", name,
                 "--seed", str(seed), "--out", tmp], env, tmp)
    for suffix in (".stdout", ".stderr"):
        os.remove(tmp + suffix)
    if inv.code != 0:
        raise SystemExit(f"error: input generation failed (exit {inv.code}):\n{inv.stderr}")
    os.replace(tmp + ".meta.json", path + ".meta.json")
    os.replace(tmp, path)
    with open(path + ".meta.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Input:
    """One input file of a run, with what its outputs are checked against."""

    label: str
    path: str
    meta: dict
    reference: dict | None = None  # the recorded output, for the reference input
    digest: str | None = None  # sha256 of its first output in this run


def check_workload(spec: dict, out: str, meta: dict):
    """The workload's own checks: (problems, column means or leaderboard text)."""
    if spec["kind"] == "score":
        return checks.check_scores(out, meta, spec["metrics"])
    return checks.check_leaderboard(out, meta)


def check(spec: dict, inp: Input, out: str, inv: Invocation) -> list[str]:
    """Problems of one output: the workload's checks, the recorded reference
    (reference input only), and byte equality with the input's first output."""
    if inv.code != 0:
        return []
    problems, facts = check_workload(spec, out, inp.meta)
    if inp.reference and not problems:
        if spec["kind"] == "score":
            problems += checks.compare_means(facts, inp.reference["column_means"])
        elif facts != inp.reference["leaderboard"]:
            problems.append("leaderboard differs from the recorded reference")
    digest = sha256_file(out)
    inp.digest = inp.digest or digest
    if digest != inp.digest:
        problems.append("output differs from this input's first output in the run")
    return problems


def cli_argv(spec: dict, input_path: str, out_path: str) -> list[str]:
    return [sys.executable, "-m", "probeval.cli", *cli_args(spec, input_path, out_path)]


def reference_input(name: str, work: str, env: dict, expected_sha: str | None) -> Input:
    """The reference input of ``name``, reused from an earlier run when its
    hash still matches the recorded one."""
    os.makedirs(os.path.join(work, "ref"), exist_ok=True)
    path = os.path.join(work, "ref", f"{name}.in")
    if expected_sha and os.path.exists(path + ".meta.json") and sha256_file(path) == expected_sha:
        with open(path + ".meta.json", encoding="utf-8") as fh:
            return Input("reference", path, json.load(fh))
    return Input("reference", path, generate(name, REFERENCE_SEED, path, env))


def record_reference(name: str, spec: dict, work: str, env: dict) -> int:
    inp = reference_input(name, work, env, None)
    out = os.path.join(work, "ref", f"{name}.out")
    inv = spawn(cli_argv(spec, inp.path, out), env, out)
    problems, facts = check_workload(spec, out, inp.meta) if inv.code == 0 else ([inv.stderr], None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    refs[name] = {"seed": REFERENCE_SEED, "input_sha256": inp.meta["sha256"],
                  "column_means" if spec["kind"] == "score" else "leaderboard": facts}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded the {name} reference (input sha256 {inp.meta['sha256']})")
    return 0


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def layer_metrics(traces: list[tuple[Invocation, Invocation, dict, Input]]) -> dict:
    """Per-layer metrics: medians over the traced replays of a run; counts
    from the replays of the seeded input."""
    per_replay = []
    for untraced, traced, trace, inp in traces:
        own = self_times(trace["spans"])
        values = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
        batch = own.get("scoring.score_batch", 0.0)
        inside = (own.get("forecast.to_discrete", 0.0)
                  + own.get("forecast.quantiles_to_histogram", 0.0)
                  + sum(own.get(name, 0.0) for name in KERNEL_SPANS))
        values["scoring.dispatch_overhead_frac"] = 1.0 - inside / batch if batch else 0.0
        # Without pass 2, the replay's wall compares with the untraced CLI
        # invocation just before it on the same input: both include
        # interpreter start-up and teardown.
        pass2 = sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == "breakdown")
        values["trace.overhead_s"] = traced.wall - pass2 - untraced.wall
        per_replay.append(values)
    metrics = {name: {"value": statistics.median(v[name] for v in per_replay),
                      "unit": "frac" if name.endswith("_frac") else "s"}
               for name in per_replay[0]}
    seeded = next((t for *_, t, inp in traces if inp.reference is None), traces[0][2])
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = {"value": seeded["counts"].get(name, 0), "unit": unit}
    return metrics


def help_invocations(run: Run, env: dict, run_dir: str) -> list[float]:
    """Wall times of ``probeval score --help``: start-up and imports only."""
    walls = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"help{k}")
        inv = spawn([sys.executable, "-m", "probeval.cli", "score", "--help"], env, out)
        with open(out + ".stdout", encoding="utf-8") as fh:
            run.record(f"help {k}", inv, [] if "usage:" in fh.read() else ["no usage text"])
        walls.append(inv.wall)
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the workload's reference output and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "probeval", "cli.py")):
        print("error: run from the root of a probeval checkout (no src/probeval here)",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    env = child_env(root)
    work = os.path.join(root, WORK_DIR)
    if args.record:
        return record_reference(args.workload, spec, work, env)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(work, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, spec, env, work, run_dir, tag)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec: dict, env: dict, work: str, run_dir: str, tag: str) -> int:
    run = Run()
    with open(REFERENCES, encoding="utf-8") as fh:
        recorded = json.load(fh)[args.workload]
    reference = reference_input(args.workload, work, env, recorded["input_sha256"])
    if reference.meta["sha256"] != recorded["input_sha256"]:
        print(f"error: the {args.workload} reference input changed "
              f"(sha256 {reference.meta['sha256']}); re-record it with --record", file=sys.stderr)
        return 1
    reference.reference = recorded
    seeded_path = os.path.join(run_dir, "input")
    seeded = Input("seeded", seeded_path, generate(args.workload, args.seed, seeded_path, env))
    setup = help_invocations(run, env, run_dir) if args.trace == 0 else []

    # Closed loop, one client.  Steps alternate between the seeded and the
    # reference input, at least one of each, so every run also checks the
    # recorded output.
    timed: list[tuple[Invocation, Input]] = []
    traces: list[tuple[Invocation, Invocation, dict, Input]] = []
    out = os.path.join(run_dir, "out")
    loop_start = time.monotonic()
    while True:
        step_start = time.monotonic()
        inp = (seeded, reference)[len(timed) % 2]
        inv = spawn(cli_argv(spec, inp.path, out), env, out)
        run.record(f"timed {len(timed)} ({inp.label})", inv, check(spec, inp, out, inv))
        timed.append((inv, inp))
        if args.trace:
            spans = os.path.join(run_dir, "spans.json")
            tinv = spawn([sys.executable, os.path.join(HERE, "replay.py"),
                          "--workload", args.workload, "--input", inp.path, "--out", out,
                          "--spans", spans, "--run-id", f"{tag}-{len(traces)}"], env, out)
            label = f"traced {len(timed) - 1} ({inp.label})"
            if run.record(label, tinv, check(spec, inp, out, tinv)) and inv.code == 0:
                with open(spans, encoding="utf-8") as fh:
                    traces.append((inv, tinv, json.load(fh), inp))
        now = time.monotonic()
        if len(timed) >= 2 and now - loop_start + (now - step_start) > args.seconds:
            break

    walls = [inv.wall for inv, _ in timed]
    if args.trace:
        if not traces:
            print("error: no traced replay succeeded:\n" + "\n".join(run.problems), file=sys.stderr)
            return 1
        metrics = layer_metrics(traces)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "records_per_s": statistics.median(inp.meta["records"] / inv.wall for inv, inp in timed),
            "peak_rss_mb": statistics.median(inv.rss_mib for inv, _ in timed),
            "setup_s": statistics.median(setup),
            "ok_frac": 1.0 - run.failed / run.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    environment = {
        "python": platform.python_version(),
        "numpy": seeded.meta["versions"]["numpy"],
        "scipy": seeded.meta["versions"]["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "input_sha256": {inp.label: inp.meta["sha256"] for inp in (seeded, reference)},
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment,
        "samples": {"input": [inp.label for _, inp in timed], "wall_s": walls,
                    "peak_rss_mb": [inv.rss_mib for inv, _ in timed], "setup_s": setup},
        "problems": run.problems,
        "metrics": metrics,
        "traces": [t for *_, t, _ in traces],
    }
    results_dir = os.path.join(work, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)

    print(f"{args.workload} seed {args.seed}: {len(timed)} timed invocation(s), "
          f"{len(traces)} traced replay(s), closed loop of one client")
    print("environment: " + json.dumps(environment))
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"  failed_frac = {run.failed}/{run.attempted} invocations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
