import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from probeval.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def run_cli(*args):
    return main([str(a) for a in args])


def synth_runs(tmp_path, name="runs.csv", **kw):
    path = tmp_path / name
    args = {"scenario": "dominant", "models": 2, "datasets": 20, "folds": 5, "seed": 42}
    args.update(kw)
    code = run_cli(
        "synth", "--scenario", args["scenario"], "--models", args["models"],
        "--datasets", args["datasets"], "--folds", args["folds"],
        "--seed", args["seed"], "--out", path,
    )
    assert code == 0
    return path


class TestSynthCommand:
    def test_dominant_record_count(self, tmp_path):
        path = synth_runs(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 200  # header + 2 models x 20 datasets x 5 folds

    def test_invalid_intransitive_spec(self, tmp_path):
        code = run_cli("synth", "--scenario", "intransitive_triple", "--models", 4,
                       "--datasets", 30, "--folds", 5, "--seed", 1,
                       "--out", tmp_path / "x.csv")
        assert code == 1

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        a = synth_runs(tmp_path, "a.csv")
        b = synth_runs(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        code = run_cli("synth", "--scenario", "dominant", "--out", tmp_path / "x.csv")
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_self_calibrated_writes_forecast_records(self, tmp_path):
        out = tmp_path / "fc.jsonl"
        code = run_cli("synth", "--scenario", "self_calibrated", "--instances", 5,
                       "--seed", 2, "--out", out)
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["type"] == "histogram"


class TestLeaderboardCommand:
    def test_dominant_model_ranked_first(self, tmp_path):
        runs = synth_runs(tmp_path)
        out = tmp_path / "lb.csv"
        code = run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                       "--nsim", 500, "--seed", 7, "--out", out)
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Rank,Model,p-value,Observed,AverageRank"
        assert lines[1].startswith("1,model_00,")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity (Linux)")
    def test_output_does_not_depend_on_cpu_count(self, tmp_path):
        # 20 models at nsim 20,000 give several chunks, which run on one
        # thread per usable CPU.
        runs = synth_runs(tmp_path, models=20, datasets=12, folds=2)
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
            out = tmp_path / f"lb_{name}.csv"
            subprocess.run([sys.executable, "-m", "probeval.cli", "leaderboard", "--runs", str(runs),
                            "--metric", "crps", "--nsim", "20000", "--seed", "3", "--wide",
                            "--out", str(out)],
                           env=child_env(), preexec_fn=pin, capture_output=True, check=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_wide_columns_match_the_golden_file(self, tmp_path):
        # 20 models give the null 6-bit rank codes; the golden file pins
        # every full-precision p-value, observed mean and average rank.
        runs = synth_runs(tmp_path, models=20, datasets=30, folds=2)
        out = tmp_path / "lb.csv"
        assert run_cli("leaderboard", "--runs", runs, "--metric", "crps", "--seed", 7,
                       "--wide", "--out", out) == 0
        assert out.read_bytes() == (DATA / "leaderboard_golden_wide.csv").read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        runs = synth_runs(tmp_path)
        code = run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                       "--out", tmp_path / "lb.csv")
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("nsim", [0, -5])
    def test_nsim_below_one_is_input_error(self, tmp_path, capsys, nsim):
        runs = synth_runs(tmp_path)
        code = run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                       "--nsim", nsim, "--seed", 7, "--out", tmp_path / "lb.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"probeval leaderboard: error: argument --nsim: must be at least 1, got {nsim}"
        ]

    def test_byte_identical_reruns(self, tmp_path):
        runs = synth_runs(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                           "--nsim", 500, "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_metric_lists_identifiers(self, tmp_path, capsys):
        runs = synth_runs(tmp_path)
        code = run_cli("leaderboard", "--runs", runs, "--metric", "nope",
                       "--nsim", 10, "--seed", 1, "--out", tmp_path / "lb.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "crps" in err and "interval_score_90" in err

    def test_not_comparable_is_computation_error(self, tmp_path):
        runs = tmp_path / "single.csv"
        runs.write_text(
            "model,dataset,fold,metric,value\na,x,0,crps,1.0\n", encoding="utf-8"
        )
        code = run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                       "--nsim", 10, "--seed", 1, "--out", tmp_path / "lb.csv")
        assert code == 2

    def test_raw_mean_past_the_largest_float_is_written_without_a_note(self, tmp_path, capsys):
        runs = tmp_path / "huge.csv"
        runs.write_text(
            "model,dataset,fold,metric,value\n"
            "a,x,0,crps,1.7e308\na,y,0,crps,1.7e308\nb,x,0,crps,1.0\nb,y,0,crps,2.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "lb.csv"
        assert run_cli("leaderboard", "--runs", runs, "--metric", "crps", "--seed", 7,
                       "--wide", "--out", out) == 0
        assert "note:" not in capsys.readouterr().err
        header, *rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
        observed = {row[1]: row[header.index("Observed-full")] for row in rows}
        assert observed == {"a": "1.7e+308", "b": "1.5"}

    def test_dropped_dataset_notes_come_before_the_error(self, tmp_path, capsys):
        runs = tmp_path / "disjoint.csv"
        runs.write_text(
            "model,dataset,fold,metric,value\na,x,0,crps,1.0\nb,y,0,crps,2.0\n",
            encoding="utf-8",
        )
        code = run_cli("leaderboard", "--runs", runs, "--metric", "crps",
                       "--seed", 7, "--out", tmp_path / "lb.csv")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "note: dataset 'x' dropped: no runs for b",
            "note: dataset 'y' dropped: no runs for a",
            "error: no dataset has runs for every model on metric 'crps'",
        ]


class TestScoreCommand:
    def forecasts_file(self, tmp_path, records):
        path = tmp_path / "fc.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    def test_minimal_crps_table(self, tmp_path):
        path = self.forecasts_file(tmp_path, [
            {"id": "a", "target": 0.0, "type": "samples", "values": [0.0, 1.0]},
        ])
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "crps", "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,target,crps"
        assert lines[-1].startswith("mean,")

    def test_every_builtin_metric_matches_the_golden_table(self, tmp_path, recwarn):
        # The corpus holds all three forms with supports on both sides of 8
        # points, ties, observations below, above and on support points, one
        # in an empty bin, and an exact-zero CRLS (which must print as 0.0).
        golden = (DATA / "scores_golden.csv").read_bytes()
        metrics = golden.decode("utf-8").splitlines()[0].split(",")[2:]
        out = tmp_path / "scores.csv"
        code = run_cli("score", "--forecasts", DATA / "scores_corpus.jsonl",
                       "--metrics", ",".join(metrics), "--out", out)
        assert code == 0
        assert out.read_bytes() == golden

    def test_unknown_metric(self, tmp_path, capsys):
        path = self.forecasts_file(tmp_path, [
            {"id": "a", "target": 0.0, "type": "samples", "values": [0.0]},
        ])
        code = run_cli("score", "--forecasts", path, "--metrics", "crps,bogus",
                       "--out", tmp_path / "s.csv")
        assert code == 1
        assert "valid identifiers" in capsys.readouterr().err

    def test_quantile_file_log_score_via_conversion(self, tmp_path, recwarn):
        path = self.forecasts_file(tmp_path, [
            {"id": "q", "target": 0.5, "type": "quantiles",
             "levels": [0.1, 0.5, 0.9], "values": [0.0, 0.5, 1.0]},
        ])
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "log_score", "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,target,log_score"
        assert lines[1].split(",")[2] != ""

    def test_an_exact_zero_log_score_is_written_as_0_0(self, tmp_path, capsys):
        path = self.forecasts_file(tmp_path, [
            {"id": "z", "target": 0.5, "type": "histogram", "edges": [0, 1], "probs": [1]},
        ])
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "log_score", "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text(encoding="utf-8").splitlines()[1] == "z,0.5,0.0"

    def test_bare_names_with_parameters(self, tmp_path):
        path = self.forecasts_file(tmp_path, [
            {"id": "a", "target": 0.0, "type": "samples", "values": [0.0, 1.0, 2.0]},
        ])
        out = tmp_path / "s.csv"
        code = run_cli("score", "--forecasts", path,
                       "--metrics", "interval_score,energy_score",
                       "--alpha", 0.2, "--beta", 0.7, "--out", out)
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert "interval_score_80" in header
        assert "energy_score_beta_0.7" in header

    def test_bare_energy_score_shares_the_builtin_column(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("score", "--forecasts", DATA / "scores_corpus.jsonl",
                       "--metrics", "energy_score_beta_1.0,energy_score", "--beta", 1,
                       "--out", out)
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id,target,energy_score_beta_1.0"

    @pytest.mark.parametrize("args", [
        ("interval_score", "--alpha", "nan"),
        ("interval_score", "--alpha", "inf"),
        ("wcrps_left", "--weight-ref", "nan", "1"),
        ("wcrps_left", "--weight-ref", "0", "inf"),
    ])
    def test_non_finite_parameter_is_an_error(self, tmp_path, capsys, args):
        out = tmp_path / "s.csv"
        code = run_cli("score", "--forecasts", DATA / "scores_corpus.jsonl",
                       "--metrics", *args, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_two_specs_with_one_name_are_an_error(self, tmp_path, capsys):
        # alpha 0.096 also names its column interval_score_90.
        out = tmp_path / "s.csv"
        code = run_cli("score", "--forecasts", DATA / "scores_corpus.jsonl",
                       "--metrics", "interval_score_90,interval_score", "--alpha", 0.096,
                       "--out", out)
        assert code == 1
        assert "error: two different metrics are named 'interval_score_90'" in capsys.readouterr().err
        assert not out.exists()

    def test_ambiguous_record_is_input_error(self, tmp_path):
        path = self.forecasts_file(tmp_path, [
            {"id": "a", "target": 0.0, "type": "histogram",
             "edges": [0, 1], "probs": [1.0], "levels": [0.5], "values": [1.0]},
        ])
        code = run_cli("score", "--forecasts", path, "--metrics", "crps",
                       "--out", tmp_path / "s.csv")
        assert code == 1


    def test_boolean_target_is_input_error(self, tmp_path, capsys):
        path = self.forecasts_file(tmp_path, [
            {"id": "a", "target": True, "type": "samples", "values": [0.0, 1.0]},
        ])
        code = run_cli("score", "--forecasts", path, "--metrics", "crps",
                       "--out", tmp_path / "s.csv")
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_warnings_print_as_notes(self, tmp_path, capsys):
        code = run_cli("score", "--forecasts", DATA / "scores_corpus.jsonl",
                       "--metrics", "crps,log_score", "--out", tmp_path / "s.csv")
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: line 10, record 'q5-crossing': 1 quantile crossing(s) repaired"
            " by monotone rearrangement",
            "note: 6 quantile record(s) converted to histograms for density scores",
        ]

    def test_every_quantile_crossing_gets_a_note(self, tmp_path, capsys):
        crossing = {"target": 0.5, "type": "quantiles",
                    "levels": [0.1, 0.5, 0.9], "values": [1.0, 0.5, 0.0]}
        path = self.forecasts_file(tmp_path, [dict(crossing, id=str(i)) for i in range(3)])
        code = run_cli("score", "--forecasts", path, "--metrics", "crps",
                       "--out", tmp_path / "s.csv")
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            f"note: line {i + 1}, record '{i}': 2 quantile crossing(s) repaired"
            " by monotone rearrangement"
            for i in range(3)
        ]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


def modules_after(code: str, tmp_path, package: str = "scipy") -> list[str]:
    """The modules of ``package`` loaded by a fresh interpreter after running ``code``."""
    script = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestStartup:
    """No code path loads scipy, and the thread pool is loaded only by the
    permutation null, never at start-up."""

    def test_import_loads_no_scipy(self, tmp_path):
        assert modules_after("import probeval, probeval.cli", tmp_path) == []

    def test_import_loads_no_thread_pool(self, tmp_path):
        assert modules_after("import probeval, probeval.cli", tmp_path, "concurrent.futures") == []

    def test_score_and_leaderboard_load_no_scipy(self, tmp_path):
        runs = synth_runs(tmp_path)
        code = f"""
from probeval.cli import main
assert main(["score", "--forecasts", {str(DATA / "scores_corpus.jsonl")!r},
             "--metrics", "crps,mae", "--out", "s.csv"]) == 0
assert main(["leaderboard", "--runs", {str(runs)!r}, "--metric", "crps",
             "--nsim", "50", "--seed", "1", "--out", "lb.csv"]) == 0
"""
        assert modules_after(code, tmp_path) == []

    def test_golden_table_scores_with_scipy_unimportable(self, tmp_path):
        # All 21 built-ins, Gaussian wCRPS weights included, in a child that
        # cannot import scipy.
        golden = DATA / "scores_golden.csv"
        code = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from probeval.cli import main
with open({str(golden)!r}, encoding="utf-8") as fh:
    metrics = fh.readline().strip().split(",")[2:]
assert main(["score", "--forecasts", {str(DATA / "scores_corpus.jsonl")!r},
             "--metrics", ",".join(metrics), "--out", "s.csv"]) == 0
"""
        assert modules_after(code, tmp_path) == []
        assert (tmp_path / "s.csv").read_bytes() == golden.read_bytes()


CONSTANT_TARGETS = [
    {"id": "a", "target": 1.0, "type": "samples", "values": [0.0, 2.0]},
    {"id": "b", "target": 1.0, "type": "samples", "values": [1.0, 3.0]},
]


# a's folds on x sum past the largest float; their mean is 1.7e308.
OVERFLOWING_FOLDS = """model,dataset,fold,metric,value
a,x,0,crps,1.7e308
a,x,1,crps,1.7e308
a,y,0,crps,1.0
b,x,0,crps,1.0
b,x,1,crps,2.0
b,y,0,crps,2.0
"""


class TestErrorPaths:
    """Each error names its cause on stderr, with its exit code and no traceback."""

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_forecast_line_that_is_not_an_object(self, tmp_path, capsys):
        path = self.write(tmp_path, "fc.jsonl", "[1, 2]\n")
        assert run_cli("score", "--forecasts", path, "--metrics", "crps",
                       "--out", tmp_path / "s.csv") == 1
        out, err = capsys.readouterr()
        assert err == "error: line 1: record must be a JSON object\n"
        assert run_cli("validate", "--forecasts", path) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "line 1: record must be a JSON object"
        assert "Traceback" not in out + err

    def test_empty_run_file(self, tmp_path, capsys):
        path = self.write(tmp_path, "runs.csv", "")
        assert run_cli("leaderboard", "--runs", path, "--metric", "crps",
                       "--seed", 7, "--out", tmp_path / "lb.csv") == 1
        out, err = capsys.readouterr()
        assert err == "error: line 1: empty run file; expected a header row\n"
        assert run_cli("validate", "--runs", path) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "line 1: empty run file; expected a header row"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("args, error", [
        (("--metrics", "interval_score"), "bare 'interval_score' needs --alpha"),
        (("--metrics", "energy_score"), "bare 'energy_score' needs --beta"),
        (("--metrics", ","), "no metrics requested"),
    ])
    def test_metric_list_errors(self, tmp_path, capsys, args, error):
        path = self.write(tmp_path, "fc.jsonl",
                          "".join(json.dumps(r) + "\n" for r in CONSTANT_TARGETS))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, *args, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_nsim_that_is_not_an_int(self, tmp_path, capsys):
        runs = synth_runs(tmp_path)
        assert run_cli("leaderboard", "--runs", runs, "--metric", "crps", "--nsim", "abc",
                       "--seed", 7, "--out", tmp_path / "lb.csv") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "probeval leaderboard: error: argument --nsim: invalid int value: 'abc'"
        ]
        assert not (tmp_path / "lb.csv").exists()

    def test_r2_of_constant_targets_is_omitted(self, tmp_path, capsys):
        path = self.write(tmp_path, "fc.jsonl",
                          "".join(json.dumps(r) + "\n" for r in CONSTANT_TARGETS))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "crps,r2", "--out", out) == 0
        assert capsys.readouterr().err == "note: r2 is undefined for this batch; omitted\n"
        assert out.read_text(encoding="utf-8").splitlines()[0] == "id,target,crps"

    def test_wcrps_of_constant_targets_needs_a_reference(self, tmp_path, capsys):
        path = self.write(tmp_path, "fc.jsonl",
                          "".join(json.dumps(r) + "\n" for r in CONSTANT_TARGETS))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "wcrps_left",
                       "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: batch targets have zero spread; pass an explicit weight reference\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("metrics, error", [
        ("brier_score,wcrps_left", "record 'out': observation 5.0 outside histogram support"
                                   " [0.0, 1.0]"),
        ("wcrps_left,brier_score", "batch targets have zero spread;"
                                   " pass an explicit weight reference"),
        ("crps,brier_score,wcrps_right", "record 'out': observation 5.0 outside histogram"
                                         " support [0.0, 1.0]"),
    ])
    def test_the_first_failing_metric_in_request_order_is_the_error(
        self, tmp_path, capsys, metrics, error
    ):
        records = [
            {"id": "out", "target": 5.0, "type": "histogram", "edges": [0.0, 1.0], "probs": [1.0]},
            {"id": "in", "target": 5.0, "type": "histogram", "edges": [4.0, 6.0], "probs": [1.0]},
        ]
        path = self.write(tmp_path, "fc.jsonl", "".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", metrics, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_notes_and_columns_keep_request_order(self, tmp_path, capsys):
        path = self.write(tmp_path, "fc.jsonl",
                          "".join(json.dumps(r) + "\n" for r in CONSTANT_TARGETS))
        metrics = ["energy_score", "log_score", "wcrps_center", "r2", "crps",
                   "energy_score_beta_0.2", "brier_score", "crls"]
        for order in (metrics, metrics[::-1]):
            out = tmp_path / "s.csv"
            assert run_cli("score", "--forecasts", path, "--metrics", ",".join(order),
                           "--beta", 0.7, "--weight-ref", 0.0, 2.0, "--out", out) == 0
            undefined = ("log_score", "r2", "brier_score")
            assert [line.split()[1] for line in capsys.readouterr().err.splitlines()] == [
                n for n in order if n in undefined
            ]
            header = out.read_text(encoding="utf-8").splitlines()[0].split(",")[2:]
            assert header == [
                "energy_score_beta_0.7" if n == "energy_score" else n
                for n in order if n not in undefined
            ]

    def test_fold_sum_past_the_largest_float(self, tmp_path, capsys):
        path = self.write(tmp_path, "runs.csv", OVERFLOWING_FOLDS)
        out = tmp_path / "lb.csv"
        assert run_cli("leaderboard", "--runs", path, "--metric", "crps", "--seed", 7,
                       "--wide", "--out", out) == 0
        assert capsys.readouterr().err == "0 dataset(s) dropped; 2 model(s) ranked\n"
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
        observed = rows[0].index("Observed-full")
        assert {row[1]: row[observed] for row in rows[1:]} == {"a": "8.5e+307", "b": "1.75"}


class TestValidateCommand:
    def test_clean_forecasts(self, tmp_path, capsys):
        path = tmp_path / "fc.jsonl"
        path.write_text(
            json.dumps({"id": "a", "target": 0.5, "type": "histogram",
                        "edges": [0, 1], "probs": [1.0]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--forecasts", path) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_crossing_quantiles_reported(self, tmp_path, capsys):
        path = tmp_path / "fc.jsonl"
        path.write_text(
            json.dumps({"id": "q", "target": 0.5, "type": "quantiles",
                        "levels": [0.2, 0.8], "values": [2.0, 1.0]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--forecasts", path) == 1
        out = capsys.readouterr().out
        assert "1 quantile record(s) repaired" in out

    def test_non_numeric_quantile_values_reported(self, tmp_path, capsys):
        path = tmp_path / "fc.jsonl"
        path.write_text(
            json.dumps({"id": "ok", "target": 0.5, "type": "samples", "values": [1.0]}) + "\n"
            + json.dumps({"id": "q", "target": 0.5, "type": "quantiles",
                          "levels": [0.2, 0.8], "values": [1, "a"]}) + "\n"
            + json.dumps({"id": "h", "target": 0.5, "type": "histogram",
                          "edges": [0, 1], "probs": [None]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--forecasts", path) == 1
        out = capsys.readouterr().out
        assert "line 2:" in out and "line 3:" in out
        assert "2 violations" in out

    def test_duplicate_run_key_listed(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text(
            "model,dataset,fold,metric,value\na,x,0,crps,1.0\na,x,0,crps,2.0\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--runs", path) == 1
        out = capsys.readouterr().out
        assert "line 3" in out and "duplicate" in out

    def test_clean_runs(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("model,dataset,fold,metric,value\na,x,0,crps,1.0\n", encoding="utf-8")
        assert run_cli("validate", "--runs", path) == 0
        assert "0 violations" in capsys.readouterr().out


# Records that the parser and validate accept, at the limits of float
# arithmetic: a bin whose edges sum past the largest float, one-ulp bins
# whose centers coincide, and quantile levels whose midpoints coincide.
LIMIT_RECORDS = [
    {"id": "a", "target": 1.5e308, "type": "histogram", "edges": [1e308, 1.7e308],
     "probs": [1.0]},
    {"id": "b", "target": 1.0, "type": "histogram",
     "edges": [1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007],
     "probs": [0.25, 0.25, 0.5]},
    {"id": "c", "target": 1.0, "type": "quantiles",
     "levels": [0.5, 0.5000000000000001, 0.5000000000000002, 0.5000000000000003],
     "values": [0, 1, 2, 3]},
]

# Samples spanning the float range: their energy scores overflow and are
# rescored from the record halved.
WIDE_SAMPLES = {"id": "wide", "target": 0.0, "type": "samples", "values": [-1e308, 1e308]}


class TestRecordsAtFloatLimits:
    @pytest.mark.parametrize("record", LIMIT_RECORDS, ids=lambda r: r["id"])
    def test_validated_record_scores(self, tmp_path, record, recwarn):
        path = tmp_path / "fc.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run_cli("validate", "--forecasts", path) == 0
        out = tmp_path / "scores.csv"
        metrics = "crps,crls,energy_score_beta_1.0,log_score,brier_score,mae,coverage_90"
        assert run_cli("score", "--forecasts", path, "--metrics", metrics, "--out", out) == 0
        header, row = out.read_text(encoding="utf-8").splitlines()[:2]
        scores = dict(zip(header.split(","), row.split(",")))
        assert math.isclose(float(scores["crps"]), float(scores["energy_score_beta_1.0"]),
                            rel_tol=1e-9)

    def test_a_support_wider_than_the_float_range_scores_without_a_note(self, tmp_path, capsys):
        path = tmp_path / "wide.jsonl"
        path.write_text(json.dumps({"id": "wide", "target": 0.0, "type": "samples",
                                    "values": [-1e308, 1e308]}) + "\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "crps", "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text(encoding="utf-8").splitlines()[1] == "wide,0.0,5e+307"

    @pytest.mark.parametrize("beta", ["0.5", "1.0"])
    def test_an_energy_score_rescored_finite_prints_no_note(self, tmp_path, capsys, beta):
        path = tmp_path / "wide.jsonl"
        path.write_text(json.dumps(WIDE_SAMPLES) + "\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", f"energy_score_beta_{beta}",
                       "--out", out) == 0
        assert capsys.readouterr().err == ""
        score = {"0.5": "6.4644660940672635e+153", "1.0": "5e+307"}[beta]
        assert out.read_text(encoding="utf-8").splitlines()[1] == f"wide,0.0,{score}"

    def test_an_energy_score_still_not_finite_prints_the_notes_of_its_rescoring(
        self, tmp_path, capsys
    ):
        path = tmp_path / "wide.jsonl"
        path.write_text(json.dumps(WIDE_SAMPLES) + "\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "energy_score_beta_2.0",
                       "--out", out) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: overflow encountered in power",
            "note: overflow encountered in power",
            "note: invalid value encountered in subtract",
            "note: energy_score_beta_2.0 is undefined for every record; omitted",
        ]
        assert out.read_text(encoding="utf-8").splitlines() == ["id,target", "wide,0.0", "mean,"]

    def test_bins_wider_than_the_float_range_print_only_the_conversion_note(
        self, tmp_path, capsys
    ):
        records = [
            {"id": "e", "target": 0.5, "type": "quantiles", "levels": [0.25, 0.75],
             "values": [-1e308, 1e308]},
            {"id": "f", "target": 0.5, "type": "histogram", "edges": [-1e308, 1e308],
             "probs": [1]},
        ]
        path = tmp_path / "wide.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--forecasts", path, "--metrics", "crps,log_score",
                       "--out", out) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: 1 quantile record(s) converted to histograms for density scores",
        ]
        assert out.read_text(encoding="utf-8").splitlines()[1:3] == [
            "e,0.5,5e+307,709.889355822726",
            "f,0.5,0.5,709.889355822726",
        ]
