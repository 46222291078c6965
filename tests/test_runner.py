"""Experiment runner artifacts: exit codes, sweep tables, reproducibility."""

import json
import math

import pytest

from sdelab import parse_config, run_experiment
from sdelab.cli import main as cli_main


def run(text, out, **overrides):
    cfg = parse_config(text)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return run_experiment(cfg, out_dir=out)


def read_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


def strip_timestamp(report):
    report = json.loads(json.dumps(report))
    report["metadata"].pop("timestamp")
    return report


COUNTEREXAMPLE_SWEEP = """
kind: counterexample
q_values: [0.5, 0.9, 0.99]
p: 0.5
alpha: 0.5
replications: 20000
seed: 11
"""


class TestCounterexampleSweep:
    def test_exact_column_matches_closed_form(self, tmp_path):
        code = run(COUNTEREXAMPLE_SWEEP, tmp_path)
        assert code == 0
        rows = (tmp_path / "counterexample.csv").read_text().strip().split("\n")
        assert rows[0].startswith("q,lhs_mc,lhs_stderr,lhs_exact")
        exact = [float(r.split(",")[3]) for r in rows[1:]]
        # (1-q)^{-1/2} q^{1/2} at q = .5, .9, .99
        expected = [math.sqrt(q / (1 - q)) for q in (0.5, 0.9, 0.99)]
        assert exact == pytest.approx(expected, rel=1e-12)

    def test_divergence_trend_reported(self, tmp_path):
        code = run(
            COUNTEREXAMPLE_SWEEP.replace("[0.5, 0.9, 0.99]", "[0.5, 0.9, 0.99, 0.999]"),
            tmp_path,
        )
        assert code == 0
        assert read_report(tmp_path)["results"]["lhs_exact_increasing"] is True


class TestVerifyGronwall:
    def test_gbm_suite_exit_zero(self, tmp_path):
        code = run(
            "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\n"
            "p: [0.5]\nreplications: 1000\nseed: 3\n",
            tmp_path,
        )
        assert code == 0
        rows = (tmp_path / "gronwall.csv").read_text().strip().split("\n")
        assert rows[1].endswith("holds")

    def test_counterexample_violation_exit_two(self, tmp_path):
        code = run(
            "kind: verify-gronwall\nensemble: counterexample\nvariant: a\n"
            "p: 0.5\nq: 0.99\nalpha: 0.5\nreplications: 5000\nseed: 3\n",
            tmp_path,
        )
        assert code == 2


class TestSimulate:
    def test_zero_replications_noop(self, tmp_path):
        code = run(
            "kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 0\nseed: 5\n",
            tmp_path,
        )
        assert code == 0
        assert (tmp_path / "trajectories.csv").read_text() == "replication,t,x_1\n"

    def test_trajectories_written(self, tmp_path):
        code = run(
            "kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 3\nseed: 5\n",
            tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "trajectories.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 9  # header + 3 reps * (z breakpoint + 8 cell ends)

    def test_reproducible_and_thread_invariant(self, tmp_path):
        text = (
            "kind: simulate\nmodel: additive-jumps\nn: 16\nT: 1.0\nreplications: 12\n"
            "seed: 77\nnoise: {wiener: 1, jump_rate: 2.0}\n"
        )
        outs = [tmp_path / f"run{i}" for i in range(3)]
        assert run(text, outs[0], threads=1) == 0
        assert run(text, outs[1], threads=1) == 0
        assert run(text, outs[2], threads=4) == 0
        csv0 = (outs[0] / "trajectories.csv").read_bytes()
        assert csv0 == (outs[1] / "trajectories.csv").read_bytes()
        assert csv0 == (outs[2] / "trajectories.csv").read_bytes()
        r0, r1, r2 = (strip_timestamp(read_report(o)) for o in outs)
        assert r0 == r1 == r2


class TestLenglartRunner:
    def test_moment_holds(self, tmp_path):
        code = run(
            "kind: lenglart\nmode: moment\np: 0.5\nreplications: 4000\n"
            "grid_n: 128\nseed: 13\n",
            tmp_path,
        )
        assert code == 0
        res = read_report(tmp_path)["results"]
        assert res["verdict"] == "holds"
        assert res["lhs"] < res["rhs"]

    def test_tail_holds(self, tmp_path):
        code = run(
            "kind: lenglart\nmode: tail\nc: 1.0\nd: 2.0\nreplications: 4000\n"
            "grid_n: 128\nseed: 13\n",
            tmp_path,
        )
        assert code == 0


class TestConvergenceRunner:
    def test_slope_reported(self, tmp_path):
        code = run(
            "kind: convergence\nmodel: gbm\nresolutions: [8, 16, 32]\nT: 1.0\n"
            "replications: 400\nseed: 10\n",
            tmp_path,
        )
        assert code == 0
        res = read_report(tmp_path)["results"]
        assert -0.8 < res["slope"] < -0.2
        lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "n,mean_error,stderr"
        assert len(lines) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_result_leaves_no_report(self, tmp_path):
        # The config check rejects one replication; set in code, it gives NaN
        # stderrs, which strict JSON cannot hold.
        cfg = parse_config(
            "kind: convergence\nmodel: gbm\nresolutions: [8, 16]\nT: 1.0\n"
            "replications: 2\nseed: 10\n"
        )
        cfg.options["replications"] = 1
        with pytest.raises(ValueError):
            run_experiment(cfg, out_dir=tmp_path)
        assert not (tmp_path / "report.json").exists()


class TestCheckConditionsRunner:
    def test_bad_model_flagged(self, tmp_path):
        code = run(
            "kind: check-conditions\nmodel: superlinear-bad\nconditions: [C2]\n"
            "radius: 10.0\nsamples: 500\nseed: 7\n",
            tmp_path,
        )
        assert code == 2
        assert list((tmp_path / "witnesses").glob("C2_witness_*_x.csv"))

    def test_good_model_passes(self, tmp_path):
        code = run(
            "kind: check-conditions\nmodel: gbm\nconditions: [C1, C2, C4, C5]\n"
            "radius: 3.0\nsamples: 300\nseed: 7\n",
            tmp_path,
        )
        assert code == 0

    def test_c5_overflowing_initial_segment_is_a_violation(self, tmp_path):
        # sup^2 of 1e200 overflows a float: C5 fails, and the report stays strict JSON.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "kind: check-conditions\nmodel: gbm\nmodel_params: {x0: 1.0e+200}\n"
            "conditions: [C5]\nradius: 1.0\nsamples: 1\nseed: 7\n"
        )
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 2

        def reject(token):
            raise AssertionError(f"non-strict JSON constant {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        (c5,) = report["results"]["conditions"]
        assert c5["condition"] == "C5" and not c5["passed"]
        assert c5["violations"] == [{"index": 0, "t": 0.0, "lhs": None, "rhs": None, "margin": None}]


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 0\nseed: 5\n")
        assert cli_main(["validate", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_all_problems(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: nope\nn: 0\nT: 1.0\nseed: 5\n")
        assert cli_main(["validate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") >= 3

    def test_run_with_overrides(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 2\nseed: 5\n"
        )
        out = tmp_path / "artifacts"
        assert cli_main(["run", str(cfg), "--seed", "99", "--out", str(out)]) == 0
        assert read_report(out)["seed"] == 99

    def test_env_seed_and_flag_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 5\n"
        )
        monkeypatch.setenv("SDE_SEED", "123")
        out1 = tmp_path / "env"
        assert cli_main(["run", str(cfg), "--out", str(out1)]) == 0
        assert read_report(out1)["seed"] == 123
        out2 = tmp_path / "flag"
        assert cli_main(["run", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
        assert read_report(out2)["seed"] == 7

    @pytest.mark.parametrize(
        "seed, problem", [("-1", "must be >= 0, got -1"), (str(2**64), f"must be < 2**64, got {2**64}")]
    )
    @pytest.mark.parametrize("source", ["--seed", "SDE_SEED"])
    def test_seed_override_out_of_range(self, source, seed, problem, tmp_path, monkeypatch, capsys):
        # Both overrides take the config key's check; masked to 64 bits,
        # -1 ran as seed 2**64 - 1.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 5\n")
        out = tmp_path / "o"
        args = ["run", str(cfg), "--out", str(out)]
        if source == "--seed":
            args += ["--seed", seed]
        else:
            monkeypatch.setenv("SDE_SEED", seed)
        assert cli_main(args) == 1
        assert capsys.readouterr().err == f"config error: '{source}' {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, value, problem",
        [
            ("--threads", "-5", "must be >= 1, got -5"),
            ("SDE_THREADS", "0", "must be >= 1, got 0"),
            ("--seed", "abc", "must be an integer, got 'abc'"),
            ("SDE_SEED", "abc", "must be an integer, got 'abc'"),
            ("--threads", "1.5", "must be an integer, got '1.5'"),
            ("SDE_THREADS", "1.5", "must be an integer, got '1.5'"),
        ],
    )
    def test_override_takes_the_config_check(self, source, value, problem, tmp_path, monkeypatch, capsys):
        # Thread counts used to be clamped to 1 and run; a flag that is not
        # an integer was an argparse usage error with exit code 2, the code
        # of a detected violation.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 5\n")
        out = tmp_path / "o"
        args = ["run", str(cfg), "--out", str(out)]
        if source.startswith("--"):
            args += [source, value]
        else:
            monkeypatch.setenv(source, value)
        assert cli_main(args) == 1
        assert capsys.readouterr().err == f"config error: '{source}' {problem}\n"
        assert not out.exists()

    def test_seed_flag_wins_over_a_bad_environment_seed(self, tmp_path, monkeypatch):
        # The environment is read only when the flag is absent.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 5\n")
        monkeypatch.setenv("SDE_SEED", "abc")
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        assert read_report(out)["seed"] == 3

    def test_missing_config_file(self, capsys):
        assert cli_main(["run", "/does/not/exist.yaml"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_violation_exit_code_via_cli(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "kind: verify-gronwall\nensemble: counterexample\nvariant: a\n"
            "p: 0.5\nq: 0.99\nalpha: 0.5\nreplications: 4000\nseed: 3\n"
        )
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_grid_too_large_to_allocate_is_an_error_line(self, tmp_path, capsys):
        # 1e15 cells: the grid allocation fails at once (petabytes), it never starts.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 1\nT: 1.0e+15\nreplications: 1\nseed: 5\n")
        assert cli_main(["validate", str(cfg)]) == 0
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_failed_run_ends_with_a_replay_line(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 1\nT: 1.0e+15\nreplications: 1\nseed: 5\n")
        monkeypatch.setenv("SDE_SEED", "9")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(f"\nreplay: sde run {cfg} --seed 9\n")
