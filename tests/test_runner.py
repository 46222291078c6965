"""Experiment runner artifacts: exit codes, sweep tables, reproducibility."""

import json
import math
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdelab import parse_config, run_experiment, runner
from sdelab.cli import main as cli_main
from sdelab.errors import ExplosionError
from sdelab.models import MODEL_NAMES, build_model, build_noise
from sdelab.paths import path_csv_text
from sdelab.solver import euler_solve


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

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_gbm_suite_under_a_contracting_drift_exits_zero(self, variant, tmp_path):
        # K = 2 mu + sigma^2 + mu^2 / n = -0.06: H(t) = x0^2 + K t fell, and the
        # run ended "replication 0: H must be non-decreasing from H(0) >= 0";
        # at mu = -3, validate raised a TypeError on the complex H(T)^p.
        for mu in ("-0.05", "-3.0"):
            cfg = tmp_path / "c.yaml"
            cfg.write_text(
                f"kind: verify-gronwall\nensemble: gbm-squared\nvariant: {variant}\n"
                f"p: [0.3, 0.5, 0.7]\nmu: {mu}\nreplications: 500\nseed: 3\n"
            )
            assert cli_main(["validate", str(cfg)]) == 0
            assert cli_main(["run", str(cfg), "--out", str(tmp_path / mu)]) == 0
            rows = (tmp_path / mu / "gronwall.csv").read_text().strip().split("\n")[1:]
            assert len(rows) == 3 and all(row.endswith(",holds") for row in rows)

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
        assert [run(text, o) for o in outs] == [0, 0, 0]
        csv0 = (outs[0] / "trajectories.csv").read_bytes()
        assert csv0 == (outs[1] / "trajectories.csv").read_bytes()
        assert csv0 == (outs[2] / "trajectories.csv").read_bytes()
        r0, r1, r2 = (strip_timestamp(read_report(o)) for o in outs)
        assert r0 == r1 == r2


SIMULATE_MODELS = {
    "gbm": "model: gbm\n",
    "geometric-jump": (
        "model: geometric-jump\nmodel_params: {gamma: 0.1, rate_bound: 16.0}\n"
        "noise: {wiener: 1, jump_rate: 16.0}\n"
    ),
    "linear-dim2": "model: linear\nmodel_params: {dim: 2}\n",
}


def simulate_reference(cfg):
    """trajectories.csv and the statistics of a simulate run, from every path held at once."""
    o = cfg.options
    model, spec = build_model(o["model"], o["model_params"]), build_noise(**o["noise"])
    paths = [
        euler_solve(model, spec, o["n"], o["T"], (cfg.seed, r), replication=r)
        for r in range(o["replications"])
    ]
    text = "replication,t," + ",".join(f"x_{i+1}" for i in range(model.dim)) + "\n"
    text += "".join(path_csv_text(p, f"{r},") for r, p in enumerate(paths))
    if not paths:
        return text, {"terminal_mean": [], "terminal_std": []}
    terminal = np.array([p.value_at(p.end) for p in paths])
    std = terminal.std(axis=0, ddof=1) if len(paths) > 1 else np.zeros(model.dim)
    return text, {"terminal_mean": terminal.mean(axis=0).tolist(), "terminal_std": std.tolist()}


class TestSimulateBlocks:
    @pytest.mark.parametrize("model", sorted(SIMULATE_MODELS))
    @pytest.mark.parametrize("replications", [0, 1, 31, 32, 33, 65])
    def test_block_edges_keep_every_byte(self, model, replications, tmp_path):
        assert runner._BLOCK == 32
        cfg = parse_config(
            f"kind: simulate\n{SIMULATE_MODELS[model]}n: 8\nT: 1.0\nreplications: {replications}\nseed: 13\n"
        )
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        text, stats = simulate_reference(cfg)
        assert (tmp_path / "trajectories.csv").read_text() == text
        assert read_report(tmp_path)["results"]["statistics"] == stats
        assert sorted(f.name for f in tmp_path.iterdir()) == ["report.json", "trajectories.csv"]

    def test_live_paths_stay_within_one_block(self, tmp_path, monkeypatch):
        live, peak = [], [0]

        def tracked(*args, **kwargs):
            path = euler_solve(*args, **kwargs)
            live.append(weakref.ref(path))
            peak[0] = max(peak[0], sum(ref() is not None for ref in live))
            return path

        monkeypatch.setattr(runner, "euler_solve", tracked)
        text = "kind: simulate\nmodel: gbm\nn: 4\nT: 1.0\nreplications: 200\nseed: 5\n"
        assert run(text, tmp_path) == 0
        assert len(live) == 200
        assert peak[0] <= runner._BLOCK + 1

    def test_a_failed_replication_leaves_no_partial_artifact(self, tmp_path, monkeypatch, capsys):
        def failing(*args, replication, **kwargs):
            if replication == 40:  # in the second block, after the first one is written
                raise ExplosionError("state is not finite", t=0.5, replication=replication)
            return euler_solve(*args, replication=replication, **kwargs)

        monkeypatch.setattr(runner, "euler_solve", failing)
        text = "kind: simulate\nmodel: gbm\nn: 4\nT: 1.0\nreplications: 100\nseed: 5\n"
        fresh = tmp_path / "fresh"
        with pytest.raises(ExplosionError, match="replication=40"):
            run(text, fresh)
        assert list(fresh.iterdir()) == []

        older = tmp_path / "older"
        older.mkdir()
        kept = b"replication,t,x_1\n0,0.0,1.0\n"
        (older / "trajectories.csv").write_bytes(kept)
        with pytest.raises(ExplosionError):
            run(text, older)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert cli_main(["run", str(cfg), "--out", str(older)]) == 1
        assert capsys.readouterr().err.endswith(f"\nreplay: sde run {cfg} --seed 5\n")
        assert [f.name for f in older.iterdir()] == ["trajectories.csv"]
        assert (older / "trajectories.csv").read_bytes() == kept


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


    @pytest.mark.parametrize(
        "model, noise, conditions, radius, refused",
        [
            ("geometric-jump", "{wiener: 1, jump_rate: 2.0}", "[C1, C2, C4]", "1.0e+150", []),
            ("geometric-jump", "{wiener: 1, jump_rate: 2.0}", "[C1, C2, C4]", "10", []),
            ("geometric-jump", "{wiener: 1, jump_rate: 2.0}", "[C1, C2, C4]", "6.0e+153", ["C1"]),
            ("linear", "{wiener: 1}", "[C1, C2, C4]", "1.0e+160", ["C1", "C2", "C4"]),
            ("gbm", "{wiener: 1}", "[C3, C5]", "1.0e+156", ["C3"]),
            ("superlinear-bad", "{wiener: 1}", "[C2]", "1.0e+103", ["C2"]),
        ],
        ids=["finite", "radius-10", "inf-lhs", "overflow", "C3-drift", "C2-drift"],
    )
    def test_a_radius_near_the_float_range_gives_finite_verdicts_or_fails(
        self, model, noise, conditions, radius, refused, tmp_path, capsys
    ):
        # The radius rule refuses a radius at which some term of a listed
        # check (C1 to C4) would be past the float range, so that no run
        # fails after sampling, with no verdict in floats (at 6e153, C1's lhs
        # is inf; at 1e160, C1's lhs is -inf and its rhs inf).
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"kind: check-conditions\nmodel: {model}\nnoise: {noise}\nconditions: {conditions}\n"
            f"radius: {radius}\nsamples: 200\nseed: 1\n"
        )
        out = tmp_path / "o"
        error = "".join(
            f"config error: 'radius' {float(radius)!r} takes a term of the {c} check past the float range\n"
            for c in refused
        )
        assert cli_main(["validate", str(cfg)]) == (1 if refused else 0)
        assert capsys.readouterr().err == error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", str(cfg), "--out", str(out)])
        assert caught == []
        err = capsys.readouterr().err
        if not refused:
            assert code == 0 and err == "" and (out / "report.json").exists()
        else:
            assert code == 1 and err == error
            assert not (out / "report.json").exists()


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
            ("--seed", "abc", "must be an integer, got 'abc'"),
            ("SDE_SEED", "abc", "must be an integer, got 'abc'"),
        ],
    )
    def test_override_takes_the_config_check(self, source, value, problem, tmp_path, monkeypatch, capsys):
        # A flag that is not an integer was an argparse usage error with
        # exit code 2, the code of a detected violation.
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

    @pytest.mark.parametrize(
        "args, problem",
        [
            (["run", "{cfg}", "--sed", "5"], "unrecognized arguments: --sed 5"),
            (["run", "{cfg}", "--threads", "4"], "unrecognized arguments: --threads 4"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-flag", "threads-flag", "no-command"],
    )
    def test_usage_error_exits_1(self, args, problem, tmp_path, capsys):
        # argparse exits 2, the code of a detected violation.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 5\n")
        with pytest.raises(SystemExit) as exc:
            cli_main([a.format(cfg=cfg) for a in args])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sde ") and err.endswith(f"sde: error: {problem}\n")

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

    def test_validate_applies_the_environment_overrides(self, tmp_path, monkeypatch, capsys):
        # validate used to skip the overrides and print OK for what run refuses.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 0\nseed: 5\n")
        monkeypatch.setenv("SDE_SEED", "abc")
        assert cli_main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: 'SDE_SEED' must be an integer, got 'abc'\n"
        )
        monkeypatch.setenv("SDE_SEED", "7")
        assert cli_main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out == "OK: simulate experiment, seed 7\n"

    @pytest.mark.parametrize(
        "text, out_is_a_file, fault, first_line",
        [
            (
                "kind: verify-gronwall\nensemble: counterexample\nvariant: b\n"
                "p: 0.5\nq: 0.5\nalpha: 0.5\nreplications: 10\nseed: 3\n",
                False,
                None,
                "error: variant 'b' needs M without negative jumps; replication 0 has one",
            ),
            ("kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 3\n", True, None, "i/o error: "),
            # the bound's math.exp overflows: exp(8 K) with K = 2 mu + sigma^2 + mu^2 / n, about 100;
            # refused with the config, so no run starts and there is nothing to replay
            (
                "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
                "sigma: 10.0\nseed: 3\n",
                False,
                None,
                "config error: 'sigma' 10.0 and 'mu' 0.05 give A(T) = 100.1, and the variant c bound at p 0.5 "
                "overflows a float",
            ),
            # up = (1 - q)^(1 - 1/alpha) / q overflows a float at q = 0.9999, alpha = 0.01
            (
                "kind: counterexample\nq_values: [0.5, 0.9999]\np: 0.5\nalpha: 0.01\nreplications: 100\n"
                "seed: 3\n",
                False,
                None,
                "config error: 'alpha' 0.01 at q 0.9999: a two-point value (1 - q) ** (1 - 1/alpha) / q or "
                "(1 - q) ** (-1/alpha) overflows a float",
            ),
            # an overflow that no config rule foresaw still ends in an error line and a replay
            (
                "kind: simulate\nmodel: gbm\nn: 8\nT: 1.0\nreplications: 1\nseed: 3\n",
                False,
                OverflowError("math range error"),
                "error: OverflowError: math range error\n",
            ),
        ],
        ids=["error", "io-error", "overflow-in-the-bound", "overflow-in-the-two-point-values", "overflow-in-the-run"],
    )
    def test_failure_lines(self, text, out_is_a_file, fault, first_line, tmp_path, monkeypatch, capsys):
        if fault is not None:
            def simulate(cfg, out):
                raise fault
            monkeypatch.setitem(runner._RUNNERS, "simulate", simulate)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        out = tmp_path / "o"
        if out_is_a_file:
            out.write_text("in the way\n")
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(first_line)
        if first_line.startswith("config error: "):
            assert err == first_line + "\n" and not out.exists()
        else:
            assert err.endswith(f"\nreplay: sde run {cfg} --seed 3\n")

    @pytest.mark.parametrize(
        "text, fixed, problem",
        [
            (
                "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
                "sigma: 10.0\nseed: 3\n",
                ("sigma: 10.0", "sigma: 0.2"),
                "config error: 'sigma' 10.0 and 'mu' 0.05 give A(T) = 100.1, and the variant c bound at p 0.5 "
                "overflows a float",
            ),
            # exp(8 A(T)) is a float, but the bound 5.66 sqrt(1 + A(T)) exp(8 A(T)) is not
            (
                "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
                "sigma: 9.402\nseed: 3\n",
                ("sigma: 9.402", "sigma: 9.3"),
                "config error: 'sigma' 9.402 and 'mu' 0.05 give A(T) = 88.4976, and the variant c bound at p "
                "0.5 overflows a float",
            ),
            (
                "kind: counterexample\nq_values: [0.5, 0.9999]\np: 0.5\nalpha: 0.01\nreplications: 100\n"
                "seed: 3\n",
                ("0.9999", "0.99"),
                "config error: 'alpha' 0.01 at q 0.9999: a two-point value (1 - q) ** (1 - 1/alpha) / q or "
                "(1 - q) ** (-1/alpha) overflows a float",
            ),
            (
                "kind: verify-gronwall\nensemble: counterexample\nvariant: a\np: 0.5\nq: 0.9999\n"
                "alpha: 0.01\nreplications: 100\nseed: 3\n",
                ("0.9999", "0.99"),
                "config error: 'alpha' 0.01 at q 0.9999: a two-point value (1 - q) ** (1 - 1/alpha) / q or "
                "(1 - q) ** (-1/alpha) overflows a float",
            ),
        ],
        ids=["overflow-in-the-bound", "inf-bound", "overflow-in-the-two-point-values",
             "overflow-in-the-two-point-ensemble"],
    )
    def test_validate_refuses_a_config_whose_run_overflows(self, text, fixed, problem, tmp_path, capsys):
        # validate printed OK, and run exited 1 with an OverflowError after its work.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert cli_main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == problem + "\n"
        cfg.write_text(text.replace(*fixed))
        assert cli_main(["validate", str(cfg)]) == 0

    def test_a_bound_past_the_float_range_fails_the_run_before_any_artifact(self, tmp_path, capsys):
        # The bound turned inf without an OverflowError: gronwall.csv held
        # rhs inf with verdict "holds", then report.json refused the inf.
        # Then the run raised an OverflowError after building its ensemble.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
            "sigma: 9.402\nseed: 3\n"
        )
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: 'sigma' 9.402 and 'mu' 0.05 give A(T) = 88.4976, and the variant c bound at p 0.5 "
            "overflows a float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
            "sigma: 10.0\nseed: 3\n",
            "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nreplications: 200\n"
            "sigma: 9.402\nseed: 3\n",
            "kind: counterexample\nq_values: [0.5, 0.9999]\np: 0.5\nalpha: 0.01\nreplications: 100\nseed: 3\n",
            "kind: verify-gronwall\nensemble: counterexample\nvariant: a\np: 0.5\nq: 0.9999\n"
            "alpha: 0.01\nreplications: 100\nseed: 3\n",
        ],
        ids=["overflow-in-the-bound", "inf-bound", "overflow-in-the-two-point-values",
             "overflow-in-the-two-point-ensemble"],
    )
    def test_run_refuses_what_validate_refuses_before_any_work(self, text, tmp_path, monkeypatch, capsys):
        # run built the ensemble, or finished q = 0.5, before its OverflowError.
        def work(*args, **kwargs):
            raise AssertionError("the run did work on a refused config")
        for name in ("gbm_squared_ensemble", "counterexample_ensemble", "counterexample_stats"):
            monkeypatch.setattr(runner, name, work)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert cli_main(["validate", str(cfg)]) == 1
        refused = capsys.readouterr().err
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == refused
        assert not out.exists()


# The smallest size each kind accepts; {model} takes any built-in model.
SMALLEST = {
    "simulate-0": "kind: simulate\nmodel: {model}\nn: 1\nT: 1.0\nreplications: 0\n",
    "simulate-1": "kind: simulate\nmodel: {model}\nn: 1\nT: 1.0\nreplications: 1\n",
    "convergence": "kind: convergence\nmodel: gbm\nresolutions: [1, 2]\nT: 1.0\nreplications: 2\n",
    "lenglart-tail": "kind: lenglart\nmode: tail\nc: 1.0\nd: 1.0\ngrid_n: 1\nreplications: 2\n",
    "lenglart-moment": "kind: lenglart\nmode: moment\np: 0.5\ngrid_n: 1\nreplications: 2\n",
    "counterexample": "kind: counterexample\nq_values: [0.5]\np: 0.5\nalpha: 0.5\nreplications: 2\n",
    "gronwall-gbm-squared": "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: 0.5\nn: 1\nreplications: 2\n",
    "gronwall-counterexample": (
        "kind: verify-gronwall\nensemble: counterexample\nvariant: c\np: 0.5\nq: 0.5\nalpha: 0.5\n"
        "replications: 2\n"
    ),
    "check-conditions": "kind: check-conditions\nmodel: {model}\nradius: 1.0\nsamples: 1\n",
}


def finite_numbers(value):
    """Whether every number in a parsed JSON document is finite."""
    if isinstance(value, dict):
        return all(map(finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def no_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(SMALLEST)), model=st.sampled_from(MODEL_NAMES), seed=st.integers(0, 2**64 - 1))
def test_the_smallest_sizes_run_to_a_strict_finite_report(case, model, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.yaml", Path(tmp) / "out"
        cfg.write_text(SMALLEST[case].format(model=model) + f"seed: {seed}\n")
        assert cli_main(["run", str(cfg), "--out", str(out)]) in (0, 2)
        report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    assert finite_numbers(report)
