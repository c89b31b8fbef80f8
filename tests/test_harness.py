import os
import subprocess
import sys

import numpy as np
import pytest

import zovr
from zovr import cli, estimators, harness, trajectory
from zovr.harness import (
    CSV_COLUMNS,
    RunSpec,
    execute,
    final_gap,
    parse_config_file,
    query_parity_ok,
    read_csv,
    trailing_std,
)


def _ls_spec(**overrides):
    base = dict(
        name="unit", problem="ls",
        problem_params={"n": 64, "d": 8, "noise_std": 0.01, "seed": 1},
        optimizer="mezo", optimizer_params={"b": 8, "eta": 1e-3, "mu": 1e-3},
        master_seed=3, max_steps=40)
    base.update(overrides)
    return RunSpec(**base)


def test_csv_schema_and_roundtrip(tmp_path):
    path = str(tmp_path / "run.csv")
    execution = execute(_ls_spec(), out=path)
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    assert header == CSV_COLUMNS
    assert body.count("\n") == 40
    assert "\r" not in body
    rows = read_csv(path)
    assert len(rows) == 40
    assert rows[0]["step"] == 0
    assert rows[-1]["cumulative_queries"] == execution.result.total_queries
    assert rows[0]["fstar"] == pytest.approx(execution.objective.f_star)


def test_csv_deterministic_except_elapsed(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    execute(_ls_spec(), out=p1)
    execute(_ls_spec(), out=p2)
    rows1, rows2 = read_csv(p1), read_csv(p2)
    for r1, r2 in zip(rows1, rows2):
        r1.pop("elapsed_seconds")
        r2.pop("elapsed_seconds")
        assert r1 == r2


def test_eval_metric_column(tmp_path):
    spec = _ls_spec(problem="logistic",
                    problem_params={"n": 64, "d": 4, "seed": 2},
                    optimizer_params={"b": 8, "eta": 1e-2, "mu": 1e-3},
                    eval_every=10)
    path = str(tmp_path / "m.csv")
    execute(spec, out=path)
    rows = read_csv(path)
    assert rows[0]["eval_metric"] is not None
    assert rows[1]["eval_metric"] is None
    assert rows[10]["eval_metric"] is not None


def test_final_gap_and_trailing_std(tmp_path):
    path = str(tmp_path / "g.csv")
    execute(_ls_spec(max_steps=200), out=path)
    rows = read_csv(path)
    assert final_gap(rows) > 0
    assert trailing_std(rows) >= 0
    assert query_parity_ok(rows, rows)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nproblem = ls\noptimizer=mezo\n\neta=0.001  # inline\nb=8\n")
    settings = parse_config_file(str(path))
    assert settings == {"problem": "ls", "optimizer": "mezo", "eta": "0.001", "b": "8"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_cli_run_writes_csv_and_is_deterministic(tmp_path):
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    args = ["run", "--problem", "ls", "--optimizer", "mezo-svrg", "--steps", "30",
            "--seed", "7", "--n", "64", "--d", "8", "--batch-size", "8"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    rows1, rows2 = read_csv(out1), read_csv(out2)
    assert len(rows1) == 30
    for r1, r2 in zip(rows1, rows2):
        r1.pop("elapsed_seconds")
        r2.pop("elapsed_seconds")
        assert r1 == r2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem=ls\noptimizer=mezo\nn=64\nd=8\neta=0.001\nb=8\nsteps=20\n")
    out = str(tmp_path / "cfg.csv")
    assert cli.main(["run", "--config", str(cfg), "--steps", "10", "--out", out]) == 0
    assert len(read_csv(out)) == 10


def test_schedule_window_is_read_once():
    config = harness.build_optimizer_config("mezo-svrg", {"kappa": "1.1", "window": "4"})
    assert config.schedule.window == 4


def test_cli_config_file_with_schedule_window(tmp_path):
    cfg = tmp_path / "sched.cfg"
    cfg.write_text("problem=ls\noptimizer=mezo-svrg\nn=64\nd=8\nb=8\nsteps=12\n"
                   "kappa=1.1\nwindow=4\n")
    out = str(tmp_path / "sched.csv")
    assert cli.main(["run", "--config", str(cfg), "--out", out]) == 0
    assert len(read_csv(out)) == 12


def test_cli_run_divergence_exit_code(tmp_path):
    code = cli.main(["run", "--problem", "ls", "--optimizer", "mezo",
                     "--n", "64", "--d", "8", "--lr1", "50.0", "--steps", "5000",
                     "--seed", "1", "--batch-size", "4"])
    assert code == 2


def test_cli_replay_roundtrip(tmp_path):
    traj = str(tmp_path / "run.zotrj")
    assert cli.main(["run", "--problem", "ls", "--optimizer", "mezo-svrg",
                     "--steps", "25", "--seed", "9", "--n", "64", "--d", "8",
                     "--batch-size", "8", "--traj-out", traj]) == 0
    ckpt = str(tmp_path / "ckpt.npy")
    assert cli.main(["replay", "--traj", traj, "--theta0", traj + ".theta0.npy",
                     "--step", "25", "--out", ckpt]) == 0
    final = np.load(traj + ".final.npy")
    assert np.array_equal(np.load(ckpt), final)
    # step 0 returns theta0 exactly
    assert cli.main(["replay", "--traj", traj, "--theta0", traj + ".theta0.npy",
                     "--step", "0", "--out", ckpt]) == 0
    assert np.array_equal(np.load(ckpt), np.load(traj + ".theta0.npy"))
    # beyond the recorded range is an error
    assert cli.main(["replay", "--traj", traj, "--theta0", traj + ".theta0.npy",
                     "--step", "26", "--out", ckpt]) == 1


def test_cli_replay_in_two_lanes_exits_cleanly(tmp_path, monkeypatch):
    # a MeZO-SVRG log wide enough for the two-lane kernel, replayed by a
    # fresh interpreter whose lane thread must not hold up its exit
    d = estimators.PARALLEL_MIN_D + 21
    traj = str(tmp_path / "wide.zotrj")
    assert cli.main(["run", "--problem", "logistic", "--optimizer", "mezo-svrg",
                     "--n", "6", "--d", str(d), "--steps", "4", "--batch-size", "2",
                     "--seed", "4", "--traj-out", traj]) == 0
    ckpt = str(tmp_path / "ckpt.npy")
    src = os.path.dirname(os.path.dirname(zovr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "zovr.cli", "replay", "--traj", traj,
         "--theta0", traj + ".theta0.npy", "--step", "4", "--out", ckpt],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    monkeypatch.setattr(estimators, "PARALLEL_MIN_D", d + 1)  # the serial kernel
    reference = trajectory.replay(trajectory.load(traj), np.load(traj + ".theta0.npy"), 4)
    assert trajectory.theta_digest(np.load(ckpt)) == trajectory.theta_digest(reference)
    assert np.array_equal(np.load(ckpt), np.load(traj + ".final.npy"))


def test_cli_verify_passes():
    assert cli.main(["verify"]) == 0


def test_cli_compare_identical_inputs(tmp_path, capsys):
    path = str(tmp_path / "same.csv")
    execute(_ls_spec(max_steps=60), out=path)
    assert cli.main(["compare", path, path, "--criterion", "final-loss"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_preset_listing_and_small_preset(tmp_path):
    assert set(harness.PRESETS) == {
        "fig1a", "batch-robustness", "q-ablation", "anchor-approx",
        "mu-ablation", "mlp"}
    executions, report = harness.run_preset("mu-ablation", seed=0,
                                            outdir=str(tmp_path), query_budget=2000)
    assert len(executions) == 6
    for e in executions:
        assert os.path.exists(e.csv_path)


def test_fig1a_preset_matches_budgets(tmp_path):
    executions, report = harness.run_preset("fig1a", seed=0, outdir=str(tmp_path),
                                            query_budget=30_000)
    by_name = {e.spec.name: e for e in executions}
    rows = {name: read_csv(e.csv_path) for name, e in by_name.items()}
    assert query_parity_ok(rows["mezo"], rows["mezo-svrg"])
    # the first-order baseline is step-matched to mezo-svrg
    assert len(rows["fo-sgd"]) == len(rows["mezo-svrg"])
    assert report is not None and report.lines


def test_query_parity_check():
    rows_a = [{"cumulative_queries": 100}, {"cumulative_queries": 200}]
    rows_b = [{"cumulative_queries": 150}, {"cumulative_queries": 290}]
    assert query_parity_ok(rows_a, rows_b)
    rows_c = [{"cumulative_queries": 10}, {"cumulative_queries": 20}]
    assert not query_parity_ok(rows_a, rows_c)


def test_unknown_problem_and_optimizer_rejected():
    with pytest.raises(ValueError):
        harness.build_objective("nope", {})
    with pytest.raises(ValueError):
        harness.build_optimizer_config("nope", {})
