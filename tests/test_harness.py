import hashlib
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import zovr
from zovr import (
    FoSgdConfig,
    LrScheduleConfig,
    MezoConfig,
    MezoSvrgConfig,
    SpsaConfig,
    ZoSvrgConfig,
    cli,
    estimators,
    harness,
    objectives,
    prng,
    trajectory,
)
from zovr.memory import CONSTANT_OVERHEAD
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

from helpers import CountingObjective, assert_pinned, child_env


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


def test_csv_columns_pinned():
    # RunRecord's fields in order, then fstar: reordering RunRecord fails here
    assert CSV_COLUMNS == ["step", "cumulative_queries", "train_loss", "eval_metric",
                           "eta1", "eta2", "kind", "peak_slots", "elapsed_seconds",
                           "backward_queries", "fstar"]


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


def test_cli_config_empty_values_mean_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("problem=\noptimizer=mezo\nn=64\nd=8\nnoise_std=\nb=8\nmu=\n"
                   "seed=\nsteps=\nquery_budget=\neval_every=\n")
    by_config, by_flags = str(tmp_path / "config.csv"), str(tmp_path / "flags.csv")
    assert cli.main(["run", "--config", str(cfg), "--out", by_config]) == 0
    assert cli.main(["run", "--problem", "ls", "--optimizer", "mezo", "--n", "64",
                     "--d", "8", "--batch-size", "8", "--steps", "1000",
                     "--out", by_flags]) == 0
    assert _csv_digest_without_elapsed(by_config) == _csv_digest_without_elapsed(by_flags)


def test_cli_config_refuses_a_key_nothing_reads(tmp_path, monkeypatch, capsys):
    # `lr2` names the flag; the key is `eta2`, which would keep its default
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("optimizer=mezo-svrg\nlr2=0.5\nsteps=3\n")
    code = cli.main(["run", "--config", "run.cfg", "--out", "never.csv",
                     "--traj-out", "never.zotrj"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: no problem, optimizer or run reads the setting 'lr2'\n")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_cli_config_ignores_a_key_of_another_optimizer(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=2\nsteps=3\n")  # q is MeZO-SVRG's
    out = str(tmp_path / "run.csv")
    assert cli.main(["run", "--config", str(cfg), "--optimizer", "mezo", "--out", out]) == 0
    assert len(read_csv(out)) == 3


def test_schedule_window_is_read_once():
    config = harness.build_optimizer_config("mezo-svrg", {"kappa": "1.1", "window": "4"})
    assert config.schedule.window == 4


_LS_MEZO = MezoConfig(eta=0.001, b=32, spsa=SpsaConfig(mu=0.001, p=1))
_LS_SVRG = MezoSvrgConfig(eta1=0.001, eta2=0.0001, q=2, b=32, anchor_batch=None,
                          spsa=SpsaConfig(mu=0.001, p=1), schedule=None)

# the config each preset run builds, written out in full
_PRESET_CONFIGS = {
    ("fig1a", "mezo"): _LS_MEZO,
    ("fig1a", "mezo-svrg"): _LS_SVRG,
    ("fig1a", "fo-sgd"): FoSgdConfig(eta=0.001, b=32),
    ("batch-robustness", "mezo-b8"): replace(_LS_MEZO, b=8),
    ("batch-robustness", "mezo-b128"): replace(_LS_MEZO, b=128),
    ("batch-robustness", "mezo-svrg-b8"): replace(_LS_SVRG, b=8),
    ("q-ablation", "q2"): _LS_SVRG,
    ("q-ablation", "q10"): replace(_LS_SVRG, q=10),
    ("anchor-approx", "anchor-full"): _LS_SVRG,
    ("anchor-approx", "anchor-half"): replace(_LS_SVRG, anchor_batch=500),
    **{("mu-ablation", f"mu-{mu:g}"): replace(_LS_SVRG, spsa=SpsaConfig(mu=mu, p=1))
       for mu in (1.0, 0.5, 0.1, 0.01, 0.001, 0.0001)},
    ("mlp", "mezo"): MezoConfig(eta=0.0001, b=64, spsa=SpsaConfig(mu=0.001, p=1)),
    ("mlp", "mezo-svrg"): replace(_LS_SVRG, eta2=1e-05, b=64),
    ("mlp", "fo-sgd"): FoSgdConfig(eta=0.001, b=64),
}


def test_preset_configs_pinned():
    built = {(name, spec.name): harness.build_optimizer_config(spec.optimizer,
                                                               spec.optimizer_params)
             for name, make in harness.PRESETS.items() for spec in make(0)}
    assert built == _PRESET_CONFIGS


@pytest.mark.parametrize("optimizer, params, expected", [
    ("mezo", {"eta": "0.01", "b": "8", "mu": "0.001", "p": "2"},
     MezoConfig(eta=0.01, b=8, spsa=SpsaConfig(mu=0.001, p=2))),
    ("mezo-svrg", {"eta1": "0.01", "eta2": "0.001", "q": "3", "b": "8",
                   "anchor_batch": "20", "mu": "0.0001", "p": "2"},
     MezoSvrgConfig(eta1=0.01, eta2=0.001, q=3, b=8, anchor_batch=20,
                    spsa=SpsaConfig(mu=0.0001, p=2), schedule=None)),
    ("mezo-svrg", {"kappa": "1.1", "alpha": "2.0", "window": ""},
     replace(_LS_SVRG, schedule=LrScheduleConfig(kappa=1.1, alpha=2.0, window=None))),
    ("mezo-svrg", {"kappa": "1.1", "window": "4"},
     replace(_LS_SVRG, schedule=LrScheduleConfig(kappa=1.1, alpha=5.0, window=4))),
    ("zo-svrg", {"eta": "0.01", "b": "4", "q": "5", "mu": "0.01", "p": "3"},
     ZoSvrgConfig(eta=0.01, b=4, q=5, spsa=SpsaConfig(mu=0.01, p=3))),
    ("fo-sgd", {"eta": "0.5", "b": "2", "mu": "0.1", "p": "2"}, FoSgdConfig(eta=0.5, b=2)),
    ("mezo", {"eta": "0.01", "b": "8", "n": "64", "seed": "3", "q": "4", "kappa": "1.1",
              "anchor_batch": "5"},
     MezoConfig(eta=0.01, b=8, spsa=SpsaConfig(mu=0.001, p=1))),
], ids=["mezo-p2", "mezo-svrg-anchor-batch", "schedule-empty-window", "schedule-window",
        "zo-svrg", "fo-sgd-ignores-spsa", "mezo-ignores-other-keys"])
def test_build_optimizer_config_pinned(optimizer, params, expected):
    assert harness.build_optimizer_config(optimizer, params) == expected


@pytest.mark.parametrize("settings, expected", [
    ({"optimizer": "mezo", "eta1": "0.01", "b": "8", "n": "64", "seed": "3", "q": "4"},
     MezoConfig(eta=0.01, b=8, spsa=SpsaConfig(mu=0.001, p=1))),
    ({"optimizer": "mezo-svrg", "eta1": "0.01", "b": "8", "n": "64", "kappa": "1.2",
      "window": ""},
     replace(_LS_SVRG, eta1=0.01, b=8,
             schedule=LrScheduleConfig(kappa=1.2, alpha=5.0, window=None))),
], ids=["lr1-alias-for-mezo", "mezo-svrg-schedule"])
def test_cli_settings_build_pinned_config(settings, expected):
    spec = cli._spec_from_settings(settings)
    assert harness.build_optimizer_config(spec.optimizer, spec.optimizer_params) == expected


@pytest.mark.parametrize("optimizer, params, header", [
    ("mezo", {"b": 8, "eta": 1e-3, "mu": 1e-3},
     {"eta": "0.001", "b": "8", "mu": "0.001", "p": "1", "optimizer": "mezo"}),
    ("mezo-svrg", {"b": 8, "eta1": 1e-3, "eta2": 1e-4, "q": 3, "mu": 1e-3, "p": 2,
                   "anchor_batch": 20, "kappa": 1.1},
     {"eta1": "0.001", "eta2": "0.0001", "b": "8", "q": "3", "mu": "0.001", "p": "2",
      "optimizer": "mezo-svrg"}),
])
def test_trajectory_header_pinned(tmp_path, optimizer, params, header):
    path = str(tmp_path / "run.zotrj")
    execute(_ls_spec(optimizer=optimizer, optimizer_params=params, max_steps=4),
            traj_out=path)
    assert trajectory.load(path).config == header


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


_SMALL_RUN = ["run", "--problem", "ls", "--n", "64", "--d", "8", "--batch-size", "8",
              "--steps", "4"]


# the memory line of a d = 8 run: each model of the optimizer in table order,
# then the registered peak
_MEMORY_LINES = {
    "mezo": f"memory model (base): {8 + CONSTANT_OVERHEAD} slots; registered peak: 8 slots",
    "mezo-svrg": f"memory model (store_g): {3 * 8 + CONSTANT_OVERHEAD} slots; "
                 f"memory model (recompute_g): {2 * 8 + CONSTANT_OVERHEAD} slots; "
                 "registered peak: 16 slots",
    "zo-svrg": f"memory model (naive): {5 * 8 + CONSTANT_OVERHEAD} slots; "
               "registered peak: 40 slots",
    "fo-sgd": f"memory model (base): {2 * 8 + CONSTANT_OVERHEAD} slots; "
              "registered peak: 16 slots",
}


@pytest.mark.parametrize("optimizer", list(_MEMORY_LINES))
def test_cli_prints_every_memory_model_of_its_optimizer(capsys, optimizer):
    assert cli.main(_SMALL_RUN + ["--optimizer", optimizer]) == 0
    assert capsys.readouterr().out.split("\n")[1] == _MEMORY_LINES[optimizer]


@pytest.mark.parametrize("optimizer, held", [
    ("mezo", 1), ("mezo-svrg", 2), ("zo-svrg", 5), ("fo-sgd", 2)])
def test_cli_prints_registered_peak(capsys, optimizer, held):
    assert cli.main(_SMALL_RUN + ["--optimizer", optimizer]) == 0
    assert f"; registered peak: {held * 8} slots\n" in capsys.readouterr().out


@pytest.mark.parametrize("optimizer, held", [("mezo", 1), ("mezo-svrg", 2)])
def test_cli_prints_registered_peak_of_a_run_diverged_at_step_0(capsys, optimizer, held):
    # the run held its footprint before the first query; it writes no row
    assert cli.main(["run", "--problem", "ls", "--optimizer", optimizer, "--mu", "1e300",
                     "--steps", "3"]) == 2
    out = capsys.readouterr().out
    assert "status=diverged steps=0 " in out
    assert f"; registered peak: {held * 100} slots\n" in out


def _cli_in_fresh_interpreter(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "zovr.cli", *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def test_cli_run_whose_probe_overflows_writes_no_warning(tmp_path):
    # the run reports its divergence in its status and reason; numpy's overflow
    # warnings, which name a source line, stay off stderr
    done = _cli_in_fresh_interpreter(["run", "--problem", "ls", "--optimizer", "mezo",
                                      "--mu", "1e300", "--steps", "3"], cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == ""
    assert done.stdout == (
        "status=diverged steps=0 queries=0\n"
        "memory model (base): 100452 slots; registered peak: 100 slots\n"
        "reason: non-finite loss in SPSA probe: f+=inf, f-=inf\n")


def test_a_run_diverged_in_its_first_probe_makes_only_that_probes_queries(
        monkeypatch, capsys):
    # a run that recorded no step spends no n-sample query on a final loss
    built, executions = [], []
    make, execute_spec = objectives.make_least_squares, harness.execute

    def counting_least_squares(**params):
        built.append(CountingObjective(make(**params)))
        return built[-1]

    def kept_execution(*args, **kwargs):
        executions.append(execute_spec(*args, **kwargs))
        return executions[-1]

    monkeypatch.setattr(objectives, "make_least_squares", counting_least_squares)
    monkeypatch.setattr(harness, "execute", kept_execution)
    code = cli.main(["run", "--problem", "ls", "--optimizer", "mezo",
                     "--mu", "1e300", "--steps", "3"])
    assert code == 2
    assert capsys.readouterr().out.startswith("status=diverged steps=0 queries=0\n")
    # the probe's two b-sample queries, at theta + mu*z and theta - mu*z
    assert built[0].forward_queries == 2 * MezoConfig().b
    assert math.isnan(executions[0].final_loss)


def test_mlp_report_fails_on_a_run_that_recorded_no_step():
    # the NaN final loss of a run diverged at step 0 compares false both ways
    executions = [SimpleNamespace(final_loss=loss) for loss in (0.9, math.nan, 0.3)]
    report = harness._preset_report("mlp", executions)
    assert not report.passed
    assert "mezo-svrg=nan" in report.render()


# run flags (mezo-svrg on ls unless they say otherwise) that a settings check refuses
_BAD_SETTINGS = [
    (["--mu", "0"], "mu must be positive, got 0.0"),
    (["--mu", "-1"], "mu must be positive, got -1.0"),
    (["--mu", "inf"], "mu must be finite, got inf"),
    (["--lr1", "nan"], "eta1 must be finite, got nan"),
    (["--lr2", "inf"], "eta2 must be finite, got inf"),
    (["--optimizer", "mezo", "--lr1", "inf"], "eta must be finite, got inf"),
    (["--optimizer", "zo-svrg", "--lr1", "nan"], "eta must be finite, got nan"),
    (["--optimizer", "fo-sgd", "--lr1=-inf"], "eta must be finite, got -inf"),
    (["--lr1", "-inf"], "eta1 must be finite, got -inf"),
    (["--mu", "-nan"], "mu must be positive, got nan"),
    (["--lr1=-1"], "eta1 must be non-negative, got -1.0"),
    (["--lr1", "-1e-3"], "eta1 must be non-negative, got -0.001"),
    (["--lr2", "-.5"], "eta2 must be non-negative, got -0.5"),
    (["--optimizer", "mezo", "--lr1", "-1"], "eta must be non-negative, got -1.0"),
    (["--optimizer", "zo-svrg", "--lr1", "-1E-3"], "eta must be non-negative, got -0.001"),
    (["--optimizer", "fo-sgd", "--lr1", "-2"], "eta must be non-negative, got -2.0"),
    (["--eval-every", "-2"], "eval_every must be >= 0, got -2"),
    (["--config", "p0.cfg"], "p must be >= 1, got 0"),
    (["--kappa", "1"], "kappa must exceed 1, got 1.0"),
    (["--alpha", "1"], "alpha must exceed 1, got 1.0"),
    (["--alpha", "inf"], "alpha must be finite, got inf"),
    (["--steps", "0"], "budget values must be positive"),
    (["--query-budget", "0"], "budget values must be positive"),
    (["--n", "5", "--d", "10"], "need n >= d >= 1, got n=5, d=10"),
    (["--noise-std", "-1"], "noise_std must be non-negative"),
    (["--noise-std", "nan"], "noise_std must be finite, got nan"),
    (["--noise-std", "inf"], "noise_std must be finite, got inf"),
    (["--problem", "logistic", "--config", "nan.cfg"], "separation must be finite, got nan"),
    (["--problem", "logistic", "--d", "0"], "need n, d >= 1, got n=256, d=0"),
    (["--optimizer", "fo-sgd"],
     "trajectory recording is only defined for seed-replay optimizers, not 'fo-sgd'"),
    (["--optimizer", "zo-svrg"],
     "trajectory recording is only defined for seed-replay optimizers, not 'zo-svrg'"),
]


@pytest.mark.parametrize("args, message", _BAD_SETTINGS,
                         ids=[" ".join(args) for args, _ in _BAD_SETTINGS])
def test_cli_run_refuses_a_bad_setting(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p0.cfg").write_text("p=0\n")
    (tmp_path / "nan.cfg").write_text("separation=nan\n")
    code = cli.main(["run", "--optimizer", "mezo-svrg", "--out", "never.csv",
                     "--traj-out", "never.zotrj"] + args)
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["nan.cfg", "p0.cfg"]


# command lines the parser refuses; argparse's own error() would exit 2, the
# code of a diverged run
_BAD_FLAGS = [
    (["run", "--mu", "abc"], "zovr run: argument --mu: invalid float value: 'abc'"),
    (["run", "--bogus", "1"], "zovr: unrecognized arguments: --bogus 1"),
    (["replay"], "zovr replay: the following arguments are required: "
                 "--traj, --theta0, --step, --out"),
]


@pytest.mark.parametrize("args, message", _BAD_FLAGS,
                         ids=[" ".join(args) for args, _ in _BAD_FLAGS])
def test_cli_parser_error_exits_1(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not os.listdir(tmp_path)


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


def _cli_recorded_run(tmp_path, steps=3):
    traj = str(tmp_path / "run.zotrj")
    assert cli.main(["run", "--problem", "ls", "--optimizer", "mezo", "--steps", str(steps),
                     "--seed", "9", "--n", "16", "--d", "4", "--batch-size", "4",
                     "--traj-out", traj]) == 0
    return traj


def test_cli_replay_names_the_file_it_wrote(tmp_path, capsys):
    traj = _cli_recorded_run(tmp_path)
    ckpt = str(tmp_path / "ckpt")  # np.save appends .npy
    assert cli.main(["replay", "--traj", traj, "--theta0", traj + ".theta0.npy",
                     "--step", "3", "--out", ckpt]) == 0
    assert capsys.readouterr().out.endswith(f"wrote step-3 checkpoint to {ckpt}.npy\n")
    assert np.array_equal(np.load(ckpt + ".npy"), np.load(traj + ".final.npy"))


@pytest.mark.parametrize("name, save, message", [
    ("scalar.npy", lambda path, theta0: np.save(path, theta0[0]),
     "theta0 must be a 1-d array, got ()"),
    ("theta0.npz", lambda path, theta0: np.savez(path, theta0=theta0),
     "theta0.npz is not a .npy array file"),
], ids=["0-d", "npz"])
def test_cli_replay_refuses_a_theta0_file_without_a_vector(tmp_path, capsys, name, save,
                                                           message):
    traj = _cli_recorded_run(tmp_path)
    bad = str(tmp_path / name)
    save(bad, np.load(traj + ".theta0.npy"))
    capsys.readouterr()
    ckpt = tmp_path / "ckpt.npy"
    assert cli.main(["replay", "--traj", traj, "--theta0", bad, "--step", "3",
                     "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not ckpt.exists()


def test_cli_replay_in_two_lanes_exits_cleanly(tmp_path, monkeypatch):
    # a MeZO-SVRG log wide enough for the two-lane kernel, replayed by a
    # fresh interpreter whose lane thread must not hold up its exit
    d = estimators.PARALLEL_MIN_VALUES + 21
    traj = str(tmp_path / "wide.zotrj")
    assert cli.main(["run", "--problem", "logistic", "--optimizer", "mezo-svrg",
                     "--n", "6", "--d", str(d), "--steps", "4", "--batch-size", "2",
                     "--seed", "4", "--traj-out", traj]) == 0
    ckpt = str(tmp_path / "ckpt.npy")
    done = _cli_in_fresh_interpreter(["replay", "--traj", traj, "--theta0",
                                      traj + ".theta0.npy", "--step", "4", "--out", ckpt])
    assert done.returncode == 0
    assert done.stderr == ""
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), None))  # the serial sweep
    reference = trajectory.replay(trajectory.load(traj), np.load(traj + ".theta0.npy"), 4)
    assert trajectory.theta_digest(np.load(ckpt)) == trajectory.theta_digest(reference)
    assert np.array_equal(np.load(ckpt), np.load(traj + ".final.npy"))


def test_cli_verify_passes(monkeypatch, capsys):
    # its z kernel and sampler lines name the paths that ran, the compiled
    # ones where the kernel was built
    kernel, sampler = ("numpy", "python") if prng.ZKERNEL is None else ("compiled",) * 2
    assert cli.main(["verify"]) == 0
    line = "[PASS] {} z kernel matches the numpy reference bit for bit\n"
    sampler_line = "[PASS] {} minibatch sampler matches the python reference\n"
    out = capsys.readouterr().out
    assert out.endswith(line.format(kernel))
    assert sampler_line.format(sampler) in out
    monkeypatch.setattr(prng, "ZKERNEL", None)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(line.format("numpy"))
    assert sampler_line.format("python") in out


def test_cli_verify_fails_on_a_z_kernel_one_ulp_off(monkeypatch, capsys):
    # a kernel whose z is one ulp up as an array and in a pass, then in a pass
    # only; the check line names the forms that differ, and every window of
    # the load-time check
    reference = prng._numpy_normals
    for forms in (("array", "pass"), ("pass",)):
        def off(seed, start, count, add_to, scale):
            z = reference(seed, start, count)
            if ("array" if add_to is None else "pass") in forms:
                z = np.nextafter(z, np.inf)
            z *= scale
            if add_to is None:
                return z
            add_to += z

        monkeypatch.setattr(prng, "ZKERNEL", SimpleNamespace(
            normals=off, sample=prng._python_sample))
        assert cli.main(["verify"]) == 1
        counts = [100, 2049, 1, 256, 257, 1025, 16387]
        differ = "; ".join(f"{form} windows of {counts} values differ" for form in forms)
        assert (f"z kernel matches the numpy reference bit for bit ({differ})\n"
                in capsys.readouterr().out)


def test_cli_verify_fails_on_a_sampler_one_index_off(monkeypatch, capsys):
    # a kernel whose z is right and whose batches have their first index one
    # up; the check line names the compiled sampler and each batch
    reference = prng._python_sample

    def off(n, b, seed):
        indices = reference(n, b, seed)
        indices[0] += 1
        return indices

    monkeypatch.setattr(prng, "ZKERNEL", SimpleNamespace(
        normals=prng._numpy_normals, sample=off))
    assert cli.main(["verify"]) == 1
    missed = [(100, 50), (1, 1), (7, 7), (100, 50), (1000, 32), (2**63, 7)]
    assert (f"[FAIL] compiled minibatch sampler matches the python reference "
            f"(batches of (n, b) in {missed} differ)\n" in capsys.readouterr().out)


def test_cli_compare_identical_inputs(tmp_path, capsys):
    path = str(tmp_path / "same.csv")
    execute(_ls_spec(max_steps=60), out=path)
    assert cli.main(["compare", path, path, "--criterion", "final-loss"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_compare_rejects_a_row_cut_mid_line(tmp_path, capsys):
    path = tmp_path / "cut.csv"
    execute(_ls_spec(max_steps=5), out=str(path))
    text = path.read_text()
    path.write_text(text[:-30])  # the last row loses its final fields
    rows = len(text.splitlines())
    with pytest.raises(ValueError, match=f"line {rows} has"):
        harness.read_csv(str(path))
    assert cli.main(["compare", str(path), str(path), "--criterion", "final-loss"]) == 1
    assert f"error: {path} line {rows} has" in capsys.readouterr().err


@pytest.mark.parametrize("criterion, count", [("gap", 1), ("final-loss", 2)])
def test_cli_compare_refuses_a_run_without_rows(tmp_path, capsys, criterion, count):
    # a run that diverges at its first step writes a header-only CSV
    path = str(tmp_path / "diverged.csv")
    assert cli.main(["run", "--problem", "ls", "--optimizer", "mezo", "--mu", "1e300",
                     "--steps", "3", "--out", path]) == 2
    assert read_csv(path) == []
    capsys.readouterr()
    assert cli.main(["compare", *[path] * count, "--criterion", criterion]) == 1
    assert f"error: {path} has no rows to judge" in capsys.readouterr().err


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


@pytest.mark.parametrize("extra", [
    ["--optimizer", "fo-sgd"],
    ["--eval-every", "2"],
    ["--config", "run.cfg"],
    ["--traj-out", "run.zotrj"],
], ids=lambda extra: extra[0])
def test_cli_preset_rejects_flags_it_would_ignore(tmp_path, capsys, extra):
    outdir = tmp_path / "preset"
    code = cli.main(["run", "--preset", "mu-ablation", "--query-budget", "2000",
                     "--out", str(outdir)] + extra)
    assert code == 1
    assert extra[0] in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_preset_refuses_a_bad_budget_before_making_its_directory(tmp_path, capsys):
    outdir = tmp_path / "preset"
    code = cli.main(["run", "--preset", "fig1a", "--query-budget", "0", "--out", str(outdir)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: budget values must be positive\n")
    assert not outdir.exists()


def test_cli_preset_takes_seed_budget_and_out(tmp_path):
    outdir = tmp_path / "preset"
    assert cli.main(["run", "--preset", "fig1a", "--seed", "3", "--query-budget", "4256",
                     "--out", str(outdir)]) == 0
    assert sorted(os.listdir(outdir)) == [
        "fig1a_fo-sgd.csv", "fig1a_mezo-svrg.csv", "fig1a_mezo.csv"]


def _csv_digest_without_elapsed(path):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    drop = lines[0].split(b",").index(b"elapsed_seconds")
    kept = [b",".join(f for i, f in enumerate(line.split(b",")) if i != drop)
            for line in lines]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


# (final-theta SHA-256, SHA-256 of the CSV without elapsed_seconds) per run,
# at two MeZO-SVRG anchor-plus-minibatch step pairs of each preset's budget
_PRESET_OUTPUTS = {
    ("fig1a", 2128 * 2): {
        "mezo": ("bded3c0ed27ecc553bb34cfb049da0bfd2a3cb67df3c0337f4f3828000c89f6c",
                 "83ec5644949f43e7915fb51e6762af6c9dbe0a38ec014f81c363ca31dbd5eb91"),
        "mezo-svrg": ("fa7d668f025e26fd22686e970d4f1b9ef29ecb2d2a8a61e395e46a1d62249f50",
                      "3069f25ed09bede67fd0a92175e4cb7ab3b9f4191f84291475a46603aae95795"),
        "fo-sgd": ("a0af96a941f7b1c0fbaa0475d77477145a74c8be8935154af64b4b0be22e05d5",
                   "a25a7e78c191c840b0475502e93679114fd6b008765a7d8a53e673d78ff7dc60"),
    },
    ("mlp", 1280 * 2): {
        "mezo": ("2b714889b226536bf6c02d8a294d28f1b8602144ee8af2ce2fd203a14022a6f9",
                 "2d6c6c7b6ba5208fdbeed7d55ba8d369ab1b29a148a99ab559437cf56e33eeb3"),
        "mezo-svrg": ("60178a093e205d006bcbcf089bac949d20ac5c6614d6cffd05f01ec6891cf785",
                      "83ac33fde5b15c53ff246cfb0fe361a0a5e33e071596a2ee1037b1d7fab7ce9a"),
        "fo-sgd": ("d4f07000d8cd9b5f40450740077ebcc0e9f8052779608a4e3b0db0742ed3410c",
                   "384ad380b57bc1ee3addf8f896299439df7a2628cf5f74101ed98fe14477a75c"),
    },
}


@pytest.mark.parametrize("preset, budget", sorted(_PRESET_OUTPUTS))
def test_preset_outputs_pinned(tmp_path, preset, budget):
    executions, _ = harness.run_preset(preset, seed=0, outdir=str(tmp_path),
                                       query_budget=budget)
    outputs = {e.spec.name: (hashlib.sha256(e.result.theta.tobytes()).hexdigest(),
                             _csv_digest_without_elapsed(e.csv_path))
               for e in executions}
    assert_pinned(outputs, _PRESET_OUTPUTS[preset, budget])


# SHA-256 of a logistic FO-SGD run's CSV without elapsed_seconds, at a sampled
# and at a full batch
_LOGISTIC_FO_SGD_CSVS = {
    8: "7c17c69083635ce35ae7132a2649e274c8b83b96ceb752611a0b2f1dfe9f9bc6",
    64: "fbf4a8f44eefd88694b0a893d1858e1e4f5684877582dcadb6efd662fdeabbee",
}


@pytest.mark.parametrize("b", sorted(_LOGISTIC_FO_SGD_CSVS))
def test_logistic_fo_sgd_csv_pinned(tmp_path, b):
    path = str(tmp_path / "logistic.csv")
    execute(_ls_spec(problem="logistic", problem_params={"n": 64, "d": 4, "seed": 2},
                     optimizer="fo-sgd", optimizer_params={"b": b, "eta": 1e-2},
                     eval_every=10), out=path)
    assert _csv_digest_without_elapsed(path) == _LOGISTIC_FO_SGD_CSVS[b]


# SHA-256 of a ZO-SVRG run's CSV without elapsed_seconds: the 5d peak_slots column
# of the dense reference, on least squares, logistic regression and the MLP
_ZO_SVRG_CSVS = {
    "ls": ({"n": 48, "d": 24, "noise_std": 0.01, "seed": 1},
           "ca8042d64efb12cd84a2373804aa625df71be5a6f6ef7c6edba7129e3c5da571"),
    "logistic": ({"n": 40, "d": 6, "seed": 1},
                 "6397e8e1a78c72a82194ca8dccc28ae489ea4e49763b40fd14c4c220c0dee49d"),
    "mlp": ({"n": 40, "seed": 1},
            "4f613040c0e8d516df3b937dffe4f968dd608c3dbc17e072856de83f19aa1413"),
}


@pytest.mark.parametrize("problem", sorted(_ZO_SVRG_CSVS))
def test_zo_svrg_csv_pinned(tmp_path, problem):
    params, digest = _ZO_SVRG_CSVS[problem]
    path = str(tmp_path / "zo-svrg.csv")
    execute(_ls_spec(problem=problem, problem_params=params, optimizer="zo-svrg",
                     optimizer_params={"b": 8, "eta": 1e-3, "mu": 1e-3, "q": 3},
                     max_steps=12, eval_every=4), out=path)
    assert_pinned(_csv_digest_without_elapsed(path), digest)


# SHA-256 of each preset's printed report at a small budget (None: no report)
_PRESET_REPORTS = {
    "fig1a": (6384, "48d5173c2431407fe4d899e5d1e06f6b6333414083b36191de5bb691f910d1eb"),
    "batch-robustness": (
        4000, "c4c62fbfc3c4e7a123839df9c2247ce5a91112e4768feaacd2c1a430e8bf4454"),
    "q-ablation": (6000, "bbf5bd019096a91e93412ab3074f8c8e77677af7f69b4ca52f90cdb44e043786"),
    "anchor-approx": (
        6000, "c48c8b98fbd6e11a85d5efa311c3f3987764c561058cb23fa356bbfcec88e737"),
    "mu-ablation": (2000, None),
    "mlp": (2560, "371956c118333c8f6039ef55caadc329c1d06b1d4210e97058b77d8b7e7bf83d"),
}


@pytest.mark.parametrize("preset", sorted(_PRESET_REPORTS))
def test_preset_reports_pinned(tmp_path, preset):
    budget, digest = _PRESET_REPORTS[preset]
    _, report = harness.run_preset(preset, seed=0, outdir=str(tmp_path), query_budget=budget)
    rendered = None if report is None else hashlib.sha256(report.render().encode()).hexdigest()
    assert rendered == digest


@pytest.fixture(scope="module")
def fig1a_dir(tmp_path_factory):
    """A directory holding the fig1a preset's three CSVs, at a small budget."""
    outdir = tmp_path_factory.mktemp("fig1a")
    harness.run_preset("fig1a", seed=0, outdir=str(outdir), query_budget=6384)
    return outdir


_FIG1A_CSVS = ["fig1a_mezo.csv", "fig1a_mezo-svrg.csv", "fig1a_fo-sgd.csv"]

# (CSVs given, exit code, SHA-256 of stdout) per criterion on the fig1a runs;
# final-loss names its runs by the CSV paths given, and batch-robustness refuses
# them: fig1a's mezo-svrg run cannot take its mezo-large role
_COMPARE_OUTPUTS = {
    "gap": (_FIG1A_CSVS, 0,
            "4c343b889213b4504affadf5ca02131d894de738892b5aff95de9e51a01047dd"),
    "convergence": (_FIG1A_CSVS, 1,
                    "de74099ef3c84d2e3041924a01b002416de3f40f8033c803865aa3286335bc3c"),
    "batch-robustness": (_FIG1A_CSVS, 1,
                         "1b4b4206d9a67820e2f8f7369593182a09d5ea0283fa18a638f2effb00cd5e3a"),
    "final-loss": (_FIG1A_CSVS[:2], 0,
                   "07534a457272032a8d040ec2fe5c7ad97471233844c31728cba0266eee6cc0b7"),
}


@pytest.mark.parametrize("criterion", sorted(_COMPARE_OUTPUTS))
def test_cli_compare_outputs_pinned(fig1a_dir, monkeypatch, capsys, criterion):
    csvs, code, digest = _COMPARE_OUTPUTS[criterion]
    monkeypatch.chdir(fig1a_dir)  # the printed paths are the ones given
    assert cli.main(["compare", *csvs, "--criterion", criterion]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_compare_final_loss_labels_runs_by_path(fig1a_dir, monkeypatch, capsys):
    monkeypatch.chdir(fig1a_dir)
    assert cli.main(["compare", *_FIG1A_CSVS[:2], "--criterion", "final-loss"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "final loss: fig1a_mezo.csv=7.341005e+01 fig1a_mezo-svrg.csv=7.754445e+01",
        "[PASS] fig1a_mezo.csv <= fig1a_mezo-svrg.csv"]


@pytest.mark.parametrize("criterion, given", [
    ("convergence", 2), ("batch-robustness", 2), ("final-loss", 3)])
def test_cli_compare_rejects_wrong_csv_count(fig1a_dir, capsys, criterion, given):
    wanted = len(harness.CRITERIA[criterion][1])
    csvs = [str(fig1a_dir / name) for name in _FIG1A_CSVS[:given]]
    assert cli.main(["compare", *csvs, "--criterion", criterion]) == 1
    assert f"error: {criterion} takes {wanted} CSVs" in capsys.readouterr().err


@pytest.mark.parametrize("criterion, order, message", [
    ("convergence", (1, 0, 2), "fig1a_mezo-svrg.csv cannot take the mezo role: "
                               "it logs ['fullbatch', 'minibatch']"),
    ("convergence", (0, 2, 1), "fig1a_fo-sgd.csv cannot take the mezo-svrg role: "
                               "it logs ['fo']"),
    ("convergence", (0, 1, 1), "fig1a_mezo-svrg.csv cannot take the fo-sgd role"),
    ("batch-robustness", (0, 1, 2), "fig1a_mezo-svrg.csv cannot take the mezo-large role"),
    ("batch-robustness", (0, 0, 1), "fig1a_mezo.csv cannot take the mezo-small role: "
                                    "b >= fig1a_mezo.csv's"),
])
def test_cli_compare_refuses_a_csv_in_the_wrong_role(fig1a_dir, monkeypatch, capsys,
                                                     criterion, order, message):
    monkeypatch.chdir(fig1a_dir)
    csvs = [_FIG1A_CSVS[i] for i in order]
    assert cli.main(["compare", *csvs, "--criterion", criterion]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_compare_takes_the_batch_robustness_preset_csvs(tmp_path, capsys):
    executions, report = harness.run_preset("batch-robustness", seed=0,
                                            outdir=str(tmp_path), query_budget=4000)
    small, large, svrg = (e.csv_path for e in executions)
    capsys.readouterr()
    code = cli.main(["compare", small, large, svrg, "--criterion", "batch-robustness"])
    assert code == (0 if report.passed else 1)
    out = capsys.readouterr().out
    assert out.endswith(report.render() + "\n")
    # the large-batch run cannot take the small-batch role
    assert cli.main(["compare", large, small, svrg, "--criterion", "batch-robustness"]) == 1
    assert "cannot take the mezo-small role" in capsys.readouterr().err


def test_cli_criterion_choices_are_the_criteria(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["compare", "--help"])
    assert exited.value.code == 0
    assert "--criterion {" + ",".join(harness.CRITERIA) + "}" in capsys.readouterr().out


def test_scheduled_run_with_lr_events_pinned(tmp_path):
    # MeZO-SVRG at p=2 with a sampled anchor batch and a two-step schedule window
    config = tmp_path / "run.cfg"
    config.write_text("p=2\nwindow=2\nkappa=1.0001\n")
    csv, traj = str(tmp_path / "run.csv"), str(tmp_path / "run.zotrj")
    code = cli.main(["run", "--config", str(config), "--problem", "ls", "--optimizer",
                     "mezo-svrg", "--n", "64", "--d", "8", "--batch-size", "8",
                     "--anchor-batch", "16", "--steps", "60", "--lr1", "0.05",
                     "--lr2", "0.005", "--out", csv, "--traj-out", traj])
    assert code == 0
    events = [r for r in trajectory.load(traj).records if r.kind == trajectory.REC_LR_EVENT]
    assert len(events) == 14
    with open(traj, "rb") as fh:
        traj_digest = hashlib.sha256(fh.read()).hexdigest()
    assert (_csv_digest_without_elapsed(csv), traj_digest) == (
        "bd5b143cbc83ef7a3ae3ecc08a7c479ddc40cdd329f089828f515db8497e0124",
        "7380c1008673f620111007a0b829a76c1fde9bcf7a82418f0a578137a2fc1bd1")


@pytest.mark.parametrize("optimizer, most", [("mezo", 255), ("mezo-svrg", 127)])
def test_cli_refuses_unsavable_trajectory_before_any_step(tmp_path, capsys, optimizer, most):
    # a record counts its coefficients in one byte: p, or 2p for a MeZO-SVRG minibatch
    args = ["run", "--config", str(tmp_path / "run.cfg"), "--optimizer", optimizer,
            "--problem", "ls", "--n", "16", "--d", "4", "--batch-size", "4",
            "--steps", "2", "--out", str(tmp_path / "run.csv"),
            "--traj-out", str(tmp_path / "run.zotrj")]
    (tmp_path / "run.cfg").write_text(f"p={most + 1}\n")
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"p={most + 1}" in captured.err
    assert os.listdir(tmp_path) == ["run.cfg"]
    (tmp_path / "run.cfg").write_text(f"p={most}\n")
    assert cli.main(args) == 0
    assert len(trajectory.load(str(tmp_path / "run.zotrj")).records) == 2


def _write_idx_pair(tmp_path, count=6, rows=3, cols=2):
    images = tmp_path / "images.idx3-ubyte"
    labels = tmp_path / "labels.idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols)
                       + bytes(range(0, 7 * count * rows * cols, 7)))
    labels.write_bytes(struct.pack(">II", 0x801, count) + bytes(i % 3 for i in range(count)))
    return str(images), str(labels)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _objective_digests(obj):
    data = ((obj.features, obj.labels) if isinstance(obj, zovr.Mlp2Problem) else
            (obj.X, obj.y) if isinstance(obj, zovr.LeastSquaresProblem) else
            (obj.X, obj.labels))
    return obj.n, obj.d, _digest(*data), _digest(obj.initial_theta())


# every key each problem takes, as strings; the mlp's IDX paths are filled in per test
_PROBLEM_FULL_PARAMS = {
    "ls": {"n": "40", "d": "6", "noise_std": "0.5", "seed": "9"},
    "logistic": {"n": "30", "d": "5", "separation": "3.5", "seed": "9"},
    "mlp": {"n": "5", "seed": "4"},
}

# (n, d, SHA-256 of the data arrays, SHA-256 of initial_theta()) at the
# defaults and with every key given
_PROBLEM_DIGESTS = {
    "ls": (
        (1000, 100, "fee827af54cb9dbcce1388a0f3b801bc85b93107872b7c6214c231d81b0182c0",
         "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1"),
        (40, 6, "df9050196bba3f61d8721a574d82d4c79d5baa8d2d843112fa19b11c576bc9cc",
         "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1"),
    ),
    "logistic": (
        (256, 16, "dcc44c8ad721e9f86b507a483069fd8b00cc723360dbac8301235fb5bece2a86",
         "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca"),
        (30, 5, "b37ff051ce93f4cd672007f239caf6145b01f5451957bfb0e1900e17b1b748a2",
         "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"),
    ),
    "mlp": (
        (512, 25818, "799bc4ae47e67953585386c4ac17a3dea8666257a39a4a9f705de2bd4b46557e",
         "407a9491236ceb2c86b064a9eb723f7fc4811398d6791c60146ce9609dcb9a24"),
        (5, 803, "65b78d946a7fdbb76e796b9bcc9fb015dfa6fd24222d4eb12dfa0eb63077cf44",
         "6757e3c08649b887bb408a2e4b01149104d965cd46e18c879bfe71e64e047ea3"),
    ),
}


@pytest.mark.parametrize("problem", harness.PROBLEMS)
def test_build_objective_pinned(tmp_path, problem):
    default, full = _PROBLEM_DIGESTS[problem]
    params = dict(_PROBLEM_FULL_PARAMS[problem])
    if problem == "mlp":
        params["idx_images"], params["idx_labels"] = _write_idx_pair(tmp_path)
    assert_pinned(_objective_digests(harness.build_objective(problem, {})), default)
    # an empty value means the default, as it does for optimizer keys
    assert_pinned(_objective_digests(harness.build_objective(problem, {"n": ""})), default)
    assert_pinned(_objective_digests(harness.build_objective(problem, params)), full)


def test_cli_rejects_half_idx_pair(tmp_path, capsys):
    images, labels = _write_idx_pair(tmp_path)
    for given in (["--idx-images", images], ["--idx-labels", labels],
                  ["--idx-images", str(tmp_path / "nonexistent")]):
        out = tmp_path / "never.csv"
        code = cli.main(["run", "--problem", "mlp", "--n", "20", "--steps", "1",
                         "--batch-size", "4", "--out", str(out)] + given)
        assert code == 1
        assert "idx_images and idx_labels" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("source", ["synthetic", "idx"])
def test_cli_rejects_an_mlp_sample_count_below_one(tmp_path, capsys, source, n):
    given = []
    if source == "idx":
        images, labels = _write_idx_pair(tmp_path)
        given = ["--idx-images", images, "--idx-labels", labels]
    out = tmp_path / "never.csv"
    code = cli.main(["run", "--problem", "mlp", "--n", n, "--optimizer", "fo-sgd",
                     "--steps", "2", "--batch-size", "1", "--out", str(out)] + given)
    assert code == 1
    assert f"error: need n >= 1, got n={n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["7", None])
def test_cli_rejects_an_mlp_sample_count_above_the_idx_images(tmp_path, capsys, n):
    # the pair holds 6 images; without --n the default 512 asks for more
    images, labels = _write_idx_pair(tmp_path)
    out = tmp_path / "never.csv"
    code = cli.main(["run", "--problem", "mlp", "--optimizer", "fo-sgd", "--steps", "2",
                     "--batch-size", "1", "--idx-images", images, "--idx-labels", labels,
                     "--out", str(out)] + (["--n", n] if n else []))
    assert code == 1
    want = n or "512"
    assert f"error: need n <= 6, the IDX pair's images, got n={want}" in (
        capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(ValueError, match=f"got n={want}"):
        harness.build_objective("mlp", {"n": n, "idx_images": images, "idx_labels": labels})


# (flag, a value that prints back as given, the settings key it lands under)
_RUN_FLAG_KEYS = [
    ("--problem", "logistic", "problem"), ("--optimizer", "zo-svrg", "optimizer"),
    ("--steps", "7", "steps"), ("--query-budget", "7", "query_budget"),
    ("--batch-size", "7", "b"), ("--anchor-batch", "7", "anchor_batch"),
    ("--lr1", "0.5", "eta1"), ("--lr2", "0.5", "eta2"), ("--mu", "0.5", "mu"),
    ("--q", "7", "q"), ("--kappa", "0.5", "kappa"), ("--alpha", "0.5", "alpha"),
    ("--seed", "7", "seed"), ("--eval-every", "7", "eval_every"), ("--n", "7", "n"),
    ("--d", "7", "d"), ("--noise-std", "0.5", "noise_std"),
    ("--idx-images", "a.idx", "idx_images"), ("--idx-labels", "b.idx", "idx_labels"),
    ("--out", "run.csv", None), ("--traj-out", "run.zotrj", None),
]


# negative and non-finite values given after a space, not as --flag=value
_NEGATIVE_RUN_FLAG_VALUES = [
    ("--lr1", "-1e-05", "eta1"), ("--lr2", "-0.5", "eta2"), ("--mu", "-inf", "mu"),
    ("--noise-std", "-1e+300", "noise_std"), ("--seed", "-7", "seed"),
]


def _run_parser():
    """The top-level parser with only `run`, and the `run` subparser."""
    parser = cli._Parser()
    sub = parser.add_subparsers(dest="command")
    cli._add_run_parser(sub)
    return parser, sub.choices["run"]


@pytest.mark.parametrize("flag, value, key", _RUN_FLAG_KEYS + _NEGATIVE_RUN_FLAG_VALUES,
                         ids=[flag for flag, _, _ in _RUN_FLAG_KEYS]
                         + [f"{flag} {value}" for flag, value, _ in _NEGATIVE_RUN_FLAG_VALUES])
def test_cli_flag_lands_under_its_key(flag, value, key):
    settings = cli._collect_settings(_run_parser()[0].parse_args(["run", flag, value]))
    assert settings == ({} if key is None else {key: value})


def test_cli_flag_key_table_covers_every_run_flag():
    flags = {a.option_strings[-1] for a in _run_parser()[1]._actions if a.dest != "help"}
    # --config supplies settings from a file and --preset replaces them all
    assert flags - {"--config", "--preset"} == {flag for flag, _, _ in _RUN_FLAG_KEYS}


def test_query_parity_check():
    rows_a = [{"cumulative_queries": 100}, {"cumulative_queries": 200}]
    rows_b = [{"cumulative_queries": 150}, {"cumulative_queries": 290}]
    assert query_parity_ok(rows_a, rows_b)
    rows_c = [{"cumulative_queries": 10}, {"cumulative_queries": 20}]
    assert not query_parity_ok(rows_a, rows_c)


@pytest.mark.parametrize("problem, key, value", [
    ("ls", "noise_std", "nan"), ("ls", "noise_std", "inf"), ("ls", "noise_std", "-inf"),
    ("logistic", "separation", "nan"), ("logistic", "separation", "inf"),
    ("logistic", "separation", "-inf"),
])
def test_build_objective_refuses_a_non_finite_setting(problem, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
        harness.build_objective(problem, {key: value})


def test_unknown_problem_and_optimizer_rejected():
    with pytest.raises(ValueError):
        harness.build_objective("nope", {})
    with pytest.raises(ValueError):
        harness.build_optimizer_config("nope", {})
