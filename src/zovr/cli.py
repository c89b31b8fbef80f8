"""Command line front-end.

Subcommands:
    run      execute one run (or a whole preset) and write CSVs
    compare  evaluate CSVs against a comparison criterion
    replay   reconstruct a checkpoint from a trajectory file
    verify   run the quick oracle battery

Exit codes: 0 success, 1 bad input or a failed comparison criterion,
2 diverged run. Any other exception is a bug and ends with its traceback.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import harness, oracles, prng, trajectory
from .estimators import PerturbationSeed, apply_probe_sequence, sample_minibatch
from .memory import account_memory, held_slots
from .optimizers import OPTIMIZER_ROWS, OPTIMIZERS, _parsed
from .prng import fold


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1 or -.5 after a flag as its value, but -1e-3 or -inf as a flag
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # a parse error is bad input (exit 1); argparse's own error() exits 2, a diverged run's code
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_run_parser(sub):
    p = sub.add_parser("run", help="execute one optimization run or a preset")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--preset", choices=sorted(harness.PRESETS),
                   help="run a named experiment preset instead of a single run; "
                        "takes only --seed, --out and --query-budget")
    p.add_argument("--problem", choices=harness.PROBLEMS, default=None)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--query-budget", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--anchor-batch", type=int, default=None)
    p.add_argument("--lr1", type=float, default=None)
    p.add_argument("--lr2", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (or preset directory)")
    p.add_argument("--traj-out", default=None, help="trajectory output path")
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="problem sample count")
    p.add_argument("--d", type=int, default=None, help="problem dimension")
    p.add_argument("--noise-std", type=float, default=None)
    p.add_argument("--idx-images", default=None, help="IDX image file for --problem mlp")
    p.add_argument("--idx-labels", default=None, help="IDX label file for --problem mlp")


# run flags whose settings key is not their own name, and the run arguments
# that are not settings
_FLAG_KEYS = {"batch_size": "b", "lr1": "eta1", "lr2": "eta2"}
_NOT_SETTINGS = ("command", "config", "preset", "out", "traj_out")


def _collect_settings(args) -> dict[str, str]:
    settings = harness.parse_config_file(args.config) if args.config else {}
    for dest, value in vars(args).items():
        if value is not None and dest not in _NOT_SETTINGS:
            settings[_FLAG_KEYS.get(dest, dest)] = str(value)
    return settings


def _spec_from_settings(settings: dict[str, str]) -> harness.RunSpec:
    """A run spec that hands every setting to both builders; each takes its own keys."""
    problem = settings.get("problem") or "ls"
    optimizer = settings.get("optimizer") or "mezo-svrg"
    if "eta1" in settings:  # --lr1 sets eta of the one-rate optimizers
        settings.setdefault("eta", settings["eta1"])
    run = _parsed({"steps": int, "query_budget": int, "seed": int, "eval_every": int},
                  settings)
    steps, queries = run.get("steps"), run.get("query_budget")
    if steps is None and queries is None:
        steps = 1000
    return harness.RunSpec(
        name=f"{problem}-{optimizer}", problem=problem,
        problem_params=settings, optimizer=optimizer, optimizer_params=settings,
        master_seed=run.get("seed", 0), max_steps=steps, max_queries=queries,
        eval_every=run.get("eval_every", 0))


def _summary(execution: harness.ExecutionResult) -> str:
    """Status, steps and queries of a run, and its final loss if it took a step."""
    result = execution.result
    line = f"status={result.status} steps={result.steps} queries={result.total_queries}"
    return f"{line} final_loss={execution.final_loss:.6e}" if result.steps else line


# the subcommand and the run settings a preset reads; any other argument set
# next to --preset would be ignored, so it is an error
_PRESET_ARGS = ("command", "preset", "seed", "out", "query_budget")


# A diverging run reports itself in its status and reason; numpy's overflow
# warnings would only name a source line. The state is set here, once per
# command, not in run(): on numpy 2.4 every ufunc call inside a non-default
# errstate costs about 2.5% more, and the library leaves its caller's state alone.
@np.errstate(over="ignore", invalid="ignore")
def cmd_run(args) -> int:
    if args.preset:
        ignored = [f"--{k.replace('_', '-')}" for k, v in vars(args).items()
                   if v is not None and k not in _PRESET_ARGS]
        if ignored:
            raise ValueError(f"--preset takes only --seed, --out and --query-budget, "
                             f"not {', '.join(ignored)}")
        seed = args.seed if args.seed is not None else 0
        outdir = args.out or f"preset_{args.preset}"
        executions, report = harness.run_preset(
            args.preset, seed, outdir, query_budget=args.query_budget)
        for e in executions:
            print(f"{e.spec.name}: {_summary(e)} csv={e.csv_path}")
        if report is not None:
            print(report.render())
        return 2 if any(e.result.status == "diverged" for e in executions) else 0

    settings = _collect_settings(args)
    spec = _spec_from_settings(settings)
    execution = harness.execute(spec, out=args.out, traj_out=args.traj_out)
    result = execution.result
    print(_summary(execution))
    opt, d = spec.optimizer, execution.objective.d
    models = "".join(f"memory model ({mode or 'base'}): {account_memory(opt, mode, d)} slots; "
                     for mode in OPTIMIZER_ROWS[opt].memory)
    print(f"{models}registered peak: {held_slots(opt, d)} slots")
    if result.reason:
        print(f"reason: {result.reason}")
    return 2 if result.status == "diverged" else 0


def cmd_compare(args) -> int:
    rows = [harness.read_csv(p) for p in args.csv]
    for path, r in zip(args.csv, rows):
        print(f"{path} loss-vs-queries: {harness.curve_summary(r)}")
    report = harness.judge(args.criterion, rows, args.csv)
    print(report.render())
    return 0 if report.passed else 1


def cmd_replay(args) -> int:
    log = trajectory.load(args.traj)
    theta0 = np.load(args.theta0)
    if not isinstance(theta0, np.ndarray):  # an .npz archive, which holds its file open
        theta0.close()
        raise ValueError(f"{args.theta0} is not a .npy array file")
    theta = trajectory.replay(log, theta0, args.step)
    # np.save appends the suffix to a path without one
    out = args.out if args.out.endswith(".npy") else f"{args.out}.npy"
    np.save(out, theta)
    print(f"wrote step-{args.step} checkpoint to {out}")
    return 0


def cmd_verify(args) -> int:
    """Quick oracle battery over the estimator identities."""
    from . import objectives

    report = harness.CompareReport()
    ls = objectives.make_least_squares(6, 5, noise_std=0.05, seed=1)
    worst = 0.0
    for probe in range(3):
        theta = 0.4 * prng.normals(fold(100, probe), 0, 5)
        for b in (1, 2, 3):
            dev = oracles.unbiasedness_check(
                ls, theta, PerturbationSeed(fold(probe, b)), b)
            worst = max(worst, dev)
    report.check("minibatch-average unbiasedness (exhaustive, n=6)", worst < 1e-12,
                 f"max deviation {worst:.2e}")

    log32 = objectives.make_logistic(32, 6, seed=2)
    cv = oracles.control_variate_check(
        log32, np.full(6, 0.2), np.full(6, -0.3), PerturbationSeed(9))
    report.check("control variates sum to zero",
                 cv.sum_inf_norm < 1e-10 * max(cv.max_u_inf_norm, 1e-300),
                 f"sum {cv.sum_inf_norm:.2e}")
    report.check("population cross-moment is zero",
                 cv.population_cross_moment < 1e-20)

    grad_norm = float(np.max(np.abs(ls.batch_grad(ls.w_ls, np.arange(ls.n)))))
    report.check("normal-equation solution is stationary", grad_norm < 1e-8,
                 f"grad inf-norm {grad_norm:.2e}")

    theta = 1.0 + np.arange(1000, dtype=np.float64) / 1000.0
    snapshot = theta.copy()
    apply_probe_sequence(theta, PerturbationSeed(77), 1e-3)
    rel = float(np.max(np.abs(theta - snapshot) / np.abs(snapshot)))
    report.check("perturb-restore returns parameters", rel < 1e-12, f"max rel err {rel:.2e}")

    sampler = "python" if prng.ZKERNEL is None else "compiled"
    missed = []
    for n, b in ((1, 1), (7, 7), (100, 50), (1000, 32), (2**63, 7)):
        seed = fold(302, b)
        indices, reference = sample_minibatch(n, b, seed).indices, prng._python_sample(n, b, seed)
        if indices.dtype != reference.dtype or not np.array_equal(indices, reference):
            missed.append((n, b))
    report.check(f"{sampler} minibatch sampler matches the python reference", not missed,
                 f"batches of (n, b) in {missed} differ" if missed else "")

    kernel = "numpy" if prng.ZKERNEL is None else "compiled"
    differ = {"array": [], "pass": []}
    for c in (1, 256, 257, 1_025, 16_387):
        seed = fold(300, c)
        if prng.normals(seed, 7, c).tobytes() != prng._numpy_normals(seed, 7, c).tobytes():
            differ["array"].append(c)
        added = prng._numpy_normals(fold(301, c), 0, c)
        expected = added.copy()
        prng.normals(seed, 7, c, add_to=added, scale=-0.37)
        z = prng._numpy_normals(seed, 7, c)
        z *= -0.37
        expected += z
        if added.tobytes() != expected.tobytes():
            differ["pass"].append(c)
    detail = "; ".join(f"{form} windows of {counts} values differ"
                       for form, counts in differ.items() if counts)
    report.check(f"{kernel} z kernel matches the numpy reference bit for bit", not detail,
                 detail)
    print(report.render())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _Parser(prog="zovr", description="zeroth-order optimization benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)

    p = sub.add_parser("compare", help="compare run CSVs against a criterion")
    p.add_argument("csv", nargs="+")
    p.add_argument("--criterion", default="gap", choices=tuple(harness.CRITERIA))

    p = sub.add_parser("replay", help="reconstruct a checkpoint from a trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--theta0", required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("verify", help="run the oracle verification battery")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_verify(args)
    except (ValueError, OSError, trajectory.TrajectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
