"""Experiment harness: run configs, presets, CSV emission, comparisons.

A run is fully described by a RunSpec (problem + optimizer + master
seed + budget); executing one writes a CSV whose columns are the fields
of `optimizers.RunRecord` in order, then `fstar`:

    step, cumulative_queries, train_loss, eval_metric, eta1, eta2,
    kind, peak_slots, elapsed_seconds, backward_queries, fstar

('.' decimal separator, LF line endings; extra columns only ever appear
at the end). Two runs with the same spec produce byte-identical CSVs
except for the elapsed_seconds column.

Presets bundle the experiment groups at matched query budgets: the
least-squares convergence comparison, the batch-size robustness study,
the anchor-frequency and large-batch-anchor ablations, the perturbation
scale sweep, and the MLP classification sanity run. Each is one row of
the `_PRESETS` table: its default budget, problem, runs and report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import get_type_hints

import numpy as np

from . import objectives, trajectory
from .optimizers import (
    RUN_KINDS,
    Budget,
    RunRecord,
    RunResult,
    _parsed,
    build_optimizer_config,
    run,
    trajectory_params,
)


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


# CSV column -> parser of its text: RunRecord's fields in order, then fstar
_CSV_PARSERS = {name: hint if hint in (int, str) else _float_or_none  # float, float | None
                for name, hint in {**get_type_hints(RunRecord), "fstar": float}.items()}
CSV_COLUMNS = list(_CSV_PARSERS)

# problem -> (its builder in `objectives`, settings key -> parser); each
# default lives only in the builder's signature
_PROBLEMS = {
    "ls": ("make_least_squares", {"n": int, "d": int, "noise_std": float, "seed": int}),
    "logistic": ("make_logistic", {"n": int, "d": int, "separation": float, "seed": int}),
    "mlp": ("_make_mlp", {"n": int, "seed": int, "idx_images": str, "idx_labels": str}),
}
PROBLEMS = tuple(_PROBLEMS)


@dataclass(frozen=True)
class RunSpec:
    name: str
    problem: str
    problem_params: dict
    optimizer: str
    optimizer_params: dict
    master_seed: int = 0
    max_steps: int | None = None
    max_queries: int | None = None
    eval_every: int = 0


@dataclass
class ExecutionResult:
    spec: RunSpec
    result: RunResult
    objective: object
    theta0: np.ndarray
    final_loss: float        # exact full-dataset mean loss at the final theta; NaN
                             # for a run that recorded no step, which fails every
                             # comparison of the mlp preset's report
    csv_path: str | None = None


def build_objective(problem: str, params: dict):
    """The objective of `problem` from a flat settings map of strings or numbers.

    Keys the problem's builder takes no argument for are ignored, and a
    missing or empty value leaves the builder's default.
    """
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
    builder, parsers = _PROBLEMS[problem]
    # looked up by name on each call, like any `objectives.<name>` call, so a
    # replaced module function is the one that runs
    return getattr(objectives, builder)(**_parsed(parsers, params))


def execute(spec: RunSpec, out: str | None = None,
            traj_out: str | None = None) -> ExecutionResult:
    """Run one spec end to end; optionally write its CSV and trajectory.

    Alongside a trajectory file the initial and final parameter vectors
    are saved as '<traj>.theta0.npy' and '<traj>.final.npy' so replay
    can be verified against the live endpoints.
    """
    obj = build_objective(spec.problem, spec.problem_params)
    config = build_optimizer_config(spec.optimizer, spec.optimizer_params)
    theta0 = obj.initial_theta()
    traj = None
    if traj_out:
        traj = trajectory.TrajectoryLog.for_run(
            spec.master_seed, theta0, spec.optimizer, trajectory_params(config))
    budget = Budget(max_steps=spec.max_steps, max_queries=spec.max_queries)
    result = run(obj, theta0, spec.optimizer, config, budget, spec.master_seed,
                 trajectory=traj, eval_every=spec.eval_every)
    # a run that recorded no step has no final loss worth n queries
    final_loss = (float(obj.batch_loss(result.theta, np.arange(obj.n))) if result.steps
                  else math.nan)
    execution = ExecutionResult(spec, result, obj, theta0, final_loss)
    if out:
        write_csv(out, result.records, getattr(obj, "f_star", None))
        execution.csv_path = out
    if traj_out:
        trajectory.save(traj, traj_out)
        np.save(traj_out + ".theta0.npy", theta0)
        np.save(traj_out + ".final.npy", result.theta)
    return execution


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str, records: list[RunRecord], fstar: float | None) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        names = CSV_COLUMNS[:-1]  # RunRecord's fields
        for r in records:
            row = [getattr(r, name) for name in names] + [fstar]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str) -> list[dict]:
    """One dict per row; columns past the schema stay text."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:len(CSV_COLUMNS)] != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema in {path}: {header}")
        rows = []
        for number, line in enumerate(fh, 2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(header):
                raise ValueError(f"{path} line {number} has {len(fields)} fields, "
                                 f"its header {len(header)} (a cut or corrupt file)")
            row = dict(zip(header, fields))
            for key, parse in _CSV_PARSERS.items():
                row[key] = parse(row[key])
            rows.append(row)
    return rows


def trailing_losses(rows: list[dict], fraction: float = 0.2) -> np.ndarray:
    losses = np.asarray([r["train_loss"] for r in rows], dtype=np.float64)
    take = max(2, int(round(fraction * losses.size)))
    return losses[-take:]


def trailing_std(rows: list[dict], fraction: float = 0.2) -> float:
    return float(np.std(trailing_losses(rows, fraction)))


def final_gap(rows: list[dict], fraction: float = 0.02) -> float:
    """Trailing-mean loss minus the stored optimum (requires an fstar column)."""
    fstar = rows[-1]["fstar"]
    if fstar is None:
        raise ValueError("rows carry no fstar; cannot compute an optimality gap")
    return float(np.mean(trailing_losses(rows, fraction))) - fstar


def curve_summary(rows: list[dict], points: int = 8) -> str:
    """Loss-vs-query curve downsampled to `points` evenly spaced rows."""
    idx = np.unique(np.linspace(0, len(rows) - 1, min(points, len(rows))).astype(int))
    samples = [f"{rows[i]['cumulative_queries']}:{rows[i]['train_loss']:.4e}"
               for i in idx]
    return " ".join(samples)


def max_step_queries(rows: list[dict]) -> int:
    cum = [r["cumulative_queries"] for r in rows]
    diffs = [cum[0]] + [b - a for a, b in zip(cum, cum[1:])]
    return max(diffs)


def query_parity_ok(rows_a: list[dict], rows_b: list[dict]) -> bool:
    """Both runs stopped within one step's worth of queries of each other."""
    gap = abs(rows_a[-1]["cumulative_queries"] - rows_b[-1]["cumulative_queries"])
    return gap <= max(max_step_queries(rows_a), max_step_queries(rows_b))


@dataclass
class CompareReport:
    lines: list[str] = field(default_factory=list)
    passed: bool = True

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        mark = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"[{mark}] {label}{suffix}")
        self.passed = self.passed and ok

    def note(self, text: str) -> None:
        self.lines.append(text)

    def render(self) -> str:
        return "\n".join(self.lines)


def compare_convergence(rows, labels) -> CompareReport:
    """Least-squares convergence comparison at matched budgets."""
    mezo_rows, svrg_rows, fo_rows = rows
    rep = CompareReport()
    gap_mezo = final_gap(mezo_rows)
    gap_svrg = final_gap(svrg_rows)
    gap_fo = final_gap(fo_rows)
    rep.note(f"optimality gaps: mezo={gap_mezo:.3e} mezo-svrg={gap_svrg:.3e} "
             f"fo-sgd={gap_fo:.3e}")
    rep.check("query parity (mezo vs mezo-svrg)",
              query_parity_ok(mezo_rows, svrg_rows))
    rep.check("mezo-svrg gap <= 0.1 x mezo gap", gap_svrg <= 0.1 * gap_mezo,
              f"ratio {gap_svrg / gap_mezo:.3g}" if gap_mezo > 0 else "mezo gap 0")
    rep.check("mezo-svrg gap <= 2 x fo-sgd gap", gap_svrg <= 2.0 * gap_fo,
              f"ratio {gap_svrg / gap_fo:.3g}" if gap_fo > 0 else "fo gap 0")
    return rep


def compare_batch_robustness(rows, labels, fraction: float = 0.2) -> CompareReport:
    mezo_small, mezo_large, svrg_small = rows
    if max_step_queries(mezo_small) >= max_step_queries(mezo_large):
        raise ValueError(f"{labels[0]} cannot take the mezo-small role: b >= {labels[1]}'s")
    rep = CompareReport()
    s_small = trailing_std(mezo_small, fraction)
    s_large = trailing_std(mezo_large, fraction)
    s_svrg = trailing_std(svrg_small, fraction)
    rep.note(f"trailing-{int(fraction * 100)}% loss std: mezo-small={s_small:.3e} "
             f"mezo-large={s_large:.3e} mezo-svrg-small={s_svrg:.3e}")
    rep.check("small-batch mezo std >= 2 x large-batch", s_small >= 2.0 * s_large,
              f"ratio {s_small / s_large:.3g}" if s_large > 0 else "large std 0")
    rep.check("mezo-svrg small-batch std < mezo small-batch", s_svrg < s_small)
    return rep


def compare_final_loss(rows, labels, max_rel_diff: float | None = None) -> CompareReport:
    (rows_a, rows_b), (label_a, label_b) = rows, labels
    rep = CompareReport()
    fa = float(np.mean(trailing_losses(rows_a, 0.02)))
    fb = float(np.mean(trailing_losses(rows_b, 0.02)))
    rep.note(f"final loss: {label_a}={fa:.6e} {label_b}={fb:.6e}")
    if max_rel_diff is None:
        rep.check(f"{label_a} <= {label_b}", fa <= fb)
    else:
        rel = abs(fa - fb) / max(abs(fa), 1e-300)
        rep.check(f"relative difference < {max_rel_diff:.0%}", rel < max_rel_diff,
                  f"got {rel:.3g}")
    return rep


def report_gaps(rows, labels) -> CompareReport:
    """Each run's optimality gap, or its final loss where it has no fstar."""
    rep = CompareReport()
    for label, r in zip(labels, rows):
        try:
            rep.note(f"{label}: final gap {final_gap(r):.6e}")
        except ValueError:
            rep.note(f"{label}: final loss {r[-1]['train_loss']:.6e} (no fstar)")
    return rep


# criterion -> (its judge of the runs' CSV rows, the runs it takes in order or None: any);
# a run named for an optimizer, then perhaps a batch size, takes only a CSV of its kinds
CRITERIA = {
    "gap": (report_gaps, None),
    "convergence": (compare_convergence, ("mezo", "mezo-svrg", "fo-sgd")),
    "batch-robustness": (compare_batch_robustness,
                         ("mezo-small", "mezo-large", "mezo-svrg-small")),
    "final-loss": (compare_final_loss, ("first", "second")),
}


def judge(criterion: str, rows: list[list[dict]], labels: list[str],
          **options) -> CompareReport:
    """The report of `criterion` on the CSV rows of runs named by `labels`."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; known: {tuple(CRITERIA)}")
    judge_rows, runs = CRITERIA[criterion]
    if runs is not None and len(rows) != len(runs):
        raise ValueError(f"{criterion} takes {len(runs)} CSVs ({', '.join(runs)}), "
                         f"got {len(rows)}")
    for run_rows, label in zip(rows, labels):
        if not run_rows:  # a run that stopped before its first step, e.g. diverged
            raise ValueError(f"{label} has no rows to judge")
    for role, run_rows, label in zip(runs or (), rows, labels):
        logs = RUN_KINDS.get(role.removesuffix("-small").removesuffix("-large"))
        kinds = {r["kind"] for r in run_rows}
        if logs and not (logs[0] in kinds and kinds <= set(logs)):
            raise ValueError(f"{label} cannot take the {role} role: it logs {sorted(kinds)}")
    return judge_rows(rows, labels, **options)


# each optimizer's settings in the paper's least-squares runs
_BASE_SETTINGS = {
    "mezo": {"b": 32, "eta": 1e-3, "mu": 1e-3},
    "mezo-svrg": {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2},
    "fo-sgd": {"b": 32, "eta": 1e-3},
}

_LS = {"n": 1000, "d": 100, "noise_std": 0.01}  # the paper's least squares

# preset -> (default query budget, problem, its settings but the seed, runs as
# (name, optimizer, overrides of _BASE_SETTINGS), (criterion, options) of its
# report judged on the runs' CSVs by spec name, or None)
_PRESETS = {
    "fig1a": (2_000_000, "ls", _LS, [(n, n, {}) for n in ("mezo", "mezo-svrg", "fo-sgd")],
              ("convergence", {})),
    "batch-robustness": (800_000, "ls", _LS,
                         [("mezo-b8", "mezo", {"b": 8}), ("mezo-b128", "mezo", {"b": 128}),
                          ("mezo-svrg-b8", "mezo-svrg", {"b": 8})],
                         ("batch-robustness", {})),
    "q-ablation": (2_000_000, "ls", _LS, [(f"q{q}", "mezo-svrg", {"q": q}) for q in (2, 10)],
                   ("final-loss", {})),
    "anchor-approx": (2_000_000, "ls", _LS,
                      [("anchor-full", "mezo-svrg", {}),
                       ("anchor-half", "mezo-svrg", {"anchor_batch": _LS["n"] // 2})],
                      ("final-loss", {"max_rel_diff": 0.2})),
    "mu-ablation": (200_000, "ls", _LS, [(f"mu-{mu:g}", "mezo-svrg", {"mu": mu})
                                         for mu in (1.0, 0.5, 1e-1, 1e-2, 1e-3, 1e-4)], None),
    "mlp": (400_000, "mlp", {"n": 512},
            [("mezo", "mezo", {"b": 64, "eta": 1e-4}),
             ("mezo-svrg", "mezo-svrg", {"b": 64, "eta2": 1e-5}), ("fo-sgd", "fo-sgd", {"b": 64})],
            None),  # judged on exact losses by _preset_report
}


def _preset_specs(name: str, seed: int, query_budget: int | None = None) -> list[RunSpec]:
    """One spec per run of preset `name`, all on its problem at one query budget."""
    default_budget, problem, params, runs, _ = _PRESETS[name]
    budget = default_budget if query_budget is None else query_budget
    return [RunSpec(run_name, problem, {**params, "seed": seed}, optimizer,
                    {**_BASE_SETTINGS[optimizer], **overrides}, seed, max_queries=budget)
            for run_name, optimizer, overrides in runs]


# preset -> callable(seed, query_budget=None) returning its specs
PRESETS = {name: partial(_preset_specs, name) for name in _PRESETS}
preset_fig1a = PRESETS["fig1a"]  # read by perfbench/workloads.py


def run_preset(name: str, seed: int, outdir: str,
               query_budget: int | None = None) -> tuple[list[ExecutionResult], CompareReport | None]:
    """Execute every run of a preset, write CSVs, and evaluate its criterion."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    os.makedirs(outdir, exist_ok=True)
    executions: list[ExecutionResult] = []
    svrg_steps = None
    for spec in PRESETS[name](seed, query_budget):
        if name == "fig1a" and spec.optimizer == "fo-sgd":  # at MeZO-SVRG's step count
            spec = replace(spec, max_steps=svrg_steps or 1, max_queries=None)
        out = os.path.join(outdir, f"{name}_{spec.name}.csv")
        execution = execute(spec, out=out)
        executions.append(execution)
        if spec.optimizer == "mezo-svrg" and svrg_steps is None:
            svrg_steps = len(execution.result.records)
    return executions, _preset_report(name, executions)


def _preset_report(name: str, executions: list[ExecutionResult]) -> CompareReport | None:
    if name == "mlp":  # judged on the exact full-dataset losses, not on CSV rows
        rep = CompareReport()
        losses = [e.final_loss for e in executions]
        rep.note(f"final training loss: mezo={losses[0]:.4f} "
                 f"mezo-svrg={losses[1]:.4f} fo-sgd={losses[2]:.4f}")
        rep.check("mezo-svrg <= mezo", losses[1] <= losses[0])
        rep.check("fo-sgd <= mezo-svrg", losses[2] <= losses[1])
        return rep
    if _PRESETS[name][4] is None:
        return None
    criterion, options = _PRESETS[name][4]
    return judge(criterion, [read_csv(e.csv_path) for e in executions],
                 [e.spec.name for e in executions], **options)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value text config; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            out[key.strip()] = value.strip()
    return out


__all__ = [
    "CSV_COLUMNS", "RunSpec", "ExecutionResult", "build_objective",
    "build_optimizer_config", "execute", "write_csv", "read_csv",
    "trailing_std", "final_gap", "query_parity_ok", "CompareReport",
    "compare_convergence", "compare_batch_robustness", "compare_final_loss",
    "report_gaps", "CRITERIA", "judge", "PRESETS", "run_preset", "parse_config_file",
]
