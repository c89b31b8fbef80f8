"""Experiment harness: run configs, presets, CSV emission, comparisons.

A run is fully described by a RunSpec (problem + optimizer + master
seed + budget); executing one writes a CSV with the frozen column set

    step, cumulative_queries, train_loss, eval_metric, eta1, eta2,
    kind, peak_slots, elapsed_seconds, backward_queries, fstar

('.' decimal separator, LF line endings; extra columns only ever appear
at the end). Two runs with the same spec produce byte-identical CSVs
except for the elapsed_seconds column.

Presets bundle the experiment groups at matched query budgets: the
least-squares convergence comparison, the batch-size robustness study,
the anchor-frequency and large-batch-anchor ablations, the perturbation
scale sweep, and the MLP classification sanity run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives, trajectory
from .estimators import SpsaConfig
from .memory import SlotMeter, account_memory
from .optimizers import (
    Budget,
    FoSgdConfig,
    LrScheduleConfig,
    MezoConfig,
    MezoSvrgConfig,
    RunRecord,
    RunResult,
    ZoSvrgConfig,
    run,
)

CSV_COLUMNS = [
    "step", "cumulative_queries", "train_loss", "eval_metric", "eta1", "eta2",
    "kind", "peak_slots", "elapsed_seconds", "backward_queries", "fstar",
]

PROBLEMS = ("ls", "logistic", "mlp")


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
    accounting_mode: str | None = None
    eval_every: int = 0


@dataclass
class ExecutionResult:
    spec: RunSpec
    result: RunResult
    objective: object
    theta0: np.ndarray
    final_loss: float        # exact full-dataset mean loss at the final theta
    csv_path: str | None = None
    traj_path: str | None = None


def build_objective(problem: str, params: dict):
    params = dict(params)
    if problem == "ls":
        return objectives.make_least_squares(
            n=int(params.get("n", 1000)), d=int(params.get("d", 100)),
            noise_std=float(params.get("noise_std", 0.01)),
            seed=int(params.get("seed", 0)))
    if problem == "logistic":
        return objectives.make_logistic(
            n=int(params.get("n", 256)), d=int(params.get("d", 16)),
            separation=float(params.get("separation", 2.0)),
            seed=int(params.get("seed", 0)))
    if problem == "mlp":
        images = params.get("idx_images")
        labels = params.get("idx_labels")
        n = int(params.get("n", 512))
        seed = int(params.get("seed", 0))
        if images and labels:
            data = objectives.load_idx(images, labels, max_samples=n)
        else:
            data = objectives.make_synthetic_digits(n, seed=seed)
        return objectives.make_mlp2(data, seed=seed)
    raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")


def build_optimizer_config(optimizer: str, params: dict):
    params = dict(params)
    spsa = SpsaConfig(mu=float(params.pop("mu", 1e-3)), p=int(params.pop("p", 1)))
    schedule = None
    if "kappa" in params or "alpha" in params or "window" in params:
        window = params.pop("window", None)
        schedule = LrScheduleConfig(
            kappa=float(params.pop("kappa", 1.05)),
            alpha=float(params.pop("alpha", 5.0)),
            window=int(window) if window else None)
    if optimizer == "mezo":
        return MezoConfig(eta=float(params.pop("eta", 1e-3)),
                          b=int(params.pop("b", 32)), spsa=spsa)
    if optimizer == "mezo-svrg":
        anchor = params.pop("anchor_batch", None)
        return MezoSvrgConfig(
            eta1=float(params.pop("eta1", 1e-3)), eta2=float(params.pop("eta2", 1e-4)),
            q=int(params.pop("q", 2)), b=int(params.pop("b", 32)),
            anchor_batch=(int(anchor) if anchor is not None else None),
            spsa=spsa, schedule=schedule)
    if optimizer == "zo-svrg":
        return ZoSvrgConfig(eta=float(params.pop("eta", 1e-3)),
                            b=int(params.pop("b", 32)),
                            q=int(params.pop("q", 2)), spsa=spsa)
    if optimizer == "fo-sgd":
        return FoSgdConfig(eta=float(params.pop("eta", 1e-3)),
                           b=int(params.pop("b", 32)))
    raise ValueError(f"unknown optimizer {optimizer!r}")


def _trajectory_config(optimizer: str, config) -> dict:
    if optimizer == "mezo":
        return {"eta": repr(config.eta), "b": str(config.b),
                "mu": repr(config.spsa.mu), "p": str(config.spsa.p)}
    return {"eta1": repr(config.eta1), "eta2": repr(config.eta2),
            "b": str(config.b), "q": str(config.q),
            "mu": repr(config.spsa.mu), "p": str(config.spsa.p)}


def execute(spec: RunSpec, out: str | None = None, traj_out: str | None = None,
            sink=None) -> ExecutionResult:
    """Run one spec end to end; optionally write its CSV and trajectory.

    Alongside a trajectory file the initial and final parameter vectors
    are saved as '<traj>.theta0.npy' and '<traj>.final.npy' so replay
    can be verified against the live endpoints.
    """
    obj = build_objective(spec.problem, spec.problem_params)
    config = build_optimizer_config(spec.optimizer, spec.optimizer_params)
    theta0 = obj.initial_theta()
    meter = SlotMeter()
    traj = None
    if traj_out:
        traj = trajectory.TrajectoryLog.for_run(
            spec.master_seed, theta0, spec.optimizer,
            _trajectory_config(spec.optimizer, config))
    budget = Budget(max_steps=spec.max_steps, max_queries=spec.max_queries)
    result = run(obj, theta0, spec.optimizer, config, budget, spec.master_seed,
                 trajectory=traj, meter=meter, sink=sink, eval_every=spec.eval_every)
    final_loss = float(obj.batch_loss(result.theta, np.arange(obj.n)))
    execution = ExecutionResult(spec, result, obj, theta0, final_loss)
    if out:
        write_csv(out, result.records, getattr(obj, "f_star", None))
        execution.csv_path = out
    if traj_out:
        trajectory.save(traj, traj_out)
        np.save(traj_out + ".theta0.npy", theta0)
        np.save(traj_out + ".final.npy", result.theta)
        execution.traj_path = traj_out
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
        for r in records:
            row = [r.step, r.cumulative_queries, r.train_loss, r.eval_metric,
                   r.eta1, r.eta2, r.kind, r.peak_slots, r.elapsed_seconds,
                   r.backward_queries, fstar]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:len(CSV_COLUMNS)] != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema in {path}: {header}")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            for key in ("step", "cumulative_queries", "peak_slots", "backward_queries"):
                row[key] = int(row[key])
            for key in ("train_loss", "eval_metric", "eta1", "eta2",
                        "elapsed_seconds", "fstar"):
                row[key] = float(row[key]) if row[key] else None
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


def compare_convergence(mezo_rows, svrg_rows, fo_rows) -> CompareReport:
    """Least-squares convergence comparison at matched budgets."""
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


def compare_batch_robustness(mezo_small, mezo_large, svrg_small,
                             fraction: float = 0.2) -> CompareReport:
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


def compare_final_loss(rows_a, rows_b, label_a: str, label_b: str,
                       max_rel_diff: float | None = None) -> CompareReport:
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


def _ls_params(seed: int) -> dict:
    return {"n": 1000, "d": 100, "noise_std": 0.01, "seed": seed}


def preset_fig1a(seed: int = 0, query_budget: int = 2_000_000) -> list[RunSpec]:
    """MeZO vs MeZO-SVRG vs FO-SGD on least squares, paper hyperparameters.

    The first-order baseline runs at the step count MeZO-SVRG reaches
    inside the query budget (patched in by run_preset).
    """
    ls = _ls_params(seed)
    return [
        RunSpec("mezo", "ls", ls, "mezo",
                {"b": 32, "eta": 1e-3, "mu": 1e-3}, seed, max_queries=query_budget),
        RunSpec("mezo-svrg", "ls", ls, "mezo-svrg",
                {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2},
                seed, max_queries=query_budget),
        RunSpec("fo-sgd", "ls", ls, "fo-sgd", {"b": 32, "eta": 1e-3},
                seed, max_steps=1),  # patched to mezo-svrg's step count
    ]


def preset_batch_robustness(seed: int = 0, query_budget: int = 800_000) -> list[RunSpec]:
    ls = _ls_params(seed)
    return [
        RunSpec("mezo-b8", "ls", ls, "mezo", {"b": 8, "eta": 1e-3, "mu": 1e-3},
                seed, max_queries=query_budget),
        RunSpec("mezo-b128", "ls", ls, "mezo", {"b": 128, "eta": 1e-3, "mu": 1e-3},
                seed, max_queries=query_budget),
        RunSpec("mezo-svrg-b8", "ls", ls, "mezo-svrg",
                {"b": 8, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2},
                seed, max_queries=query_budget),
    ]


def preset_q_ablation(seed: int = 0, query_budget: int = 2_000_000) -> list[RunSpec]:
    ls = _ls_params(seed)
    base = {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3}
    return [
        RunSpec("q2", "ls", ls, "mezo-svrg", dict(base, q=2), seed,
                max_queries=query_budget),
        RunSpec("q10", "ls", ls, "mezo-svrg", dict(base, q=10), seed,
                max_queries=query_budget),
    ]


def preset_anchor_approx(seed: int = 0, query_budget: int = 2_000_000) -> list[RunSpec]:
    ls = _ls_params(seed)
    base = {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2}
    return [
        RunSpec("anchor-full", "ls", ls, "mezo-svrg", dict(base), seed,
                max_queries=query_budget),
        RunSpec("anchor-half", "ls", ls, "mezo-svrg",
                dict(base, anchor_batch=ls["n"] // 2), seed, max_queries=query_budget),
    ]


def preset_mu_ablation(seed: int = 0, query_budget: int = 200_000) -> list[RunSpec]:
    ls = _ls_params(seed)
    specs = []
    for mu in (1.0, 0.5, 1e-1, 1e-2, 1e-3, 1e-4):
        specs.append(RunSpec(
            f"mu-{mu:g}", "ls", ls, "mezo-svrg",
            {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": mu, "q": 2},
            seed, max_queries=query_budget))
    return specs


def preset_mlp(seed: int = 0, query_budget: int = 400_000) -> list[RunSpec]:
    mlp = {"n": 512, "seed": seed}
    return [
        RunSpec("mezo", "mlp", mlp, "mezo", {"b": 64, "eta": 1e-4, "mu": 1e-3},
                seed, max_queries=query_budget),
        RunSpec("mezo-svrg", "mlp", mlp, "mezo-svrg",
                {"b": 64, "eta1": 1e-3, "eta2": 1e-5, "mu": 1e-3, "q": 2},
                seed, max_queries=query_budget),
        RunSpec("fo-sgd", "mlp", mlp, "fo-sgd", {"b": 64, "eta": 1e-3},
                seed, max_queries=query_budget),
    ]


PRESETS = {
    "fig1a": preset_fig1a,
    "batch-robustness": preset_batch_robustness,
    "q-ablation": preset_q_ablation,
    "anchor-approx": preset_anchor_approx,
    "mu-ablation": preset_mu_ablation,
    "mlp": preset_mlp,
}


def run_preset(name: str, seed: int, outdir: str,
               query_budget: int | None = None) -> tuple[list[ExecutionResult], CompareReport | None]:
    """Execute every run of a preset, write CSVs, and evaluate its criterion."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    specs = PRESETS[name](seed) if query_budget is None else PRESETS[name](seed, query_budget)
    os.makedirs(outdir, exist_ok=True)
    executions: list[ExecutionResult] = []
    svrg_steps = None
    for spec in specs:
        if name == "fig1a" and spec.optimizer == "fo-sgd" and svrg_steps:
            spec = replace(spec, max_steps=svrg_steps, max_queries=None)
        out = os.path.join(outdir, f"{name}_{spec.name}.csv")
        execution = execute(spec, out=out)
        executions.append(execution)
        if spec.optimizer == "mezo-svrg" and svrg_steps is None:
            svrg_steps = len(execution.result.records)
    report = _preset_report(name, executions)
    return executions, report


def _preset_report(name: str, executions: list[ExecutionResult]) -> CompareReport | None:
    rows = [read_csv(e.csv_path) for e in executions]
    if name == "fig1a":
        return compare_convergence(rows[0], rows[1], rows[2])
    if name == "batch-robustness":
        return compare_batch_robustness(rows[0], rows[1], rows[2])
    if name == "q-ablation":
        return compare_final_loss(rows[0], rows[1], "q2", "q10")
    if name == "anchor-approx":
        return compare_final_loss(rows[0], rows[1], "anchor-full", "anchor-half",
                                  max_rel_diff=0.2)
    if name == "mlp":
        rep = CompareReport()
        losses = [e.final_loss for e in executions]
        rep.note(f"final training loss: mezo={losses[0]:.4f} "
                 f"mezo-svrg={losses[1]:.4f} fo-sgd={losses[2]:.4f}")
        rep.check("mezo-svrg <= mezo", losses[1] <= losses[0])
        rep.check("fo-sgd <= mezo-svrg", losses[2] <= losses[1])
        return rep
    return None


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
    "PRESETS", "run_preset", "parse_config_file", "account_memory",
]
