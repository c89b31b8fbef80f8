"""Zeroth-order optimizers: MeZO, reference ZO-SVRG, MeZO-SVRG, FO-SGD.

MeZO is in-place ZO-SGD on the shared-perturbation estimator:

    theta <- theta - eta * est(theta)          (2b queries per step)

MeZO-SVRG anchors a fullbatch estimate g at theta_bar every q steps
(updating with learning rate eta1) and corrects minibatch steps with a
common-random-numbers control variate (learning rate eta2):

    t % q == 0:  g <- est_full(theta); theta_bar <- theta
                 theta <- theta - eta1 * g              (2*anchor queries)
    else:        theta <- theta - eta2 * est_I(theta)
                 theta <- theta + eta2 * est_I(theta_bar)
                 theta <- theta - eta2 * g              (4b queries)

The two minibatch estimators share one perturbation seed and one batch;
without common randomness the variance reduction collapses. All updates
stream through the in-place kernels, so the anchor estimate stays a
(seed, scalar) pair and is never materialized. `update_plan` is the one
place that turns a step's seed and coefficients into these ordered
(estimate, scale) axpys; the live steps and trajectory replay both
apply its list, so the two cannot drift apart.

The reference ZO-SVRG keeps the memory-naive per-sample averaged
estimators and dense blending; it exists as the 5x-footprint baseline.
`zo_svrg_step` itself refreshes its dense anchor from all n samples.
Each optimizer is one row of `OPTIMIZER_ROWS`; `run` and the other
modules read its facts from the row, and no code branches on its name.

Per-step randomness is derived from one master seed (`StepSeeds`):
perturbation seeds are fold(fold(master, tag), step) with tag 1 for
minibatch steps and 2 for anchor steps; batch sampler seeds use tags 3
(minibatch) and 4 (anchor subsampling). Every minibatch is drawn
without replacement. Trajectory replay relies on exactly this scheme.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    GradientEstimate,
    Minibatch,
    NonFiniteLossError,
    PerturbationSeed,
    SpsaConfig,
    axpy_estimate_in_place,
    full_batch,
    sample_minibatch,
    spsa_batch_avg,
    spsa_batch_shared,
)
from . import memory  # a module, not its names: memory reads this module's table
from .prng import fold

TAG_STEP_PERTURB = 1
TAG_ANCHOR_PERTURB = 2
TAG_STEP_BATCH = 3
TAG_ANCHOR_BATCH = 4

KIND_FULLBATCH = "fullbatch"
KIND_MINIBATCH = "minibatch"
KIND_FO = "fo"
# What a seed-replay trajectory log holds: the header `settings` replay needs, and
# its record `kinds`, step 0's first, each with the estimates one draw carries
ReplayLog = namedtuple("ReplayLog", "settings kinds")

DIVERGENCE_FACTOR = 1e6


class StepSeeds:
    """The per-step seeds of one master seed, fold(fold(master, tag), t).

    fold(master, tag) is taken once per tag, here; a step folds in only t.
    """

    __slots__ = ("_step_perturb", "_anchor_perturb", "_step_batch", "_anchor_batch")

    def __init__(self, master_seed: int):
        self._step_perturb = fold(master_seed, TAG_STEP_PERTURB)
        self._anchor_perturb = fold(master_seed, TAG_ANCHOR_PERTURB)
        self._step_batch = fold(master_seed, TAG_STEP_BATCH)
        self._anchor_batch = fold(master_seed, TAG_ANCHOR_BATCH)

    def perturb_seed(self, t: int, kind: str) -> PerturbationSeed:
        """The perturbation seed of step t: anchor steps and the rest use separate streams."""
        tag_seed = self._anchor_perturb if kind == KIND_FULLBATCH else self._step_perturb
        return PerturbationSeed(fold(tag_seed, t))

    def step_batch_seed(self, t: int) -> int:
        return fold(self._step_batch, t)

    def anchor_batch_seed(self, t: int) -> int:
        return fold(self._anchor_batch, t)


def update_plan(seed: PerturbationSeed, coeffs: tuple[float, ...], d: int,
                anchor: GradientEstimate | None,
                eta: float) -> list[tuple[GradientEstimate, float]]:
    """The ordered (estimate, scale) axpys that update theta after one step.

    Without an anchor estimate the step is a MeZO step or a MeZO-SVRG
    anchor step, theta -= eta * est. With one it is a MeZO-SVRG
    minibatch step whose coefficients hold the p draws at theta, then
    the p draws at theta_bar: theta -= eta * est_I(theta), then
    theta += eta * est_I(theta_bar), then theta -= eta * g.
    """
    if anchor is None:
        return [(GradientEstimate(seed, coeffs, d, 0), -eta)]
    p = len(coeffs) // 2
    return [(GradientEstimate(seed, coeffs[:p], d, 0), -eta),
            (GradientEstimate(seed, coeffs[p:], d, 0), eta),
            (anchor, -eta)]


@dataclass(frozen=True)
class LrScheduleConfig:
    """Loss-feedback annealing: if the mean loss over the last `window`
    steps exceeds kappa times the mean over the preceding window, both
    learning rates are divided by a finite alpha (kappa = inf: never)."""

    kappa: float = 1.05
    alpha: float = 5.0
    window: int | None = None  # default: ceil(n / b), all step kinds counted

    def __post_init__(self):
        if not (self.kappa > 1.0):
            raise ValueError(f"kappa must exceed 1, got {self.kappa}")
        if not (self.alpha > 1.0):
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        _check_batch("window", self.window)


class _LossWindows:
    """The schedule's O(1) state: the loss sum of the current window of
    `window` steps, added up in step order from 0.0, and the previous
    window's mean (no decision while it is 0)."""

    def __init__(self, config: LrScheduleConfig, window: int):
        self.config = config
        self.window = window
        self.total = 0.0
        self.count = 0
        self.previous: float | None = None

    def update(self, loss: float, eta1: float, eta2: float) -> tuple[float, float]:
        """The rates after a step whose loss was `loss`."""
        self.total += loss
        self.count += 1
        if self.count < self.window:
            return eta1, eta2
        mean = self.total / self.window
        previous, self.previous = self.previous, mean
        self.total, self.count = 0.0, 0
        if previous is not None and previous != 0.0 and mean / previous > self.config.kappa:
            return eta1 / self.config.alpha, eta2 / self.config.alpha
        return eta1, eta2


def _check_batch(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_rate(name: str, value: float) -> None:
    # 0 is legal; a non-finite or negative rate would only surface as a diverged run
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class MezoConfig:
    eta: float = 1e-3
    b: int = 32
    spsa: SpsaConfig = field(default_factory=SpsaConfig)

    def __post_init__(self):
        _check_rate("eta", self.eta)
        _check_batch("b", self.b)


@dataclass(frozen=True)
class MezoSvrgConfig:
    eta1: float = 1e-3
    eta2: float = 1e-4
    q: int = 2
    b: int = 32
    anchor_batch: int | None = None  # None: the full dataset
    spsa: SpsaConfig = field(default_factory=SpsaConfig)
    schedule: LrScheduleConfig | None = None

    def __post_init__(self):
        _check_rate("eta1", self.eta1)
        _check_rate("eta2", self.eta2)
        _check_batch("q", self.q)
        _check_batch("b", self.b)
        _check_batch("anchor_batch", self.anchor_batch)


@dataclass(frozen=True)
class ZoSvrgConfig:
    eta: float = 1e-3
    b: int = 32
    q: int = 2
    spsa: SpsaConfig = field(default_factory=SpsaConfig)

    def __post_init__(self):
        _check_rate("eta", self.eta)
        _check_batch("q", self.q)
        _check_batch("b", self.b)


@dataclass(frozen=True)
class FoSgdConfig:
    eta: float = 1e-3
    b: int = 32

    def __post_init__(self):
        _check_rate("eta", self.eta)
        _check_batch("b", self.b)


# One optimizer's facts: its config class; its learning-rate fields, eta1's then eta2's;
# whether `run` gives its t % q == 0 steps the anchor batch; its step function's name
# here, (obj, theta, anchor, batch, seeds, cfg, t, eta1, eta2) -> (report, anchor),
# updating theta in place; the kinds of step its runs log, step 0's first; its
# trajectory log, or None; its memory models, mode -> extra d-multiples, realized last.
Optimizer = namedtuple("Optimizer", "config rates anchors step kinds replay memory")
OPTIMIZER_ROWS = {
    "mezo": Optimizer(MezoConfig, ("eta",), False, "mezo_step", (KIND_MINIBATCH,),
                      ReplayLog(("mu", "eta"), {KIND_MINIBATCH: 1}), {None: 0}),
    "mezo-svrg": Optimizer(MezoSvrgConfig, ("eta1", "eta2"), True, "mezo_svrg_step",
                           (KIND_FULLBATCH, KIND_MINIBATCH),
                           ReplayLog(("mu", "eta1", "eta2"),
                                     {KIND_FULLBATCH: 1, KIND_MINIBATCH: 2}),
                           {"store_g": 2, "recompute_g": 1}),
    "zo-svrg": Optimizer(ZoSvrgConfig, ("eta",), False, "zo_svrg_step",
                         (KIND_FULLBATCH, KIND_MINIBATCH), None, {"naive": 4}),
    "fo-sgd": Optimizer(FoSgdConfig, ("eta",), False, "fo_sgd_step", (KIND_FO,), None,
                        {None: 1}),
}
OPTIMIZERS = tuple(OPTIMIZER_ROWS)


def optimizer_row(optimizer: str, replay: bool = False) -> Optimizer:
    """The row of `optimizer`; with `replay`, one whose runs a trajectory log records."""
    if optimizer not in OPTIMIZER_ROWS:
        raise ValueError(f"unknown optimizer {optimizer!r}; known: {OPTIMIZERS}")
    if replay and OPTIMIZER_ROWS[optimizer].replay is None:
        raise ValueError(f"trajectory recording is only defined for seed-replay "
                         f"optimizers, not {optimizer!r}")
    return OPTIMIZER_ROWS[optimizer]


# settings key -> parser, per target: the config's own fields, its spsa, its schedule
_PARSERS = {
    "own": {"eta": float, "eta1": float, "eta2": float, "q": int, "b": int,
            "anchor_batch": int},
    "spsa": {"mu": float, "p": int},
    "schedule": {"kappa": float, "alpha": float, "window": int},
}


def _parsed(parsers: dict, params: dict) -> dict:
    return {k: parse(params[k]) for k, parse in parsers.items()
            if params.get(k) not in (None, "")}


def build_optimizer_config(optimizer: str, params: dict):
    """The config of `optimizer` from a flat settings map of strings or numbers.

    Keys the config has no field for are ignored, and a missing or empty
    value leaves the dataclass default. Any schedule key, even an empty
    one, turns the MeZO-SVRG loss-feedback schedule on.
    """
    cls = optimizer_row(optimizer).config
    names = cls.__dataclass_fields__
    kwargs = _parsed({k: parse for k, parse in _PARSERS["own"].items() if k in names},
                     params)
    if "spsa" in names:
        kwargs["spsa"] = SpsaConfig(**_parsed(_PARSERS["spsa"], params))
    if "schedule" in names and any(k in params for k in _PARSERS["schedule"]):
        kwargs["schedule"] = LrScheduleConfig(**_parsed(_PARSERS["schedule"], params))
    return cls(**kwargs)


def trajectory_params(config) -> dict[str, str]:
    """The config block of a trajectory header: learning rates, b, q, mu and p."""
    out = {k: str(getattr(config, k)) for k in ("eta", "eta1", "eta2", "b", "q")
           if hasattr(config, k)}
    out.update(mu=str(config.spsa.mu), p=str(config.spsa.p))
    return out


def initial_etas(optimizer: str, config) -> tuple[float, float | None]:
    """(eta1, eta2) at step 0; an optimizer with one rate has no eta2."""
    return (*(getattr(config, k) for k in optimizer_row(optimizer).rates), None)[:2]


@dataclass(frozen=True)
class Budget:
    max_steps: int | None = None
    max_queries: int | None = None

    def __post_init__(self):
        if self.max_steps is None and self.max_queries is None:
            raise ValueError("budget needs max_steps or max_queries")
        for v in (self.max_steps, self.max_queries):
            if v is not None and v <= 0:
                raise ValueError("budget values must be positive")


@dataclass(slots=True)
class StepReport:
    kind: str
    loss_before: float
    queries: int
    coeffs: tuple[float, ...] = ()  # what a trajectory records; none for ZO-SVRG, FO-SGD
    backward_queries: int = 0


@dataclass
class SvrgAnchor:
    """Anchor state: a copy of theta and the estimate taken there.

    `estimate` is the compressed (seed, coeffs) form for MeZO-SVRG and a
    dense vector for the reference ZO-SVRG.
    """

    theta_bar: np.ndarray
    estimate: object


def mezo_step(obj, theta: np.ndarray, anchor: None, batch: Minibatch, seeds: StepSeeds,
              cfg: MezoConfig, t: int, eta1: float, eta2: None) -> tuple[StepReport, None]:
    seed = seeds.perturb_seed(t, KIND_MINIBATCH)
    est = spsa_batch_shared(obj, theta, batch, seed, cfg.spsa)
    for e, scale in update_plan(seed, est.coeffs, est.d, None, eta1):
        axpy_estimate_in_place(theta, e, scale)
    return StepReport(KIND_MINIBATCH, est.loss_proxy, est.queries_used, est.coeffs), anchor


def mezo_svrg_step(obj, theta: np.ndarray, anchor: SvrgAnchor | None,
                   batch: Minibatch, seeds: StepSeeds, cfg: MezoSvrgConfig,
                   t: int, eta1: float, eta2: float) -> tuple[StepReport, SvrgAnchor]:
    """One MeZO-SVRG step; the branch is chosen by t mod q.

    Returns (report, anchor); the report's coefficients are the draws of an
    anchor step, or of a minibatch step at theta, then at theta_bar.
    `batch` must hold the anchor-batch indices on anchor steps.
    """
    if t % cfg.q == 0:
        seed = seeds.perturb_seed(t, KIND_FULLBATCH)
        est = spsa_batch_shared(obj, theta, batch, seed, cfg.spsa)
        anchor = _set_anchor(anchor, theta, est)
        for e, scale in update_plan(seed, est.coeffs, est.d, None, eta1):
            axpy_estimate_in_place(theta, e, scale)
        return StepReport(KIND_FULLBATCH, est.loss_proxy, est.queries_used, est.coeffs), anchor
    if anchor is None:
        raise RuntimeError(f"minibatch step {t} without a fullbatch anchor")
    seed = seeds.perturb_seed(t, KIND_MINIBATCH)
    est_theta = spsa_batch_shared(obj, theta, batch, seed, cfg.spsa)
    est_anchor = spsa_batch_shared(obj, anchor.theta_bar, batch, seed, cfg.spsa)
    coeffs = est_theta.coeffs + est_anchor.coeffs
    for e, scale in update_plan(seed, coeffs, est_theta.d, anchor.estimate, eta2):
        axpy_estimate_in_place(theta, e, scale)
    report = StepReport(KIND_MINIBATCH, est_theta.loss_proxy,
                        est_theta.queries_used + est_anchor.queries_used, coeffs)
    return report, anchor


def zo_svrg_step(obj, theta: np.ndarray, anchor: SvrgAnchor | None, batch: Minibatch,
                 seeds: StepSeeds, cfg: ZoSvrgConfig, t: int, eta1: float,
                 eta2: None) -> tuple[StepReport, SvrgAnchor]:
    """One reference ZO-SVRG step with per-sample averaged estimators (dense).

    theta <- theta - eta1 * [est_I(theta) - est_I(theta_bar) + g], with the
    same per-sample seeds at theta and theta_bar. On t % q == 0 the step
    first anchors g <- est_full(theta), theta_bar <- theta (2n queries per
    draw) and is a fullbatch step. Returns (report, anchor). Deliberately
    memory-naive: two transient d-vectors on top of the dense anchor state.
    """
    kind, queries = KIND_MINIBATCH, 4 * batch.b * cfg.spsa.p
    if t % cfg.q == 0:
        per_sample = _per_sample_seeds(seeds.perturb_seed(t, KIND_FULLBATCH), obj.n)
        dense = spsa_batch_avg(obj, theta, full_batch(obj.n), per_sample, cfg.spsa)
        anchor = _set_anchor(anchor, theta, dense)
        kind, queries = KIND_FULLBATCH, queries + 2 * obj.n * cfg.spsa.p
    if anchor is None or not isinstance(anchor.estimate, np.ndarray):
        raise RuntimeError("reference ZO-SVRG needs a dense anchor estimate")
    per_sample = _per_sample_seeds(seeds.perturb_seed(t, KIND_MINIBATCH), batch.b)
    at_theta = spsa_batch_avg(obj, theta, batch, per_sample, cfg.spsa)
    at_anchor = spsa_batch_avg(obj, anchor.theta_bar, batch, per_sample, cfg.spsa)
    # loss is logged for free from the probe evaluations' midpoint; here the
    # per-sample estimators do not expose one, so log an uncounted evaluation
    loss_logged = obj.batch_loss(theta, batch.indices)
    at_theta -= at_anchor
    at_theta += anchor.estimate
    at_theta *= eta1
    theta -= at_theta
    return StepReport(kind, float(loss_logged), queries), anchor


def fo_sgd_step(obj, theta: np.ndarray, anchor: None, batch: Minibatch, seeds: StepSeeds,
                cfg: FoSgdConfig, t: int, eta1: float, eta2: None) -> tuple[StepReport, None]:
    """First-order baseline: theta <- theta - eta1 * mean batch gradient."""
    loss = obj.batch_loss(theta, batch.indices)
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"non-finite batch loss {loss!r} in FO-SGD step")
    grad = obj.batch_grad(theta, batch.indices)
    grad *= eta1  # in place: eta1 * grad would be a second d-length temporary
    theta -= grad
    return StepReport(KIND_FO, float(loss), batch.b, backward_queries=batch.b), anchor


@dataclass(slots=True)
class RunRecord:
    step: int
    cumulative_queries: int
    train_loss: float
    eval_metric: float | None
    eta1: float
    eta2: float | None
    kind: str
    peak_slots: int
    elapsed_seconds: float
    backward_queries: int = 0


@dataclass
class RunResult:
    theta: np.ndarray
    records: list[RunRecord]
    status: str  # completed | diverged
    reason: str = ""
    total_queries: int = 0

    @property
    def steps(self) -> int:
        return len(self.records)


def run(obj, theta0: np.ndarray, optimizer: str, config, budget: Budget,
        master_seed: int, trajectory=None, meter=None, sink=None,
        eval_every: int = 0) -> RunResult:
    """Drive an optimizer until the step or query budget is exhausted.

    Deterministic given (config, master_seed). Emits one RunRecord per
    step; a non-finite or exploding loss ends the run with status
    'diverged'. Any other exception a step raises propagates to the
    caller. `sink`, when given, is called as sink(step, theta, record)
    after every step. Every record's `peak_slots` is `held_slots(optimizer,
    d)`; a `meter`, when given, has that added once and only observes it.
    `eval_every` > 0 records obj.metric on every step divisible by it; 0
    records none.
    """
    if eval_every < 0:
        raise ValueError(f"eval_every must be >= 0, got {eval_every}")
    row = optimizer_row(optimizer, replay=trajectory is not None)
    if config.b > obj.n:
        raise ValueError(f"batch size b={config.b} exceeds the {obj.n} samples")
    # looked up once per run, not bound in the row, so a replaced module function runs
    step = globals()[row.step]
    theta = np.array(theta0, dtype=np.float64, copy=True)
    slots = memory.held_slots(optimizer, theta.shape[0])  # the whole footprint, from step 0 on
    if meter is not None:
        meter.add(slots)
    records: list[RunRecord] = []
    queries = 0
    backward = 0
    anchor: SvrgAnchor | None = None
    eta1_cur, eta2_cur = initial_etas(optimizer, config)
    schedule = getattr(config, "schedule", None)
    windows = None if schedule is None else _LossWindows(
        schedule, schedule.window or -(-obj.n // config.b))
    seeds = StepSeeds(master_seed)
    status, reason = "completed", ""
    initial_loss: float | None = None
    t = 0
    started = time.perf_counter()

    while True:
        if budget.max_steps is not None and t >= budget.max_steps:
            break
        if budget.max_queries is not None and queries >= budget.max_queries:
            break
        try:
            if row.anchors and t % config.q == 0:
                anchor_n = obj.n if config.anchor_batch is None else config.anchor_batch
                batch = (full_batch(obj.n) if anchor_n >= obj.n else
                         sample_minibatch(obj.n, anchor_n, seeds.anchor_batch_seed(t)))
            else:
                batch = sample_minibatch(obj.n, config.b, seeds.step_batch_seed(t))
            report, anchor = step(obj, theta, anchor, batch, seeds, config, t, eta1_cur, eta2_cur)
            if trajectory is not None:
                trajectory.record_step(t, report.kind, report.coeffs)
        except NonFiniteLossError as err:
            status, reason = "diverged", str(err)
            break

        queries += report.queries
        backward += report.backward_queries
        if initial_loss is None:
            initial_loss = abs(report.loss_before)
        metric = obj.metric(theta) if eval_every and t % eval_every == 0 else None
        record = RunRecord(
            step=t, cumulative_queries=queries, train_loss=report.loss_before,
            eval_metric=metric, eta1=eta1_cur, eta2=eta2_cur,
            kind=report.kind, peak_slots=slots,
            elapsed_seconds=time.perf_counter() - started,
            backward_queries=backward,
        )
        records.append(record)
        if sink is not None:
            sink(t, theta, record)

        if not math.isfinite(report.loss_before):
            status, reason = "diverged", f"non-finite loss at step {t}"
            break
        if report.loss_before > DIVERGENCE_FACTOR * max(initial_loss, 1e-300):
            status, reason = "diverged", (
                f"loss {report.loss_before:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x "
                f"initial at step {t}")
            break

        if windows is not None:
            etas = windows.update(report.loss_before, eta1_cur, eta2_cur)
            if etas != (eta1_cur, eta2_cur):
                eta1_cur, eta2_cur = etas
                if trajectory is not None:
                    trajectory.record_lr_event(t + 1, eta1_cur, eta2_cur)
        t += 1

    return RunResult(theta=theta, records=records, status=status, reason=reason,
                     total_queries=queries)


def _per_sample_seeds(seed: PerturbationSeed, count: int) -> list[PerturbationSeed]:
    return [PerturbationSeed(fold(seed.seed, i)) for i in range(count)]


def _set_anchor(anchor: SvrgAnchor | None, theta: np.ndarray, estimate) -> SvrgAnchor:
    """Anchor `estimate` at a copy of theta, in `anchor`'s buffer if there is one."""
    if anchor is None:
        return SvrgAnchor(theta.copy(), estimate)
    anchor.theta_bar[:] = theta
    anchor.estimate = estimate
    return anchor
