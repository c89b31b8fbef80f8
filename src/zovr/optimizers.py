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

Per-step randomness is derived from one master seed: perturbation seeds
are fold(fold(master, tag), step) with tag 1 for minibatch steps and 2
for anchor steps (`perturb_seed`); batch sampler seeds use tags 3
(minibatch) and 4 (anchor subsampling). Every minibatch is drawn
without replacement. Trajectory replay relies on exactly this scheme.
"""

from __future__ import annotations

import time
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
from .prng import fold

TAG_STEP_PERTURB = 1
TAG_ANCHOR_PERTURB = 2
TAG_STEP_BATCH = 3
TAG_ANCHOR_BATCH = 4

KIND_FULLBATCH = "fullbatch"
KIND_MINIBATCH = "minibatch"
KIND_FO = "fo"

DIVERGENCE_FACTOR = 1e6


def perturb_seed(master_seed: int, t: int, kind: str) -> PerturbationSeed:
    """The perturbation seed of step t: anchor steps and the rest use separate streams."""
    tag = TAG_ANCHOR_PERTURB if kind == KIND_FULLBATCH else TAG_STEP_PERTURB
    return PerturbationSeed(fold(fold(master_seed, tag), t))

def step_batch_seed(master_seed: int, t: int) -> int:
    return fold(fold(master_seed, TAG_STEP_BATCH), t)

def anchor_batch_seed(master_seed: int, t: int) -> int:
    return fold(fold(master_seed, TAG_ANCHOR_BATCH), t)


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
    learning rates are divided by alpha."""

    kappa: float = 1.05
    alpha: float = 5.0
    window: int | None = None  # default: ceil(n / b), all step kinds counted

    def __post_init__(self):
        if not (self.kappa > 1.0):
            raise ValueError(f"kappa must exceed 1, got {self.kappa}")
        if not (self.alpha > 1.0):
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")


@dataclass
class LrScheduleState:
    kappa: float
    alpha: float
    window: int
    loss_history: list[float] = field(default_factory=list)


def lr_schedule_update(state: LrScheduleState, eta1: float, eta2: float) -> tuple[float, float]:
    """One annealing decision from the recorded loss history.

    No-op unless at least two full windows of history exist or if the
    trailing-window mean is zero (division guard). Never increases the
    learning rates.
    """
    w = state.window
    if len(state.loss_history) < 2 * w:
        return eta1, eta2
    recent = state.loss_history[-w:]
    previous = state.loss_history[-2 * w:-w]
    m1 = sum(recent) / w
    m2 = sum(previous) / w
    if m2 == 0.0:
        return eta1, eta2
    if m1 / m2 > state.kappa:
        return eta1 / state.alpha, eta2 / state.alpha
    return eta1, eta2


def _check_batch(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class MezoConfig:
    eta: float = 1e-3
    b: int = 32
    spsa: SpsaConfig = field(default_factory=SpsaConfig)

    def __post_init__(self):
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
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        _check_batch("b", self.b)
        _check_batch("anchor_batch", self.anchor_batch)


@dataclass(frozen=True)
class ZoSvrgConfig:
    eta: float = 1e-3
    b: int = 32
    q: int = 2
    spsa: SpsaConfig = field(default_factory=SpsaConfig)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        _check_batch("b", self.b)


@dataclass(frozen=True)
class FoSgdConfig:
    eta: float = 1e-3
    b: int = 32

    def __post_init__(self):
        _check_batch("b", self.b)


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


@dataclass
class StepReport:
    step: int
    kind: str
    loss_before: float
    queries: int
    eta_used: float
    backward_queries: int = 0


@dataclass
class SvrgAnchor:
    """Anchor state: a copy of theta and the estimate taken there.

    `estimate` is the compressed (seed, coeffs) form for MeZO-SVRG and a
    dense vector for the reference ZO-SVRG.
    """

    theta_bar: np.ndarray
    estimate: object
    step_created: int


def mezo_step(obj, theta: np.ndarray, batch: Minibatch, seed: PerturbationSeed,
              eta: float, cfg: SpsaConfig) -> tuple[StepReport, object]:
    est = spsa_batch_shared(obj, theta, batch, seed, cfg)
    for e, scale in update_plan(seed, est.coeffs, est.d, None, eta):
        axpy_estimate_in_place(theta, e, scale)
    report = StepReport(-1, KIND_MINIBATCH, est.loss_proxy, est.queries_used, eta)
    return report, est


def mezo_svrg_step(obj, theta: np.ndarray, anchor: SvrgAnchor | None,
                   batch: Minibatch, seed: PerturbationSeed, cfg: MezoSvrgConfig,
                   t: int, eta1: float | None = None, eta2: float | None = None,
                   meter=None) -> tuple[StepReport, SvrgAnchor, tuple[float, ...]]:
    """One MeZO-SVRG step; the branch is chosen by t mod q.

    Returns (report, anchor, recorded coefficients): one coefficient for
    an anchor step, two (at theta, at theta_bar) for a minibatch step.
    `batch` must hold the anchor-batch indices on anchor steps.
    """
    eta1 = cfg.eta1 if eta1 is None else eta1
    eta2 = cfg.eta2 if eta2 is None else eta2
    if t % cfg.q == 0:
        est = spsa_batch_shared(obj, theta, batch, seed, cfg.spsa)
        if anchor is None:
            buf = theta.copy()
            if meter is not None:
                meter.add(theta.shape[0])
            anchor = SvrgAnchor(buf, est, t)
        else:
            anchor.theta_bar[:] = theta
            anchor.estimate = est
            anchor.step_created = t
        for e, scale in update_plan(seed, est.coeffs, est.d, None, eta1):
            axpy_estimate_in_place(theta, e, scale)
        report = StepReport(t, KIND_FULLBATCH, est.loss_proxy, est.queries_used, eta1)
        return report, anchor, est.coeffs
    if anchor is None:
        raise RuntimeError(f"minibatch step {t} without a fullbatch anchor")
    est_theta = spsa_batch_shared(obj, theta, batch, seed, cfg.spsa)
    est_anchor = spsa_batch_shared(obj, anchor.theta_bar, batch, seed, cfg.spsa)
    coeffs = est_theta.coeffs + est_anchor.coeffs
    for e, scale in update_plan(seed, coeffs, est_theta.d, anchor.estimate, eta2):
        axpy_estimate_in_place(theta, e, scale)
    report = StepReport(
        t, KIND_MINIBATCH, est_theta.loss_proxy,
        est_theta.queries_used + est_anchor.queries_used, eta2,
    )
    return report, anchor, coeffs


def zo_svrg_step(obj, theta: np.ndarray, anchor: SvrgAnchor, batch: Minibatch,
                 per_sample_seeds: list[PerturbationSeed], eta: float,
                 cfg: SpsaConfig, meter=None) -> StepReport:
    """Reference ZO-SVRG blend with per-sample averaged estimators (dense).

    theta <- theta - eta * [est_I(theta) - est_I(theta_bar) + g], with the
    same per-sample seeds at theta and theta_bar. Deliberately memory-
    naive: two transient d-vectors on top of the dense anchor state.
    """
    if anchor is None or not isinstance(anchor.estimate, np.ndarray):
        raise RuntimeError("reference ZO-SVRG needs a dense anchor estimate")
    at_theta = spsa_batch_avg(obj, theta, batch, per_sample_seeds, cfg, meter=meter)
    at_anchor = spsa_batch_avg(obj, anchor.theta_bar, batch, per_sample_seeds, cfg, meter=meter)
    # loss is logged for free from the probe evaluations' midpoint; here the
    # per-sample estimators do not expose one, so log an uncounted evaluation
    loss_logged = obj.batch_loss(theta, batch.indices)
    at_theta -= at_anchor
    at_theta += anchor.estimate
    if meter is not None:
        meter.release(theta.shape[0])  # at_anchor dies here
    at_theta *= eta
    theta -= at_theta
    if meter is not None:
        meter.release(theta.shape[0])
    return StepReport(-1, KIND_MINIBATCH, float(loss_logged), 4 * batch.b * cfg.p, eta)


def fo_sgd_step(obj, theta: np.ndarray, batch: Minibatch, eta: float,
                meter=None) -> StepReport:
    """First-order baseline: theta <- theta - eta * mean batch gradient."""
    loss = obj.batch_loss(theta, batch.indices)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"non-finite batch loss {loss!r} in FO-SGD step")
    if meter is not None:
        meter.add(theta.shape[0])
    grad = obj.batch_grad(theta, batch.indices)
    theta -= eta * grad
    if meter is not None:
        meter.release(theta.shape[0])
    return StepReport(-1, KIND_FO, float(loss), batch.b, eta, backward_queries=batch.b)


@dataclass
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
    status: str  # completed | diverged | failed
    reason: str = ""
    total_queries: int = 0
    total_backward: int = 0

    @property
    def steps(self) -> int:
        return len(self.records)


OPTIMIZERS = ("mezo", "mezo-svrg", "zo-svrg", "fo-sgd")


def run(obj, theta0: np.ndarray, optimizer: str, config, budget: Budget,
        master_seed: int, trajectory=None, meter=None, sink=None,
        eval_every: int = 0) -> RunResult:
    """Drive an optimizer until the step or query budget is exhausted.

    Deterministic given (config, master_seed). Emits one RunRecord per
    step; a non-finite or exploding loss ends the run with status
    'diverged', any other step failure with status 'failed'. `sink`,
    when given, is called as sink(step, theta, record) after every step.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; known: {OPTIMIZERS}")
    if trajectory is not None and optimizer not in ("mezo", "mezo-svrg"):
        raise ValueError(f"trajectory recording is only defined for seed-replay "
                         f"optimizers, not {optimizer!r}")
    if config.b > obj.n:
        raise ValueError(f"batch size b={config.b} exceeds the {obj.n} samples")
    theta = np.array(theta0, dtype=np.float64, copy=True)
    d = theta.shape[0]
    if meter is not None:
        meter.add(d)
    records: list[RunRecord] = []
    queries = 0
    backward = 0
    anchor: SvrgAnchor | None = None
    eta1_cur, eta2_cur = _initial_etas(optimizer, config)
    sched_state = _schedule_state(obj, optimizer, config)
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
            kind = KIND_MINIBATCH
            if optimizer == "mezo-svrg" and t % config.q == 0:
                kind = KIND_FULLBATCH
                anchor_n = obj.n if config.anchor_batch is None else config.anchor_batch
                batch = (full_batch(obj.n) if anchor_n >= obj.n else
                         sample_minibatch(obj.n, anchor_n, anchor_batch_seed(master_seed, t)))
            else:
                batch = sample_minibatch(obj.n, config.b, step_batch_seed(master_seed, t))
            seed = perturb_seed(master_seed, t, kind)
            if optimizer == "mezo":
                report, est = mezo_step(obj, theta, batch, seed, eta1_cur, config.spsa)
                coeffs = est.coeffs
            elif optimizer == "mezo-svrg":
                report, anchor, coeffs = mezo_svrg_step(
                    obj, theta, anchor, batch, seed, config, t, eta1_cur, eta2_cur, meter)
            elif optimizer == "zo-svrg":
                refreshed = t % config.q == 0
                if refreshed:
                    anchor = _refresh_dense_anchor(obj, theta, anchor, t, master_seed,
                                                   config, meter)
                report = zo_svrg_step(obj, theta, anchor, batch,
                                      _per_sample_seeds(seed, batch.b), eta1_cur,
                                      config.spsa, meter)
                if refreshed:
                    report.queries += 2 * obj.n * config.spsa.p
                    report.kind = KIND_FULLBATCH
            else:  # fo-sgd
                report = fo_sgd_step(obj, theta, batch, eta1_cur, meter)
            if trajectory is not None:
                trajectory.record_step(t, report.kind, coeffs)
        except NonFiniteLossError as err:
            status, reason = "diverged", str(err)
            break
        except Exception as err:  # recorded failure, not a crash
            status, reason = "failed", f"{type(err).__name__}: {err}"
            break

        report.step = t
        queries += report.queries
        backward += report.backward_queries
        if initial_loss is None:
            initial_loss = abs(report.loss_before)
        metric = None
        if eval_every and (t % eval_every == 0):
            try:
                metric = obj.metric(theta)
            except NotImplementedError:
                metric = None
        record = RunRecord(
            step=t, cumulative_queries=queries, train_loss=report.loss_before,
            eval_metric=metric, eta1=eta1_cur,
            eta2=eta2_cur if optimizer == "mezo-svrg" else None,
            kind=report.kind, peak_slots=(meter.peak if meter else 0),
            elapsed_seconds=time.perf_counter() - started,
            backward_queries=backward,
        )
        records.append(record)
        if sink is not None:
            sink(t, theta, record)

        if not np.isfinite(report.loss_before):
            status, reason = "diverged", f"non-finite loss at step {t}"
            break
        if report.loss_before > DIVERGENCE_FACTOR * max(initial_loss, 1e-300):
            status, reason = "diverged", (
                f"loss {report.loss_before:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x "
                f"initial at step {t}")
            break

        if sched_state is not None:
            sched_state.loss_history.append(report.loss_before)
            w = sched_state.window
            if len(sched_state.loss_history) >= 2 * w and len(sched_state.loss_history) % w == 0:
                new1, new2 = lr_schedule_update(sched_state, eta1_cur, eta2_cur)
                if (new1, new2) != (eta1_cur, eta2_cur):
                    eta1_cur, eta2_cur = new1, new2
                    if trajectory is not None:
                        trajectory.record_lr_event(t + 1, eta1_cur, eta2_cur)
        t += 1

    return RunResult(theta=theta, records=records, status=status, reason=reason,
                     total_queries=queries, total_backward=backward)


def _initial_etas(optimizer, config):
    if optimizer == "mezo-svrg":
        return config.eta1, config.eta2
    return config.eta, None


def _schedule_state(obj, optimizer, config) -> LrScheduleState | None:
    sched = getattr(config, "schedule", None)
    if sched is None:
        return None
    window = sched.window or max(1, -(-obj.n // config.b))
    return LrScheduleState(sched.kappa, sched.alpha, window)


def _per_sample_seeds(seed: PerturbationSeed, count: int) -> list[PerturbationSeed]:
    return [PerturbationSeed(fold(seed.seed, i)) for i in range(count)]


def _refresh_dense_anchor(obj, theta, anchor, t, master_seed, config, meter):
    batch = full_batch(obj.n)
    seeds = _per_sample_seeds(perturb_seed(master_seed, t, KIND_FULLBATCH), obj.n)
    if anchor is None:
        if meter is not None:
            meter.add(theta.shape[0])  # theta_bar
        dense = spsa_batch_avg(obj, theta, batch, seeds, config.spsa, meter=meter)
        return SvrgAnchor(theta.copy(), dense, t)
    dense = spsa_batch_avg(obj, theta, batch, seeds, config.spsa, meter=meter)
    if meter is not None:
        meter.release(theta.shape[0])  # the previous dense estimate
    anchor.theta_bar[:] = theta
    anchor.estimate = dense
    anchor.step_created = t
    return anchor
