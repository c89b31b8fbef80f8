"""The perfbench workloads and their correctness checks.

Each workload is a closed loop with one client: a repetition ("rep")
starts only after the previous one has ended. Every rep does the same
fixed amount of work, and a run repeats it for the requested number of
seconds and reports medians.

* ``ls-fig1a`` runs ``harness.run_preset("fig1a", seed)`` (least squares,
  n=1000, d=100) at a reduced query budget, then replays recorded
  prefixes of its MeZO and MeZO-SVRG runs. d is below STREAM_CHUNK, so
  per-call overhead and the minibatch sampler dominate.
* ``mlp-preset`` does the same with ``run_preset("mlp", seed)`` (the
  784-32-16-10 MLP on synthetic digits, d=25,818). d spans two stream
  chunks: regenerating z and the forward pass dominate.
* ``replay-wide`` saves, loads and replays a MeZO and a MeZO-SVRG
  trajectory at d=2**20, generated from the seed with the fig1a
  configuration. Theta (8 MiB) is larger than L2 and no objective or
  sampler runs: only the PRNG and axpy kernels.

Budgets are chosen so that every MeZO-SVRG run and replay has an even
step count (q=2), which keeps the per-step z-pass counts exact.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from zovr import harness, memory, optimizers, prng, trajectory
from zovr.estimators import STREAM_CHUNK

import tracer as tracing

SEED_REPLAY = ("mezo", "mezo-svrg")
OPTIMIZERS = ("mezo", "mezo-svrg", "fo-sgd")
ACCOUNTING_MODE = {"mezo": None, "mezo-svrg": "recompute_g", "fo-sgd": None}

# One anchor step plus one minibatch step of MeZO-SVRG (q=2) costs
# 2n + 4b queries: 2128 on fig1a (n=1000, b=32), 1280 on mlp (n=512,
# b=64). Budgets are whole multiples, so MeZO-SVRG stops after an even
# number of steps.
SIZES = {
    "ls-fig1a": {"preset": "fig1a", "budget": 2128 * 188, "prefix": 1000,
                 "descends": OPTIMIZERS},
    "mlp-preset": {"preset": "mlp", "budget": 1280 * 20, "prefix": 64,
                   # at this budget the zeroth-order runs lower the loss by
                   # about 0.002 nats, inside their own noise; only FO-SGD
                   # descends reliably on every seed
                   "descends": ("fo-sgd",)},
    "replay-wide": {"d": 2 ** 20, "steps": 6},
}

SETUPS = 6, 5       # rounds of set-ups between reference timings; setup_s is the median
MEMORY_STEPS = 8    # steps of each optimizer in the untimed tracemalloc pass
REPLAY_MEMORY_STEPS = 2  # one anchor and one minibatch step: all replay holds
MIN_REPS = 3        # timed reps per untraced run
MIN_TRACED = 2      # untraced/traced rep pairs per traced run

# Stream tags of the generated replay-wide inputs.
_TAG_THETA = 901
_TAG_COEFF = 902

# The CPU speed of a shared 2-CPU virtual machine drifted by up to 2x within
# minutes as other tenants loaded the host; a 30 s median cannot average
# that out. So a fixed reference kernel is timed just before and after
# each measured section (a run, a replay, a round of set-ups, a rep),
# and every end-to-end time t is reported as t * REFERENCE_S / (mean
# reference time): seconds of a machine on which the reference kernel
# takes REFERENCE_S. Rates scale the other way.
REFERENCE_S = 0.035
_MIX = np.uint64(0xBF58476D1CE4E5B9)

clock = time.perf_counter


def reference_seconds() -> float:
    """Time one pass of a fixed kernel shaped like zovr's hot paths.

    One part is interpreter-bound (set arithmetic and numpy calls on
    100-element arrays, like the sampler and least squares), the other
    array-bound (integer mixing, log, cos and sqrt over 16384 values, like
    the normals kernel). It calls nothing in zovr, so no change to the
    program moves it.
    """
    t0 = clock()
    x = np.arange(100, dtype=np.float64)
    for i in range(1200):
        chosen = set()
        for j in range(32):
            chosen.add((i * 2654435761 + j * 40503) % 1000)
        np.mean(x * 1.0001 + i)
    for k in range(40):
        w = np.arange(k, k + 32768, dtype=np.uint64) * _MIX
        w ^= w >> np.uint64(31)
        u = (w[:16384] >> np.uint64(11)) / 2.0 ** 53 + 1e-300
        v = (w[16384:] >> np.uint64(11)) / 2.0 ** 53
        np.sum(np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v))
    return clock() - t0


def calibrated(seconds: float, reference_s: float) -> float:
    """A time measured while the reference kernel took `reference_s`."""
    return seconds * REFERENCE_S / reference_s


def rep_metrics(timer: tracing.Tracer, step_span: str, wall: float, refs: list) -> dict:
    """Calibrated end-to-end figures of one untraced rep.

    `timer` bracketed each run and replay with a reference timing; those
    give per-section rates. The rep's wall time, less the reference
    timings inside it, is calibrated by all reference times of the rep.
    """
    steps: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for i, s in enumerate(timer.spans):
        before, after = timer.brackets[i]
        took = calibrated(s[tracing.END] - s[tracing.START], (before + after) / 2)
        keys = ["replay_steps_per_s"] if s[tracing.NAME] == "trajectory.replay" else []
        if s[tracing.NAME] == step_span and s[tracing.TAG][0] in SEED_REPLAY:
            keys.append(f"steps_per_s.{s[tracing.TAG][0]}")
        for key in keys:
            steps[key] = steps.get(key, 0) + s[tracing.COUNT]
            seconds[key] = seconds.get(key, 0.0) + took
        refs = refs + [before, after]
        wall -= before + after
    out = {key: steps[key] / seconds[key] for key in steps}
    out["wall_s"] = calibrated(wall, statistics.fmean(refs))
    return out


class Tally:
    """Counts operations (runs, replays, checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {label} {detail}".rstrip(), file=sys.stderr)
        return ok

    def attempt(self, label: str, fn):
        """Run one operation; an exception counts it failed and returns None."""
        try:
            return fn()
        except Exception:  # the run goes on; the traceback says what broke
            traceback.print_exc()
            self.check(label, False, "raised")
            return None


def heap_peak(fn) -> tuple[int, object]:
    """tracemalloc peak of the allocations `fn` makes, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def log_bytes_per_step(logs, outdir: str) -> float:
    """Saved bytes per recorded step, header excluded."""
    body = steps = 0
    for i, log in enumerate(logs):
        full = os.path.join(outdir, f"size-{i}.zotrj")
        empty = os.path.join(outdir, f"size-{i}-header.zotrj")
        trajectory.save(log, full)
        trajectory.save(trajectory.TrajectoryLog(
            log.master_seed, log.d, log.optimizer, log.config, log.theta0_sha256), empty)
        body += os.path.getsize(full) - os.path.getsize(empty)
        steps += log.steps()
    return body / steps


class LiveWorkload:
    """A harness preset, plus replay of recorded prefixes of its runs."""

    step_span = "optimizers.run"  # whose steps steps_per_s.<optimizer> counts

    def __init__(self, size: dict, seed: int, outdir: str, tally: Tally):
        self.preset = size["preset"]
        self.budget = size["budget"]
        self.prefix = size["prefix"]
        self.descends = size["descends"]
        self.seed = seed
        self.outdir = outdir
        self.tally = tally
        self.specs = harness.PRESETS[self.preset](seed, self.budget)
        self.problem = (self.specs[0].problem, self.specs[0].problem_params)
        self.digests: dict[str, bytes] = {}
        self.prefixes = []  # (optimizer, path, theta0, live final digest)

    def setup(self) -> float:
        t0 = clock()
        obj = harness.build_objective(*self.problem)
        obj.initial_theta()
        return clock() - t0

    def prepare(self) -> None:
        obj = harness.build_objective(*self.problem)
        theta0 = obj.initial_theta()
        self.d = obj.d
        self.initial_loss = float(obj.batch_loss(theta0, np.arange(obj.n)))
        for spec in self.specs:
            if spec.optimizer not in SEED_REPLAY:
                continue
            path = os.path.join(self.outdir, f"prefix-{spec.name}.zotrj")
            short = replace(spec, max_steps=self.prefix, max_queries=None)
            ex = harness.execute(short, traj_out=path)
            self.tally.check(f"prefix {spec.name} completed",
                             ex.result.status == "completed", ex.result.reason)
            self.prefixes.append((spec.optimizer, path, ex.theta0,
                                  trajectory.theta_digest(ex.result.theta)))

    def rep(self) -> tuple:
        executions, _ = harness.run_preset(self.preset, self.seed, self.outdir, self.budget)
        replayed = [trajectory.replay(trajectory.load(path), theta0, self.prefix)
                    for _, path, theta0, _ in self.prefixes]
        return executions, replayed

    def check(self, outputs) -> None:
        executions, replayed = outputs
        ok = self.tally.check
        for ex in executions:
            name, r = ex.spec.name, ex.result
            ok(f"{name} completed", r.status == "completed", r.reason)
            rows = harness.read_csv(ex.csv_path)
            cumulative = [row["cumulative_queries"] for row in rows]
            ok(f"{name} csv queries match", cumulative[-1] == r.total_queries,
               f"{cumulative[-1]} != {r.total_queries}")
            if ex.spec.max_queries is not None:
                step = max(b - a for a, b in zip([0] + cumulative, cumulative))
                over = r.total_queries - ex.spec.max_queries
                ok(f"{name} budget met within one step", 0 <= over < step,
                   f"overshoot {over}, step {step}")
            else:
                ok(f"{name} step budget met", r.steps == ex.spec.max_steps)
            ok(f"{name} final loss finite", math.isfinite(ex.final_loss))
            if ex.spec.optimizer in self.descends:
                ok(f"{name} final loss below initial", ex.final_loss < self.initial_loss,
                   f"{ex.final_loss} >= {self.initial_loss}")
            digest = trajectory.theta_digest(r.theta)
            ok(f"{name} final theta repeats", self.digests.setdefault(name, digest) == digest)
        for (opt, _, _, live), theta in zip(self.prefixes, replayed):
            ok(f"replay {opt} equals live", trajectory.theta_digest(theta) == live)

    def memory_pass(self) -> dict:
        out = {}
        for spec in self.specs:
            obj = harness.build_objective(spec.problem, spec.problem_params)
            config = harness.build_optimizer_config(spec.optimizer, spec.optimizer_params)
            theta0 = obj.initial_theta()
            meter = memory.SlotMeter()
            budget = optimizers.Budget(max_steps=MEMORY_STEPS)
            peak, result = heap_peak(lambda: optimizers.run(
                obj, theta0, spec.optimizer, config, budget, self.seed, meter=meter))
            self.tally.check(f"memory pass {spec.name} completed",
                             result.status == "completed", result.reason)
            out[spec.optimizer] = (peak, meter.peak)
        replay_peaks = []
        for _, path, theta0, _ in self.prefixes:
            log = trajectory.load(path)
            replay_peaks.append(heap_peak(
                lambda: trajectory.replay(log, theta0, REPLAY_MEMORY_STEPS))[0])
        out["replay"] = (max(replay_peaks), 0)
        return out

    def bytes_per_step(self) -> float:
        return log_bytes_per_step([trajectory.load(p) for _, p, _, _ in self.prefixes],
                                  self.outdir)


class ReplayWorkload:
    """Save, load and replay generated MeZO and MeZO-SVRG logs at large d."""

    step_span = "trajectory.replay"

    def __init__(self, size: dict, seed: int, outdir: str, tally: Tally):
        self.d = size["d"]
        self.steps = size["steps"]
        self.seed = seed
        self.outdir = outdir
        self.tally = tally
        self.theta0_path = os.path.join(outdir, "wide.theta0.npy")
        self.digests: dict[str, bytes] = {}

    def _generate(self, optimizer: str, params: dict, coeffs: np.ndarray):
        log = trajectory.TrajectoryLog.for_run(self.seed, self.theta0, optimizer,
                                               dict(params, p=1))
        at = 0
        eta1, eta2 = params.get("eta1", 0.0), params.get("eta2", 0.0)
        for t in range(self.steps):
            if optimizer == "mezo":
                kind, k = optimizers.KIND_MINIBATCH, 1
            elif t % params["q"] == 0:
                kind, k = optimizers.KIND_FULLBATCH, 1
            else:
                kind, k = optimizers.KIND_MINIBATCH, 2
            log.record_step(t, kind, tuple(coeffs[at:at + k]))
            at += k
            if optimizer == "mezo-svrg" and t % 2 == 1 and t + 1 < self.steps:
                # an annealing event every two steps, as the LR schedule emits
                eta1, eta2 = eta1 / 5.0, eta2 / 5.0
                log.record_lr_event(t + 1, eta1, eta2)
        return log

    def prepare(self) -> None:
        self.theta0 = prng.normals(prng.fold(self.seed, _TAG_THETA), 0, self.d)
        np.save(self.theta0_path, self.theta0)
        coeffs = prng.normals(prng.fold(self.seed, _TAG_COEFF), 0, 2 * self.steps)
        self.logs = {}
        self.paths = {}
        for spec in harness.preset_fig1a(self.seed)[:2]:
            log = self._generate(spec.optimizer, spec.optimizer_params, coeffs)
            path = os.path.join(self.outdir, f"wide-{spec.optimizer}.zotrj")
            trajectory.save(log, path)
            self.logs[spec.optimizer] = log
            self.paths[spec.optimizer] = path
            again = os.path.join(self.outdir, f"wide-{spec.optimizer}-again.zotrj")
            trajectory.save(trajectory.load(path), again)
            self.tally.check(f"{spec.optimizer} save-load-save identical",
                             _read(path) == _read(again))
            start = trajectory.replay(log, self.theta0, 0)
            self.tally.check(f"{spec.optimizer} replay to step 0 is theta0",
                             np.array_equal(start, self.theta0))

    def setup(self) -> float:
        t0 = clock()
        for path in self.paths.values():
            trajectory.load(path)
        np.load(self.theta0_path)
        return clock() - t0

    def rep(self) -> dict:
        thetas = {}
        for opt, log in self.logs.items():
            path = os.path.join(self.outdir, f"rep-{opt}.zotrj")
            trajectory.save(log, path)
            thetas[opt] = trajectory.replay(trajectory.load(path), self.theta0, self.steps)
        return thetas

    def check(self, thetas) -> None:
        for opt, theta in thetas.items():
            self.tally.check(f"replay {opt} finite", bool(np.all(np.isfinite(theta))))
            digest = trajectory.theta_digest(theta)
            self.tally.check(f"replay {opt} digest repeats",
                             self.digests.setdefault(opt, digest) == digest)
            self.tally.check(f"{opt} rep file identical",
                             _read(os.path.join(self.outdir, f"rep-{opt}.zotrj"))
                             == _read(self.paths[opt]))

    def memory_pass(self) -> dict:
        out = {}
        for opt, log in self.logs.items():
            peak, _ = heap_peak(lambda: trajectory.replay(
                log, self.theta0, REPLAY_MEMORY_STEPS))
            out[opt] = (peak, 0)
        out["replay"] = (max(p for p, _ in out.values()), 0)
        return out

    def bytes_per_step(self) -> float:
        return log_bytes_per_step(list(self.logs.values()), self.outdir)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {"ls-fig1a": LiveWorkload, "mlp-preset": LiveWorkload,
             "replay-wide": ReplayWorkload}


def environment(name: str, d: int) -> dict:
    """What a result depends on besides the code: replay is bit-exact per numpy build."""
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "stream_chunk": STREAM_CHUNK,
        "workload": name,
        "d": d,
    }
    for level, index in (("l2_bytes", 2), ("l3_bytes", 3)):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                text = fh.read().strip()
            env[level] = int(text.rstrip("K")) * 1024 if text.endswith("K") else int(text)
        except (OSError, ValueError):
            env[level] = None
    return env


def heap_metrics(peaks: dict) -> dict:
    """End-to-end tracemalloc peaks: the seed-replay runs and replay."""
    return {f"peak_heap_bytes.{k}": v[0] for k, v in peaks.items() if k != "fo-sgd"}


def model_metrics(peaks: dict, d: int) -> dict:
    """Registered slots and modelled slots next to each measured peak."""
    out = {}
    for opt in OPTIMIZERS:
        heap, slots = peaks.get(opt, (0, 0))
        model = memory.account_memory(opt, ACCOUNTING_MODE[opt], d) if opt in peaks else 0
        out[f"memory.slot_peak.{opt}"] = slots
        out[f"memory.model_slots.{opt}"] = model
        out[f"memory.heap_over_model.{opt}"] = heap / (8 * model) if model else 0.0
    return out


def run(name: str, seed: int, seconds: float, traced: bool, outdir: str,
        sizes: dict = SIZES, spans_path: str | None = None) -> tuple[dict, dict, Tally]:
    """One benchmark run; returns (metrics, environment, tally).

    With `traced` false the metrics are the end-to-end ones, from
    untraced reps only. With `traced` true they are the per-layer ones:
    traced and untraced reps alternate, and the spans of the traced reps
    are written to `spans_path`.
    """
    tally = Tally()
    os.makedirs(outdir, exist_ok=True)
    work = WORKLOADS[name](sizes[name], seed, outdir, tally)
    work.prepare()
    refs = [reference_seconds()]
    setups = []
    for _ in range(SETUPS[0]):
        batch = [work.setup() for _ in range(SETUPS[1])]
        refs.append(reference_seconds())
        setups += [calibrated(t, (refs[-2] + refs[-1]) / 2) for t in batch]
    env = environment(name, work.d)

    def one_rep(spy, root: str | None = None):
        """One rep under `spy`, checked afterwards; its wall time or None."""
        spy.install()
        try:
            t0 = clock()
            with spy.span("bench.rep", root) if root else nullcontext():
                outputs = tally.attempt("rep", work.rep)
            wall = clock() - t0
        finally:
            spy.close()
        if outputs is None:
            return None
        tally.attempt("checks", lambda: work.check(outputs))
        return wall

    # prepare() has run every code path once, so no warm-up rep is needed
    start = clock()
    reps = 0
    if not traced:
        timer = tracing.Tracer(only=("optimizers.run", "trajectory.replay"),
                               around=reference_seconds)
        samples = []
        while reps < MIN_REPS or clock() - start < seconds:
            reps += 1
            timer.clear()
            wall = one_rep(timer)
            refs.append(reference_seconds())
            if wall is not None:
                samples.append(rep_metrics(timer, work.step_span, wall, refs[-2:]))
        if not samples:
            raise RuntimeError(f"no rep of {name} completed")
        metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        metrics["setup_s"] = statistics.median(setups)
        metrics.update(heap_metrics(work.memory_pass()))
        env["reference_s"] = statistics.median(refs)
        return metrics, env, tally

    untraced, tracer = tracing.Tracer(only=()), tracing.Tracer()
    plain, traced_walls = [], []
    while reps < MIN_TRACED or clock() - start < seconds:
        reps += 1
        wall = one_rep(untraced)
        if wall is not None:
            plain.append(wall)
        wall = one_rep(tracer, f"rep{reps}")
        if wall is not None:
            traced_walls.append(wall)
    if not (plain and traced_walls):
        raise RuntimeError(f"no traced and untraced rep pair of {name} completed")
    metrics = tracing.layer_metrics(tracer, len(traced_walls))
    metrics["trace.overhead_share"] = (statistics.median(traced_walls)
                                       / statistics.median(plain) - 1.0)
    metrics["trajectory.bytes_per_step"] = work.bytes_per_step()
    metrics.update(model_metrics(work.memory_pass(), work.d))
    env["reference_s"] = statistics.median(refs)
    if spans_path:
        tracer.write(spans_path, env)
    return metrics, env, tally
