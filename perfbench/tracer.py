"""In-memory span tracing around zovr's public functions.

A `Tracer` replaces each traced function with a wrapper at every name a
caller looks it up by (``zovr.optimizers.sample_minibatch`` as well as
``zovr.estimators.sample_minibatch``), records one span per call, and
puts the original objects back when it is closed. A span is

    [name, start, end, parent index, run id, count, tag]

where `count` is the amount of work the call did (normals generated,
samples evaluated, steps run, bytes written) and `tag` says which
optimizer or step kind it served. Self time is a span's duration minus
the durations of its direct children; spans nest strictly because the
program is single-threaded.

Nothing here is imported by zovr: the spans are taken from outside, at
the layer boundaries, and are written out only when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from zovr import estimators, harness, memory, objectives, optimizers, prng, trajectory

NAME, START, END, PARENT, RUN, COUNT, TAG = range(7)

MODULES = ("prng", "estimators", "objectives", "optimizers", "trajectory",
           "harness", "memory", "bench")


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _csv_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _run_tag(args, kwargs, result):
    return (_arg(args, kwargs, 2, "optimizer"), _arg(args, kwargs, 1, "theta0").shape[0])


def _replay_tag(args, kwargs, result):
    log = _arg(args, kwargs, 0, "log")
    return (log.optimizer, log.d)


def _svrg_step_tag(args, kwargs, result):
    t = _arg(args, kwargs, 6, "t")
    return "anchor" if t % _arg(args, kwargs, 5, "cfg").q == 0 else "minibatch"


def targets():
    """(owner, attribute, span name, count(args, kwargs, result), tag(...)).

    One row per name a caller resolves at call time. `count` and `tag`
    may be None.
    """
    rows = [
        (prng, "normals", "prng.normals",
         lambda a, k, r: _arg(a, k, 2, "count"), None),
    ]
    for owner in (estimators, optimizers):
        rows.append((owner, "sample_minibatch", "estimators.sample_minibatch", None, None))
        rows.append((owner, "spsa_batch_shared", "estimators.spsa_batch_shared", None, None))
    for owner in (estimators, optimizers, trajectory):
        rows.append((owner, "axpy_estimate_in_place",
                     "estimators.axpy_estimate_in_place", None, None))
    for owner in (estimators, trajectory):
        rows.append((owner, "apply_probe_sequence",
                     "estimators.apply_probe_sequence", None, None))
    for cls in (objectives.Objective, objectives.LeastSquaresProblem,
                objectives.LogisticProblem, objectives.Mlp2Problem):
        if "batch_loss" in vars(cls):
            rows.append((cls, "batch_loss", "objectives.batch_loss",
                         lambda a, k, r: len(_arg(a, k, 2, "indices")), None))
        if "batch_grad" in vars(cls):
            rows.append((cls, "batch_grad", "objectives.batch_grad",
                         lambda a, k, r: len(_arg(a, k, 2, "indices")), None))
        if "initial_theta" in vars(cls):
            rows.append((cls, "initial_theta", "objectives.initial_theta", None, None))
    for fn in ("make_least_squares", "make_synthetic_digits", "make_mlp2"):
        rows.append((objectives, fn, "objectives.build", None, None))
    rows += [
        (optimizers, "mezo_step", "optimizers.mezo_step", None, None),
        (optimizers, "mezo_svrg_step", "optimizers.mezo_svrg_step", None, _svrg_step_tag),
        (optimizers, "fo_sgd_step", "optimizers.fo_sgd_step", None, None),
    ]
    for owner in (optimizers, harness):
        rows.append((owner, "run", "optimizers.run",
                     lambda a, k, r: r.steps, _run_tag))
    rows += [
        (trajectory, "save", "trajectory.save", None, None),
        (trajectory, "load", "trajectory.load", None, None),
        (trajectory, "replay", "trajectory.replay",
         lambda a, k, r: _arg(a, k, 2, "upto"), _replay_tag),
        (harness, "run_preset", "harness.run_preset", None, None),
        (harness, "execute", "harness.execute", None, None),
        (harness, "build_objective", "harness.build_objective", None, None),
        (harness, "write_csv", "harness.write_csv", _csv_size, None),
        (harness, "read_csv", "harness.read_csv", _csv_size, None),
        (memory.SlotMeter, "add", "memory.slot_meter", None, None),
        (memory.SlotMeter, "release", "memory.slot_meter", None, None),
    ]
    return rows


class Tracer:
    """Collects spans while installed; `close()` restores every original.

    `only`, when given, limits the wrapped functions to those span names.
    `around`, when given, is called just before and just after each span,
    outside it; `brackets[i]` holds its two results for span i.
    """

    def __init__(self, only: tuple[str, ...] | None = None, around=None):
        self.spans: list[list] = []
        self.brackets: dict[int, tuple] = {}
        self.run_id = ""
        self._only = only
        self._around = around
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for owner, attr, name, count, tag in targets():
            if self._only is not None and name not in self._only:
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, tag))
        return self

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.brackets.clear()

    def _wrap(self, fn, name, count, tag):
        spans, stack, around = self.spans, self._stack, self._around
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = around() if around is not None else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if tag is not None:
                span[TAG] = tag(args, kwargs, result)
            if around is not None:
                self.brackets[index] = (before, around())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, run_id: str):
        """A root (or nested) span opened by the benchmark itself."""
        self.run_id = run_id
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, run_id, 0, None]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: str, env: dict) -> None:
        """One JSON line of environment, then one JSON array per span."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `reps` traced repetitions.

    Totals are divided by `reps`; per-call and per-value figures are
    ratios of totals. A layer the workload never calls reports 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    calls, counts, self_s, incl_s = (defaultdict(float) for _ in range(4))
    for s, t in zip(spans, own):
        n = s[NAME]
        calls[n] += 1
        counts[n] += s[COUNT]
        self_s[n] += t
        incl_s[n] += s[END] - s[START]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    normals = "prng.normals"
    m["prng.normals.calls"] = calls[normals] / reps
    m["prng.normals.values"] = counts[normals] / reps
    m["prng.normals.self_s"] = self_s[normals] / reps
    m["prng.normals.ns_per_value"] = ratio(self_s[normals], counts[normals], 1e9)
    m["prng.normals.us_per_call"] = ratio(self_s[normals], calls[normals], 1e6)

    m.update(_z_passes(spans))
    for fn in ("sample_minibatch", "spsa_batch_shared", "axpy_estimate_in_place"):
        name = "estimators." + fn
        m[name + ".calls"] = calls[name] / reps
        m[name + ".self_s"] = self_s[name] / reps
    sampler = "estimators.sample_minibatch"
    m[sampler + ".us_per_call"] = ratio(self_s[sampler], calls[sampler], 1e6)
    m["estimators.apply_probe_sequence.self_s"] = (
        self_s["estimators.apply_probe_sequence"] / reps)

    loss, grad = "objectives.batch_loss", "objectives.batch_grad"
    m[loss + ".calls"] = calls[loss] / reps
    m[loss + ".queries"] = counts[loss] / reps
    m[loss + ".self_s"] = self_s[loss] / reps
    m[loss + ".us_per_query"] = ratio(self_s[loss], counts[loss], 1e6)
    m[grad + ".calls"] = calls[grad] / reps
    m[grad + ".self_s"] = self_s[grad] / reps

    for fn in ("mezo_step", "fo_sgd_step"):
        name = "optimizers." + fn
        m[name + ".ms_per_call"] = ratio(incl_s[name], calls[name], 1e3)
    for kind in ("anchor", "minibatch"):
        sel = [(s[END] - s[START]) for s in spans
               if s[NAME] == "optimizers.mezo_svrg_step" and s[TAG] == kind]
        m[f"optimizers.mezo_svrg_step.{kind}_ms"] = ratio(sum(sel), len(sel), 1e3)
    m["optimizers.step.self_s"] = sum(
        self_s["optimizers." + fn] for fn in ("mezo_step", "mezo_svrg_step", "fo_sgd_step")
    ) / reps
    m["optimizers.run.self_s"] = self_s["optimizers.run"] / reps
    m["optimizers.run.us_per_step"] = ratio(
        self_s["optimizers.run"], counts["optimizers.run"], 1e6)

    m["trajectory.save.s"] = incl_s["trajectory.save"] / reps
    m["trajectory.load.s"] = incl_s["trajectory.load"] / reps
    m["trajectory.replay.ms_per_step"] = ratio(
        incl_s["trajectory.replay"], counts["trajectory.replay"], 1e3)
    m["trajectory.replay.self_s"] = self_s["trajectory.replay"] / reps

    m["harness.build_objective.s"] = incl_s["harness.build_objective"] / reps
    m["harness.execute.self_s"] = self_s["harness.execute"] / reps
    m["harness.write_csv.s"] = incl_s["harness.write_csv"] / reps
    m["harness.read_csv.s"] = incl_s["harness.read_csv"] / reps
    m["harness.csv_bytes"] = counts["harness.write_csv"] / reps

    by_module = dict.fromkeys(MODULES, 0.0)
    wall = 0.0
    for s, t in zip(spans, own):
        by_module[s[NAME].split(".", 1)[0]] += t
        if s[PARENT] < 0:
            wall += s[END] - s[START]
    m["trace.wall_s"] = wall / reps
    for module, t in by_module.items():
        m[f"trace.self_s.{module}"] = t / reps
    return m


def _z_passes(spans) -> dict[str, float]:
    """Normals generated under each run or replay, over d times its steps."""
    values: dict[str, int] = {}
    work: dict[str, int] = {}
    owner_of: dict[int, str | None] = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] in ("optimizers.run", "trajectory.replay") and s[TAG] is not None:
            optimizer, d = s[TAG]
            key = optimizer if s[NAME] == "optimizers.run" else "replay." + optimizer
            work[key] = work.get(key, 0) + d * s[COUNT]
        else:
            key = owner_of.get(parent)
        owner_of[i] = key
        if s[NAME] == "prng.normals" and key is not None:
            values[key] = values.get(key, 0) + s[COUNT]
    out = {}
    for key in ("mezo", "mezo-svrg", "replay.mezo", "replay.mezo-svrg"):
        den = work.get(key, 0)
        out[f"estimators.z_passes_per_step.{key}"] = values.get(key, 0) / den if den else 0.0
    return out
