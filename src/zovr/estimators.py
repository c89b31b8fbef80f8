"""SPSA gradient estimators and the streamed probe walk they share with replay.

A two-point SPSA estimate along a random direction z is the scalar

    coeff = [f(theta + mu*z) - f(theta - mu*z)] / (2*mu)

and the estimated gradient is ``coeff * z``. Because z is regenerated
from a seed on demand, an estimate is stored as (seed, coeff): constant
size, independent of the parameter dimension. Two estimator families
are provided:

* shared-perturbation (``spsa_batch_shared``): the whole batch is
  perturbed along one z, costing 2*b loss queries and one stored scalar;
* per-sample averaged (``spsa_batch_avg``): one independent z per
  sample, each sample's estimate a one-sample shared estimate, costing
  2*b queries and a dense d-vector. This is the memory-naive path kept
  for the reference ZO-SVRG optimizer.

All parameter mutation goes through one sweep, `stream_passes`, which
applies an ordered list of (seed, alpha) passes piece by piece, so no
second d-length buffer is allocated. A live probe hands it one pass at a
time, because a loss query sits between its passes; replay hands it each
step's whole list, every pass of a piece before the next piece. From
`PARALLEL_MIN_D` parameters on, and with two usable CPUs, a sweep runs in
two lanes: the caller and one pooled worker thread share its pieces.
A sweep with cap P (`LANE_PIECE` in two lanes, `STREAM_CHUNK` in a serial
sweep) streams k = ceil(d / P) equal pieces of ceil(d / k) values, the
last up to k - 1 shorter, so a piece in flight is no longer than d needs.
Every element still gets each pass's z value, multiply and add in list
order, so results do not depend on the lane count, on the piece size, on
which lane streamed which piece, or on how the passes were grouped into
sweeps.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import prng

# The cap on a serial sweep's piece length, and the largest d streamed as one
# piece. A piece holds at most three words per value while it is made, so a
# serial pass holds at most a quarter of the memory model's constant C, and
# 3 * ceil(d / k) words for k = ceil(d / STREAM_CHUNK) pieces. Longer serial
# pieces buy little: with the compiled z kernel a 4-pass d = 2^20 sweep took
# 82-140 ms at this size, 80-128 ms at twice it and 80-128 ms at four times
# it (numpy 2.4.6, 2-CPU Xeon VM whose speed drifts). They do cost heap: the
# mlp preset's (d = 25,818) replay peaked at 602 KB with whole pieces of twice
# this size, 405 KB with whole pieces of this size, and 364 KB with its four
# equal pieces of 6,455 values.
STREAM_CHUNK = 8192

# The cap on a two-lane sweep's piece length; two lanes' pieces in flight hold
# at most all of C. The compiled z kernel makes a whole pass over a piece in
# one call that holds the interpreter lock only to read its arguments, so the
# lanes take the lock just for that call and the slicing of theta: a two-lane
# sweep made 0.02 voluntary context switches per z pass, against 0.18-0.26
# when the kernel gave the lock back only in its two C loops. Fewer, longer
# pieces still hand the lock over less often; the numpy path, which gives it
# back in each of its ufuncs, needs that most. With the earlier kernel the
# same 4-pass sweep took 45-62 ms in two lanes at this cap and 49-84 ms at
# half of it.
LANE_PIECE = 2 * STREAM_CHUNK

# Smallest d streamed in two lanes. One-pass sweeps on the same VM with the
# one-call kernel, serial against two lanes of LANE_PIECE pieces, medians of
# 200 in four runs:
#     d =  32,768:  0.60-0.95 ms against 0.37-0.68
#     d =  49,152:  0.92-1.52 ms against 0.68-0.71
#     d =  65,536:  1.22-2.12 ms against 1.06-1.18
#     d =  98,304:  1.92-3.08 ms against 1.33-1.64
#     d = 131,072:  2.53-4.00 ms against 1.62-2.09
# The value was set on the numpy path. With the kernel, two lanes won at every
# d here in 19 of 20 runs, so the gate could come down; the serial times
# spread up to x1.65 between runs on this VM, whose second CPU comes and goes,
# so it stays until a benchmark workload sits below it.
PARALLEL_MIN_D = 8 * STREAM_CHUNK

# The probe walk in steps of mu: to theta + mu*z, on to theta - mu*z, back.
PROBE_WALK = (1.0, -2.0, 1.0)

# (pid, one-thread pool or None on a single usable CPU); see _second_lane
_lane_pool: tuple[int, ThreadPoolExecutor | None] = (-1, None)


class NonFiniteLossError(RuntimeError):
    """A loss query returned NaN or infinity; the step must abort."""


@dataclass(frozen=True)
class PerturbationSeed:
    """Addresses one reproducible normal stream window.

    The same (seed, offset, d) always regenerates the identical
    standard-normal vector.
    """

    seed: int
    offset: int = 0

    def shifted(self, count: int) -> "PerturbationSeed":
        """Seed for the disjoint window `count` normals further along."""
        # draw 0 of every step reads the window itself; the seed is immutable
        return self if count == 0 else PerturbationSeed(self.seed, self.offset + count)


@dataclass(frozen=True)
class SpsaConfig:
    """Perturbation scale mu and number of averaged draws p (default 1)."""

    mu: float = 1e-3
    p: int = 1

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class Minibatch:
    """A batch of distinct sample indices, stored in ascending order.

    Ascending order pins the loss reduction order.
    """

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("minibatch must be a non-empty 1-d index array")
        if idx.dtype.kind not in "iu":  # a cast would truncate floats silently
            raise ValueError(f"minibatch indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        # one comparison pass accepts the sampler's sorted, distinct batches
        distinct = (idx[1:] > idx[:-1]).all()
        if not distinct:
            idx = np.sort(idx)
            distinct = (idx[1:] > idx[:-1]).all()
        if idx[0] < 0:
            raise ValueError("minibatch indices must be non-negative")
        if not distinct:
            raise ValueError("minibatch has duplicate indices")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def _of_sorted(cls, indices: np.ndarray) -> "Minibatch":
        """A batch of int64 indices that are ascending and distinct by construction."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "indices", indices)
        return batch

    @property
    def b(self) -> int:
        return int(self.indices.size)


def full_batch(n: int) -> Minibatch:
    if n < 1:
        raise ValueError("minibatch must be a non-empty 1-d index array")
    return Minibatch._of_sorted(np.arange(n, dtype=np.int64))


def sample_minibatch(n: int, b: int, seed: int) -> Minibatch:
    """Draw b distinct indices from [0, n) using the counter stream `seed`.

    Floyd's algorithm: uniform over the size-b subsets. Indices are int64,
    so n is at most 2**63. The compiled kernel draws and sorts the batch in
    one call; without it `prng._python_sample` draws the same batch, and it
    is the reference the kernel is tested against.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not (1 <= b <= n):
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if n > 2**63:
        raise ValueError(f"need n <= 2**63, the int64 index bound, got n={n}")
    sample = prng._python_sample if prng.ZKERNEL is None else prng.ZKERNEL.sample
    return Minibatch._of_sorted(sample(n, b, seed))


@dataclass(frozen=True)
class GradientEstimate:
    """Compressed SPSA result: a seed plus one coefficient per draw.

    The materialized vector is ``mean_k coeffs[k] * z_k`` where draw k
    reads the normal window starting at ``seed.offset + k*d``. With the
    default p=1 this is exactly ``coeffs[0] * z(seed)``. ``loss_proxy`` is
    the mean of the two perturbed losses of the first draw, a free
    O(mu^2)-accurate stand-in for the unperturbed batch loss.
    """

    seed: PerturbationSeed
    coeffs: tuple[float, ...]
    d: int
    queries_used: int
    loss_proxy: float = float("nan")

    @property
    def p(self) -> int:
        return len(self.coeffs)


def _second_lane() -> ThreadPoolExecutor | None:
    """This process's worker for the second lane, or None with one usable CPU.

    Made on first use, and made again in a forked child: the child's copy
    of the parent's pool has no thread behind it.
    """
    global _lane_pool
    pid = os.getpid()
    if _lane_pool[0] != pid:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
        pool = ThreadPoolExecutor(1, thread_name_prefix="zovr-lane") if cpus >= 2 else None
        _lane_pool = (pid, pool)
    return _lane_pool[1]


def _piece_length(d: int, cap: int) -> int:
    """Length of each of the ceil(d / cap) equal pieces a sweep streams d values in.

    Whole cap-long pieces and a short tail would make as many prng.normals
    calls per pass, but hold a whole cap in flight for a d just above a
    multiple of it.
    """
    pieces = -(-d // cap)
    return -(-d // pieces)


def _stream_pieces(theta: np.ndarray, passes, starts, size: int) -> None:
    # for each piece a taken from `starts`, every (seed, alpha) of `passes` in
    # turn does theta[a:a+size] += alpha * z(seed)[a:a+size]; the two lanes
    # draw from one iterator, whose next() runs under the interpreter lock,
    # so each piece is streamed once
    d = theta.shape[0]
    for a in starts:
        b = min(a + size, d)
        piece = theta[a:b]
        for seed, alpha in passes:
            prng.normals(seed.seed, seed.offset + a, b - a, add_to=piece, scale=alpha)


def _worker_lane(started: threading.Event, *lane) -> None:
    started.set()
    _stream_pieces(*lane)


def _stream_two_lanes(theta: np.ndarray, passes, pool: ThreadPoolExecutor) -> None:
    """`stream_passes`, streamed by the caller and `pool`'s thread.

    The lanes share one queue of equal pieces of at most LANE_PIECE, so a
    lane that waits for the interpreter lock or for a busy CPU leaves its
    pieces to the other. The caller starts only once the worker runs;
    otherwise it takes the lock back between its short calls and the
    worker waits. Both lanes have stopped when this returns or raises.
    """
    d = theta.shape[0]
    size = _piece_length(d, LANE_PIECE)
    starts = iter(range(0, d, size))
    started = threading.Event()
    worker = pool.submit(_worker_lane, started, theta, passes, starts, size)
    try:
        started.wait()
        _stream_pieces(theta, passes, starts, size)
    finally:
        wait((worker,))
    worker.result()


def stream_passes(theta: np.ndarray, passes) -> None:
    """theta += alpha * z(seed) for each (seed, alpha) of `passes`, in order.

    One sweep: each piece of theta takes every pass before the next piece
    starts, so a piece stays in cache across the passes and a many-pass
    sweep costs one lane dispatch. Every element still gets each pass's z
    value, multiply and add in list order, so the result equals the passes
    applied one after another, bit for bit. One piece runs inline (a
    small-d pass takes microseconds, an extra call shows), large d in two
    lanes of equal pieces of at most LANE_PIECE, else equal pieces of at
    most STREAM_CHUNK in order.
    """
    d = theta.shape[0]
    if d <= STREAM_CHUNK:  # one piece: no slicing of theta
        for seed, alpha in passes:
            prng.normals(seed.seed, seed.offset, d, add_to=theta, scale=alpha)
        return
    if d >= PARALLEL_MIN_D:
        pool = _second_lane()
        if pool is not None:
            _stream_two_lanes(theta, passes, pool)
            return
    size = _piece_length(d, STREAM_CHUNK)
    _stream_pieces(theta, passes, range(0, d, size), size)


def _stream_add_scaled(theta: np.ndarray, seed: PerturbationSeed, alpha: float) -> None:
    # theta += alpha * z(seed): the sweep of one pass
    stream_passes(theta, ((seed, alpha),))


def _central_difference(theta, seed, mu, evaluate):
    """One two-point probe: returns (coeff, proxy) with theta restored.

    `evaluate` is called at theta+mu*z and theta-mu*z, the first two legs
    of PROBE_WALK. If it raises, the net perturbation applied so far is
    undone before re-raising.
    """
    up, across, back = PROBE_WALK
    _stream_add_scaled(theta, seed, up * mu)
    try:
        f_plus = float(evaluate())
    except BaseException:
        _stream_add_scaled(theta, seed, -up * mu)
        raise
    _stream_add_scaled(theta, seed, across * mu)
    try:
        f_minus = float(evaluate())
    except BaseException:
        _stream_add_scaled(theta, seed, back * mu)
        raise
    _stream_add_scaled(theta, seed, back * mu)
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise NonFiniteLossError(
            f"non-finite loss in SPSA probe: f+={f_plus!r}, f-={f_minus!r}"
        )
    return (f_plus - f_minus) / (2.0 * mu), 0.5 * (f_plus + f_minus)


def probe_passes(passes: list, seed: PerturbationSeed, mu: float, p: int, d: int) -> list:
    """Append the passes of p probe walks to `passes`, and return it.

    Draw k walks the window k*d along `seed`'s stream by mu * PROBE_WALK,
    the legs `_central_difference` takes around its two queries.
    """
    for k in range(p):
        s = seed.shifted(k * d)
        for leg in PROBE_WALK:
            passes.append((s, leg * mu))
    return passes


def apply_probe_sequence(theta: np.ndarray, seed: PerturbationSeed, mu: float,
                         p: int = 1) -> None:
    """Re-apply the probe walks of an estimator call without evaluating.

    The p draws' (+mu, -2mu, +mu) legs run in one sweep; the net effect
    is zero only up to floating-point rounding, and each element takes
    the very operations the live probes applied.
    """
    stream_passes(theta, probe_passes([], seed, mu, p, theta.shape[0]))


def spsa_batch_shared(obj, theta: np.ndarray, batch: Minibatch, seed: PerturbationSeed,
                      cfg: SpsaConfig) -> GradientEstimate:
    """Shared-perturbation minibatch estimate: every sample moves along one z.

    coeff = [mean_i f_i(theta+mu*z) - mean_i f_i(theta-mu*z)] / (2*mu),
    costing 2*b*p loss queries and one scalar per draw. The p draws read
    disjoint windows of seed's stream; draw 0 gives the loss proxy.
    """
    indices = batch.indices
    if indices[-1] >= obj.n:
        raise ValueError(f"batch index {indices[-1]} out of range [0, {obj.n})")
    d = theta.shape[0]
    coeffs = []
    for k in range(cfg.p):
        c, pr = _central_difference(theta, seed.shifted(k * d), cfg.mu,
                                    lambda: obj.batch_loss(theta, indices))
        coeffs.append(c)
        if k == 0:
            proxy = pr
    return GradientEstimate(seed, tuple(coeffs), d, 2 * batch.b * cfg.p, proxy)


def spsa_batch_avg(obj, theta: np.ndarray, batch: Minibatch,
                   seeds: list[PerturbationSeed], cfg: SpsaConfig) -> np.ndarray:
    """Average of per-sample SPSA estimates, materialized densely.

    Sample j's estimate is the one-sample shared estimate along seeds[j].
    Costs 2*b*p queries and allocates one d-vector. Only the reference
    ZO-SVRG path uses this; the in-place optimizers never do.
    """
    if len(seeds) != batch.b:
        raise ValueError(f"need one seed per sample: {len(seeds)} seeds, b={batch.b}")
    acc = np.zeros(theta.shape[0])
    for j, s in enumerate(seeds):
        est = spsa_batch_shared(obj, theta, Minibatch._of_sorted(batch.indices[j:j + 1]),
                                s, cfg)
        axpy_estimate_in_place(acc, est, 1.0 / batch.b)
    return acc


def materialize(est: GradientEstimate) -> np.ndarray:
    """Realize the estimate as a dense vector: mean_k coeffs[k] * z_k."""
    out = np.zeros(est.d)
    axpy_estimate_in_place(out, est, 1.0)
    return out


def estimate_passes(passes: list, est: GradientEstimate, scale: float) -> list:
    """Append the passes of theta += scale * (materialized estimate) to `passes`."""
    inv_p = 1.0 / est.p
    for k, c in enumerate(est.coeffs):
        passes.append((est.seed.shifted(k * est.d), scale * c * inv_p))
    return passes


def axpy_estimate_in_place(theta: np.ndarray, est: GradientEstimate, scale: float) -> None:
    """theta += scale * (materialized estimate), streamed, no d-length temp."""
    if theta.shape[0] != est.d:
        raise ValueError(f"dimension mismatch: theta has {theta.shape[0]}, estimate {est.d}")
    stream_passes(theta, estimate_passes([], est, scale))
