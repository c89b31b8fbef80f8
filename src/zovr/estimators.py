"""SPSA gradient estimators and the in-place perturbation primitive.

A two-point SPSA estimate along a random direction z is the scalar

    coeff = [f(theta + mu*z) - f(theta - mu*z)] / (2*mu)

and the estimated gradient is ``coeff * z``. Because z is regenerated
from a seed on demand, an estimate is stored as (seed, coeff): constant
size, independent of the parameter dimension. Two estimator families
are provided:

* shared-perturbation (``spsa_batch_shared``): the whole batch is
  perturbed along one z, costing 2*b loss queries and one stored scalar;
* per-sample averaged (``spsa_batch_avg``): one independent z per
  sample, costing 2*b queries and a dense d-vector. This is the
  memory-naive path kept for the reference ZO-SVRG optimizer and for
  the correctness oracles.

All parameter mutation is streamed in fixed-size chunks so no second
d-length buffer is allocated. From `PARALLEL_MIN_D` parameters on, and
with two usable CPUs, each streaming pass runs in two lanes: the caller
and one pooled worker thread share its pieces. Every element still gets
the same z value and the same multiply and add, so results do not depend
on the lane count or on which lane streamed which piece.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import prng

# Streaming granularity for in-place perturbation/update kernels. Chunk
# temporaries are the constant-memory overhead documented by the
# harness accounting model.
STREAM_CHUNK = 16384

# Smallest d streamed in two lanes, from a d sweep of _stream_add_scaled
# on a 2-CPU machine: here two lanes won, at half this d they won and lost
# by turns. The lanes take half-size pieces, so the chunk temporaries in
# flight still add up to one STREAM_CHUNK.
PARALLEL_MIN_D = 4 * STREAM_CHUNK
_LANE_CHUNK = STREAM_CHUNK // 2

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
        return PerturbationSeed(self.seed, self.offset + count)


@dataclass(frozen=True)
class SpsaConfig:
    """Perturbation scale mu and number of averaged draws p (default 1)."""

    mu: float = 1e-3
    p: int = 1

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class Minibatch:
    """A batch of distinct sample indices, stored in ascending order.

    Ascending order pins the loss reduction order.
    """

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("minibatch must be a non-empty 1-d index array")
        if np.any(idx < 0):
            raise ValueError("minibatch indices must be non-negative")
        steps = np.diff(idx)
        if np.any(steps < 0):
            idx = np.sort(idx)
            steps = np.diff(idx)
        if np.any(steps == 0):
            raise ValueError("minibatch has duplicate indices")
        object.__setattr__(self, "indices", idx)

    @property
    def b(self) -> int:
        return int(self.indices.size)


def full_batch(n: int) -> Minibatch:
    return Minibatch(np.arange(n, dtype=np.int64))


def sample_minibatch(n: int, b: int, seed: int) -> Minibatch:
    """Draw b distinct indices from [0, n) using the counter stream `seed`.

    Floyd's algorithm: uniform over the size-b subsets.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not (1 <= b <= n):
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    # word k of the stream decides draw k, as prng.randint_below(seed, k, bound)
    words = prng.raw_words(seed, 0, b)
    # Floyd: draw k picks from [0, n-b+k]
    draws = words % np.arange(n - b + 1, n + 1, dtype=np.uint64)
    chosen: set[int] = set()
    for j, t in enumerate(draws.tolist(), n - b):
        chosen.add(j if t in chosen else t)
    return Minibatch(np.fromiter(sorted(chosen), dtype=np.int64, count=b))


@dataclass(frozen=True)
class GradientEstimate:
    """Compressed SPSA result: a seed plus one coefficient per draw.

    The materialized vector is ``mean_k coeffs[k] * z_k`` where draw k
    reads the normal window starting at ``seed.offset + k*d``. With the
    default p=1 this is exactly ``coeff * z(seed)``. ``loss_proxy`` is
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

    @property
    def coeff(self) -> float:
        if len(self.coeffs) != 1:
            raise ValueError("coeff is only defined for single-draw estimates")
        return self.coeffs[0]


def regenerate_z(seed: PerturbationSeed, d: int) -> np.ndarray:
    """The d standard-normal draws addressed by `seed`; pure and repeatable."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return prng.normals(seed.seed, seed.offset, d)


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


def _stream_pieces(theta: np.ndarray, seed: PerturbationSeed, alpha: float,
                   starts) -> None:
    # theta[a:a+_LANE_CHUNK] += alpha * z(seed)[a:a+_LANE_CHUNK] for each a
    # taken from `starts`; both lanes draw from one iterator, whose next()
    # runs under the interpreter lock, so each piece is streamed once
    d = theta.shape[0]
    for a in starts:
        b = min(a + _LANE_CHUNK, d)
        z = prng.normals(seed.seed, seed.offset + a, b - a)
        z *= alpha
        theta[a:b] += z
        del z


def _worker_lane(started: threading.Event, *lane) -> None:
    started.set()
    _stream_pieces(*lane)


def _stream_two_lanes(theta: np.ndarray, seed: PerturbationSeed, alpha: float,
                      pool: ThreadPoolExecutor) -> None:
    """theta += alpha * z(seed), streamed by the caller and `pool`'s thread.

    The lanes share one queue of _LANE_CHUNK pieces, so a lane that waits
    for the interpreter lock or for a busy CPU leaves its pieces to the
    other. The caller starts only once the worker runs; otherwise it takes
    the lock back between its short ufuncs and the worker waits. Both
    lanes have stopped when this returns or raises.
    """
    starts = iter(range(0, theta.shape[0], _LANE_CHUNK))
    started = threading.Event()
    worker = pool.submit(_worker_lane, started, theta, seed, alpha, starts)
    try:
        started.wait()
        _stream_pieces(theta, seed, alpha, starts)
    finally:
        wait((worker,))
    worker.result()


def _stream_add_scaled(theta: np.ndarray, seed: PerturbationSeed, alpha: float) -> None:
    # theta += alpha * z(seed); large d in two lanes, else in STREAM_CHUNK
    # pieces in ascending index order. The serial loop stays inline: at
    # small d a pass takes microseconds, and an extra call per pass shows.
    d = theta.shape[0]
    if d >= PARALLEL_MIN_D:
        pool = _second_lane()
        if pool is not None:
            _stream_two_lanes(theta, seed, alpha, pool)
            return
    for a in range(0, d, STREAM_CHUNK):
        b = min(a + STREAM_CHUNK, d)
        z = prng.normals(seed.seed, seed.offset + a, b - a)
        z *= alpha
        theta[a:b] += z
        del z  # free this chunk before the next one is generated


def perturb_in_place(theta: np.ndarray, seed: PerturbationSeed, s: int, mu: float) -> None:
    """Apply theta += s*mu*z(seed) entrywise without a second d-length buffer.

    The scaling factor is restricted to s in {1, -2}: +1 steps forward,
    -2 swings to the mirror point, and a final +1 restores the original
    state to floating-point accuracy.
    """
    if s not in (1, -2):
        raise ValueError(f"scaling factor must be 1 or -2, got {s}")
    if not (mu > 0):
        raise ValueError(f"mu must be positive, got {mu}")
    _stream_add_scaled(theta, seed, float(s) * mu)


def _central_difference(theta, seed, mu, evaluate):
    """One two-point probe: returns (coeff, proxy) with theta restored.

    `evaluate` is called at theta+mu*z and theta-mu*z. If it raises, the
    net perturbation applied so far is undone before re-raising.
    """
    _stream_add_scaled(theta, seed, mu)
    try:
        f_plus = float(evaluate())
    except BaseException:
        _stream_add_scaled(theta, seed, -mu)
        raise
    _stream_add_scaled(theta, seed, -2.0 * mu)
    try:
        f_minus = float(evaluate())
    except BaseException:
        _stream_add_scaled(theta, seed, mu)
        raise
    _stream_add_scaled(theta, seed, mu)
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NonFiniteLossError(
            f"non-finite loss in SPSA probe: f+={f_plus!r}, f-={f_minus!r}"
        )
    return (f_plus - f_minus) / (2.0 * mu), 0.5 * (f_plus + f_minus)


def apply_probe_sequence(theta: np.ndarray, seed: PerturbationSeed, mu: float,
                         p: int = 1) -> None:
    """Re-apply the probe wobble of an estimator call without evaluating.

    An estimator perturbs theta by (+mu, -2mu, +mu) per draw; the net
    effect is zero only up to floating-point rounding. Trajectory replay
    calls this to walk theta through the identical arithmetic sequence
    the live run executed, which is what makes replay bit-exact.
    """
    d = theta.shape[0]
    for k in range(p):
        sub = seed.shifted(k * d)
        _stream_add_scaled(theta, sub, mu)
        _stream_add_scaled(theta, sub, -2.0 * mu)
        _stream_add_scaled(theta, sub, mu)


def spsa_sample(obj, theta: np.ndarray, index: int, seed: PerturbationSeed,
                cfg: SpsaConfig) -> GradientEstimate:
    """Per-sample SPSA estimate of grad f_index at theta (2*p queries)."""
    if not (0 <= index < obj.n):
        raise ValueError(f"sample index {index} out of range [0, {obj.n})")
    d = theta.shape[0]
    coeffs = []
    proxy = float("nan")
    for k in range(cfg.p):
        c, pr = _central_difference(
            theta, seed.shifted(k * d), cfg.mu, lambda: obj.loss(theta, index)
        )
        coeffs.append(c)
        if k == 0:
            proxy = pr
    return GradientEstimate(seed, tuple(coeffs), d, 2 * cfg.p, proxy)


def spsa_batch_shared(obj, theta: np.ndarray, batch: Minibatch, seed: PerturbationSeed,
                      cfg: SpsaConfig) -> GradientEstimate:
    """Shared-perturbation minibatch estimate: every sample moves along one z.

    coeff = [mean_i f_i(theta+mu*z) - mean_i f_i(theta-mu*z)] / (2*mu),
    costing 2*b*p loss queries and one scalar per draw.
    """
    if batch.indices[-1] >= obj.n:
        raise ValueError(f"batch index {batch.indices[-1]} out of range [0, {obj.n})")
    d = theta.shape[0]
    coeffs = []
    proxy = float("nan")
    for k in range(cfg.p):
        c, pr = _central_difference(
            theta, seed.shifted(k * d), cfg.mu,
            lambda: obj.batch_loss(theta, batch.indices),
        )
        coeffs.append(c)
        if k == 0:
            proxy = pr
    return GradientEstimate(seed, tuple(coeffs), d, 2 * batch.b * cfg.p, proxy)


def spsa_batch_avg(obj, theta: np.ndarray, batch: Minibatch,
                   seeds: list[PerturbationSeed], cfg: SpsaConfig,
                   meter=None) -> np.ndarray:
    """Average of per-sample SPSA estimates, materialized densely.

    Costs 2*b*p queries and allocates one d-vector. Only the reference
    ZO-SVRG path and the oracles use this; the in-place optimizers never
    do.
    """
    if len(seeds) != batch.b:
        raise ValueError(f"need one seed per sample: {len(seeds)} seeds, b={batch.b}")
    d = theta.shape[0]
    if meter is not None:
        meter.add(d)
    acc = np.zeros(d)
    for i, s in zip(batch.indices, seeds):
        est = spsa_sample(obj, theta, int(i), s, cfg)
        axpy_estimate_in_place(acc, est, 1.0 / batch.b)
    return acc


def materialize(est: GradientEstimate) -> np.ndarray:
    """Realize the estimate as a dense vector: mean_k coeffs[k] * z_k."""
    out = np.zeros(est.d)
    axpy_estimate_in_place(out, est, 1.0)
    return out


def axpy_estimate_in_place(theta: np.ndarray, est: GradientEstimate, scale: float) -> None:
    """theta += scale * (materialized estimate), streamed, no d-length temp."""
    if theta.shape[0] != est.d:
        raise ValueError(f"dimension mismatch: theta has {theta.shape[0]}, estimate {est.d}")
    inv_p = 1.0 / est.p
    for k, c in enumerate(est.coeffs):
        _stream_add_scaled(theta, est.seed.shifted(k * est.d), scale * c * inv_p)
