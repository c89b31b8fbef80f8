"""The streaming sweep equals the serial loop bit for bit, in one or two lanes.

`stream_passes` applies a list of (seed, alpha) passes piece by piece;
from `PARALLEL_MIN_VALUES` z values per sweep on it shares its pieces
between the caller and one pooled worker thread. These tests install a
pool of their own as the process's lane pool, some with the two-lane gate
lowered to one value, so they exercise two lanes on a one-CPU machine
too, where the sweep stays serial.
"""

import contextlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import estimators, optimizers, prng, trajectory
from zovr.estimators import (
    LANE_PIECE,
    PARALLEL_MIN_VALUES,
    STREAM_CHUNK,
    PerturbationSeed,
    _stream_pieces,
    stream_passes,
)

# The lane-error tests' d, just above six whole LANE_PIECEs, and the length of
# each of the seven equal pieces a two-lane sweep streams it in
_FAIL_D = 6 * LANE_PIECE + 5
_FAIL_PIECE = 14_045


def _serial_stream(theta, seed, alpha):
    """A reference serial loop: whole STREAM_CHUNK windows in index order."""
    d = theta.shape[0]
    for a in range(0, d, STREAM_CHUNK):
        b = min(a + STREAM_CHUNK, d)
        theta[a:b] += alpha * prng.normals(seed.seed, seed.offset + a, b - a)


def _bits(a):
    return a.view(np.uint64)


@pytest.fixture(scope="module")
def lane_pool():
    pool = ThreadPoolExecutor(1)
    yield pool
    pool.shutdown()


@contextlib.contextmanager
def _two_lanes(pool):
    """Install `pool` as the lane pool and let a sweep of any size take two lanes.

    A context manager rather than monkeypatch, which @given tests cannot take.
    """
    saved = estimators._lane_pool, estimators.PARALLEL_MIN_VALUES
    estimators._lane_pool = (os.getpid(), pool)
    estimators.PARALLEL_MIN_VALUES = 1
    try:
        yield
    finally:
        estimators._lane_pool, estimators.PARALLEL_MIN_VALUES = saved


@settings(max_examples=20, deadline=None)
@given(d=st.integers(PARALLEL_MIN_VALUES - 3, 3 * PARALLEL_MIN_VALUES),
       seed=st.integers(0, 2**64 - 1), offset=st.integers(0, 2**40),
       alpha=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
def test_two_lanes_equal_serial_loop(lane_pool, d, seed, offset, alpha):
    ps = PerturbationSeed(seed, offset)
    theta0 = np.linspace(-1.0, 1.0, d)
    expected = theta0.copy()
    _serial_stream(expected, ps, alpha)
    dispatched = theta0.copy()
    stream_passes(dispatched, ((ps, alpha),))
    two = theta0.copy()
    with _two_lanes(lane_pool):
        stream_passes(two, ((ps, alpha),))
    assert np.array_equal(_bits(dispatched), _bits(expected))
    assert np.array_equal(_bits(two), _bits(expected))


_SWEEP_D = st.one_of(
    st.integers(1, STREAM_CHUNK),
    # one or two serial pieces, two lanes' pieces once the passes make
    # PARALLEL_MIN_VALUES values
    st.integers(STREAM_CHUNK + 1, LANE_PIECE),
    st.integers(PARALLEL_MIN_VALUES - 3, 3 * PARALLEL_MIN_VALUES),
    # a ragged tail after whole pieces, on either side of the two-lane gate
    st.builds(lambda k, r: k * STREAM_CHUNK + r, st.integers(1, 23),
              st.integers(1, STREAM_CHUNK - 1)),
    # and after whole two-lane pieces above the gate
    st.builds(lambda k, r: k * LANE_PIECE + r, st.integers(PARALLEL_MIN_VALUES // LANE_PIECE, 12),
              st.integers(1, LANE_PIECE - 1)),
)
# a few small seeds, so that lists repeat a window as a probe walk does
_PASS = st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)),
                  st.integers(0, 2**40),
                  st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=25, deadline=None)
@given(d=_SWEEP_D, raw=st.lists(_PASS, min_size=1, max_size=6))
def test_sweep_equals_its_passes_one_by_one(lane_pool, d, raw):
    passes = [(PerturbationSeed(seed, offset), alpha) for seed, offset, alpha in raw]
    theta0 = np.linspace(-1.0, 1.0, d)
    expected = theta0.copy()
    for seed, alpha in passes:
        _serial_stream(expected, seed, alpha)
    dispatched = theta0.copy()
    stream_passes(dispatched, passes)
    serial = theta0.copy()
    _stream_pieces(serial, passes, range(0, d, STREAM_CHUNK), STREAM_CHUNK)
    two = theta0.copy()  # two lanes above STREAM_CHUNK, inline at or below it
    with _two_lanes(lane_pool):
        stream_passes(two, passes)
    assert np.array_equal(_bits(dispatched), _bits(expected))
    assert np.array_equal(_bits(serial), _bits(expected))
    assert np.array_equal(_bits(two), _bits(expected))


class _CountingPool:
    """A one-thread pool that counts the lane dispatches made to it."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


def _recorded_lengths(monkeypatch):
    # the window length of every prng.normals call, from either lane
    real = prng.normals
    lock = threading.Lock()
    lengths = []

    def recorded(seed, start, count, add_to=None, scale=1.0):
        with lock:
            lengths.append(count)
        return real(seed, start, count, add_to, scale)

    monkeypatch.setattr(prng, "normals", recorded)
    return lengths


def test_two_lanes_ask_for_lane_pieces_and_a_serial_sweep_for_chunks(monkeypatch, lane_pool):
    d = PARALLEL_MIN_VALUES + 11
    passes = [(PerturbationSeed(3, 1), 0.5), (PerturbationSeed(4, 2), -0.25)]
    lengths = _recorded_lengths(monkeypatch)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), lane_pool))
    assert LANE_PIECE > STREAM_CHUNK  # fewer interpreter-lock handoffs per z value
    stream_passes(np.zeros(d), passes)
    # ceil(d / LANE_PIECE) = 5 equal pieces per pass, not four whole ones and 11 values
    assert sorted(lengths) == [13_107] * 2 + [13_110] * 8
    lengths.clear()
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), None))  # one usable CPU
    stream_passes(np.zeros(d), passes)
    # ceil(d / STREAM_CHUNK) = 9 equal pieces per pass, each piece taking both passes
    assert lengths == [7_283] * 18


@pytest.mark.parametrize("d, count, lanes, lengths", [
    (25_818, 4, 2, [12_909] * 8),  # a replayed mlp step: two pieces, one per lane
    (25_818, 1, 1, [6_453] + [6_455] * 3),  # a live mlp probe leg: serial
    (9_000, 8, 2, [4_500] * 16),  # one LANE_PIECE of d still makes two pieces
], ids=["mlp-replay", "mlp-one-pass", "short-many-passes"])
def test_two_lanes_gate_on_the_values_a_sweep_makes(monkeypatch, lane_pool,
                                                    d, count, lanes, lengths):
    passes = [(PerturbationSeed(7 + k % 3, k), 0.5 - k / 4) for k in range(count)]
    assert (d * count >= PARALLEL_MIN_VALUES) == (lanes == 2)
    pool = _CountingPool(lane_pool)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), pool))
    recorded = _recorded_lengths(monkeypatch)
    theta0 = np.linspace(-1.0, 1.0, d)
    swept = theta0.copy()
    stream_passes(swept, passes)
    assert pool.submits == lanes - 1
    assert sorted(recorded) == lengths
    expected = theta0.copy()
    for seed, alpha in passes:
        _serial_stream(expected, seed, alpha)
    assert np.array_equal(_bits(swept), _bits(expected))


def test_a_busy_worker_leaves_every_piece_to_the_caller(monkeypatch):
    # the caller starts at once; a worker still busy elsewhere finds no piece left
    d = PARALLEL_MIN_VALUES + 11
    passes = [(PerturbationSeed(3, 1), 0.5), (PerturbationSeed(4, 2), -0.25)]
    theta = np.linspace(-1.0, 1.0, d)
    expected = theta.copy()
    for seed, alpha in passes:
        _serial_stream(expected, seed, alpha)
    gate = threading.Event()
    pool = ThreadPoolExecutor(1)
    pool.submit(gate.wait, 30)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), pool))
    real = prng.normals
    lock = threading.Lock()
    made = {}  # z values per thread name

    def recorded(seed, start, count, add_to=None, scale=1.0):
        with lock:
            name = threading.current_thread().name
            made[name] = made.get(name, 0) + count
        return real(seed, start, count, add_to, scale)

    monkeypatch.setattr(prng, "normals", recorded)
    sweep = threading.Thread(target=stream_passes, args=(theta, passes), name="caller",
                             daemon=True)
    sweep.start()
    try:
        deadline = time.monotonic() + 10
        while made.get("caller", 0) < 2 * d and time.monotonic() < deadline:
            time.sleep(0.001)
        assert made == {"caller": 2 * d}
        assert sweep.is_alive()  # waiting for the worker's turn
    finally:
        gate.set()
        sweep.join(30)
        pool.shutdown()
    assert not sweep.is_alive()
    assert np.array_equal(_bits(theta), _bits(expected))


def test_dispatch_uses_two_lanes_with_two_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = estimators._second_lane()
    assert (pool is not None) == (cpus >= 2)
    assert estimators._second_lane() is pool  # one pool per process


def _fail_once_in(monkeypatch, failing, broken):
    """Make the `failing` lane's first prng.normals call on `broken`'s stream raise.

    Every call is slow, so the other lane takes some pieces. Returns the
    lanes currently inside prng.normals, and the window position of the
    call that raised once it has.
    """
    caller = threading.current_thread()
    real = prng.normals
    lock = threading.Lock()
    inside = []
    failed_at = []

    def flaky(s, start, count, add_to=None, scale=1.0):
        mine = threading.current_thread() is caller
        with lock:
            inside.append(mine)
        try:
            time.sleep(0.005)
            if (failing == "caller") == mine and s == broken.seed and not failed_at:
                failed_at.append(start - broken.offset)
                raise RuntimeError(f"{failing} lane failed")
            return real(s, start, count, add_to, scale)
        finally:
            with lock:
                inside.remove(mine)

    monkeypatch.setattr(prng, "normals", flaky)
    return inside, failed_at


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_lane_error_raises_after_both_lanes_stop(monkeypatch, lane_pool, failing):
    d = _FAIL_D
    seed = PerturbationSeed(31, 7)
    real = prng.normals
    inside, failed_at = _fail_once_in(monkeypatch, failing, seed)
    theta = np.zeros(d)
    with pytest.raises(RuntimeError, match=f"{failing} lane failed"), _two_lanes(lane_pool):
        stream_passes(theta, ((seed, 0.5),))
    assert inside == []
    # the other lane streamed every remaining piece before the error surfaced
    expected = np.zeros(d)
    monkeypatch.setattr(prng, "normals", real)
    _serial_stream(expected, seed, 0.5)
    a = failed_at[0]
    expected[a:a + _FAIL_PIECE] = 0.0
    assert np.array_equal(theta, expected)
    time.sleep(0.02)
    assert np.array_equal(theta, expected)  # and nothing writes after the raise


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_lane_error_in_a_sweep_raises_after_both_lanes_stop(monkeypatch, lane_pool, failing):
    d = _FAIL_D
    first, broken = PerturbationSeed(31, 7), PerturbationSeed(32, 3)
    passes = [(first, 0.5), (broken, -0.25), (first, 0.125)]
    real = prng.normals
    inside, failed_at = _fail_once_in(monkeypatch, failing, broken)
    theta = np.zeros(d)
    with pytest.raises(RuntimeError, match=f"{failing} lane failed"), _two_lanes(lane_pool):
        stream_passes(theta, passes)
    assert inside == []
    # the other lane swept every remaining piece before the error surfaced;
    # the failed piece kept the pass it took before the raise
    monkeypatch.setattr(prng, "normals", real)
    expected = np.zeros(d)
    for seed, alpha in passes:
        _serial_stream(expected, seed, alpha)
    a = failed_at[0]
    b = min(a + _FAIL_PIECE, d)
    expected[a:b] = 0.5 * real(first.seed, first.offset + a, b - a)
    assert np.array_equal(theta, expected)
    time.sleep(0.02)
    assert np.array_equal(theta, expected)  # and nothing writes after the raise


_WIDE_D = PARALLEL_MIN_VALUES + 11
_WIDE_STEPS = 4


def _wide_log(optimizer):
    # a MeZO or MeZO-SVRG (q=2) log with made-up coefficients, replayed in two lanes
    theta0 = prng.normals(prng.fold(3, 1), 0, _WIDE_D)
    settings = {"mezo": {"eta": "0.01"},
                "mezo-svrg": {"eta1": "0.01", "eta2": "0.001", "q": "2"}}[optimizer]
    log = trajectory.TrajectoryLog.for_run(9, theta0, optimizer,
                                           dict(settings, mu="0.001", p="1"))
    coeffs = iter(prng.normals(prng.fold(3, 2), 0, 2 * _WIDE_STEPS).tolist())
    kinds = []
    for t in range(_WIDE_STEPS):
        anchor = optimizer == "mezo-svrg" and t % 2 == 0
        kind = optimizers.KIND_FULLBATCH if anchor else optimizers.KIND_MINIBATCH
        count = 2 if optimizer == "mezo-svrg" and not anchor else 1
        log.record_step(t, kind, tuple(next(coeffs) for _ in range(count)))
        kinds.append(kind)
    return log, theta0, kinds


@pytest.mark.parametrize("optimizer", ["mezo", "mezo-svrg"])
def test_replay_dispatches_one_sweep_per_step(monkeypatch, lane_pool, optimizer):
    log, theta0, _ = _wide_log(optimizer)
    pool = _CountingPool(lane_pool)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), pool))
    trajectory.replay(log, theta0, _WIDE_STEPS)
    assert pool.submits == _WIDE_STEPS


@pytest.mark.parametrize("optimizer", ["mezo", "mezo-svrg"])
def test_replay_in_two_lanes_generates_every_z_value(monkeypatch, lane_pool, optimizer):
    # the benchmark counts z values at prng.normals; both lanes must go through it
    log, theta0, kinds = _wide_log(optimizer)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), _CountingPool(lane_pool)))
    real = prng.normals
    lock = threading.Lock()
    values = [0]

    def counted(seed, start, count, add_to=None, scale=1.0):
        with lock:
            values[0] += count
        return real(seed, start, count, add_to, scale)

    monkeypatch.setattr(prng, "normals", counted)
    replayed = trajectory.replay(log, theta0, _WIDE_STEPS)
    monkeypatch.setattr(prng, "normals", real)
    # probe walk of three passes, then one axpy, or three at a minibatch step of MeZO-SVRG
    per_step = {optimizers.KIND_FULLBATCH: 4,
                optimizers.KIND_MINIBATCH: 4 if optimizer == "mezo" else 6}
    assert values[0] == _WIDE_D * sum(per_step[kind] for kind in kinds)
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), None))  # the serial sweep
    assert np.array_equal(replayed, trajectory.replay(log, theta0, _WIDE_STEPS))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_kernel_works_in_forked_child():
    d = PARALLEL_MIN_VALUES + 11
    seed = PerturbationSeed(5, 2)
    expected = np.zeros(d)
    _serial_stream(expected, seed, 0.25)
    theta = np.zeros(d)
    stream_passes(theta, ((seed, 0.25),))  # the parent's pool now has a thread
    assert np.array_equal(theta, expected)
    pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        code = 1
        try:
            child = np.zeros(d)
            stream_passes(child, ((seed, 0.25),))
            code = 0 if np.array_equal(child, expected) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in the streaming kernel")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_concurrent_callers_share_the_worker():
    # more calling threads than CPUs, switching often, one worker between them
    d = PARALLEL_MIN_VALUES + 3
    seeds = [PerturbationSeed(40 + i, i) for i in range(4)]
    expected = []
    for s in seeds:
        e = np.zeros(d)
        _serial_stream(e, s, -0.75)
        _serial_stream(e, s, 0.5)
        expected.append(e)
    results = [np.zeros(d) for _ in seeds]

    def work(i):
        stream_passes(results[i], ((seeds[i], -0.75),))
        stream_passes(results[i], ((seeds[i], 0.5),))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)
