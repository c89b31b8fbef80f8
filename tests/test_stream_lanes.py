"""The two-lane streaming kernel equals the serial loop bit for bit.

From `PARALLEL_MIN_D` on, `_stream_add_scaled` shares its pieces between
the caller and one pooled worker thread. These tests call the two-lane
kernel directly on a pool of their own as well, so they exercise it on a
one-CPU machine too, where the dispatcher stays serial.
"""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import estimators, prng
from zovr.estimators import (
    PARALLEL_MIN_D,
    STREAM_CHUNK,
    PerturbationSeed,
    _stream_add_scaled,
    _stream_two_lanes,
)

_PIECE = STREAM_CHUNK // 2


def _serial_stream(theta, seed, alpha):
    """The serial kernel: one STREAM_CHUNK at a time, in index order."""
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


@settings(max_examples=20, deadline=None)
@given(d=st.integers(PARALLEL_MIN_D - 3, 3 * PARALLEL_MIN_D),
       seed=st.integers(0, 2**64 - 1), offset=st.integers(0, 2**40),
       alpha=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
def test_two_lanes_equal_serial_loop(lane_pool, d, seed, offset, alpha):
    ps = PerturbationSeed(seed, offset)
    theta0 = np.linspace(-1.0, 1.0, d)
    expected = theta0.copy()
    _serial_stream(expected, ps, alpha)
    dispatched = theta0.copy()
    _stream_add_scaled(dispatched, ps, alpha)
    two = theta0.copy()
    _stream_two_lanes(two, ps, alpha, lane_pool)
    assert np.array_equal(_bits(dispatched), _bits(expected))
    assert np.array_equal(_bits(two), _bits(expected))


def test_dispatch_uses_two_lanes_with_two_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = estimators._second_lane()
    assert (pool is not None) == (cpus >= 2)
    assert estimators._second_lane() is pool  # one pool per process


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_lane_error_raises_after_both_lanes_stop(monkeypatch, lane_pool, failing):
    d = 6 * _PIECE + 5
    seed = PerturbationSeed(31, 7)
    caller = threading.current_thread()
    real = prng.normals
    lock = threading.Lock()
    inside = []     # lanes currently inside prng.normals
    failed_at = []  # stream position of the piece that raised

    def flaky(s, start, count):
        mine = threading.current_thread() is caller
        with lock:
            inside.append(mine)
        try:
            time.sleep(0.005)  # each piece is slow, so the other lane takes some
            if (failing == "caller") == mine and not failed_at:
                failed_at.append(start - seed.offset)
                raise RuntimeError(f"{failing} lane failed")
            return real(s, start, count)
        finally:
            with lock:
                inside.remove(mine)

    monkeypatch.setattr(prng, "normals", flaky)
    theta = np.zeros(d)
    with pytest.raises(RuntimeError, match=f"{failing} lane failed"):
        _stream_two_lanes(theta, seed, 0.5, lane_pool)
    assert inside == []
    # the other lane streamed every remaining piece before the error surfaced
    expected = np.zeros(d)
    monkeypatch.setattr(prng, "normals", real)
    _serial_stream(expected, seed, 0.5)
    a = failed_at[0]
    expected[a:a + _PIECE] = 0.0
    assert np.array_equal(theta, expected)
    time.sleep(0.02)
    assert np.array_equal(theta, expected)  # and nothing writes after the raise


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_kernel_works_in_forked_child():
    d = PARALLEL_MIN_D + 11
    seed = PerturbationSeed(5, 2)
    expected = np.zeros(d)
    _serial_stream(expected, seed, 0.25)
    theta = np.zeros(d)
    _stream_add_scaled(theta, seed, 0.25)  # the parent's pool now has a thread
    assert np.array_equal(theta, expected)
    pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        code = 1
        try:
            child = np.zeros(d)
            _stream_add_scaled(child, seed, 0.25)
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
    d = PARALLEL_MIN_D + 3
    seeds = [PerturbationSeed(40 + i, i) for i in range(4)]
    expected = []
    for s in seeds:
        e = np.zeros(d)
        _serial_stream(e, s, -0.75)
        _serial_stream(e, s, 0.5)
        expected.append(e)
    results = [np.zeros(d) for _ in seeds]

    def work(i):
        _stream_add_scaled(results[i], seeds[i], -0.75)
        _stream_add_scaled(results[i], seeds[i], 0.5)

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
