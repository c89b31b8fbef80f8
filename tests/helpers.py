"""Test doubles and checks shared by several test modules."""

import hashlib
import os
import tracemalloc

import numpy as np

from zovr import Objective, prng


class CountingObjective:
    """Wraps an objective, counting forward and backward query equivalents.

    One forward query = one sample of a batch_loss call; gradients count
    backward equivalents separately. Used to assert query accounting and
    zero-query replay.
    """

    def __init__(self, inner: Objective):
        self.inner = inner
        self.forward_queries = 0
        self.backward_queries = 0

    @property
    def n(self):
        return self.inner.n

    @property
    def d(self):
        return self.inner.d

    @property
    def f_star(self):
        return self.inner.f_star

    def batch_loss(self, theta, indices):
        self.forward_queries += len(indices)
        return self.inner.batch_loss(theta, indices)

    def batch_grad(self, theta, indices):
        self.forward_queries += len(indices)
        self.backward_queries += len(indices)
        return self.inner.batch_grad(theta, indices)

    def metric(self, theta):
        return self.inner.metric(theta)

    def initial_theta(self):
        return self.inner.initial_theta()


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment plus `extra`, with zovr's sources on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(prng.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def stream_word(seed: int, index: int) -> int:
    """Word `index` of stream `seed` as a python int, one scalar at a time.

    The reference the array path (prng.raw_words) is checked against.
    """
    return prng.mix64(seed + (index + 1) * prng.GOLDEN)


def _unxorshift(y: int, shift: int) -> int:
    """x from y = x ^ (x >> shift): each pass fixes `shift` more top bits."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix64(x: int) -> int:
    """The inverse of prng.mix64: its xorshifts and odd multiplies each undo."""
    x = _unxorshift(x, 31) * pow(prng._MIX2, -1, 2**64) & prng._MASK
    x = _unxorshift(x, 27) * pow(prng._MIX1, -1, 2**64) & prng._MASK
    return _unxorshift(x, 30)


def seed_with_angle(k: int, start: int, j: int) -> int:
    """A seed whose normal start + j takes the angle k * fl(2 pi) * 2**-53.

    For 0 <= k < 2**53. The angle takes the top 53 bits of the value's odd
    word, word 2(start + j) + 1, whose counter is seed + (2(start + j) + 2) *
    GOLDEN; so that word is k << 11 where the counter is unmix64 of it.
    """
    return (unmix64(k << 11) - (2 * (start + j) + 2) * prng.GOLDEN) & prng._MASK


def word_below(seed: int, index: int, bound: int) -> int:
    """The integer in [0, bound) that word `index` of stream `seed` draws."""
    return stream_word(seed, index) % bound


def pair_cross_moments(u, counts, pair_seed: int) -> list[float]:
    """|mean of u_i . u_j| over M i.i.d. uniform index pairs, for each M in counts.

    Pair k takes i and j from words 2k and 2k + 1 of stream `pair_seed`, mod
    n. The pair index runs on from one count to the next, so no two counts
    share a pair. For the centred control-variate differences u of
    oracles.control_variate_check the magnitudes shrink like 1/sqrt(M)
    toward the exact population value, which is zero.
    """
    n = u.shape[0]
    gram = u @ u.T
    moments = []
    start = 0
    for m in counts:
        words = prng.raw_words(pair_seed, start, 2 * m) % np.uint64(n)
        start += 2 * m
        picks = words.astype(np.int64).reshape(m, 2)
        moments.append(abs(float(gram[picks[:, 0], picks[:, 1]].sum()) / m))
    return moments


def traced_peak(fn):
    """Call fn() under tracemalloc; return (the peak bytes it held, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# SHA-256 of normals(fold(0, 1), 0, 2**20) where the digest pins were taken.
# np.log's AVX-512 and AVX2 loops differ by 1-2 ulp on about 0.16% of inputs,
# so every digest of a normals window is a digest of the CPU's SIMD level.
PINNED_NORMALS_FINGERPRINT = "d0e4bb69e52cfc127e95c043e2ea8347466e1fe036043654397a1271c2aa1e23"


def normals_fingerprint() -> str:
    """SHA-256 of the fingerprint window as this process computes it."""
    window = prng.normals(prng.fold(0, 1), 0, 2**20)
    return hashlib.sha256(window.astype("<f8", copy=False).tobytes()).hexdigest()


def assert_pinned(actual, expected):
    """Assert that a digest taken from a normals stream equals its pin.

    On a mismatch the fingerprint is checked first: where it differs, the
    pin cannot hold on this CPU, and the failure says so with both
    fingerprints instead of reading as a change in the code.
    """
    if actual == expected:
        return
    here = normals_fingerprint()
    assert here == PINNED_NORMALS_FINGERPRINT, (
        f"got {actual}, pinned {expected}; the normals fingerprint here is {here}, "
        f"not {PINNED_NORMALS_FINGERPRINT}: digests were pinned on an AVX-512 "
        f"numpy dispatch")
    assert actual == expected, f"got {actual}, pinned {expected}"
