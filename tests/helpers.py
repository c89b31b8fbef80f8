"""Test doubles and checks shared by several test modules."""

import hashlib

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
