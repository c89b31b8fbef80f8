import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import (
    GradientEstimate,
    Minibatch,
    NonFiniteLossError,
    PerturbationSeed,
    SpsaConfig,
    axpy_estimate_in_place,
    full_batch,
    make_least_squares,
    materialize,
    prng,
    sample_minibatch,
    spsa_batch_avg,
    spsa_batch_shared,
)
from zovr.estimators import _stream_add_scaled, apply_probe_sequence
from zovr.prng import fold, normals

from helpers import CountingObjective, word_below


class ConstantObjective:
    def __init__(self, n, d, value=3.0):
        self.n, self.d, self.value = n, d, value

    def batch_loss(self, theta, indices):
        return self.value


class LinearObjective:
    """f_i(theta) = c_i . theta; central differences are exact on it."""

    def __init__(self, coefs):
        self.coefs = np.asarray(coefs, dtype=np.float64)
        self.n, self.d = self.coefs.shape

    def batch_loss(self, theta, indices):
        return float(np.mean(self.coefs[indices] @ theta))


class ScalarSquare:
    """n=1, d=1, f(theta) = theta^2."""

    n = 1
    d = 1

    def batch_loss(self, theta, indices):
        return float(theta[0] ** 2)


def test_regenerate_z_deterministic_and_seed_sensitive():
    seed = PerturbationSeed(42)
    assert np.array_equal(normals(seed.seed, seed.offset, 5), normals(seed.seed, seed.offset, 5))
    other = normals(43, 0, 10_000)
    assert abs(np.corrcoef(normals(42, 0, 10_000), other)[0, 1]) < 0.1


def test_perturb_restore_cycle():
    seed = PerturbationSeed(7)
    theta = 0.5 + np.abs(normals(fold(1, 1), 0, 2000))  # bounded away from zero
    snapshot = theta.copy()
    apply_probe_sequence(theta, seed, 1e-3)
    assert np.max(np.abs(theta - snapshot) / np.abs(snapshot)) < 1e-12


def test_perturb_identity_case():
    seed = PerturbationSeed(21)
    theta = np.zeros(64)
    _stream_add_scaled(theta, seed, 1.0)
    assert np.array_equal(theta, normals(seed.seed, seed.offset, 64))


def test_apply_probe_sequence_matches_estimator_wobble():
    ls = make_least_squares(8, 6, seed=1)
    cfg = SpsaConfig(mu=1e-3)
    seed = PerturbationSeed(33)
    theta_live = ls.initial_theta() + 1.0
    theta_replayed = theta_live.copy()
    spsa_batch_shared(ls, theta_live, full_batch(ls.n), seed, cfg)
    apply_probe_sequence(theta_replayed, seed, cfg.mu, cfg.p)
    assert np.array_equal(theta_live, theta_replayed)


def test_spsa_sample_constant_function():
    obj = ConstantObjective(4, 6)
    est = spsa_batch_shared(obj, np.ones(6), Minibatch(np.array([2])), PerturbationSeed(5),
                            SpsaConfig())
    assert est.coeffs[0] == 0.0
    assert np.all(materialize(est) == 0.0)
    assert est.queries_used == 2


def test_spsa_sample_linear_exact():
    obj = LinearObjective(normals(fold(2, 9), 0, 4 * 7).reshape(4, 7))
    theta = normals(fold(2, 10), 0, 7)
    seed = PerturbationSeed(11)
    est = spsa_batch_shared(obj, theta, Minibatch(np.array([1])), seed, SpsaConfig(mu=0.37))
    expected = float(obj.coefs[1] @ normals(seed.seed, seed.offset, 7))
    assert est.coeffs[0] == pytest.approx(expected, rel=1e-12)


def test_spsa_sample_quadratic_exact_d1():
    obj = ScalarSquare()
    theta = np.array([1.0])
    est = spsa_batch_shared(obj, theta, Minibatch(np.array([0])), PerturbationSeed(3),
                            SpsaConfig(mu=0.1))
    z = float(normals(3, 0, 1)[0])
    # [ (1+mu z)^2 - (1-mu z)^2 ] / 2mu = 2 z, times the direction z
    assert est.coeffs[0] == pytest.approx(2.0 * z, rel=1e-12)
    assert theta[0] == pytest.approx(1.0, rel=1e-12)


def test_spsa_sample_restores_theta():
    ls = make_least_squares(10, 5, seed=4)
    theta = 1.0 + np.abs(normals(fold(4, 4), 0, 5))
    snapshot = theta.copy()
    spsa_batch_shared(ls, theta, Minibatch(np.array([3])), PerturbationSeed(6), SpsaConfig())
    assert np.max(np.abs(theta - snapshot) / np.abs(snapshot)) < 1e-12


def test_central_difference_exactness_on_quadratics():
    ls = make_least_squares(32, 12, noise_std=0.05, seed=7)
    cfg = SpsaConfig(mu=1e-3)
    worst = 0.0
    for probe in range(100):
        theta = normals(fold(70, probe), 0, ls.d)
        batch = sample_minibatch(ls.n, 8, fold(71, probe))
        seed = PerturbationSeed(fold(72, probe))
        est = spsa_batch_shared(ls, theta, batch, seed, cfg)
        directional = float(ls.batch_grad(theta, batch.indices)
                            @ normals(seed.seed, seed.offset, ls.d))
        worst = max(worst, abs(est.coeffs[0] - directional) / (1.0 + abs(directional)))
    assert worst < 1e-9


def test_batch_shared_singleton_equals_sample():
    # batch=[i] must match the central difference of f_i built from its definition
    ls = make_least_squares(6, 4, seed=8)
    theta = normals(fold(8, 1), 0, 4)
    seed = PerturbationSeed(17)
    mu = SpsaConfig().mu
    batched = spsa_batch_shared(ls, theta, Minibatch(np.array([2])), seed, SpsaConfig())
    z = normals(seed.seed, seed.offset, 4)
    f_plus = (ls.X[2] @ (theta + mu * z) - ls.y[2]) ** 2
    f_minus = (ls.X[2] @ (theta - mu * z) - ls.y[2]) ** 2
    assert batched.coeffs[0] == pytest.approx((f_plus - f_minus) / (2 * mu), rel=1e-12)
    assert batched.queries_used == 2


def test_batch_shared_fullbatch_definition():
    # batch=[n] must match the from-scratch fullbatch estimator: the mean of
    # per-sample losses at the two perturbed points, differenced.
    ls = make_least_squares(9, 5, seed=9)
    theta = normals(fold(9, 1), 0, 5)
    seed = PerturbationSeed(19)
    mu = 1e-3
    est = spsa_batch_shared(ls, theta, full_batch(ls.n), seed, SpsaConfig(mu=mu))
    z = normals(seed.seed, seed.offset, 5)
    f_plus = np.mean([(ls.X[i] @ (theta + mu * z) - ls.y[i]) ** 2 for i in range(ls.n)])
    f_minus = np.mean([(ls.X[i] @ (theta - mu * z) - ls.y[i]) ** 2 for i in range(ls.n)])
    expected = (f_plus - f_minus) / (2 * mu)
    assert est.coeffs[0] == pytest.approx(expected, rel=1e-12)
    assert est.queries_used == 2 * ls.n


def test_batch_avg_singleton_equals_sample():
    ls = make_least_squares(6, 4, seed=10)
    theta = normals(fold(10, 1), 0, 4)
    seed = PerturbationSeed(23)
    dense = spsa_batch_avg(ls, theta, Minibatch(np.array([4])), [seed], SpsaConfig())
    single = materialize(spsa_batch_shared(ls, theta, Minibatch(np.array([4])), seed,
                                           SpsaConfig()))
    assert np.allclose(dense, single, rtol=1e-14, atol=0)


def test_batch_avg_identical_samples_and_seeds():
    obj = ConstantObjective(4, 3)

    class SameLinear(LinearObjective):
        pass

    coefs = np.tile(normals(fold(11, 1), 0, 3), (4, 1))
    obj = SameLinear(coefs)
    theta = np.zeros(3)
    seed = PerturbationSeed(29)
    dense = spsa_batch_avg(obj, theta, full_batch(4), [seed] * 4, SpsaConfig())
    single = materialize(spsa_batch_shared(obj, theta, Minibatch(np.array([0])), seed,
                                           SpsaConfig()))
    assert np.allclose(dense, single, rtol=1e-12, atol=1e-15)


def test_batch_avg_matches_eq4_fullbatch():
    # n=4, b=4 per-sample average equals the fullbatch per-sample estimator
    # computed directly from its definition.
    ls = make_least_squares(4, 3, seed=12)
    theta = normals(fold(12, 1), 0, 3)
    seeds = [PerturbationSeed(fold(12, 100 + i)) for i in range(4)]
    dense = spsa_batch_avg(ls, theta, full_batch(4), seeds, SpsaConfig(mu=1e-4))
    expected = np.zeros(3)
    for i, s in enumerate(seeds):
        z = normals(s.seed, s.offset, 3)
        mu = 1e-4
        f_plus = (ls.X[i] @ (theta + mu * z) - ls.y[i]) ** 2
        f_minus = (ls.X[i] @ (theta - mu * z) - ls.y[i]) ** 2
        diff = (f_plus - f_minus) / (2 * mu)
        expected += diff * z / 4.0
    assert np.allclose(dense, expected, rtol=1e-10, atol=1e-14)


def test_materialize_properties():
    est = GradientEstimate(PerturbationSeed(31), (0.0,), 8, 2)
    assert np.all(materialize(est) == 0.0)
    est = GradientEstimate(PerturbationSeed(31), (1.7,), 8, 2)
    first, second = materialize(est), materialize(est)
    assert np.array_equal(first, second)
    z = normals(31, 0, 8)
    assert np.linalg.norm(first) == pytest.approx(1.7 * np.linalg.norm(z), rel=1e-12)
    cosine = float(first @ z / (np.linalg.norm(first) * np.linalg.norm(z)))
    assert abs(cosine) == pytest.approx(1.0, abs=1e-12)


def test_axpy_matches_materialized_path():
    theta = 1.0 + np.abs(normals(fold(13, 1), 0, 321))
    est = GradientEstimate(PerturbationSeed(37), (-2.3,), 321, 2)
    via_axpy = theta.copy()
    axpy_estimate_in_place(via_axpy, est, 0.77)
    direct = theta + 0.77 * materialize(est)
    assert np.max(np.abs(via_axpy - direct) / np.abs(direct)) < 1e-14


def test_axpy_zero_scale_and_inverse_pair():
    theta = normals(fold(14, 1), 0, 50) + 3.0
    snapshot = theta.copy()
    est = GradientEstimate(PerturbationSeed(41), (1.23,), 50, 2)
    axpy_estimate_in_place(theta, est, 0.0)
    assert np.array_equal(theta, snapshot)
    axpy_estimate_in_place(theta, est, -0.5)
    axpy_estimate_in_place(theta, est, 0.5)
    assert np.max(np.abs(theta - snapshot) / np.abs(snapshot)) < 1e-12


def test_query_accounting_with_p():
    ls = make_least_squares(10, 4, seed=15)
    theta = np.zeros(4)
    batch = sample_minibatch(10, 5, 3)
    for p in (1, 3):
        est = spsa_batch_shared(ls, theta, batch, PerturbationSeed(1), SpsaConfig(p=p))
        assert est.queries_used == 2 * 5 * p
        seeds = [PerturbationSeed(fold(15, i)) for i in range(5)]
        counting = CountingObjective(ls)
        spsa_batch_avg(counting, theta, batch, seeds, SpsaConfig(p=p))
        assert counting.forward_queries == 2 * 5 * p


def test_shifted_addresses_the_window_further_along():
    seed = PerturbationSeed(43, 5)
    assert seed.shifted(0) is seed
    assert seed.shifted(33) == PerturbationSeed(43, 38)


def test_p_average_uses_disjoint_windows():
    ls = make_least_squares(40, 33, seed=16)
    theta = normals(fold(16, 1), 0, 33)
    seed = PerturbationSeed(43)
    est = spsa_batch_shared(ls, theta, full_batch(40), seed, SpsaConfig(p=2))
    z0 = normals(seed.seed, seed.offset, 33)
    z1 = normals(seed.seed, seed.offset + 33, 33)
    expected = 0.5 * (est.coeffs[0] * z0 + est.coeffs[1] * z1)
    assert np.allclose(materialize(est), expected, rtol=1e-12, atol=1e-15)


def test_non_finite_loss_raises_and_restores():
    class ExplodingObjective:
        n, d = 4, 5

        def batch_loss(self, theta, indices):
            return float("inf")

    theta = np.ones(5)
    with pytest.raises(NonFiniteLossError):
        spsa_batch_shared(ExplodingObjective(), theta, full_batch(4),
                          PerturbationSeed(1), SpsaConfig())
    assert np.max(np.abs(theta - 1.0)) < 1e-12


def test_probe_whose_second_query_raises_restores_theta():
    class FailsOnSecondQuery:
        n, d = 4, 5
        calls = 0

        def batch_loss(self, theta, indices):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("second query")
            return 1.0

    obj = FailsOnSecondQuery()
    theta = np.ones(5)
    with pytest.raises(RuntimeError, match="second query"):
        spsa_batch_shared(obj, theta, full_batch(4), PerturbationSeed(1), SpsaConfig())
    assert np.max(np.abs(theta - 1.0)) < 1e-12
    assert obj.calls == 2


def test_minibatch_validation():
    with pytest.raises(ValueError):
        Minibatch(np.array([1, 1, 2]))  # duplicates
    with pytest.raises(ValueError):
        Minibatch(np.array([], dtype=np.int64))
    batch = Minibatch(np.array([5, 1, 3]))
    assert list(batch.indices) == [1, 3, 5]


@pytest.mark.parametrize("indices, stored", [
    (np.array([0, 4, 9]), [0, 4, 9]),
    (np.array([5, 1, 3]), [1, 3, 5]),
    (np.array([7]), [7]),
    ([3, 0, 2], [0, 2, 3]),
    (np.array([9, 2], dtype=np.int32), [2, 9]),
    (np.array([2**40, 6], dtype=np.uint64), [6, 2**40]),
], ids=["sorted", "unsorted", "single", "list", "int32", "uint64"])
def test_minibatch_accepts(indices, stored):
    batch = Minibatch(indices)
    assert batch.indices.dtype == np.int64
    assert batch.indices.tolist() == stored


@pytest.mark.parametrize("indices, message", [
    (np.array([], dtype=np.int64), "non-empty 1-d"),
    (np.array([[0, 1], [2, 3]]), "non-empty 1-d"),
    (np.array([1, 1, 2]), "duplicate"),
    (np.array([3, 1, 3]), "duplicate"),
    (np.array([4, -2, 1]), "non-negative"),
    (np.array([2, -1, 2]), "non-negative"),  # the negative is reported first
    (np.array([0.5, 1.7, 2.9]), "must be integers"),  # not truncated to [0 1 2]
    (np.array([0.0, 3.0]), "must be integers"),
    ([1, 2.5], "must be integers"),
    (np.array([True, False]), "must be integers"),
], ids=["empty", "2-d", "sorted-duplicate", "unsorted-duplicate", "negative",
        "negative-and-duplicate", "float", "whole-float", "float-list", "bool"])
def test_minibatch_rejects(indices, message):
    with pytest.raises(ValueError, match=message):
        Minibatch(indices)


def test_sampler_rejects_empty_population():
    with pytest.raises(ValueError, match="n >= 1"):
        sample_minibatch(0, 1, 3)


@pytest.mark.parametrize("python_path", [False, True])
@pytest.mark.parametrize("n", [2**64 - 1, 2**63 + 2**62])
def test_sampler_refuses_a_population_past_the_int64_bound(n, python_path, monkeypatch):
    # indices are int64, so a larger population is refused up front on every
    # seed and path, not left to numpy's overflow on some seeds
    if python_path:
        monkeypatch.setattr(prng, "ZKERNEL", None)
    for seed in range(5):
        with pytest.raises(ValueError, match=r"n <= 2\*\*63"):
            sample_minibatch(n, 7, seed)
    assert sample_minibatch(2**63, 7, 0).indices.max() < 2**63


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=300),
       data=st.data(),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_sampler_matches_scalar_draws(n, data, seed):
    # draw k of a minibatch is word_below(seed, k, bound)
    b = data.draw(st.integers(min_value=1, max_value=n))
    chosen = set()
    for k, j in enumerate(range(n - b, n)):
        t = word_below(seed, k, j + 1)
        chosen.add(j if t in chosen else t)
    assert sample_minibatch(n, b, seed).indices.tolist() == sorted(chosen)


def test_sampler_without_replacement_uniformity():
    n, b = 10, 3
    seen = {}
    for k in range(6000):
        batch = sample_minibatch(n, b, fold(50, k))
        assert batch.b == b and len(set(batch.indices.tolist())) == b
        key = tuple(batch.indices.tolist())
        seen[key] = seen.get(key, 0) + 1
    # 120 subsets, ~50 hits each; loose sanity band
    assert len(seen) == 120
    counts = np.array(list(seen.values()))
    assert counts.min() > 20 and counts.max() < 100


@settings(max_examples=25, deadline=None)
@given(d=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32),
       scale=st.floats(min_value=1e-4, max_value=10.0))
def test_shared_estimator_parallel_to_z(d, seed, scale):
    coefs = normals(fold(seed, 1), 0, 3 * d).reshape(3, d)
    obj = LinearObjective(coefs)
    theta = normals(fold(seed, 2), 0, d)
    est = spsa_batch_shared(obj, theta, full_batch(3), PerturbationSeed(seed),
                            SpsaConfig(mu=scale))
    v = materialize(est)
    z = normals(seed, 0, d)
    assert np.allclose(v, est.coeffs[0] * z, rtol=1e-12, atol=1e-15)
