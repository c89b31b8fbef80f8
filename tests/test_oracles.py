from dataclasses import dataclass

import numpy as np
import pytest

from zovr import (
    PerturbationSeed,
    SpsaConfig,
    full_batch,
    make_least_squares,
    make_logistic,
    materialize,
    sample_minibatch,
    spsa_batch_shared,
)
from zovr.oracles import (
    control_variate_check,
    ls_normal_equations,
    unbiasedness_check,
)
from zovr.prng import fold, normals

from helpers import pair_cross_moments, word_below


@dataclass
class VarianceProbeReport:
    plain_trace_var: float
    blended_trace_var: float
    plain_se: float
    blended_se: float

    def blended_smaller_by_sigmas(self) -> float:
        """How many combined standard errors separate the two variances."""
        spread = np.hypot(self.plain_se, self.blended_se)
        if spread == 0.0:
            return float("inf")
        return (self.plain_trace_var - self.blended_trace_var) / spread


def estimator_variance_probe(obj, theta: np.ndarray, anchor_theta: np.ndarray,
                             b: int, num_seeds: int, master_seed: int = 0,
                             cfg: SpsaConfig | None = None) -> VarianceProbeReport:
    """Monte Carlo trace-of-covariance of plain vs blended directions.

    Per draw: a fresh minibatch, a fresh perturbation, and a fresh
    fullbatch anchor estimate at ``anchor_theta``. The plain direction
    is the shared minibatch estimator at theta; the blended one is the
    variance-reduced combination est(theta) - est(anchor) + anchor_full.
    """
    if num_seeds < 100:
        raise ValueError("variance probe needs at least 100 seeds")
    cfg = cfg or SpsaConfig()
    work_a = np.array(theta, dtype=np.float64, copy=True)
    work_b = np.array(anchor_theta, dtype=np.float64, copy=True)
    plain = np.empty((num_seeds, obj.d))
    blended = np.empty((num_seeds, obj.d))
    for s in range(num_seeds):
        batch = sample_minibatch(obj.n, b, fold(fold(master_seed, 1), s))
        z = PerturbationSeed(fold(fold(master_seed, 2), s))
        zg = PerturbationSeed(fold(fold(master_seed, 3), s))
        work_a[:] = theta
        work_b[:] = anchor_theta
        est_theta = spsa_batch_shared(obj, work_a, batch, z, cfg)
        plain[s] = materialize(est_theta)
        est_anchor = spsa_batch_shared(obj, work_b, batch, z, cfg)
        work_b[:] = anchor_theta
        est_full = spsa_batch_shared(obj, work_b, full_batch(obj.n), zg, cfg)
        blended[s] = plain[s] - materialize(est_anchor) + materialize(est_full)

    def trace_var(v):
        centered = v - v.mean(axis=0)
        per_draw = np.sum(centered * centered, axis=1)
        return float(per_draw.mean()), float(per_draw.std(ddof=1) / np.sqrt(num_seeds))

    pv, pse = trace_var(plain)
    bv, bse = trace_var(blended)
    return VarianceProbeReport(pv, bv, pse, bse)


def test_unbiasedness_exhaustive_small_ls():
    ls = make_least_squares(6, 5, noise_std=0.05, seed=1)
    worst = 0.0
    for probe in range(10):
        theta = normals(fold(1, probe), 0, 5)
        for b in (1, 2, 3):
            dev = unbiasedness_check(ls, theta, PerturbationSeed(fold(2, probe)), b)
            worst = max(worst, dev)
    assert worst < 1e-12


def test_unbiasedness_b_equals_n():
    ls = make_least_squares(5, 3, seed=2)
    theta = normals(fold(2, 1), 0, 3)
    assert unbiasedness_check(ls, theta, PerturbationSeed(3), b=5) == 0.0


def test_unbiasedness_singletons():
    ls = make_least_squares(7, 4, seed=3)
    theta = normals(fold(3, 1), 0, 4)
    assert unbiasedness_check(ls, theta, PerturbationSeed(5), b=1) < 1e-12


def test_unbiasedness_rejects_large_n():
    ls = make_least_squares(20, 4, seed=4)
    with pytest.raises(ValueError):
        unbiasedness_check(ls, np.zeros(4), PerturbationSeed(1), 2)


def test_control_variates_sum_to_zero():
    for obj in (make_least_squares(32, 6, seed=5), make_logistic(32, 6, seed=6)):
        theta = normals(fold(5, 1), 0, 6)
        theta_prime = normals(fold(5, 2), 0, 6)
        rep = control_variate_check(obj, theta, theta_prime, PerturbationSeed(7))
        assert rep.sum_inf_norm < 1e-10 * rep.max_u_inf_norm
        assert rep.population_cross_moment < 1e-20


def test_control_variates_vanish_at_equal_points():
    ls = make_least_squares(16, 4, seed=7)
    theta = normals(fold(7, 1), 0, 4)
    rep = control_variate_check(ls, theta, theta.copy(), PerturbationSeed(9))
    assert rep.max_u_inf_norm == 0.0


def test_cross_moment_shrinks_with_pair_count():
    ls = make_least_squares(32, 5, seed=8)
    theta = normals(fold(8, 1), 0, 5)
    theta_prime = theta + 0.3
    small, large = [], []
    for repeat in range(10):
        rep = control_variate_check(ls, theta, theta_prime, PerturbationSeed(fold(8, repeat)))
        moments = pair_cross_moments(rep.u, (1000, 100_000), pair_seed=repeat)
        small.append(moments[0])
        large.append(moments[1])
    assert np.mean(small) >= 3.0 * np.mean(large)


def test_pair_cross_moments_draw_the_scalar_loops_pairs():
    # the pair index runs on across the counts: count 11 starts at pair 5
    u = normals(fold(8, 2), 0, 7 * 3).reshape(7, 3)
    expected = []
    k = 0
    for m in (5, 11):
        acc = 0.0
        for _ in range(m):
            i = word_below(4, 2 * k, 7)
            j = word_below(4, 2 * k + 1, 7)
            k += 1
            acc += float(u[i] @ u[j])
        expected.append(abs(acc / m))
    np.testing.assert_allclose(pair_cross_moments(u, (5, 11), pair_seed=4), expected,
                               rtol=1e-12)


def test_normal_equations_examples():
    noiseless = make_least_squares(12, 4, noise_std=0.0, seed=9)
    assert noiseless.f_star < 1e-16

    class Tiny:
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])

    w, fstar = ls_normal_equations(Tiny())
    assert w[0] == pytest.approx(2.0) and fstar == pytest.approx(1.0)

    ls = make_least_squares(64, 8, seed=10)
    grad = ls.batch_grad(ls.w_ls, np.arange(ls.n))
    assert np.max(np.abs(grad)) < 1e-8


def test_variance_probe_blended_beats_plain():
    # fresh anchor semantics: the anchor snapshot is taken at theta itself,
    # exactly as a MeZO-SVRG anchor refresh does
    ls = make_least_squares(256, 12, seed=11)
    theta = ls.w_ls + 0.05 * normals(fold(11, 1), 0, 12)
    rep = estimator_variance_probe(ls, theta, theta.copy(), b=8, num_seeds=1000,
                                   master_seed=4)
    assert rep.blended_trace_var < rep.plain_trace_var
    assert rep.blended_smaller_by_sigmas() > 3.0


def test_variance_probe_cancellation_at_anchor():
    ls = make_least_squares(64, 6, seed=12)
    theta = ls.w_ls + 0.1
    rep = estimator_variance_probe(ls, theta, theta.copy(), b=8, num_seeds=300,
                                   master_seed=5)
    # at theta == anchor the minibatch terms cancel exactly; only the
    # fullbatch anchor estimate's variance remains
    assert rep.blended_trace_var <= rep.plain_trace_var


def test_variance_probe_rejects_tiny_sample():
    ls = make_least_squares(16, 3, seed=13)
    with pytest.raises(ValueError):
        estimator_variance_probe(ls, np.zeros(3), np.zeros(3), 4, num_seeds=10)
