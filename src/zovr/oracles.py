"""Brute-force and analytic oracles for the estimator algebra.

These functions verify, on small instances, the exact identities that
make variance reduction work:

* conditional unbiasedness of the shared-perturbation minibatch
  estimator: averaged over *all* size-b minibatches with a common z,
  it equals the fullbatch estimator (an exact reordering identity);
* the control-variate identities: the centered per-sample estimator
  differences u_i sum to the zero vector, and the cross moment
  E[u_i . u_j] over i.i.d. index pairs is exactly zero. Its closed form
  over the whole population, ||mean_i u_i||^2, is computed here; the
  report also returns the u_i, from which the test suite draws a Monte
  Carlo estimate over sampled pairs.

They deliberately share no code with the optimizers; the normal-
equation solver below is the independent optimum reference for the
least-squares experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .estimators import (
    Minibatch,
    PerturbationSeed,
    SpsaConfig,
    full_batch,
    materialize,
    spsa_batch_shared,
)

# The identities hold for every perturbation scale, so the probe uses a
# large one: with a small mu the loss differences cancel catastrophically
# and roundoff swamps the identity being checked.
PROBE = SpsaConfig(mu=0.5)


def ls_normal_equations(problem) -> tuple[np.ndarray, float]:
    """Solve (X^T X) w = X^T y directly; returns (w_ls, optimal mean loss).

    Works on anything exposing .X and .y. Raises numpy's LinAlgError on
    a singular system.
    """
    X, y = problem.X, problem.y
    gram = X.T @ X
    w = np.linalg.solve(gram, X.T @ y)
    r = X @ w - y
    return w, float(np.mean(r * r))


def unbiasedness_check(obj, theta: np.ndarray, z_seed: PerturbationSeed, b: int) -> float:
    """Exhaustive minibatch-unbiasedness deviation, conditional on one z.

    Enumerates every size-b subset of [0, n), computes the shared
    estimator with the same z for each, and returns

        || mean_over_subsets - fullbatch ||_inf / || fullbatch ||_inf.

    Exact up to float roundoff; n must be small enough to enumerate.
    """
    if obj.n > 12:
        raise ValueError(f"enumeration oracle needs n <= 12, got n={obj.n}")
    # estimator calls restore theta only to fp tolerance, so every probe
    # runs on a freshly reset buffer to keep the identity exact
    work = np.array(theta, dtype=np.float64, copy=True)
    acc = np.zeros(obj.d)
    count = 0
    for subset in combinations(range(obj.n), b):
        batch = Minibatch(np.asarray(subset, dtype=np.int64))
        work[:] = theta
        acc += materialize(spsa_batch_shared(obj, work, batch, z_seed, PROBE))
        count += 1
    acc /= count
    work[:] = theta
    full = materialize(spsa_batch_shared(obj, work, full_batch(obj.n), z_seed, PROBE))
    denom = np.max(np.abs(full))
    if denom == 0.0:
        return float(np.max(np.abs(acc)))
    return float(np.max(np.abs(acc - full)) / denom)


@dataclass
class ControlVariateReport:
    sum_inf_norm: float        # ||sum_i u_i||_inf, exactly ~0
    max_u_inf_norm: float      # max_i ||u_i||_inf, for relative comparison
    population_cross_moment: float  # ||mean_i u_i||^2, the exact closed form
    u: np.ndarray              # (n, d): row i is u_i


def control_variate_check(obj, theta: np.ndarray, theta_prime: np.ndarray,
                          z_seed: PerturbationSeed) -> ControlVariateReport:
    """Check the control-variate identities with a fixed perturbation z.

    u_i = est_i(theta) - est_i(theta') - (est_full(theta) - est_full(theta'))
    where every estimator shares z and est_i is the one-sample shared
    estimate on sample i. Returns the zero-sum norm, the exact population
    cross moment E[u_i . u_j] = ||mean_i u_i||^2 over i.i.d. uniform
    index pairs, and the u_i themselves.
    """
    if obj.n > 64:
        raise ValueError(f"control-variate oracle needs n <= 64, got n={obj.n}")
    work_a = np.array(theta, dtype=np.float64, copy=True)
    work_b = np.array(theta_prime, dtype=np.float64, copy=True)
    u = np.empty((obj.n, obj.d))
    for i in range(obj.n):
        work_a[:] = theta
        work_b[:] = theta_prime
        sample = Minibatch(np.array([i]))
        at_theta = materialize(spsa_batch_shared(obj, work_a, sample, z_seed, PROBE))
        at_prime = materialize(spsa_batch_shared(obj, work_b, sample, z_seed, PROBE))
        u[i] = at_theta - at_prime
    work_a[:] = theta
    work_b[:] = theta_prime
    full_diff = (
        materialize(spsa_batch_shared(obj, work_a, full_batch(obj.n), z_seed, PROBE))
        - materialize(spsa_batch_shared(obj, work_b, full_batch(obj.n), z_seed, PROBE))
    )
    u -= full_diff
    total = u.sum(axis=0)
    mean_u = total / obj.n
    return ControlVariateReport(
        sum_inf_norm=float(np.max(np.abs(total))),
        max_u_inf_norm=float(np.max(np.abs(u))),
        population_cross_moment=float(mean_u @ mean_u),
        u=u,
    )
