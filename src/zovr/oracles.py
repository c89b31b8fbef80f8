"""Brute-force and analytic oracles for the estimator algebra.

These functions verify, on small instances, the exact identities that
make variance reduction work:

* conditional unbiasedness of the shared-perturbation minibatch
  estimator: averaged over *all* size-b minibatches with a common z,
  it equals the fullbatch estimator (an exact reordering identity);
* the control-variate identities: the centered per-sample estimator
  differences u_i sum to the zero vector, and the cross moment
  E[u_i . u_j] over i.i.d. index pairs is exactly zero.

They deliberately share no code with the optimizers; the normal-
equation solver below is the independent optimum reference for the
least-squares experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import prng
from .estimators import (
    Minibatch,
    PerturbationSeed,
    SpsaConfig,
    full_batch,
    materialize,
    spsa_batch_shared,
)


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


def unbiasedness_check(obj, theta: np.ndarray, z_seed: PerturbationSeed, b: int,
                       cfg: SpsaConfig | None = None) -> float:
    """Exhaustive minibatch-unbiasedness deviation, conditional on one z.

    Enumerates every size-b subset of [0, n), computes the shared
    estimator with the same z for each, and returns

        || mean_over_subsets - fullbatch ||_inf / || fullbatch ||_inf.

    Exact up to float roundoff; n must be small enough to enumerate. The
    identity holds for every perturbation scale, so the default probe
    uses a large one: with a small mu the loss differences cancel
    catastrophically and roundoff swamps the identity being checked.
    """
    if obj.n > 12:
        raise ValueError(f"enumeration oracle needs n <= 12, got n={obj.n}")
    cfg = cfg or SpsaConfig(mu=0.5)
    # estimator calls restore theta only to fp tolerance, so every probe
    # runs on a freshly reset buffer to keep the identity exact
    work = np.array(theta, dtype=np.float64, copy=True)
    acc = np.zeros(obj.d)
    count = 0
    for subset in combinations(range(obj.n), b):
        batch = Minibatch(np.asarray(subset, dtype=np.int64))
        work[:] = theta
        acc += materialize(spsa_batch_shared(obj, work, batch, z_seed, cfg))
        count += 1
    acc /= count
    work[:] = theta
    full = materialize(spsa_batch_shared(obj, work, full_batch(obj.n), z_seed, cfg))
    denom = np.max(np.abs(full))
    if denom == 0.0:
        return float(np.max(np.abs(acc)))
    return float(np.max(np.abs(acc - full)) / denom)


@dataclass
class ControlVariateReport:
    sum_inf_norm: float        # ||sum_i u_i||_inf, exactly ~0
    max_u_inf_norm: float      # max_i ||u_i||_inf, for relative comparison
    cross_moments: list[float]  # |mean over M sampled i.i.d. pairs of u_i . u_j|
    population_cross_moment: float  # ||mean_i u_i||^2, the exact closed form


def control_variate_check(obj, theta: np.ndarray, theta_prime: np.ndarray,
                          z_seed: PerturbationSeed,
                          pair_counts: tuple[int, ...] = (1000,),
                          pair_seed: int = 0,
                          cfg: SpsaConfig | None = None) -> ControlVariateReport:
    """Check the control-variate identities with a fixed perturbation z.

    u_i = est_i(theta) - est_i(theta') - (est_full(theta) - est_full(theta'))
    where every estimator shares z and est_i is the one-sample shared
    estimate on sample i. Returns the exact zero-sum norm and,
    for each M in pair_counts, the Monte Carlo cross-moment magnitude
    over M i.i.d. uniformly sampled (with replacement) index pairs;
    those magnitudes shrink like 1/sqrt(M) toward the exact population
    value ||mean_i u_i||^2 = 0. As with the unbiasedness check, the
    identities are perturbation-scale independent and the default probe
    uses a large mu to stay clear of cancellation roundoff.
    """
    if obj.n > 64:
        raise ValueError(f"control-variate oracle needs n <= 64, got n={obj.n}")
    cfg = cfg or SpsaConfig(mu=0.5)
    work_a = np.array(theta, dtype=np.float64, copy=True)
    work_b = np.array(theta_prime, dtype=np.float64, copy=True)
    u = np.empty((obj.n, obj.d))
    for i in range(obj.n):
        work_a[:] = theta
        work_b[:] = theta_prime
        sample = Minibatch(np.array([i]))
        at_theta = materialize(spsa_batch_shared(obj, work_a, sample, z_seed, cfg))
        at_prime = materialize(spsa_batch_shared(obj, work_b, sample, z_seed, cfg))
        u[i] = at_theta - at_prime
    work_a[:] = theta
    work_b[:] = theta_prime
    full_diff = (
        materialize(spsa_batch_shared(obj, work_a, full_batch(obj.n), z_seed, cfg))
        - materialize(spsa_batch_shared(obj, work_b, full_batch(obj.n), z_seed, cfg))
    )
    u -= full_diff
    total = u.sum(axis=0)
    mean_u = total / obj.n
    moments = []
    ctr = 0
    for m in pair_counts:
        acc = 0.0
        for _ in range(m):
            i = prng.randint_below(pair_seed, ctr, obj.n)
            j = prng.randint_below(pair_seed, ctr + 1, obj.n)
            ctr += 2
            acc += float(u[i] @ u[j])
        moments.append(abs(acc / m))
    return ControlVariateReport(
        sum_inf_norm=float(np.max(np.abs(total))),
        max_u_inf_norm=float(np.max(np.abs(u))),
        cross_moments=moments,
        population_cross_moment=float(mean_u @ mean_u),
    )
