import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import (
    Budget,
    FoSgdConfig,
    LrScheduleConfig,
    MezoConfig,
    MezoSvrgConfig,
    PerturbationSeed,
    SpsaConfig,
    StepSeeds,
    SvrgAnchor,
    ZoSvrgConfig,
    fo_sgd_step,
    full_batch,
    make_least_squares,
    materialize,
    mezo_step,
    mezo_svrg_step,
    run,
    sample_minibatch,
    spsa_batch_avg,
    zo_svrg_step,
)
from zovr import memory, optimizers
from zovr.optimizers import KIND_FULLBATCH, KIND_MINIBATCH, OPTIMIZERS, _LossWindows
from zovr.prng import fold, normals

from helpers import CountingObjective


class ScalarSquare:
    n, d = 1, 1

    def batch_loss(self, theta, indices):
        return float(theta[0] ** 2)


def test_mezo_step_zero_eta_keeps_theta():
    ls = make_least_squares(16, 4, seed=1)
    theta = normals(fold(1, 1), 0, 4)
    snapshot = theta.copy()
    report, _ = mezo_step(ls, theta, None, full_batch(16), StepSeeds(2), MezoConfig(), 0,
                          0.0, None)
    assert np.max(np.abs(theta - snapshot)) < 1e-12
    assert report.queries == 32


def test_mezo_step_quadratic_hand_value():
    # d=1, f = theta^2 at theta=1: estimate is exactly 2 z^2, so one step with
    # eta=0.1 lands on 1 - 0.2 z^2
    obj = ScalarSquare()
    theta = np.array([1.0])
    seed = StepSeeds(3).perturb_seed(0, KIND_MINIBATCH)
    z = float(normals(seed.seed, seed.offset, 1)[0])
    mezo_step(obj, theta, None, full_batch(1), StepSeeds(3),
              MezoConfig(spsa=SpsaConfig(mu=1e-3)), 0, 0.1, None)
    assert theta[0] == pytest.approx(1.0 - 0.1 * 2.0 * z * z, rel=1e-9)


def test_mezo_paper_ls_config_stays_finite():
    ls = make_least_squares(1000, 100, noise_std=0.01, seed=0)
    config = MezoConfig(eta=1e-3, b=32, spsa=SpsaConfig(mu=1e-3))
    result = run(ls, ls.initial_theta(), "mezo", config, Budget(max_steps=1000), 7)
    assert result.status == "completed"
    assert len(result.records) == 1000
    assert all(np.isfinite(r.train_loss) for r in result.records)


def _zo_svrg_minibatch_seeds(seeds: StepSeeds, t: int, b: int) -> list[PerturbationSeed]:
    # the per-sample seeds zo_svrg_step folds from minibatch step t's perturbation seed
    step_seed = seeds.perturb_seed(t, KIND_MINIBATCH).seed
    return [PerturbationSeed(fold(step_seed, i)) for i in range(b)]


def test_zo_svrg_blend_at_anchor_point_is_anchor_estimate():
    ls = make_least_squares(8, 5, seed=2)
    theta = normals(fold(2, 1), 0, 5)
    step_seeds = StepSeeds(2)
    seeds = _zo_svrg_minibatch_seeds(step_seeds, 1, 8)
    cfg = ZoSvrgConfig(q=2, spsa=SpsaConfig(mu=1e-3))
    work = theta.copy()
    dense = spsa_batch_avg(ls, work, full_batch(8), seeds, cfg.spsa)
    anchor = SvrgAnchor(theta.copy(), dense)
    # with theta == theta_bar and shared per-sample seeds, the two minibatch
    # terms cancel and the update direction is exactly the anchored estimate
    work2 = theta.copy()
    eta = 0.05
    zo_svrg_step(ls, work2, anchor, full_batch(8), step_seeds, cfg, 1, eta, None)
    moved = (theta - work2) / eta
    assert np.allclose(moved, dense, rtol=1e-9, atol=1e-12)


def test_zo_svrg_full_cancellation_with_identical_seeds():
    ls = make_least_squares(6, 4, seed=3)
    theta_bar = normals(fold(3, 1), 0, 4)
    theta = theta_bar + 0.5
    step_seeds = StepSeeds(3)
    seeds = _zo_svrg_minibatch_seeds(step_seeds, 1, 6)
    cfg = ZoSvrgConfig(q=2, spsa=SpsaConfig(mu=1e-3))
    work = theta_bar.copy()
    dense_at_bar = spsa_batch_avg(ls, work, full_batch(6), seeds, cfg.spsa)
    anchor = SvrgAnchor(theta_bar.copy(), dense_at_bar)
    work = theta.copy()
    zo_svrg_step(ls, work, anchor, full_batch(6), step_seeds, cfg, 1, 1.0, None)
    # b=n with identical seeds: blended = est(theta) - est(bar) + est(bar)
    expected = spsa_batch_avg(ls, theta.copy(), full_batch(6), seeds, cfg.spsa)
    assert np.allclose(theta - work, expected, rtol=1e-8, atol=1e-11)


def test_zo_svrg_ls_blend_composition():
    ls = make_least_squares(8, 5, seed=4)
    theta_bar = normals(fold(4, 1), 0, 5)
    theta = theta_bar + 0.2
    anchor_seeds = [PerturbationSeed(fold(4, 30 + i)) for i in range(8)]
    cfg = ZoSvrgConfig(q=2, spsa=SpsaConfig(mu=1e-3))
    g = spsa_batch_avg(ls, theta_bar.copy(), full_batch(8), anchor_seeds, cfg.spsa)
    anchor = SvrgAnchor(theta_bar.copy(), g)
    batch = sample_minibatch(8, 4, fold(4, 2))
    step_seeds = StepSeeds(4)
    seeds = _zo_svrg_minibatch_seeds(step_seeds, 1, 4)
    work = theta.copy()
    zo_svrg_step(ls, work, anchor, batch, step_seeds, cfg, 1, 1.0, None)
    expected = (
        spsa_batch_avg(ls, theta.copy(), batch, seeds, cfg.spsa)
        - spsa_batch_avg(ls, theta_bar.copy(), batch, seeds, cfg.spsa)
        + g
    )
    assert np.allclose(theta - work, expected, rtol=1e-8, atol=1e-11)


def test_zo_svrg_step_anchors_itself_every_q_steps():
    # at t % q == 0 the step anchors the full-batch average at theta, along the
    # per-sample seeds of the anchor stream, then blends; the blend's two
    # minibatch terms cancel there, so theta moves along the new anchor estimate
    ls = make_least_squares(8, 5, seed=5)
    theta = normals(fold(5, 1), 0, 5)
    step_seeds = StepSeeds(5)
    anchor_seed = step_seeds.perturb_seed(3, KIND_FULLBATCH).seed
    cfg = ZoSvrgConfig(q=3, b=4, spsa=SpsaConfig(mu=1e-3, p=2))
    expected_g = spsa_batch_avg(ls, theta.copy(), full_batch(8),
                                [PerturbationSeed(fold(anchor_seed, i)) for i in range(8)],
                                cfg.spsa)
    work = theta.copy()
    report, anchor = zo_svrg_step(ls, work, None, sample_minibatch(8, 4, 1), step_seeds,
                                  cfg, 3, 0.05, None)
    assert report.kind == KIND_FULLBATCH
    assert report.queries == 2 * 8 * 2 + 4 * 4 * 2
    # the anchor's probes restore theta up to rounding before it is copied
    assert np.allclose(anchor.theta_bar, theta, rtol=1e-12, atol=0.0)
    assert np.array_equal(anchor.estimate, expected_g)
    assert np.allclose((theta - work) / 0.05, expected_g, rtol=1e-9, atol=1e-12)
    report, same = zo_svrg_step(ls, work, anchor, sample_minibatch(8, 4, 2), step_seeds,
                                cfg, 4, 0.05, None)
    assert same is anchor
    assert report.kind == KIND_MINIBATCH and report.queries == 4 * 4 * 2


def test_mezo_svrg_anchor_branch_refreshes_even_with_zero_eta():
    ls = make_least_squares(12, 4, seed=5)
    theta = normals(fold(5, 1), 0, 4)
    snapshot = theta.copy()
    cfg = MezoSvrgConfig(eta1=0.0, eta2=1e-4, q=2, b=4)
    report, anchor = mezo_svrg_step(
        ls, theta, None, full_batch(12), StepSeeds(6), cfg, t=0,
        eta1=cfg.eta1, eta2=cfg.eta2)
    assert report.kind == KIND_FULLBATCH
    assert len(report.coeffs) == 1
    assert np.max(np.abs(theta - snapshot) / np.abs(snapshot)) < 1e-12
    assert np.array_equal(anchor.theta_bar, theta)


def test_mezo_svrg_minibatch_cancellation_at_anchor():
    ls = make_least_squares(32, 6, seed=6)
    theta = normals(fold(6, 1), 0, 6)
    cfg = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=4, b=8)
    anchor_report, anchor = mezo_svrg_step(
        ls, theta, None, full_batch(32), StepSeeds(7), cfg, t=0,
        eta1=0.0, eta2=cfg.eta2)  # keep theta == theta_bar
    assert np.array_equal(anchor.theta_bar, theta)
    before = theta.copy()
    batch = sample_minibatch(32, 8, fold(6, 3))
    report, anchor = mezo_svrg_step(
        ls, theta, anchor, batch, StepSeeds(8), cfg, t=1,
        eta1=cfg.eta1, eta2=cfg.eta2)
    # lines 5-6 cancel; net update is -eta2 * anchor estimate
    expected = before - cfg.eta2 * materialize(anchor.estimate)
    assert np.linalg.norm(theta - expected) <= 1e-10 * np.linalg.norm(before)
    assert len(report.coeffs) == 2
    assert report.queries == 4 * 8


def test_mezo_svrg_requires_anchor_for_minibatch_step():
    ls = make_least_squares(8, 3, seed=7)
    cfg = MezoSvrgConfig(q=2, b=4)
    with pytest.raises(RuntimeError, match="anchor"):
        mezo_svrg_step(ls, np.zeros(3), None, sample_minibatch(8, 4, 1),
                       StepSeeds(1), cfg, t=1, eta1=cfg.eta1, eta2=cfg.eta2)


def test_mezo_svrg_anchor_cadence():
    ls = make_least_squares(24, 5, seed=8)
    cfg = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=3, b=4)
    result = run(ls, ls.initial_theta(), "mezo-svrg", cfg, Budget(max_steps=10), 3)
    kinds = [r.kind for r in result.records]
    expected = [KIND_FULLBATCH if t % 3 == 0 else KIND_MINIBATCH for t in range(10)]
    assert kinds == expected


def test_fo_sgd_zero_eta_and_gradient_requirement():
    ls = make_least_squares(16, 4, seed=9)
    theta = normals(fold(9, 1), 0, 4)
    snapshot = theta.copy()
    fo_sgd_step(ls, theta, None, full_batch(16), StepSeeds(9), FoSgdConfig(), 0, 0.0, None)
    assert np.array_equal(theta, snapshot)

    class NoGrad:
        n, d = 4, 2

        def batch_loss(self, theta, indices):
            return 0.0

        def batch_grad(self, theta, indices):
            raise NotImplementedError("objective provides no analytic gradient")

    with pytest.raises(NotImplementedError):
        fo_sgd_step(NoGrad(), np.zeros(2), None, full_batch(4), StepSeeds(9), FoSgdConfig(), 0,
                    0.1, None)


def test_fo_sgd_hand_checked_step():
    ls = make_least_squares(8, 2, seed=10)
    theta = np.array([0.3, -0.7])
    eta = 0.01
    expected = theta - eta * ls.batch_grad(theta, np.arange(8))
    fo_sgd_step(ls, theta, None, full_batch(8), StepSeeds(10), FoSgdConfig(), 0, eta, None)
    assert np.allclose(theta, expected, rtol=1e-14)


def test_fo_sgd_fullbatch_reaches_normal_equation_optimum():
    ls = make_least_squares(64, 8, noise_std=0.05, seed=11)
    config = FoSgdConfig(eta=0.2, b=64)
    result = run(ls, ls.initial_theta(), "fo-sgd", config, Budget(max_steps=5000), 5)
    gap = ls.batch_loss(result.theta, np.arange(64)) - ls.f_star
    assert gap / ls.f_star < 1e-6


def test_lr_schedule_update_cases():
    def rates(losses):
        windows = _LossWindows(LrScheduleConfig(kappa=1.05, alpha=5.0), window=3)
        etas = (1e-3, 1e-4)
        for loss in losses:
            etas = windows.update(loss, 1e-3, 1e-4)
        return etas

    assert rates([1.0] * 6) == (1e-3, 1e-4)  # flat
    assert rates([1.0, 1.0, 1.0, 1.1, 1.1, 1.1]) == (1e-3 / 5.0, 1e-4 / 5.0)  # ratio 1.10 > 1.05
    assert rates([0.0] * 6) == (1e-3, 1e-4)  # division guard
    assert rates([1.0, 2.0]) == (1e-3, 1e-4)  # insufficient history


def _full_history_rates(losses, window, kappa, alpha, eta1, eta2):
    # the annealing rule as it read the whole loss history of the run
    history, out = [], []
    for loss in losses:
        history.append(loss)
        if len(history) >= 2 * window and len(history) % window == 0:
            m1 = sum(history[-window:]) / window
            m2 = sum(history[-2 * window:-window]) / window
            if m2 != 0.0 and m1 / m2 > kappa:
                eta1, eta2 = eta1 / alpha, eta2 / alpha
        out.append((eta1, eta2))
    return out


@settings(max_examples=300, deadline=None)
@given(losses=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.04, 1.06, 2.0]),
                                 st.floats(-1e6, 1e6, allow_nan=False)), max_size=40),
       window=st.integers(1, 5), kappa=st.sampled_from([1.0001, 1.05, 1.5]))
def test_loss_windows_match_full_history_rule(losses, window, kappa):
    windows = _LossWindows(LrScheduleConfig(kappa=kappa, alpha=5.0), window)
    etas, got = (1e-3, 1e-4), []
    for loss in losses:
        etas = windows.update(loss, *etas)
        got.append(etas)
    assert got == _full_history_rates(losses, window, kappa, 5.0, 1e-3, 1e-4)


def test_lr_schedule_monotone_in_run():
    # a diverging-ish configuration must only ever lower the rates
    ls = make_least_squares(64, 16, noise_std=0.01, seed=12)
    cfg = MezoSvrgConfig(eta1=5e-2, eta2=5e-3, q=2, b=8,
                         schedule=LrScheduleConfig(kappa=1.05, alpha=5.0, window=8))
    result = run(ls, ls.initial_theta(), "mezo-svrg", cfg, Budget(max_steps=400), 9)
    etas = [(r.eta1, r.eta2) for r in result.records]
    for (a1, a2), (b1, b2) in zip(etas, etas[1:]):
        assert b1 <= a1 and b2 <= a2


def test_run_query_budget_single_step():
    ls = make_least_squares(32, 4, seed=13)
    config = MezoConfig(eta=1e-3, b=16)
    result = run(ls, ls.initial_theta(), "mezo", config, Budget(max_queries=32), 1)
    assert len(result.records) == 1
    assert result.total_queries == 32


@pytest.mark.parametrize("optimizer, config, reported, uncounted", [
    # n=8, T=7, b=4, q=3: anchors at t = 0, 3, 6 cost 2n each
    ("mezo", MezoConfig(b=4), 7 * 2 * 4, 0),
    ("mezo-svrg", MezoSvrgConfig(q=3, b=4), 3 * 2 * 8 + 4 * 4 * 4, 0),
    # ZO-SVRG anchors and blends on its anchor steps; it and FO-SGD log each
    # step's b-sample batch loss without counting it
    ("zo-svrg", ZoSvrgConfig(q=3, b=4), 3 * 2 * 8 + 7 * 4 * 4, 7 * 4),
    ("fo-sgd", FoSgdConfig(b=4), 7 * 4, 7 * 4),
], ids=["mezo", "mezo-svrg", "zo-svrg", "fo-sgd"])
def test_run_reports_the_queries_it_makes(optimizer, config, reported, uncounted):
    ls = make_least_squares(8, 3, seed=14)
    counting = CountingObjective(ls)
    result = run(counting, ls.initial_theta(), optimizer, config, Budget(max_steps=7), 2)
    assert result.steps == 7
    assert result.total_queries == reported
    assert counting.forward_queries - uncounted == result.total_queries
    assert result.records[-1].backward_queries == counting.backward_queries


def test_run_deterministic_given_master_seed():
    ls = make_least_squares(40, 6, seed=15)
    config = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=4)
    a = run(ls, ls.initial_theta(), "mezo-svrg", config, Budget(max_steps=30), 11)
    b = run(ls, ls.initial_theta(), "mezo-svrg", config, Budget(max_steps=30), 11)
    assert np.array_equal(a.theta, b.theta)
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
    c = run(ls, ls.initial_theta(), "mezo-svrg", config, Budget(max_steps=30), 12)
    assert not np.array_equal(a.theta, c.theta)


def test_run_divergence_detection():
    ls = make_least_squares(32, 8, noise_std=0.01, seed=16)
    config = MezoConfig(eta=5.0, b=4)  # wildly unstable on purpose
    result = run(ls, ls.initial_theta(), "mezo", config, Budget(max_steps=20000), 3)
    assert result.status == "diverged"
    assert result.reason


class FailsOnThirdQuery:
    """Least squares whose third batch_loss call raises, as a coding bug would."""

    def __init__(self, inner):
        self.inner, self.n, self.d, self.calls = inner, inner.n, inner.d, 0

    def batch_loss(self, theta, indices):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("bug in the third query")
        return self.inner.batch_loss(theta, indices)


@pytest.mark.parametrize("optimizer, config", [
    ("mezo", MezoConfig(b=4)),
    ("mezo-svrg", MezoSvrgConfig(b=4)),
], ids=["mezo", "mezo-svrg"])
def test_run_propagates_step_errors(optimizer, config):
    obj = FailsOnThirdQuery(make_least_squares(32, 8, seed=20))
    with pytest.raises(RuntimeError, match="third query") as caught:
        run(obj, np.zeros(8), optimizer, config, Budget(max_steps=10), 5)
    assert caught.type is RuntimeError
    assert obj.calls == 3


def test_run_equal_query_fairness():
    ls = make_least_squares(100, 10, seed=17)
    budget = Budget(max_queries=10_000)
    mezo = run(ls, ls.initial_theta(), "mezo", MezoConfig(eta=1e-3, b=16),
               budget, 4)
    svrg = run(ls, ls.initial_theta(), "mezo-svrg",
               MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=16), budget, 4)
    step_cost = max(
        max(np.diff([0] + [r.cumulative_queries for r in mezo.records])),
        max(np.diff([0] + [r.cumulative_queries for r in svrg.records])),
    )
    assert abs(mezo.total_queries - svrg.total_queries) <= step_cost


def test_run_rejects_trajectory_for_unsupported_optimizer():
    ls = make_least_squares(8, 2, seed=18)
    from zovr.trajectory import TrajectoryLog
    traj = TrajectoryLog.for_run(1, ls.initial_theta(), "fo-sgd", {})
    with pytest.raises(ValueError, match="trajectory"):
        run(ls, ls.initial_theta(), "fo-sgd", FoSgdConfig(), Budget(max_steps=1), 1,
            trajectory=traj)


def test_zo_svrg_run_completes():
    ls = make_least_squares(24, 6, seed=19)
    config = ZoSvrgConfig(eta=1e-3, b=4, q=4)
    result = run(ls, ls.initial_theta(), "zo-svrg", config, Budget(max_steps=12), 6)
    assert result.status == "completed"
    # anchor steps carry the 2n refresh on top of the 4b blend
    full_steps = [r for r in result.records if r.kind == KIND_FULLBATCH]
    assert len(full_steps) == 3
    assert result.total_queries == 3 * (2 * 24 + 16) + 9 * 16


@pytest.mark.parametrize("make", [
    lambda: MezoConfig(b=0),
    lambda: MezoSvrgConfig(b=0),
    lambda: MezoSvrgConfig(anchor_batch=0),
    lambda: MezoSvrgConfig(anchor_batch=-3),
    lambda: ZoSvrgConfig(b=-1),
    lambda: ZoSvrgConfig(q=0),
    lambda: FoSgdConfig(b=0),
    lambda: LrScheduleConfig(window=0),
    lambda: LrScheduleConfig(window=-2),
], ids=["mezo-b", "mezo-svrg-b", "mezo-svrg-anchor", "mezo-svrg-anchor-neg",
        "zo-svrg-b", "zo-svrg-q", "fo-sgd-b", "schedule-window", "schedule-window-neg"])
def test_config_rejects_empty_batches(make):
    with pytest.raises(ValueError, match=">= 1"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: MezoConfig(eta=float("nan")), "eta must be finite, got nan"),
    (lambda: MezoSvrgConfig(eta1=float("inf")), "eta1 must be finite, got inf"),
    (lambda: MezoSvrgConfig(eta2=float("-inf")), "eta2 must be finite, got -inf"),
    (lambda: ZoSvrgConfig(eta=float("inf")), "eta must be finite, got inf"),
    (lambda: FoSgdConfig(eta=float("nan")), "eta must be finite, got nan"),
    (lambda: SpsaConfig(mu=float("inf")), "mu must be finite, got inf"),
    (lambda: SpsaConfig(mu=float("nan")), "mu must be positive, got nan"),
    (lambda: LrScheduleConfig(alpha=float("inf")), "alpha must be finite, got inf"),
], ids=["mezo-eta", "mezo-svrg-eta1", "mezo-svrg-eta2", "zo-svrg-eta", "fo-sgd-eta",
        "mu-inf", "mu-nan", "schedule-alpha"])
def test_config_rejects_non_finite_rates_and_mu(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: MezoConfig(eta=-1e-3), "eta must be non-negative, got -0.001"),
    (lambda: MezoSvrgConfig(eta1=-1.0), "eta1 must be non-negative, got -1.0"),
    (lambda: MezoSvrgConfig(eta2=-1e-300), "eta2 must be non-negative, got -1e-300"),
    (lambda: ZoSvrgConfig(eta=-2.0), "eta must be non-negative, got -2.0"),
    (lambda: FoSgdConfig(eta=-0.5), "eta must be non-negative, got -0.5"),
], ids=["mezo-eta", "mezo-svrg-eta1", "mezo-svrg-eta2", "zo-svrg-eta", "fo-sgd-eta"])
def test_config_rejects_negative_rates(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_config_keeps_zero_rates_and_an_infinite_kappa():
    # a rate of 0 takes no step; an infinite kappa never anneals
    assert [make(eta=0.0).eta for make in (MezoConfig, ZoSvrgConfig, FoSgdConfig)] == [0.0] * 3
    config = MezoSvrgConfig(eta1=0.0, eta2=-0.0, schedule=LrScheduleConfig(kappa=float("inf")))
    assert (config.eta1, config.eta2, config.schedule.kappa) == (0.0, 0.0, float("inf"))


def test_run_rejects_negative_eval_every():
    ls = make_least_squares(16, 3, seed=1)
    obj = CountingObjective(ls)
    with pytest.raises(ValueError, match="eval_every must be >= 0, got -2"):
        run(obj, ls.initial_theta(), "mezo", MezoConfig(b=4), Budget(max_steps=3), 0,
            eval_every=-2)
    assert obj.forward_queries == 0


@pytest.mark.parametrize("optimizer, config", [
    ("mezo", MezoConfig(b=17)),
    ("mezo-svrg", MezoSvrgConfig(b=17)),
    ("zo-svrg", ZoSvrgConfig(b=17)),
    ("fo-sgd", FoSgdConfig(b=17)),
])
def test_run_rejects_batch_larger_than_dataset(optimizer, config):
    ls = make_least_squares(16, 3, seed=1)
    obj = CountingObjective(ls)
    with pytest.raises(ValueError, match="b=17 exceeds the 16 samples"):
        run(obj, ls.initial_theta(), optimizer, config, Budget(max_steps=3), 0)
    assert obj.forward_queries == 0
    # b = n is a full-size batch and runs
    result = run(ls, ls.initial_theta(), optimizer, type(config)(b=16), Budget(max_steps=3), 0)
    assert result.status == "completed"


def test_optimizer_names_appear_only_in_the_table():
    # a name outside the table's dict literal is a branch on the optimizer or a
    # second table keyed by it, which the next optimizer would have to grow
    stray, keys = [], []
    for module in (optimizers, memory):
        tree = ast.parse(Path(module.__file__).read_text())
        tables = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "OPTIMIZER_ROWS" for t in node.targets)]
        inside = {id(n) for table in tables for n in ast.walk(table)}
        keys += [k.value for table in tables for k in table.keys]
        stray += [(module.__name__, n.lineno, n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and n.value in OPTIMIZERS
                  and id(n) not in inside]
    assert keys == list(OPTIMIZERS)
    assert stray == []
