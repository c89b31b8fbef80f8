import numpy as np
import pytest

from zovr import (
    Budget,
    CountingObjective,
    FoSgdConfig,
    LrScheduleConfig,
    MezoConfig,
    MezoSvrgConfig,
    PerturbationSeed,
    SpsaConfig,
    SvrgAnchor,
    ZoSvrgConfig,
    fo_sgd_step,
    full_batch,
    lr_schedule_update,
    make_least_squares,
    materialize,
    mezo_step,
    mezo_svrg_step,
    regenerate_z,
    run,
    sample_minibatch,
    spsa_batch_avg,
    zo_svrg_step,
)
from zovr.optimizers import KIND_FULLBATCH, KIND_MINIBATCH, LrScheduleState
from zovr.prng import fold, normals


class ScalarSquare:
    n, d = 1, 1

    def loss(self, theta, index):
        return float(theta[0] ** 2)

    def batch_loss(self, theta, indices):
        return float(theta[0] ** 2)


def test_mezo_step_zero_eta_keeps_theta():
    ls = make_least_squares(16, 4, seed=1)
    theta = normals(fold(1, 1), 0, 4)
    snapshot = theta.copy()
    report, _ = mezo_step(ls, theta, full_batch(16), PerturbationSeed(2), 0.0, SpsaConfig())
    assert np.max(np.abs(theta - snapshot)) < 1e-12
    assert report.queries == 32


def test_mezo_step_quadratic_hand_value():
    # d=1, f = theta^2 at theta=1: estimate is exactly 2 z^2, so one step with
    # eta=0.1 lands on 1 - 0.2 z^2
    obj = ScalarSquare()
    theta = np.array([1.0])
    seed = PerturbationSeed(3)
    z = float(regenerate_z(seed, 1)[0])
    mezo_step(obj, theta, full_batch(1), seed, 0.1, SpsaConfig(mu=1e-3))
    assert theta[0] == pytest.approx(1.0 - 0.1 * 2.0 * z * z, rel=1e-9)


def test_mezo_paper_ls_config_stays_finite():
    ls = make_least_squares(1000, 100, noise_std=0.01, seed=0)
    config = MezoConfig(eta=1e-3, b=32, spsa=SpsaConfig(mu=1e-3))
    result = run(ls, ls.initial_theta(), "mezo", config, Budget(max_steps=1000), 7)
    assert result.status == "completed"
    assert len(result.records) == 1000
    assert all(np.isfinite(r.train_loss) for r in result.records)


def test_zo_svrg_blend_at_anchor_point_is_anchor_estimate():
    ls = make_least_squares(8, 5, seed=2)
    theta = normals(fold(2, 1), 0, 5)
    seeds = [PerturbationSeed(fold(2, 10 + i)) for i in range(8)]
    cfg = SpsaConfig(mu=1e-3)
    work = theta.copy()
    dense = spsa_batch_avg(ls, work, full_batch(8), seeds, cfg)
    anchor = SvrgAnchor(theta.copy(), dense, 0)
    # with theta == theta_bar and shared per-sample seeds, the two minibatch
    # terms cancel and the update direction is exactly the anchored estimate
    work2 = theta.copy()
    eta = 0.05
    zo_svrg_step(ls, work2, anchor, full_batch(8), seeds, eta, cfg)
    moved = (theta - work2) / eta
    assert np.allclose(moved, dense, rtol=1e-9, atol=1e-12)


def test_zo_svrg_full_cancellation_with_identical_seeds():
    ls = make_least_squares(6, 4, seed=3)
    theta_bar = normals(fold(3, 1), 0, 4)
    theta = theta_bar + 0.5
    seeds = [PerturbationSeed(fold(3, 20 + i)) for i in range(6)]
    cfg = SpsaConfig(mu=1e-3)
    work = theta_bar.copy()
    dense_at_bar = spsa_batch_avg(ls, work, full_batch(6), seeds, cfg)
    anchor = SvrgAnchor(theta_bar.copy(), dense_at_bar, 0)
    work = theta.copy()
    zo_svrg_step(ls, work, anchor, full_batch(6), seeds, 1.0, cfg)
    # b=n with identical seeds: blended = est(theta) - est(bar) + est(bar)
    expected = spsa_batch_avg(ls, theta.copy(), full_batch(6), seeds, cfg)
    assert np.allclose(theta - work, expected, rtol=1e-8, atol=1e-11)


def test_zo_svrg_ls_blend_composition():
    ls = make_least_squares(8, 5, seed=4)
    theta_bar = normals(fold(4, 1), 0, 5)
    theta = theta_bar + 0.2
    anchor_seeds = [PerturbationSeed(fold(4, 30 + i)) for i in range(8)]
    cfg = SpsaConfig(mu=1e-3)
    g = spsa_batch_avg(ls, theta_bar.copy(), full_batch(8), anchor_seeds, cfg)
    anchor = SvrgAnchor(theta_bar.copy(), g, 0)
    batch = sample_minibatch(8, 4, fold(4, 2))
    seeds = [PerturbationSeed(fold(4, 40 + i)) for i in range(4)]
    work = theta.copy()
    zo_svrg_step(ls, work, anchor, batch, seeds, 1.0, cfg)
    expected = (
        spsa_batch_avg(ls, theta.copy(), batch, seeds, cfg)
        - spsa_batch_avg(ls, theta_bar.copy(), batch, seeds, cfg)
        + g
    )
    assert np.allclose(theta - work, expected, rtol=1e-8, atol=1e-11)


def test_mezo_svrg_anchor_branch_refreshes_even_with_zero_eta():
    ls = make_least_squares(12, 4, seed=5)
    theta = normals(fold(5, 1), 0, 4)
    snapshot = theta.copy()
    cfg = MezoSvrgConfig(eta1=0.0, eta2=1e-4, q=2, b=4)
    report, anchor, coeffs = mezo_svrg_step(
        ls, theta, None, full_batch(12), PerturbationSeed(6), cfg, t=0)
    assert report.kind == KIND_FULLBATCH
    assert anchor.step_created == 0
    assert len(coeffs) == 1
    assert np.max(np.abs(theta - snapshot) / np.abs(snapshot)) < 1e-12
    assert np.array_equal(anchor.theta_bar, theta)


def test_mezo_svrg_minibatch_cancellation_at_anchor():
    ls = make_least_squares(32, 6, seed=6)
    theta = normals(fold(6, 1), 0, 6)
    cfg = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=4, b=8)
    anchor_report, anchor, _ = mezo_svrg_step(
        ls, theta, None, full_batch(32), PerturbationSeed(7), cfg, t=0,
        eta1=0.0)  # keep theta == theta_bar
    assert np.array_equal(anchor.theta_bar, theta)
    before = theta.copy()
    batch = sample_minibatch(32, 8, fold(6, 3))
    report, anchor, coeffs = mezo_svrg_step(
        ls, theta, anchor, batch, PerturbationSeed(8), cfg, t=1)
    # lines 5-6 cancel; net update is -eta2 * anchor estimate
    expected = before - cfg.eta2 * materialize(anchor.estimate)
    assert np.linalg.norm(theta - expected) <= 1e-10 * np.linalg.norm(before)
    assert len(coeffs) == 2
    assert report.queries == 4 * 8


def test_mezo_svrg_requires_anchor_for_minibatch_step():
    ls = make_least_squares(8, 3, seed=7)
    cfg = MezoSvrgConfig(q=2, b=4)
    with pytest.raises(RuntimeError, match="anchor"):
        mezo_svrg_step(ls, np.zeros(3), None, sample_minibatch(8, 4, 1),
                       PerturbationSeed(1), cfg, t=1)


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
    fo_sgd_step(ls, theta, full_batch(16), 0.0)
    assert np.array_equal(theta, snapshot)

    class NoGrad:
        n, d = 4, 2

        def batch_loss(self, theta, indices):
            return 0.0

        def batch_grad(self, theta, indices):
            raise NotImplementedError("objective provides no analytic gradient")

    with pytest.raises(NotImplementedError):
        fo_sgd_step(NoGrad(), np.zeros(2), full_batch(4), 0.1)


def test_fo_sgd_hand_checked_step():
    ls = make_least_squares(8, 2, seed=10)
    theta = np.array([0.3, -0.7])
    eta = 0.01
    expected = theta - eta * ls.batch_grad(theta, np.arange(8))
    fo_sgd_step(ls, theta, full_batch(8), eta)
    assert np.allclose(theta, expected, rtol=1e-14)


def test_fo_sgd_fullbatch_reaches_normal_equation_optimum():
    ls = make_least_squares(64, 8, noise_std=0.05, seed=11)
    config = FoSgdConfig(eta=0.2, b=64)
    result = run(ls, ls.initial_theta(), "fo-sgd", config, Budget(max_steps=5000), 5)
    gap = ls.batch_loss(result.theta, np.arange(64)) - ls.f_star
    assert gap / ls.f_star < 1e-6


def test_lr_schedule_update_cases():
    state = LrScheduleState(kappa=1.05, alpha=5.0, window=3)
    state.loss_history = [1.0] * 6
    assert lr_schedule_update(state, 1e-3, 1e-4) == (1e-3, 1e-4)  # flat
    state.loss_history = [1.0, 1.0, 1.0, 1.1, 1.1, 1.1]  # ratio 1.10 > 1.05
    assert lr_schedule_update(state, 1e-3, 1e-4) == (1e-3 / 5.0, 1e-4 / 5.0)
    state.loss_history = [0.0] * 6  # division guard
    assert lr_schedule_update(state, 1e-3, 1e-4) == (1e-3, 1e-4)
    state.loss_history = [1.0, 2.0]  # insufficient history
    assert lr_schedule_update(state, 1e-3, 1e-4) == (1e-3, 1e-4)


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


def test_run_mezo_svrg_query_formula():
    # q=2, T=4, n=8, b=2, anchor=n: two anchor steps at 2n plus two minibatch
    # steps at 4b = 2*(2*8) + 2*(4*2) = 48
    ls = make_least_squares(8, 3, seed=14)
    counting = CountingObjective(ls)
    config = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=2)
    result = run(counting, ls.initial_theta(), "mezo-svrg", config,
                 Budget(max_steps=4), 2)
    assert result.total_queries == 48
    assert counting.forward_queries == 48


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
], ids=["mezo-b", "mezo-svrg-b", "mezo-svrg-anchor", "mezo-svrg-anchor-neg",
        "zo-svrg-b", "zo-svrg-q", "fo-sgd-b"])
def test_config_rejects_empty_batches(make):
    with pytest.raises(ValueError, match=">= 1"):
        make()


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
