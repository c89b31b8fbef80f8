"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one `[ACCEPTANCE n] PASS/FAIL` line (run pytest with
-s). Criteria 1 and 11 encode orderings that do not hold at this problem
scale with the pinned hyperparameters and budgets; they are implemented
faithfully and expected to fail, with the measured values printed. See
the repository notes for the analysis.
"""

import time

import numpy as np

from zovr import (
    Budget,
    MezoConfig,
    MezoSvrgConfig,
    PerturbationSeed,
    SlotMeter,
    SpsaConfig,
    ZoSvrgConfig,
    account_memory,
    make_least_squares,
    make_logistic,
    make_mlp2,
    make_synthetic_digits,
    run,
    sample_minibatch,
    spsa_batch_shared,
)
from zovr.estimators import apply_probe_sequence
from zovr.harness import RunSpec, execute
from zovr.memory import CONSTANT_OVERHEAD
from zovr.oracles import control_variate_check, unbiasedness_check
from zovr.prng import fold, normals, uniforms
from zovr.trajectory import TrajectoryLog, replay

from helpers import CountingObjective, pair_cross_moments


def _announce(number: int, ok: bool, detail: str) -> bool:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- 1. least-squares convergence comparison (paper hyperparameters) ---------

def test_acceptance_01_ls_convergence_comparison():
    started = time.perf_counter()
    ls_params = {"n": 1000, "d": 100, "noise_std": 0.01, "seed": 0}
    budget = 2_000_000
    svrg = execute(RunSpec(
        "svrg", "ls", ls_params, "mezo-svrg",
        {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2},
        0, max_queries=budget))
    mezo = execute(RunSpec(
        "mezo", "ls", ls_params, "mezo", {"b": 32, "eta": 1e-3, "mu": 1e-3},
        0, max_queries=budget))
    fo = execute(RunSpec(
        "fo", "ls", ls_params, "fo-sgd", {"b": 32, "eta": 1e-3},
        0, max_steps=len(svrg.result.records)))
    elapsed = time.perf_counter() - started
    fstar = svrg.objective.f_star
    gap_mezo = mezo.final_loss - fstar
    gap_svrg = svrg.final_loss - fstar
    gap_fo = fo.final_loss - fstar
    vs_mezo = gap_svrg <= 0.1 * gap_mezo
    vs_fo = gap_svrg <= 2.0 * gap_fo
    ok = vs_mezo and vs_fo and elapsed < 120.0
    _announce(1, ok, f"gaps mezo={gap_mezo:.3e} svrg={gap_svrg:.3e} fo={gap_fo:.3e}; "
                     f"svrg<=0.1*mezo: {vs_mezo}, svrg<=2*fo: {vs_fo}, "
                     f"runtime {elapsed:.0f}s")
    assert elapsed < 120.0
    assert vs_mezo, (f"MeZO-SVRG gap {gap_svrg:.3e} exceeds 0.1 x MeZO gap "
                     f"{gap_mezo:.3e}: at a matched query budget MeZO takes "
                     f"{len(mezo.result.records)} steps to MeZO-SVRG's "
                     f"{len(svrg.result.records)} and converges on this "
                     f"mean-scaled problem")
    assert vs_fo


# -- 2. exhaustive minibatch unbiasedness ------------------------------------

def test_acceptance_02_unbiasedness_oracle():
    started = time.perf_counter()
    ls = make_least_squares(6, 5, noise_std=0.05, seed=1)
    worst = 0.0
    for probe in range(10):
        theta = normals(fold(21, probe), 0, 5)
        seed = PerturbationSeed(fold(22, probe))
        for b in (1, 2, 3):
            worst = max(worst, unbiasedness_check(ls, theta, seed, b))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    assert _announce(2, ok, f"max deviation {worst:.2e} over 10 probes x b in "
                            f"{{1,2,3}}, runtime {elapsed:.2f}s")


# -- 3. control-variate identities -------------------------------------------

def test_acceptance_03_control_variate_oracle():
    sum_ok = True
    detail = []
    for label, obj in (("ls", make_least_squares(32, 6, seed=2)),
                       ("logistic", make_logistic(32, 6, seed=3))):
        theta = normals(fold(31, 1), 0, 6)
        theta_prime = normals(fold(31, 2), 0, 6)
        rep = control_variate_check(obj, theta, theta_prime, PerturbationSeed(5))
        sum_ok = sum_ok and rep.sum_inf_norm < 1e-10 * rep.max_u_inf_norm
        detail.append(f"{label} sum={rep.sum_inf_norm:.2e}")
    ls = make_least_squares(32, 6, seed=2)
    theta = normals(fold(31, 1), 0, 6)
    small, large = [], []
    for repeat in range(10):
        rep = control_variate_check(ls, theta, theta + 0.4,
                                    PerturbationSeed(fold(32, repeat)))
        moments = pair_cross_moments(rep.u, (1_000, 100_000), pair_seed=repeat)
        small.append(moments[0])
        large.append(moments[1])
    shrink = float(np.mean(small) / np.mean(large))
    ok = sum_ok and shrink >= 3.0
    assert _announce(3, ok, f"{'; '.join(detail)}; cross-moment shrink "
                            f"1e3->1e5 pairs: {shrink:.1f}x (need >= 3)")


# -- 4. central-difference exactness on quadratics ---------------------------

def test_acceptance_04_central_difference_exactness():
    ls = make_least_squares(64, 12, noise_std=0.05, seed=4)
    cfg = SpsaConfig(mu=1e-3)
    worst = 0.0
    for probe in range(100):
        theta = normals(fold(41, probe), 0, ls.d)
        batch = sample_minibatch(ls.n, 8, fold(42, probe))
        seed = PerturbationSeed(fold(43, probe))
        work = theta.copy()
        est = spsa_batch_shared(ls, work, batch, seed, cfg)
        directional = float(ls.batch_grad(theta, batch.indices)
                            @ normals(seed.seed, seed.offset, ls.d))
        worst = max(worst, abs(est.coeffs[0] - directional) / (1.0 + abs(directional)))
    assert _announce(4, worst < 1e-9, f"max |coeff - grad.z| error {worst:.2e} "
                                      f"over 100 probes (tol 1e-9)")


# -- 5. perturb-restore cycle at scale ----------------------------------------

def test_acceptance_05_perturb_restore():
    d = 100_000
    worst = 0.0
    for k in range(10):
        u = uniforms(fold(51, k), 0, d)
        sign = np.where(uniforms(fold(52, k), 0, d) < 0.5, -1.0, 1.0)
        theta = sign * (0.5 + 1.5 * u)  # entries bounded away from zero
        snapshot = theta.copy()
        seed = PerturbationSeed(fold(53, k))
        apply_probe_sequence(theta, seed, 1e-3)
        worst = max(worst, float(np.max(np.abs(theta - snapshot) / np.abs(snapshot))))
    assert _announce(5, worst < 1e-12,
                     f"max relative restore error {worst:.2e} at d=1e5, 10 seeds")


# -- 6. bit-exact zero-query seed replay --------------------------------------

def test_acceptance_06_seed_replay():
    ls = make_least_squares(64, 20, noise_std=0.01, seed=6)
    counting = CountingObjective(ls)
    theta0 = ls.initial_theta()
    config = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8)
    traj = TrajectoryLog.for_run(61, theta0, "mezo-svrg", {
        "eta1": repr(config.eta1), "eta2": repr(config.eta2),
        "mu": repr(config.spsa.mu), "p": "1", "q": "2", "b": "8"})
    snaps = {}

    def sink(t, theta, record):
        if t + 1 in (1, 250, 500):
            snaps[t + 1] = theta.copy()

    result = run(counting, theta0, "mezo-svrg", config, Budget(max_steps=500), 61,
                 trajectory=traj, sink=sink)
    assert result.status == "completed"
    queries_before = counting.forward_queries
    exact = all(np.array_equal(replay(traj, theta0, t), snaps[t])
                for t in (1, 250, 500))
    replay_queries = counting.forward_queries - queries_before
    ok = exact and replay_queries == 0
    assert _announce(6, ok, f"replay bit-identical at t in {{1, 250, 500}}: {exact}; "
                            f"objective queries during replay: {replay_queries}")


# -- 7. memory accounting ------------------------------------------------------

def test_acceptance_07_memory_accounting():
    d_model = 10**6
    c = CONSTANT_OVERHEAD
    model_ok = (
        account_memory("mezo", None, d_model) == d_model + c
        and account_memory("mezo-svrg", "recompute_g", d_model) == 2 * d_model + c
        and account_memory("mezo-svrg", "store_g", d_model) == 3 * d_model + c
        and account_memory("zo-svrg", "naive", d_model) == 5 * d_model + c
    )
    ratios = tuple((account_memory(o, m, d_model) - c) // d_model
                   for o, m in (("mezo", None), ("mezo-svrg", "recompute_g"),
                                ("mezo-svrg", "store_g"), ("zo-svrg", "naive")))

    ls = make_least_squares(48, 24, seed=7)
    measured = {}
    for optimizer, config in (
            ("mezo", MezoConfig(eta=1e-3, b=8)),
            ("mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8)),
            ("zo-svrg", ZoSvrgConfig(eta=1e-3, b=8, q=3))):
        meter = SlotMeter()
        run(ls, ls.initial_theta(), optimizer, config, Budget(max_steps=6), 3,
            meter=meter)
        measured[optimizer] = meter.peak
    d = ls.d
    measured_ok = (
        measured["mezo"] <= account_memory("mezo", None, d)
        and measured["mezo-svrg"] <= account_memory("mezo-svrg", "recompute_g", d)
        and measured["mezo-svrg"] <= account_memory("mezo-svrg", "store_g", d)
        and measured["zo-svrg"] == 5 * d
        and measured["zo-svrg"] <= account_memory("zo-svrg", "naive", d)
    )
    ok = model_ok and ratios == (1, 2, 3, 5) and measured_ok
    assert _announce(7, ok, f"model ratios {ratios} (want (1, 2, 3, 5)); measured "
                            f"slots/d: mezo={measured['mezo'] / d:.0f} "
                            f"mezo-svrg={measured['mezo-svrg'] / d:.0f} "
                            f"naive zo-svrg={measured['zo-svrg'] / d:.0f}")


# -- 8. batch-size robustness ---------------------------------------------------

def _trailing_std(records, fraction=0.2):
    losses = np.asarray([r.train_loss for r in records])
    take = max(2, int(round(fraction * losses.size)))
    return float(np.std(losses[-take:]))


def test_acceptance_08_batch_size_robustness():
    ls_params = {"n": 1000, "d": 100, "noise_std": 0.01, "seed": 0}
    budget = 800_000
    small = execute(RunSpec("b8", "ls", ls_params, "mezo",
                            {"b": 8, "eta": 1e-3, "mu": 1e-3}, 1, max_queries=budget))
    large = execute(RunSpec("b128", "ls", ls_params, "mezo",
                            {"b": 128, "eta": 1e-3, "mu": 1e-3}, 1, max_queries=budget))
    svrg_run = execute(RunSpec("svrg8", "ls", ls_params, "mezo-svrg",
                            {"b": 8, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2},
                            1, max_queries=budget))
    s_small = _trailing_std(small.result.records)
    s_large = _trailing_std(large.result.records)
    s_svrg = _trailing_std(svrg_run.result.records)
    ok = s_small >= 2.0 * s_large and s_svrg < s_small
    assert _announce(8, ok, f"trailing-20% loss std: mezo-b8={s_small:.3e} "
                            f"(status {small.result.status}), mezo-b128={s_large:.3e}, "
                            f"mezo-svrg-b8={s_svrg:.3e}")


# -- 9. anchor-frequency ablation -----------------------------------------------

def test_acceptance_09_q_ablation():
    # n = 2b makes an anchor cost exactly one minibatch step's queries, so
    # both settings take the same number of steps inside the budget
    ls_params = {"n": 64, "d": 16, "noise_std": 0.01, "seed": 0}
    base = {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3}
    q2 = execute(RunSpec("q2", "ls", ls_params, "mezo-svrg", dict(base, q=2),
                         0, max_queries=1_000_000))
    q10 = execute(RunSpec("q10", "ls", ls_params, "mezo-svrg", dict(base, q=10),
                          0, max_queries=1_000_000))
    ok = q2.final_loss <= q10.final_loss
    assert _announce(9, ok, f"final loss q=2: {q2.final_loss:.3e} "
                            f"({len(q2.result.records)} steps), q=10: "
                            f"{q10.final_loss:.3e} ({len(q10.result.records)} steps)")


# -- 10. large-batch anchor approximation ----------------------------------------

def test_acceptance_10_large_batch_anchor():
    ls_params = {"n": 256, "d": 16, "noise_std": 0.1, "seed": 0}
    base = {"b": 32, "eta1": 1e-3, "eta2": 1e-4, "mu": 1e-3, "q": 2}
    full = execute(RunSpec("full", "ls", ls_params, "mezo-svrg", dict(base),
                           3, max_queries=2_000_000))
    half = execute(RunSpec("half", "ls", ls_params, "mezo-svrg",
                           dict(base, anchor_batch=128), 3, max_queries=2_000_000))
    rel = abs(full.final_loss - half.final_loss) / full.final_loss
    ok = rel < 0.2
    assert _announce(10, ok, f"final loss anchor=n: {full.final_loss:.4e}, "
                             f"anchor=n/2: {half.final_loss:.4e}, "
                             f"relative change {rel:.3f} (tol 0.2)")


# -- 11. MLP classification sanity -----------------------------------------------

def test_acceptance_11_mlp_sanity():
    data = make_synthetic_digits(512, seed=0)
    probe = make_mlp2(data, seed=0)
    count_ok = probe.d == 25_818

    mlp_params = {"n": 512, "seed": 0}
    budget = 400_000
    mezo = execute(RunSpec("mezo", "mlp", mlp_params, "mezo",
                           {"b": 64, "eta": 1e-3, "mu": 1e-3}, 0, max_queries=budget))
    svrg = execute(RunSpec("svrg", "mlp", mlp_params, "mezo-svrg",
                           {"b": 64, "eta1": 1e-3, "eta2": 1e-6, "mu": 1e-3, "q": 2},
                           0, max_queries=budget))
    fo = execute(RunSpec("fo", "mlp", mlp_params, "fo-sgd",
                         {"b": 64, "eta": 1e-3}, 0, max_queries=budget))
    svrg_vs_mezo = svrg.final_loss <= mezo.final_loss
    fo_vs_svrg = fo.final_loss <= svrg.final_loss
    ok = count_ok and svrg_vs_mezo and fo_vs_svrg
    _announce(11, ok, f"d={probe.d} (want 25818); losses mezo={mezo.final_loss:.4f} "
                      f"svrg={svrg.final_loss:.4f} fo={fo.final_loss:.4f}; "
                      f"svrg<=mezo: {svrg_vs_mezo}, fo<=svrg: {fo_vs_svrg}")
    assert count_ok
    assert fo_vs_svrg
    assert svrg_vs_mezo, (
        f"MeZO-SVRG final loss {svrg.final_loss:.4f} above MeZO's "
        f"{mezo.final_loss:.4f}: the 2n-query anchor cost outweighs variance "
        f"reduction at this scale (n/b = 8 MeZO steps per anchor refresh)")


# -- 12. gradient-norm trend ------------------------------------------------------

def test_acceptance_12_gradient_norm_trend():
    ls = make_least_squares(128, 16, noise_std=0.01, seed=5)
    full = np.arange(ls.n)

    def final_running_min(T, seed):
        mu = 1.0 / np.sqrt(ls.d * T)
        cfg = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=16, spsa=SpsaConfig(mu=mu))
        mins = []
        best = np.inf

        def sink(t, theta, record):
            nonlocal best
            g = ls.batch_grad(theta, full)
            best = min(best, float(g @ g))
            mins.append(best)

        run(ls, ls.initial_theta(), "mezo-svrg", cfg, Budget(max_steps=T), seed,
            sink=sink)
        assert all(b <= a for a, b in zip(mins, mins[1:]))  # non-increasing
        return mins[-1]

    short = np.mean([final_running_min(400, s) for s in range(5)])
    long = np.mean([final_running_min(800, s) for s in range(5)])
    ok = long < short
    assert _announce(12, ok, f"mean final running-min ||grad||^2: T=400: {short:.3e}, "
                             f"T=800: {long:.3e} (must decrease)")
