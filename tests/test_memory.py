from dataclasses import replace

import numpy as np
import pytest

from zovr import (
    Budget,
    FoSgdConfig,
    MezoConfig,
    MezoSvrgConfig,
    SlotMeter,
    ZoSvrgConfig,
    account_memory,
    PerturbationSeed,
    make_least_squares,
    run,
)
from zovr import estimators, harness, prng, trajectory
from zovr.estimators import PARALLEL_MIN_VALUES, STREAM_CHUNK, stream_passes
from zovr.memory import CONSTANT_OVERHEAD, held_slots
from zovr.objectives import make_mlp2, make_synthetic_digits

from helpers import traced_peak


def test_model_values_and_exact_ratios():
    d = 10**6
    c = CONSTANT_OVERHEAD
    assert c == 100_352
    assert account_memory("mezo", None, d) == d + c
    assert account_memory("mezo-svrg", "recompute_g", d) == 2 * d + c
    assert account_memory("mezo-svrg", "store_g", d) == 3 * d + c
    assert account_memory("zo-svrg", "naive", d) == 5 * d + c
    base = account_memory("mezo", None, d) - c
    assert (account_memory("mezo-svrg", "recompute_g", d) - c) / base == 2.0
    assert (account_memory("mezo-svrg", "store_g", d) - c) / base == 3.0
    assert (account_memory("zo-svrg", "naive", d) - c) / base == 5.0


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown"):
        account_memory("mezo-svrg", "naive", 10)


def test_slot_meter_tracks_peak():
    meter = SlotMeter()
    meter.add(10)
    meter.add(5)
    meter.release(10)
    meter.add(2)
    assert meter.live == 7
    assert meter.peak == 15
    with pytest.raises(RuntimeError):
        meter.release(100)


def _registered_peak(optimizer, config, steps=6):
    ls = make_least_squares(48, 24, seed=1)
    meter = SlotMeter()
    result = run(ls, ls.initial_theta(), optimizer, config,
                 Budget(max_steps=steps), 3, meter=meter)
    assert result.status == "completed"
    return meter.peak, ls.d


@pytest.mark.parametrize("optimizer, config", [
    ("mezo", MezoConfig(eta=1e-3, b=8)),
    ("mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8)),
    ("zo-svrg", ZoSvrgConfig(eta=1e-3, b=8, q=3)),
    ("fo-sgd", FoSgdConfig(eta=1e-3, b=8)),
])
def test_run_without_a_meter_writes_held_slots(optimizer, config):
    ls = make_least_squares(48, 24, seed=1)
    result = run(ls, ls.initial_theta(), optimizer, config, Budget(max_steps=4), 3)
    assert [r.peak_slots for r in result.records] == [held_slots(optimizer, ls.d)] * 4


def test_registered_mezo_is_parameters_only():
    peak, d = _registered_peak("mezo", MezoConfig(eta=1e-3, b=8))
    assert peak == d
    assert peak <= account_memory("mezo", None, d)


def test_registered_mezo_svrg_stays_under_model():
    peak, d = _registered_peak("mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8))
    # the in-place implementation keeps the anchor estimate compressed, so it
    # registers 2d (parameters + anchor copy), below the 3d store_g model
    assert peak == 2 * d
    assert peak <= account_memory("mezo-svrg", "recompute_g", d)
    assert peak <= account_memory("mezo-svrg", "store_g", d)


def test_registered_naive_zo_svrg_hits_five_d():
    peak, d = _registered_peak("zo-svrg", ZoSvrgConfig(eta=1e-3, b=8, q=3))
    assert peak == 5 * d
    assert peak <= account_memory("zo-svrg", "naive", d)


def test_registered_fo_sgd_two_d():
    peak, d = _registered_peak("fo-sgd", FoSgdConfig(eta=1e-3, b=8))
    assert peak == 2 * d
    assert peak <= account_memory("fo-sgd", None, d)


def _assert_within(peak, model):
    # a tracemalloc peak in bytes against a model in float64 slots
    assert peak <= 8 * model, (
        f"peak {peak / 8:,.0f} slots, model {model:,}, margin {model - peak / 8:,.0f}")


def _stream_pass_peak(d):
    theta = np.zeros(d)
    seed = PerturbationSeed(17, 5)
    stream_passes(theta, ((seed, 0.5),))  # warm numpy's caches and the lane pool
    return traced_peak(lambda: stream_passes(theta, ((seed, -0.5),)))[0]


def test_stream_kernel_heap_within_constant_overhead():
    # four equal pieces of 6,146 values; the constant C is in float64 slots
    _assert_within(_stream_pass_peak(3 * STREAM_CHUNK + 7), CONSTANT_OVERHEAD)


def test_two_lane_stream_heap_within_constant_overhead():
    # both lanes' pieces in flight together still fit in C
    _assert_within(_stream_pass_peak(PARALLEL_MIN_VALUES + 7), CONSTANT_OVERHEAD)


# A serial pass holds one piece of at most STREAM_CHUNK values in flight, three
# words per value, plus 512 slots of bookkeeping: 25,088 slots, 200,704 bytes.
_SERIAL_PASS_SLOTS = 3 * STREAM_CHUNK + 512


@pytest.mark.parametrize("d", [STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 7, PARALLEL_MIN_VALUES - 1])
def test_serial_stream_heap_within_one_piece(d):
    # a serial pass streams pieces half as long as two lanes' do, so it holds
    # about a quarter of C; it keeps a bound of its own rather than C's share
    _assert_within(_stream_pass_peak(d), _SERIAL_PASS_SLOTS)


@pytest.mark.parametrize("d, piece", [(STREAM_CHUNK + 1, 4_097), (25_818, 6_455)],
                         ids=["two-pieces", "mlp-preset"])
def test_serial_stream_heap_within_its_equal_piece(d, piece):
    # ceil(d / STREAM_CHUNK) equal pieces: a d just above a multiple of
    # STREAM_CHUNK holds a piece of ceil(d / k) values, not a whole chunk
    _assert_within(_stream_pass_peak(d), 3 * piece + 512)


# Two replayed steps of a fig1a log at d = 100 hold theta's copy (800 B), the
# kernel's two scratch rows (1,600 B) and their Python objects; a replay that
# kept a second theta alive (+912 B) would cross the bound. The log's 50 live
# steps warm the interpreter as the benchmark's longer prefix does: from a
# 2-step log in a fresh process MeZO-SVRG read 4,132 B, falling with each repeat.
_SMALL_REPLAY_BYTES = 4096


def _two_step_replay_peak(preset, optimizer, live_steps, tmp_path):
    # tracemalloc peak of replaying 2 steps of a saved and loaded preset log
    spec = next(s for s in harness.PRESETS[preset](41) if s.optimizer == optimizer)
    path = str(tmp_path / "log.zotrj")
    ex = harness.execute(replace(spec, max_steps=live_steps, max_queries=None), traj_out=path)
    log = trajectory.load(path)
    trajectory.replay(log, ex.theta0, 2)  # warm numpy's caches and the lane pool
    return traced_peak(lambda: trajectory.replay(log, ex.theta0, 2))[0]


@pytest.mark.skipif(prng.ZKERNEL is None, reason="the numpy path holds window-sized rows")
@pytest.mark.parametrize("optimizer", ["mezo", "mezo-svrg"])
def test_small_replay_heap_within_theta_and_kernel_rows(optimizer, tmp_path):
    peak = _two_step_replay_peak("fig1a", optimizer, 50, tmp_path)
    assert peak <= _SMALL_REPLAY_BYTES, f"replay peak {peak:,} B, bound {_SMALL_REPLAY_BYTES:,} B"


# Two replayed steps of an mlp log (d = 25,818) stream each step's passes in two
# lanes, so they hold theta's copy (206,544 B), each lane's two kernel rows of
# 1,024 words (2 x 16,384 B) and the Python objects of the lane handoff (its
# Event, Future and work item). Those objects read 4,700-5,500 B after a
# warm-up replay, and 7,168 B leaves room for them. The sum, 246,480 B, stays
# below 246,990 B, 1.1 times the 224,536 B peak of the serial mlp replay in
# `perfbench/run.py --workload mlp-preset`; a replay that held one more kernel
# row (+16,384 B) would cross it.
_MLP_REPLAY_BYTES = 25_818 * 8 + 2 * 16_384 + 7_168


@pytest.mark.skipif(prng.ZKERNEL is None, reason="the numpy path holds window-sized rows")
@pytest.mark.parametrize("optimizer", ["mezo", "mezo-svrg"])
def test_mlp_replay_heap_within_theta_and_two_lanes_rows(optimizer, tmp_path):
    if estimators._second_lane() is None:
        pytest.skip("one usable CPU: the replay streams in one lane")
    peak = _two_step_replay_peak("mlp", optimizer, 4, tmp_path)
    assert peak <= _MLP_REPLAY_BYTES, f"replay peak {peak:,} B, bound {_MLP_REPLAY_BYTES:,} B"


def _mlp_run_peak(optimizer, config, n=64, steps=4):
    # whole-run tracemalloc peak on an MLP with d = 235,146
    mlp = make_mlp2(make_synthetic_digits(n, seed=2), seed=2, hidden=(256, 128))
    theta0 = mlp.initial_theta()
    run(mlp, theta0, optimizer, config, Budget(max_steps=1), 3)  # warm numpy's caches
    peak, result = traced_peak(
        lambda: run(mlp, theta0, optimizer, config, Budget(max_steps=steps), 3))
    assert result.status == "completed"
    return peak, mlp


def _fo_sgd_run_peak(b):
    return _mlp_run_peak("fo-sgd", FoSgdConfig(eta=1e-2, b=b))


def test_mezo_run_heap_within_model():
    # parameters plus the pieces of z in flight; at d = 235,146 two lanes stream
    peak, mlp = _mlp_run_peak("mezo", MezoConfig(eta=1e-3, b=8))
    _assert_within(peak, account_memory("mezo", None, mlp.d))


def test_mezo_svrg_run_heap_within_model():
    # parameters, the anchor copy and the pieces in flight: the anchor estimate
    # stays a seed and a scalar, so the run fits recompute_g's 2d + C
    peak, mlp = _mlp_run_peak("mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8))
    _assert_within(peak, account_memory("mezo-svrg", "recompute_g", mlp.d))


def test_fo_sgd_run_heap_within_model():
    peak, mlp = _fo_sgd_run_peak(8)
    _assert_within(peak, account_memory("fo-sgd", None, mlp.d))


def test_fo_sgd_run_heap_within_model_plus_batch_gather():
    # a minibatch query gathers its b x 784 rows, a term proportional to the
    # data that the 2d + C model leaves out: at b = 64 the peak exceeds the
    # model by most of that term
    peak, mlp = _fo_sgd_run_peak(64)
    gather = 64 * mlp.features.shape[1]
    _assert_within(peak, account_memory("fo-sgd", None, mlp.d) + gather)


def test_saving_over_fo_sgd_grows_with_the_batch_size():
    # the paper's memory claim: FO-SGD's backward pass holds activations and
    # their gradients for all b rows, while a MeZO-SVRG query holds one forward
    # pass at a time, so the FO-SGD / MeZO-SVRG peak ratio rises with b
    ratios = []
    for b in (8, 64, 256, 1024):
        fo, _ = _mlp_run_peak("fo-sgd", FoSgdConfig(eta=1e-2, b=b), n=1024, steps=3)
        svrg, _ = _mlp_run_peak(
            "mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=b, anchor_batch=b),
            n=1024, steps=3)
        ratios.append(fo / svrg)
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:])), ratios
