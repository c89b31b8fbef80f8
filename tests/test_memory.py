import tracemalloc

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
from zovr.estimators import PARALLEL_MIN_D, STREAM_CHUNK, _stream_add_scaled
from zovr.memory import CONSTANT_OVERHEAD


def test_model_values_and_exact_ratios():
    d = 10**6
    c = CONSTANT_OVERHEAD
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


def _measured_peak(optimizer, config, steps=6):
    ls = make_least_squares(48, 24, seed=1)
    meter = SlotMeter()
    result = run(ls, ls.initial_theta(), optimizer, config,
                 Budget(max_steps=steps), 3, meter=meter)
    assert result.status == "completed"
    return meter.peak, ls.d


def test_measured_mezo_is_parameters_only():
    peak, d = _measured_peak("mezo", MezoConfig(eta=1e-3, b=8))
    assert peak == d
    assert peak <= account_memory("mezo", None, d)


def test_measured_mezo_svrg_stays_under_model():
    peak, d = _measured_peak("mezo-svrg", MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=2, b=8))
    # the in-place implementation keeps the anchor estimate compressed, so it
    # measures 2d (parameters + anchor copy), below the 3d store_g model
    assert peak == 2 * d
    assert peak <= account_memory("mezo-svrg", "recompute_g", d)
    assert peak <= account_memory("mezo-svrg", "store_g", d)


def test_measured_naive_zo_svrg_hits_five_d():
    peak, d = _measured_peak("zo-svrg", ZoSvrgConfig(eta=1e-3, b=8, q=3))
    assert peak == 5 * d
    assert peak <= account_memory("zo-svrg", "naive", d)


def test_measured_fo_sgd_two_d():
    peak, d = _measured_peak("fo-sgd", FoSgdConfig(eta=1e-3, b=8))
    assert peak == 2 * d
    assert peak <= account_memory("fo-sgd", None, d)


def _stream_pass_peak(d):
    theta = np.zeros(d)
    seed = PerturbationSeed(17, 5)
    _stream_add_scaled(theta, seed, 0.5)  # warm numpy's caches and the lane pool
    tracemalloc.start()
    try:
        _stream_add_scaled(theta, seed, -0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_kernel_heap_within_constant_overhead():
    # three full chunks and a ragged tail; the constant C is in float64 slots
    assert _stream_pass_peak(3 * STREAM_CHUNK + 7) <= CONSTANT_OVERHEAD * 8


def test_two_lane_stream_heap_within_constant_overhead():
    # both lanes' pieces in flight together still fit in C
    assert _stream_pass_peak(PARALLEL_MIN_D + 7) <= CONSTANT_OVERHEAD * 8
