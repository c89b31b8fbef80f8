import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import estimators, prng
from zovr.estimators import (
    LANE_PIECE, STREAM_CHUNK, PerturbationSeed, _stream_add_scaled, sample_minibatch)

import helpers
from helpers import assert_pinned, traced_peak


def test_normals_deterministic():
    a = prng.normals(42, 0, 512)
    b = prng.normals(42, 0, 512)
    assert np.array_equal(a, b)


def test_normals_window_is_random_access():
    whole = prng.normals(7, 0, 1000)
    part = prng.normals(7, 300, 200)
    assert np.array_equal(whole[300:500], part)


def test_distinct_seeds_decorrelated():
    a = prng.normals(42, 0, 10_000)
    b = prng.normals(43, 0, 10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_normal_moments():
    z = prng.normals(11, 0, 100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_uniforms_in_range():
    u = prng.uniforms(5, 0, 10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_raw_word_matches_array_path():
    words = prng.raw_words(123, 10, 8)
    for k in range(8):
        assert prng.raw_word(123, 10 + k) == int(words[k])


def test_fold_children_are_unrelated():
    children = {prng.fold(99, v) for v in range(1000)}
    assert len(children) == 1000
    z_a = prng.normals(prng.fold(99, 0), 0, 4096)
    z_b = prng.normals(prng.fold(99, 1), 0, 4096)
    assert abs(np.corrcoef(z_a, z_b)[0, 1]) < 0.1


def test_randint_below_bounds_and_determinism():
    vals = [prng.randint_below(3, k, 17) for k in range(500)]
    assert all(0 <= v < 17 for v in vals)
    assert vals == [prng.randint_below(3, k, 17) for k in range(500)]
    with pytest.raises(ValueError):
        prng.randint_below(3, 0, 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       start=st.integers(min_value=0, max_value=2**20),
       count=st.integers(min_value=1, max_value=257))
def test_normals_pure_function_of_window(seed, start, count):
    a = prng.normals(seed, start, count)
    b = prng.normals(seed, start, count)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


# SHA-256 of fixed stream windows, recorded from the original scalar-mixer
# implementation. Any change to the kernels must leave every digest intact.
_PIN_SEEDS = (0, 2**64 - 59)
_PIN_STARTS = (0, 1_000_000_007)
_PINNED_WINDOWS = {
    ("normals", 0, 0): "64d92b4b22ca4394a978090497f5da04aae2c2c5a2b5dab2b382b689fe126fe4",
    ("normals", 0, 1): "a6a0789db386c6c46057553a4e9312efb8c5cbe28783b27e5e30192b5d58c148",
    ("normals", 1, 0): "902a40da8237384a21ed2f1f9ccb6273c3a0777f0c3317ff8caafbb52bdd3bd8",
    ("normals", 1, 1): "7b516b7387d9dd4f24ffda89f99d86d71e9cb509e516e86fba503eea163bd42e",
    ("uniforms", 0, 0): "d08dedf2ce3f5e585c56c70860829dc8b1fb5ef9da11308d0206ebda6b8248f5",
    ("uniforms", 0, 1): "c10aff3fbd9464e53bb828248f360bccaef53144157319f66d2f9c890993832d",
    ("uniforms", 1, 0): "16b2eda572da41e2f9c620ed797ad14c017430abf4238af45c4a7bbfe2e1ad96",
    ("uniforms", 1, 1): "63d1dcf21d00b31ce03d9458ebd0052a4ddd00207d8160e46de58d24da685af2",
    ("raw_words", 0, 0): "22cb8aff4a1233880ce703ea02560ee28e89f53f898c384ddb1ef07299025967",
    ("raw_words", 0, 1): "a566460e78eabe0714ddf238dc9d057a44441f4e768a6ff11b12f998af32f257",
    ("raw_words", 1, 0): "9a1f74aa3ae9c87819698fd10a67397f4a687a6d6a58a4e15defd294b8c64b9a",
    ("raw_words", 1, 1): "25073d888ca56e49663ac4148786d6526b30804bdaf1cd239d5fa5a276bfda19",
}
_PIN_COUNTS = {
    "normals": (1, 3, 100, 9434, 16384),
    "uniforms": (1, 100, 5000),
    "raw_words": (1, 100, 5000),
}
_PINNED_MINIBATCHES = {
    (1000, 32): "0ec23a73b4b9e85a5a46ffbd8948e13452186595bf69830f304c4857545eaee0",
    (7, 7): "991a14bbee1272655e2bfdbc19fe55c09ddf81511be3b0a333f660e27bbbc280",
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(_PINNED_WINDOWS))
def test_stream_windows_pinned(key):
    fn, seed_i, start_i = key
    seed, start = _PIN_SEEDS[seed_i], _PIN_STARTS[start_i]
    windows = (getattr(prng, fn)(seed, start, c) for c in _PIN_COUNTS[fn])
    assert_pinned(_digest(windows), _PINNED_WINDOWS[key])


# The ids keep the names these two cases had when the sampler also had a
# with-replacement mode, whose digests were key0 and key1.
@pytest.mark.parametrize("key", sorted(_PINNED_MINIBATCHES), ids=["key2", "key3"])
def test_minibatch_stream_pinned(key):
    n, b = key
    batches = (sample_minibatch(n, b, s).indices for s in (*_PIN_SEEDS, 12345))
    assert _digest(batches) == _PINNED_MINIBATCHES[key]


# SHA-256 of windows on both sides of every size gate of the kernels: the
# 512-word counter table (256 normals, 512 words), one STREAM_CHUNK piece
# of a z pass, and the arange path beyond, at odd starts. Recorded from the
# kernels as they were before the table and the one-piece pass existed.
_GATE_SEEDS = (12345, 2**64 - 59)
_GATE_COUNTS = (1, 255, 256, 257, 511, 512, 513, 8192, 16391)
_PINNED_GATE_WINDOWS = {
    ("normals", 3): "ebf7f739fead5ca4e3561499d2550fd22902481dff2db3d320d776484a15c2e5",
    ("normals", 2**40 + 1): "a7498c3dc8fa12a4b1f43a57106459d2bc8ea4ac3e953ee598d1937ea000a7fd",
    ("raw_words", 3): "14175b948b17ad2c69e8e67a9fa9269cfa7a8f1db9cc977d4f1593e40d671d65",
    ("raw_words", 2**40 + 1): "bad09c994da4bee68f32108e27f34881dd5a635d2690f28f4386e2d78c336552",
}
_PINNED_GATE_MINIBATCHES = {
    (1000, 32): "e48dd721a0eebef79723f3c3c1d22de42d29d71d3d48c9a00f811c3a1e5422b1",
    (1000, 1000): "986e65a1aa68a7fa4dc24545ec6481f0be6e137fb4e1e9998c6a70e7293a9ce9",
    (7, 7): "991a14bbee1272655e2bfdbc19fe55c09ddf81511be3b0a333f660e27bbbc280",
}


@pytest.mark.parametrize("key", list(_PINNED_GATE_WINDOWS))
def test_windows_across_size_gates_pinned(key):
    fn, start = key
    windows = (getattr(prng, fn)(s, start, c) for s in _GATE_SEEDS for c in _GATE_COUNTS)
    assert_pinned(_digest(windows), _PINNED_GATE_WINDOWS[key])


@pytest.mark.parametrize("key", list(_PINNED_GATE_MINIBATCHES))
def test_minibatches_across_size_gates_pinned(key):
    batches = (sample_minibatch(*key, s).indices for s in (1, 2**63 + 7, 99991))
    assert _digest(batches) == _PINNED_GATE_MINIBATCHES[key]


def _z_passes(sizes):
    for d in sizes:
        theta = prng.normals(77, 0, d)
        _stream_add_scaled(theta, PerturbationSeed(2**64 - 59, 5), -0.37)
        yield theta


def test_z_pass_across_the_one_piece_gate_pinned():
    # the gate when STREAM_CHUNK was 16,384; recorded before the gate existed
    passes = _z_passes((1, 100, 16384, 16385))
    assert_pinned(_digest(passes),
                  "564196abd5369acc9860e28dbee121e6b328e17d98208ee3c41698a7f10fac25")


def test_z_pass_across_todays_piece_gate_pinned():
    # recorded when every size here but the last streamed as one 16,384-value piece
    c = estimators.STREAM_CHUNK
    passes = _z_passes((c - 1, c, c + 1, 3 * c + 5))
    assert c == 8192
    assert_pinned(_digest(passes),
                  "9da63fb606fe6cc22f009a8dc139b18a258b97bbb4340e8508325e822bc1c183")


def test_a_pin_that_cannot_hold_on_this_cpu_says_why(monkeypatch):
    assert_pinned("same", "same")
    # where the pins were taken on this CPU's dispatch, a mismatch is plain
    monkeypatch.setattr(helpers, "PINNED_NORMALS_FINGERPRINT", helpers.normals_fingerprint())
    with pytest.raises(AssertionError, match="got new, pinned old$"):
        assert_pinned("new", "old")
    monkeypatch.setattr(helpers, "PINNED_NORMALS_FINGERPRINT", "0" * 64)
    with pytest.raises(AssertionError, match="pinned on an AVX-512 numpy dispatch"):
        assert_pinned("new", "old")


def test_no_resident_buffers_beyond_the_counter_table():
    # tracemalloc peaks never see what a module allocates at import, so a
    # per-call temporary moved into a module-level table would hide there
    values = [v for m in (prng, estimators) for v in vars(m).values()]
    values += [x for v in values if isinstance(v, (tuple, list)) for x in v]
    values += [x for v in values if isinstance(v, dict) for x in v.values()]
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    constants = sum(a.nbytes for a in arrays if a.ndim == 0)
    assert sum(a.nbytes for a in arrays) <= 4096 + constants


@pytest.mark.parametrize("count", [257, STREAM_CHUNK, LANE_PIECE])
def test_a_long_window_holds_three_words_per_value(count):
    # past the counter table, normals holds its two word rows and its output,
    # and nothing else of the window's size
    prng.normals(3, 0, count)  # warm numpy's caches
    peak = traced_peak(lambda: prng.normals(3, 5, count))[0]
    assert peak <= 24 * count + 2048, f"{peak / count:.2f} bytes per value"
