import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import prng
from zovr.estimators import sample_minibatch


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
    assert _digest(windows) == _PINNED_WINDOWS[key]


# The ids keep the names these two cases had when the sampler also had a
# with-replacement mode, whose digests were key0 and key1.
@pytest.mark.parametrize("key", sorted(_PINNED_MINIBATCHES), ids=["key2", "key3"])
def test_minibatch_stream_pinned(key):
    n, b = key
    batches = (sample_minibatch(n, b, s).indices for s in (*_PIN_SEEDS, 12345))
    assert _digest(batches) == _PINNED_MINIBATCHES[key]
