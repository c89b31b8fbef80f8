import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import estimators, prng
from zovr.estimators import (
    LANE_PIECE, STREAM_CHUNK, GradientEstimate, PerturbationSeed, _stream_add_scaled,
    sample_minibatch)

import helpers
from helpers import assert_pinned, child_env, stream_word, traced_peak


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
        assert stream_word(123, 10 + k) == int(words[k])


def test_fold_children_are_unrelated():
    children = {prng.fold(99, v) for v in range(1000)}
    assert len(children) == 1000
    z_a = prng.normals(prng.fold(99, 0), 0, 4096)
    z_b = prng.normals(prng.fold(99, 1), 0, 4096)
    assert abs(np.corrcoef(z_a, z_b)[0, 1]) < 0.1


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


def _pin_cases(keys):
    """Each key as its own case, and each normals key again through the numpy path."""
    return ([pytest.param(key, False, id=f"key{i}") for i, key in enumerate(keys)]
            + [pytest.param(key, True, id=f"key{i}-numpy")
               for i, key in enumerate(keys) if key[0] == "normals"])


@pytest.mark.parametrize("key, numpy_path", _pin_cases(sorted(_PINNED_WINDOWS)))
def test_stream_windows_pinned(key, numpy_path, monkeypatch):
    if numpy_path:
        monkeypatch.setattr(prng, "ZKERNEL", None)
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


@pytest.mark.parametrize("key, numpy_path", _pin_cases(list(_PINNED_GATE_WINDOWS)))
def test_windows_across_size_gates_pinned(key, numpy_path, monkeypatch):
    if numpy_path:
        monkeypatch.setattr(prng, "ZKERNEL", None)
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


@pytest.mark.parametrize("count", [1, 100, 255, 256, 257, STREAM_CHUNK, LANE_PIECE])
def test_every_window_holds_three_words_per_value(count, monkeypatch):
    # without a compiled kernel, on both sides of the counter table, normals
    # holds its two word rows and its output, and nothing else of the window's size
    monkeypatch.setattr(prng, "ZKERNEL", None)
    prng.normals(3, 0, count)  # warm numpy's caches
    peak = traced_peak(lambda: prng.normals(3, 5, count))[0]
    assert peak <= 24 * count + 2048, f"{peak / count:.2f} bytes per value"


# The compiled z kernel. Where a C compiler runs it must have been built: a
# machine with none runs the numpy path, which is its own reference.
needs_compiler = pytest.mark.skipif(shutil.which(prng._CC) is None,
                                    reason="no C compiler to build the z kernel")
_KERNEL_COUNTS = (0, 1, 255, 256, 257, 1023, 1024, 1025, 2049, 6455, 16387)
_KERNEL_SEEDS = (0, 2**64 - 1)
_KERNEL_STARTS = (0, 2**40)

# exits 1 unless this process runs a compiled kernel that matches the numpy
# reference bit for bit over the windows of _KERNEL_COUNTS, _KERNEL_SEEDS and
# _KERNEL_STARTS, given as its arguments
_COMPARE_IN_CHILD = """
import json, sys
from zovr import prng
counts, seeds, starts = (json.loads(a) for a in sys.argv[1:])
same = prng.ZKERNEL is not None and all(
    prng.normals(s, a, c).tobytes() == prng._numpy_normals(s, a, c).tobytes()
    for c in counts for s in seeds for a in starts)
sys.exit(0 if same else 1)
"""


def _python(code: str, *args: str, **env: str) -> subprocess.Popen:
    """A child interpreter running `code` on zovr from this tree's sources."""
    return subprocess.Popen([sys.executable, "-c", code, *args], env=child_env(**env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(child: subprocess.Popen) -> tuple[int, str]:
    try:
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    return child.returncode, err


@needs_compiler
@pytest.mark.parametrize("count", _KERNEL_COUNTS)
def test_compiled_kernel_matches_the_numpy_reference(count):
    assert prng.ZKERNEL is not None
    for seed in _KERNEL_SEEDS:
        for start in _KERNEL_STARTS:
            z = prng.normals(seed, start, count)
            reference = prng._numpy_normals(seed, start, count)
            assert z.dtype == reference.dtype and z.shape == reference.shape == (count,)
            assert z.tobytes() == reference.tobytes(), (seed, start)


@needs_compiler
def test_compiled_kernel_matches_the_numpy_reference_without_avx512():
    # np.log's AVX2 loop makes other bits than its AVX-512 one; the kernel
    # calls numpy's log, so it follows numpy to whichever loop it dispatches
    child = _python(_COMPARE_IN_CHILD, *map(json.dumps, (_KERNEL_COUNTS, _KERNEL_SEEDS,
                                                         _KERNEL_STARTS)),
                    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    code, err = _finish(child)
    assert code == 0, err


# Where glibc's cos changes branch over [0, 2 pi), as _zkernel.c's PATH_EDGES
_COS_PATH_EDGES = np.array([0.855469, np.pi / 2 - 0.126, np.pi / 2 + 0.126, 2.426265,
                            5 * np.pi / 4, 3 * np.pi / 2 - 0.126, 3 * np.pi / 2 + 0.126,
                            7 * np.pi / 4])


@given(st.integers(0, 2**64 - 1))
def test_unmix64_inverts_the_finalizer(word):
    assert helpers.unmix64(prng.mix64(word)) == word


@needs_compiler
@pytest.mark.parametrize("count", [1023, 1024, 2049])
def test_normals_match_numpy_at_every_path_edge(count):
    # the stream angles on either side of each edge of cos's paths, the one
    # after, 0 and the largest, each made by the last value of its window:
    # sorting by path (from 1,024 values; 1,023 takes the straight loop) moves
    # no bit, in a fresh window or added into a target. Stream angles lie
    # fl(2 pi) * 2**-53 apart, up to 6.3 ulp at the lowest edge, so these are
    # the nearest the stream reaches.
    def angle(k):
        return float(np.float64(k) * prng._TWO_PI_M53)

    picks = [0, 2**53 - 1]
    for edge in _COS_PATH_EDGES:
        k = int(edge / prng._TWO_PI_M53)
        while angle(k) >= edge:
            k -= 1
        while angle(k + 1) < edge:
            k += 1
        assert angle(k) < edge <= angle(k + 1)
        picks += [k, k + 1, k + 2]
    start, j = 5, count - 1
    for k in picks:
        seed = helpers.seed_with_angle(k, start, j)
        assert int(prng.raw_words(seed, 2 * (start + j) + 1, 1)[0]) >> 11 == k
        reference = prng._numpy_normals(seed, start, count)
        assert prng.normals(seed, start, count).tobytes() == reference.tobytes(), k
        target = prng._numpy_normals(3, 0, count)
        expected = target + reference * -0.37
        prng.normals(seed, start, count, add_to=target, scale=-0.37)
        assert target.tobytes() == expected.tobytes(), k


@needs_compiler
def test_the_kernel_exports_only_what_prng_calls():
    # an entry point that only a test calls is code no shipped path runs
    public = [name for name in dir(prng.ZKERNEL)
              if not name.startswith("_") and callable(getattr(prng.ZKERNEL, name))]
    assert sorted(public) == ["normals", "sample"]


@needs_compiler
def test_the_kernel_source_compiles_without_warnings(tmp_path):
    # with the flags that build the kernel: GCC emits some warnings only when
    # it optimises, which -fsyntax-only never does
    flags = [flag for flag in prng._CFLAGS if flag != "-shared"]
    headers = [flag for path in prng._INCLUDES for flag in ("-isystem", path)]
    built = subprocess.run([prng._CC, *flags, "-Wall", "-Wextra", "-Werror", *headers, "-c",
                            "-o", str(tmp_path / "zkernel.o"), prng._ZKERNEL_SOURCE],
                           capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr


@needs_compiler
def test_a_kernel_one_ulp_off_loads_as_none(tmp_path, monkeypatch):
    with open(prng._ZKERNEL_SOURCE) as fh:
        source = fh.read()
    mutations = {
        "-2.0": "-0x1.0000000000001p+1",  # -2 one ulp out, in both forms
        # the pass form's scale * z one ulp out; a fresh window keeps its bits
        "dst[j] += z * scale": "dst[j] += z * scale * 0x1.0000000000001p+0",
        # the sampler's bound one short, then its fallback one high: z keeps its bits
        "% (n - b + 1 + k)": "% (n - b + k)",
        "t = n - b + k;": "t = n - b + k + 1;",
        # the sampler returns None: a check that raises refuses the kernel too
        "PyMem_RawFree(table);\n    return out;":
            "PyMem_RawFree(table);\n    Py_DECREF(out);\n    Py_RETURN_NONE;",
    }
    for i, (exact, off) in enumerate(mutations.items()):
        assert source.count(exact) == 1
        mutant = tmp_path / f"_zkernel{i}.c"
        mutant.write_text(source.replace(exact, off))
        monkeypatch.setattr(prng, "_ZKERNEL_SOURCE", str(mutant))
        cache = tmp_path / f"cache{i}"
        assert prng._load_zkernel(str(cache)) is None, exact
        assert [path.suffix for path in cache.iterdir()] == [".so"]  # built, then refused


@needs_compiler
def test_a_compiled_window_holds_two_words_per_value():
    # at most: the array, which takes u1 in place, and one block's angles
    for count in (100, 257, STREAM_CHUNK, LANE_PIECE):
        prng.normals(3, 0, count)
        peak = traced_peak(lambda: prng.normals(3, 5, count))[0]
        bound = 8 * count + 8 * min(count, 1024) + 2048
        assert peak <= bound, f"{count}: {peak} bytes, bound {bound}"


@needs_compiler
def test_a_compiled_pass_holds_no_window_sized_scratch():
    # the pass form adds into its target from two rows of at most 1,024 values
    for count in (100, 257, STREAM_CHUNK, LANE_PIECE):
        target = np.zeros(count)
        prng.normals(3, 0, count, add_to=target, scale=0.5)
        peak = traced_peak(lambda: prng.normals(3, 5, count, add_to=target, scale=0.5))[0]
        assert peak <= 16 * 1024 + 2048, f"{count}: {peak} bytes"


# (n, b) pairs for the compiled sampler: small and wide batches, b = n, n = 1,
# populations past 32 bits up to the int64 bound, and the load-time case
_SAMPLER_SIZES = ((1000, 32), (512, 64), (100, 50), (100, 99), (5000, 1000), (10, 10),
                  (1000, 1000), (7, 7), (1, 1), (2**40, 7), (2**63, 7), (2**63, 1))
_SAMPLER_SEEDS = (0, 1, 2, 3, 99991, 2**63, 2**64 - 59, 2**64 - 1)


@needs_compiler
@pytest.mark.parametrize("n, b", _SAMPLER_SIZES)
def test_compiled_sampler_matches_the_python_reference(n, b):
    assert prng.ZKERNEL is not None
    for seed in _SAMPLER_SEEDS:
        indices, reference = prng.ZKERNEL.sample(n, b, seed), prng._python_sample(n, b, seed)
        assert indices.dtype == reference.dtype == np.int64
        assert indices.tolist() == reference.tolist(), seed
        # what the kernel returns is a valid batch, not only one by construction
        assert estimators.Minibatch(indices).indices.tolist() == indices.tolist()


def test_without_a_kernel_the_python_sampler_draws_the_same_batches(monkeypatch):
    batches = [sample_minibatch(n, b, seed).indices
               for n, b in _SAMPLER_SIZES for seed in _SAMPLER_SEEDS]
    monkeypatch.setattr(prng, "ZKERNEL", None)
    reference, calls = prng._python_sample, []
    monkeypatch.setattr(prng, "_python_sample",
                        lambda *args: calls.append(args) or reference(*args))
    again = [sample_minibatch(n, b, seed).indices
             for n, b in _SAMPLER_SIZES for seed in _SAMPLER_SEEDS]
    assert len(calls) == len(batches)
    assert [a.dtype for a in again] == [a.dtype for a in batches]
    assert [a.tolist() for a in again] == [a.tolist() for a in batches]


@needs_compiler
def test_the_compiled_sampler_refuses_what_sample_minibatch_refuses():
    for args in [(10, 0, 1), (10, 11, 1), (2**63 + 1, 7, 1), (0, 1, 1)]:
        with pytest.raises(ValueError, match="1 <= b <= n <= 2"):
            prng.ZKERNEL.sample(*args)
    for args in [(-1, 1, 1), (2**64, 1, 1)]:
        with pytest.raises(OverflowError):
            prng.ZKERNEL.sample(*args)
    for args in [(10, 2, 1.5), (10.0, 2, 1), (10, 2)]:
        with pytest.raises(TypeError):
            prng.ZKERNEL.sample(*args)


@needs_compiler
@pytest.mark.parametrize("n, b", [(1000, 32), (512, 64)])
def test_a_compiled_batch_holds_its_output_and_its_table(n, b):
    # the b indices, a table of the first power of two >= 2b words, and 2 KiB
    sample_minibatch(n, b, 1)
    peak = traced_peak(lambda: prng.ZKERNEL.sample(n, b, 2))[0]
    slots = 1 << (2 * b - 1).bit_length()
    assert peak <= 8 * b + 8 * slots + 2048, f"{peak} bytes"


@pytest.mark.parametrize("d", [100, STREAM_CHUNK + 5])
def test_a_target_the_kernel_cannot_write_takes_the_numpy_pass(d):
    # a strided view of theta, one piece or several: the two-step numpy form,
    # z *= alpha; theta += z, in the very bits of a contiguous theta
    wide = prng.normals(77, 0, 2 * d)
    seed, alpha = PerturbationSeed(2**64 - 59, 5), -0.37
    strided = wide.copy()
    estimators.stream_passes(strided[::2], [(seed, alpha), (seed, -alpha)])
    estimators.axpy_estimate_in_place(strided[::2], GradientEstimate(seed, (0.25,), d, 2), 3.0)
    expected = wide[::2].copy()
    for scale in (alpha, -alpha, 3.0 * 0.25 * 1.0):
        z = prng._numpy_normals(seed.seed, seed.offset, d)
        z *= scale
        expected += z
    contiguous = wide[::2].copy()
    estimators.stream_passes(contiguous, [(seed, alpha), (seed, -alpha)])
    estimators.axpy_estimate_in_place(contiguous, GradientEstimate(seed, (0.25,), d, 2), 3.0)
    assert strided[::2].tobytes() == expected.tobytes() == contiguous.tobytes()
    assert strided[1::2].tobytes() == wide[1::2].tobytes()


@pytest.mark.parametrize("numpy_path", [False, True])
def test_a_pass_with_wrong_arguments_raises_before_any_write(numpy_path, monkeypatch):
    if numpy_path:
        monkeypatch.setattr(prng, "ZKERNEL", None)
    target, as_list, as_ints = np.zeros(5), [0.0] * 5, np.zeros(5, np.int64)
    read_only = np.zeros(5)
    read_only.flags.writeable = False
    cases = [
        (TypeError, (1, 0, 5), {"add_to": as_list}),
        (TypeError, (1, 0, 5), {"add_to": as_ints}),
        (ValueError, (1, 0, 4), {"add_to": target}),
        (ValueError, (1, 0, 5), {"add_to": target.reshape(1, 5)}),
        (ValueError, (1, 0, 5), {"add_to": read_only}),
        (ValueError, (1, 0, -1), {"add_to": target}),
        (TypeError, (1, 0, 5), {"add_to": target, "scale": "x"}),
        (TypeError, (1.5, 0, 5), {"add_to": target}),
        (TypeError, (1, 0, 5.0), {"add_to": target}),
        (TypeError, (1, 0), {"add_to": target}),
    ]
    for error, args, kwargs in cases:
        with pytest.raises(error):
            prng.normals(*args, **kwargs)
    if not numpy_path and prng.ZKERNEL is not None:
        for args in [(1, 0, 5, target), (1, 0, 5, target, 1.0, 2)]:
            with pytest.raises(TypeError):
                prng.ZKERNEL.normals(*args)
    assert as_list == [0.0] * 5
    assert not (target.any() or as_ints.any() or read_only.any())


def test_a_relative_cache_builds_nothing(tmp_path, monkeypatch):
    # expanduser("~") stays "~" where HOME is unset and the uid has no passwd entry
    monkeypatch.chdir(tmp_path)
    assert prng._load_zkernel("~/.cache/zovr") is None
    assert not (tmp_path / "~").exists()


@pytest.mark.parametrize("compiler", ["missing", "failing", "headerless"])
def test_a_build_that_cannot_run_falls_back_to_the_same_bits(tmp_path, monkeypatch, compiler):
    failing = shutil.which("false")
    if compiler == "failing" and failing is None:
        pytest.skip("no `false` program to stand in for a failing compiler")
    if compiler == "headerless" and shutil.which(prng._CC) is None:
        pytest.skip("no C compiler to fail on missing headers")
    before = [prng.normals(seed, 2**40, 300) for seed in _KERNEL_SEEDS]
    cache = tmp_path / "cache"
    if compiler == "headerless":  # no Python.h and no numpy headers
        monkeypatch.setattr(prng, "_INCLUDES", (str(tmp_path / "no-python"),
                                                str(tmp_path / "no-numpy")))
    else:
        monkeypatch.setattr(prng, "_CC",
                            str(tmp_path / "no-cc") if compiler == "missing" else failing)
    kernel = prng._load_zkernel(str(cache))
    assert kernel is None
    assert list(cache.iterdir()) == []  # no library and no temporary file
    with pytest.raises(ChildProcessError):  # and no compiler process left to reap
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(prng, "ZKERNEL", kernel)
    after = [prng.normals(seed, 2**40, 300) for seed in _KERNEL_SEEDS]
    assert [z.tobytes() for z in after] == [z.tobytes() for z in before]


@needs_compiler
def test_two_processes_building_into_one_empty_cache_both_load_it(tmp_path):
    cache = tmp_path / "cache"
    code = "import sys; from zovr import prng; sys.exit(prng._load_zkernel(sys.argv[1]) is None)"
    children = [_python(code, str(cache)) for _ in range(2)]
    results = [_finish(child) for child in children]
    assert [status for status, _ in results] == [0, 0], results
    built = [path.name for path in cache.iterdir()]
    assert len(built) == 1 and built[0].startswith("zkernel-") and built[0].endswith(".so")
