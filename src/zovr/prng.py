"""Counter-based deterministic random streams.

Everything random in this library flows through one pinned generator so
that a 64-bit seed is enough to regenerate any perturbation vector,
minibatch, or problem instance, bit-for-bit on a given platform and
numpy build. The generator is deliberately *not* numpy's default PRNG:
seed-replay of optimizer trajectories needs a stateless, random-access
stream whose output is a pure function of (seed, counter).

Construction: the k-th 64-bit word of stream `seed` is
``mix64(seed + (k + 1) * GOLDEN)`` where ``mix64`` is the SplitMix64
finalizer. Standard normals are produced from consecutive word pairs by
the basic Box-Muller transform; uniforms take the top 53 bits of one
word. Integer draws in [0, bound) (the minibatch sampler, the synthetic
digit labels) take one word mod bound; the bias is O(bound / 2**64).
Any (seed, index range) can therefore be regenerated without storing
state. Every stream is made by the array functions below; `mix64` and
`fold` are the scalar finalizer and the seed splitter.

Normals, the perturbation z that every step regenerates, come from a
compiled kernel (``_zkernel.c``), a CPython extension module: one call
mixes the words, runs numpy's own log loop and finishes Box-Muller for a
whole window, with the interpreter lock released from start to end, and
either returns the window or adds scale * z into a target. The kernel
also draws each live step's minibatch: one call runs Floyd's sampler
over the stream's words and sorts the batch. Importing this module builds
it once per machine with the system C compiler into a private per-user
cache, and uses it only once `_kernel_misses`, the check `zovr verify`
reports too, finds no miss. Where it cannot be built or misses, `normals`
runs `_numpy_normals`, the same bits in numpy, and `sample` runs
`_python_sample`, the same batches in Python; they are also the
references the kernel is tested against.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sysconfig
import tempfile

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy forms of the constants, as 0-d arrays: a ufunc takes a 0-d array
# operand at a fraction of the cost of a numpy scalar or a python int, and
# uint64 arithmetic stays in uint64.
_U64 = np.dtype(np.uint64)
_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U_GOLDEN = np.array(GOLDEN, _U64)
_U_2GOLDEN = np.array(2 * GOLDEN & _MASK, _U64)
_U_MIX1 = np.array(_MIX1, _U64)
_U_MIX2 = np.array(_MIX2, _U64)
_U_30 = np.array(30, _U64)
_U_27 = np.array(27, _U64)
_U_31 = np.array(31, _U64)
_U_11 = np.array(11, _U64)

# Exact power-of-two scales: a 53-bit integer times 2**-53 is exact, and
# x * (2*pi * 2**-53) rounds exactly like (x / 2**53) * (2*pi).
_TWO_M53 = np.array(2.0**-53)
_TWO_PI_M53 = np.array((2.0 * np.pi) * 2.0**-53)
_MINUS_2 = np.array(-2.0)

# k * GOLDEN mod 2**64 for the first _TABLE_WORDS words of a window (4 KiB):
# a short window adds a slice of it to its first counter instead of building
# an arange and scaling it, which at a few hundred words costs more than
# the words themselves.
_TABLE_WORDS = 512
_OFFSETS = np.arange(_TABLE_WORDS, dtype=_U64)
np.multiply(_OFFSETS, _U_GOLDEN, out=_OFFSETS)
_OFFSETS.flags.writeable = False

# The compiled z kernel: its C source, the compiler, flags and header
# directories that build it, and the private per-user directory its
# extension modules are cached in, one per hash of all of those, the
# interpreter's extension suffix and numpy's version. No -ffast-math and no
# -march=native: either may change the bits of a value.
_ZKERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_zkernel.c")
_CC = "cc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_INCLUDES = (sysconfig.get_paths()["include"], np.get_include())
_ZKERNEL_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "zovr")


def _load_zkernel(cache: str):
    """The compiled kernel's extension module, or None.

    The first process to need a module compiles it into a temporary file in
    `cache` and renames it into place, so a concurrent build or reader never
    sees half a file. None where the source, the compiler, Python's or
    numpy's headers or a private cache is missing, or the build or the load
    fails (a numpy whose np.log has no float64 loop to call), or the kernel
    misses a case of `_kernel_misses` (a compiler or libm that moved a bit):
    `normals` then runs in numpy, and `sample` in Python.
    """
    if not os.path.isabs(cache):
        return None  # a home of "~" would build under every working directory
    try:
        with open(_ZKERNEL_SOURCE, "rb") as fh:
            source = fh.read()
        build = [*_CFLAGS, *(flag for path in _INCLUDES for flag in ("-isystem", path))]
        key = hashlib.sha256(b"\0".join([
            source, " ".join(build).encode(), str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
            np.__version__.encode()])).hexdigest()[:16]
        path = os.path.join(cache, f"zkernel-{key}.so")
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # a module others can plant is not loaded
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *build, "-x", "c", "-", "-o", tmp, "-lm"],
                               input=source, capture_output=True, check=True, timeout=120)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        loader = importlib.machinery.ExtensionFileLoader("zovr._zkernel", path)
        kernel = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location("zovr._zkernel", path, loader=loader))
        loader.exec_module(kernel)
    except (OSError, subprocess.SubprocessError, ImportError):
        return None
    return None if any(_kernel_misses(kernel)) else kernel


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a python int, mod 2**64."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def fold(seed: int, value: int) -> int:
    """Derive a child seed from (seed, value).

    Used to split one master seed into per-purpose, per-step streams:
    ``fold(fold(master, tag), step)``. Both arguments are fully
    avalanched, so nearby values give unrelated streams.
    """
    return mix64((seed ^ mix64(((value + 1) * GOLDEN) & _MASK)) + GOLDEN)


def _mix64_in_place(x: np.ndarray, t: np.ndarray | None = None) -> None:
    """SplitMix64 finalizer over a uint64 array, in place.

    `t` is scratch of x's shape; without it one temporary is made.
    """
    t = np.right_shift(x, _U_30, out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, _U_MIX1, out=x)
    np.right_shift(x, _U_27, out=t)
    np.bitwise_xor(x, t, out=x)
    np.multiply(x, _U_MIX2, out=x)
    np.right_shift(x, _U_31, out=t)
    np.bitwise_xor(x, t, out=x)


def _counters(x: np.ndarray, first: int, stride: int) -> None:
    """x[j] = first + j * stride * GOLDEN mod 2**64, for stride 1 or 2."""
    count = x.shape[0]
    if count * stride <= _TABLE_WORDS:
        x.fill(first & _MASK)
        np.add(x, _OFFSETS[:count * stride:stride], out=x)
        return
    np.multiply(np.arange(count, dtype=_U64), _U_GOLDEN if stride == 1 else _U_2GOLDEN,
                out=x)
    np.add(x, np.array(first & _MASK, _U64), out=x)


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """64-bit words at stream positions [start, start+count) as uint64."""
    x = np.empty(count, _U64)
    _counters(x, seed + (start + 1) * GOLDEN, 1)
    _mix64_in_place(x)
    return x


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles at stream positions [start, start+count)."""
    w = raw_words(seed, start, count)
    w >>= _U_11
    return np.multiply(w.view(_I64), _TWO_M53, out=w.view(_F64))


def _python_sample(n: int, b: int, seed: int) -> np.ndarray:
    """Floyd's sampler in Python: the path without a compiled kernel, and its reference.

    b distinct indices from [0, n), ascending, as int64, for 1 <= b <= n <=
    2**63 (the caller checks). Draw k takes word k of stream `seed` mod
    n - b + 1 + k, or n - b + k where that index is already chosen.
    """
    # word k of the stream decides draw k: that word mod the draw's bound
    words = raw_words(seed, 0, b)
    # Floyd: draw k picks from [0, n-b+k]
    np.remainder(words, np.arange(n - b + 1, n + 1, dtype=_U64), out=words)
    chosen: set[int] = set()
    pick = chosen.add
    for j, t in enumerate(words.tolist(), n - b):
        pick(j if t in chosen else t)
    indices = np.fromiter(chosen, _I64, b)
    indices.sort()
    return indices


def sample(n: int, b: int, seed: int) -> np.ndarray:
    """b distinct indices from [0, n) by Floyd's sampler on stream `seed`,
    ascending, as int64, for 1 <= b <= n <= 2**63 (the caller checks): in
    one call of the compiled kernel, else the same batch in Python."""
    return _python_sample(n, b, seed) if ZKERNEL is None else ZKERNEL.sample(n, b, seed)


def normals(seed: int, start: int, count: int, add_to: np.ndarray | None = None,
            scale: float = 1.0) -> np.ndarray | None:
    """scale * the standard normals at normal-stream positions [start, start+count).

    Normal j consumes raw words 2j and 2j+1, so disjoint index windows
    of the same seed never share entropy. Box-Muller takes
    u1 = ((w_even >> 11) + 1) / 2**53 in (0, 1] and
    u2 = (w_odd >> 11) / 2**53 in [0, 1).

    Without `add_to` the window is returned as a fresh array. With it, the
    pass form, `add_to += scale * z` is done in place and None returned;
    each element takes one multiply and one add, the bits of
    ``z *= scale; add_to += z``. `add_to` must be a 1-d array of `count`
    values (else TypeError or ValueError, before any write).

    The compiled kernel makes the window in one call, holding at most two
    rows of 1,024 values of scratch besides the returned array. It writes
    into `add_to` directly where that is a writable C-contiguous float64
    array; any other target, and every call without a compiled kernel,
    takes `_numpy_normals`, which makes the same bits.
    """
    if ZKERNEL is not None:
        z = ZKERNEL.normals(seed, start, count, add_to, scale)
        if z is not NotImplemented:
            return z
    return _numpy_normals(seed, start, count, add_to, scale)


def _numpy_normals(seed: int, start: int, count: int, add_to: np.ndarray | None = None,
                   scale: float = 1.0) -> np.ndarray | None:
    """`normals` in numpy: the path without a compiled kernel, and its reference.

    The even and odd words are the two contiguous rows of one buffer, and
    the output is the mixing scratch until it takes u1, so a window of any
    length holds at most three words per value: the two rows and the output.
    The pass form scales that output in place and adds it into `add_to`.
    """
    if add_to is not None:
        if not isinstance(add_to, np.ndarray):
            raise TypeError(f"add_to must be a numpy array, got {type(add_to).__name__}")
        if add_to.shape != (count,):
            raise ValueError(f"add_to has shape {add_to.shape}, not ({count},)")
    w = np.empty((2, count), _U64)
    even = w[0]
    # counter of word 2(start+j) is 2(start+j)+1; its odd partner's is one more
    _counters(even, seed + (2 * start + 1) * GOLDEN, 2)
    np.add(even, _U_GOLDEN, out=w[1])
    out = np.empty(count, _F64)  # _counters' arange is freed by now
    scratch = out.view(_U64)
    _mix64_in_place(w[1], scratch)
    _mix64_in_place(w[0], scratch)
    np.right_shift(w, _U_11, out=w)
    # Explicit casts into rows that do not overlap their source: a ufunc that
    # casts its input, or writes over it, makes numpy buffer or copy it. u1
    # goes to out, then u2 to the even row, which u1 no longer needs.
    bits = w.view(_I64)
    u2 = w[0].view(_F64)
    np.copyto(out, bits[0], casting="unsafe")
    np.multiply(out, _TWO_M53, out=out)
    np.add(out, _TWO_M53, out=out)
    np.copyto(u2, bits[1], casting="unsafe")
    np.multiply(u2, _TWO_PI_M53, out=u2)
    np.log(out, out=out)
    np.multiply(out, _MINUS_2, out=out)
    np.sqrt(out, out=out)
    np.cos(u2, out=u2)
    np.multiply(out, u2, out=out)
    if scale != 1.0:  # times 1.0 is exact
        np.multiply(out, scale, out=out)
    if add_to is None:
        return out
    np.add(add_to, out, out=add_to)
    return None


# The cases a compiled kernel must make as the references do before it is
# used: windows (seed, start, count) either side of the 1,024-value sorting
# gate and over every cos path, and batches (n, b, seed), the first with 12
# fallback draws in 50. The loader stops at a first miss, so a sampler whose
# bound is one short is refused before b = n has it divide by zero.
_KERNEL_WINDOWS = ((0, 0, 100), (0, 0, 2049),
                   *((fold(300, c), 7, c) for c in (1, 256, 257, 1_025, 16_387)))
_KERNEL_BATCHES = ((100, 50, 0), *((n, b, fold(302, b)) for n, b in (
    (1, 1), (7, 7), (100, 50), (1000, 32), (2**63, 7))))


def _kernel_misses(kernel):
    """Yield, in table order, ("array" or "pass", count) for each window whose
    bytes, returned or added into a target, differ from `_numpy_normals`'s,
    and ("batch", (n, b)) for each batch unlike `_python_sample`'s. A call
    that raises or returns no array misses."""
    scale = -0.37
    for seed, start, count in _KERNEL_WINDOWS:
        z = _numpy_normals(seed, start, count)
        target = _numpy_normals(fold(301, count), 0, count)
        added = target + z * scale
        if not _makes(z, lambda: kernel.normals(seed, start, count, None, 1.0)):
            yield "array", count
        # the pass form returns None and leaves its sum in the target
        if not _makes(added, lambda: kernel.normals(seed, start, count, target, scale) or target):
            yield "pass", count
    for n, b, seed in _KERNEL_BATCHES:
        if not _makes(_python_sample(n, b, seed), lambda: kernel.sample(n, b, seed)):
            yield "batch", (n, b)


def _makes(expected: np.ndarray, call) -> bool:
    """Whether call() returns an array of `expected`'s dtype and bytes."""
    try:
        made = call()
        return made.dtype == expected.dtype and made.tobytes() == expected.tobytes()
    except Exception:  # whatever a broken kernel does is a miss, not an error
        return False


ZKERNEL = _load_zkernel(_ZKERNEL_CACHE)
