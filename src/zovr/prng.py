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
compiled kernel (``_zkernel.c``): its two C loops mix the words and finish
Box-Muller around numpy's own log, with the interpreter lock released.
Importing this module builds it once per machine with the system C
compiler into a private per-user cache, and uses it only once it has
made two fixed windows bit for bit. Where it cannot be built or misses
a bit, `_numpy_normals` makes the same bits in numpy; it is also the
reference the kernel is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
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

# The compiled z kernel: its C source, the compiler and flags that build it,
# and the private per-user directory its libraries are cached in, one per
# hash of source and flags. No -ffast-math and no -march=native: either may
# change the bits of a value.
_ZKERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_zkernel.c")
_CC = "cc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_ZKERNEL_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "zovr")

# The windows a freshly loaded kernel must reproduce bit for bit, at seed 0
# and start 0, before normals uses it: one below the kernel's 1,024-value
# sorting gate, and one past it that ends one value into a third block and
# puts about 2,000 angles across the nine paths of libm's cos.
_CHECK_COUNTS = (100, 2049)


def _load_zkernel(cache: str):
    """The compiled kernel's (uniform_pairs, box_muller) functions, or None.

    The first process to need a library compiles it into a temporary file
    in `cache` and renames it into place, so a concurrent build or reader
    never sees half a file. None where the source, the compiler or a
    private cache is missing, or the build or the load fails, or the
    kernel's windows of _CHECK_COUNTS values differ from `_numpy_normals`
    in any byte (a compiler or libm that moved a bit): `normals` then runs
    in numpy. A ctypes.CDLL call releases the interpreter lock.
    """
    if not os.path.isabs(cache):
        return None  # a home of "~" would build under every working directory
    try:
        with open(_ZKERNEL_SOURCE, "rb") as fh:
            source = fh.read()
        key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        path = os.path.join(cache, f"zkernel-{key}.so")
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # a library others can plant is not loaded
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([_CC, *_CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                               input=source, capture_output=True, check=True, timeout=120)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    uniform_pairs, box_muller = lib.zovr_uniform_pairs, lib.zovr_box_muller
    uniform_pairs.argtypes = (ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p)
    box_muller.argtypes = (ctypes.c_int64, ctypes.c_void_p)
    uniform_pairs.restype = box_muller.restype = None
    kernel = uniform_pairs, box_muller
    same = all(_kernel_normals(kernel, 0, 0, count).tobytes()
               == _numpy_normals(0, 0, count).tobytes() for count in _CHECK_COUNTS)
    return kernel if same else None


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


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal doubles at normal-stream positions [start, start+count).

    Normal j consumes raw words 2j and 2j+1, so disjoint index windows
    of the same seed never share entropy. Box-Muller takes
    u1 = ((w_even >> 11) + 1) / 2**53 in (0, 1] and
    u2 = (w_odd >> 11) / 2**53 in [0, 1).

    The compiled kernel writes u1 and the angle 2*pi*u2 into the two rows
    of one (2, count) buffer, numpy's own log runs in place on the first
    row, and the kernel's second loop turns that row into the normals,
    which are returned as a view of it: two words per value. Without a
    compiled kernel `_numpy_normals` makes the same bits in numpy.
    """
    if ZKERNEL is None:
        return _numpy_normals(seed, start, count)
    return _kernel_normals(ZKERNEL, seed, start, count)


def _kernel_normals(kernel, seed: int, start: int, count: int) -> np.ndarray:
    """`normals` by `kernel`, the (uniform_pairs, box_muller) of _load_zkernel."""
    uniform_pairs, box_muller = kernel
    rows = np.empty((2, count), _F64)
    # a plain int, not ndarray.ctypes, whose helper objects show on the heap
    address = rows.__array_interface__["data"][0]
    uniform_pairs((seed + (2 * start + 1) * GOLDEN) & _MASK, count, address)
    u1 = rows[0]
    np.log(u1, out=u1)  # numpy's log, not libm's: the two differ in the last bit
    box_muller(count, address)
    return u1


def _numpy_normals(seed: int, start: int, count: int) -> np.ndarray:
    """`normals` in numpy: the path without a compiled kernel, and its reference.

    The even and odd words are the two contiguous rows of one buffer, and
    the output is the mixing scratch until it takes u1, so a window of any
    length holds at most three words per value: the two rows and the output.
    """
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
    return np.multiply(out, u2, out=out)


ZKERNEL = _load_zkernel(_ZKERNEL_CACHE)
