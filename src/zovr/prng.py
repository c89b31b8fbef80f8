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
word. Any (seed, index range) can therefore be regenerated without
storing state.
"""

from __future__ import annotations

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


def raw_word(seed: int, index: int) -> int:
    """Single stream word as a python int (scalar path, no numpy)."""
    return mix64((seed + ((index + 1) * GOLDEN)) & _MASK)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles at stream positions [start, start+count)."""
    w = raw_words(seed, start, count)
    w >>= _U_11
    return np.multiply(w.view(_I64), _TWO_M53, out=w.view(_F64))


def _box_muller_in_three_words(w: np.ndarray) -> np.ndarray:
    # normals' long-window path over its (2, count) counter rows: holds the
    # rows and the output, which is the mixing scratch until it takes u1
    out = np.empty(w.shape[1], _F64)
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


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal doubles at normal-stream positions [start, start+count).

    Normal j consumes raw words 2j and 2j+1, so disjoint index windows
    of the same seed never share entropy. Box-Muller takes
    u1 = ((w_even >> 11) + 1) / 2**53 in (0, 1] and
    u2 = (w_odd >> 11) / 2**53 in [0, 1). The even and odd words are the
    two contiguous rows of one buffer.

    A window longer than the counter table's reach (256 values) holds at
    most three words per value: the two rows and the output. A shorter one
    mixes and scales both rows jointly and in place, in fewer numpy calls.
    Both paths make each value by the same operations in the same order, so
    they agree bit for bit.
    """
    w = np.empty((2, count), _U64)
    even = w[0]
    # counter of word 2(start+j) is 2(start+j)+1; its odd partner's is one more
    _counters(even, seed + (2 * start + 1) * GOLDEN, 2)
    np.add(even, _U_GOLDEN, out=w[1])
    # Short windows keep the joint path for speed: with the three-word path at
    # every size, normals(100) took 16.6 us, not 12.3, and the least-squares
    # d = 100 benchmark ran 16-24% fewer steps per second in 10 of 10 paired
    # runs (numpy 2.4.6, 2-CPU Xeon VM).
    if 2 * count > _TABLE_WORDS:  # _counters' arange is freed by now
        return _box_muller_in_three_words(w)
    _mix64_in_place(w)
    np.right_shift(w, _U_11, out=w)
    # 53-bit integers convert exactly through int64; the floats reuse w.
    # The two scalings stay two multiplies: one broadcast multiply over
    # both rows makes numpy copy the overlapping operand.
    bits = w.view(_I64)
    f = w.view(_F64)
    u1 = f[0]
    u2 = f[1]
    np.multiply(bits[0], _TWO_M53, out=u1)
    np.add(u1, _TWO_M53, out=u1)
    np.multiply(bits[1], _TWO_PI_M53, out=u2)
    np.log(u1, out=u1)
    np.multiply(u1, _MINUS_2, out=u1)
    np.sqrt(u1, out=u1)
    np.cos(u2, out=u2)
    return np.multiply(u1, u2)


def randint_below(seed: int, index: int, bound: int) -> int:
    """Deterministic integer in [0, bound) from one stream word.

    Plain modulo mapping; the bias is O(bound / 2**64) and irrelevant at
    the bounds used here (sample counts, not crypto).
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return raw_word(seed, index) % bound
