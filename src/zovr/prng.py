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

# numpy forms of the constants, so array arithmetic stays in uint64.
_U_GOLDEN = np.uint64(GOLDEN)
_U_2GOLDEN = np.uint64(2 * GOLDEN & _MASK)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U_30 = np.uint64(30)
_U_27 = np.uint64(27)
_U_31 = np.uint64(31)
_U_11 = np.uint64(11)

# Exact power-of-two scales: a 53-bit integer times 2**-53 is exact, and
# x * (2*pi * 2**-53) rounds exactly like (x / 2**53) * (2*pi).
_TWO_M53 = 2.0**-53
_TWO_PI_M53 = (2.0 * np.pi) * _TWO_M53


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


def _mix64_in_place(x: np.ndarray) -> None:
    """SplitMix64 finalizer over a uint64 array, in place, one temporary."""
    t = x >> _U_30
    x ^= t
    x *= _U_MIX1
    np.right_shift(x, _U_27, t)
    x ^= t
    x *= _U_MIX2
    np.right_shift(x, _U_31, t)
    x ^= t


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """64-bit words at stream positions [start, start+count) as uint64."""
    x = np.arange(count, dtype=np.uint64)
    x *= _U_GOLDEN
    x += np.uint64((seed + (start + 1) * GOLDEN) & _MASK)
    _mix64_in_place(x)
    return x


def raw_word(seed: int, index: int) -> int:
    """Single stream word as a python int (scalar path, no numpy)."""
    return mix64((seed + ((index + 1) * GOLDEN)) & _MASK)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles at stream positions [start, start+count)."""
    w = raw_words(seed, start, count)
    w >>= _U_11
    return w.view(np.int64) * _TWO_M53


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal doubles at normal-stream positions [start, start+count).

    Normal j consumes raw words 2j and 2j+1, so disjoint index windows
    of the same seed never share entropy. Box-Muller takes
    u1 = ((w_even >> 11) + 1) / 2**53 in (0, 1] and
    u2 = (w_odd >> 11) / 2**53 in [0, 1). The even and odd words are the
    two contiguous rows of one buffer, and the float stages run in place.
    """
    w = np.empty((2, count), dtype=np.uint64)
    even, odd = w
    # counter of word 2(start+j) is 2(start+j)+1; its odd partner's is one more
    np.multiply(np.arange(count, dtype=np.uint64), _U_2GOLDEN, even)
    even += np.uint64((seed + (2 * start + 1) * GOLDEN) & _MASK)
    np.add(even, _U_GOLDEN, odd)
    _mix64_in_place(w)
    w >>= _U_11
    # 53-bit integers convert exactly through int64; the floats reuse w
    bits = w.view(np.int64)
    u1, u2 = w.view(np.float64)
    np.multiply(bits[0], _TWO_M53, u1)
    u1 += _TWO_M53
    np.multiply(bits[1], _TWO_PI_M53, u2)
    np.log(u1, u1)
    u1 *= -2.0
    np.sqrt(u1, u1)
    np.cos(u2, u2)
    return u1 * u2


def randint_below(seed: int, index: int, bound: int) -> int:
    """Deterministic integer in [0, bound) from one stream word.

    Plain modulo mapping; the bias is O(bound / 2**64) and irrelevant at
    the bounds used here (sample counts, not crypto).
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return raw_word(seed, index) % bound
