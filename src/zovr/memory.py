"""Abstract float-slot accounting for the optimizer memory footprints.

The unit is one float64 slot; the reference point is the "inference
footprint" of holding the d parameters. The model mirrors the minimum
footprints of each optimizer family:

    mezo                  1 x d   (parameters only; z is regenerated)
    mezo-svrg, store_g    3 x d   (parameters, anchor copy, anchor estimate)
    mezo-svrg, recompute_g 2 x d  (anchor estimate recomputed on demand)
    zo-svrg, naive        5 x d   (dense fullbatch + two dense minibatch
                                   estimates + anchor copy + parameters)
    fo-sgd                2 x d   (parameters + dense gradient)

plus a constant overhead C: two lanes' ``LANE_PIECE`` pieces in flight,
three words per value while ``prng.normals`` makes them, and bookkeeping.
One ``theta += alpha * z`` pass allocates at most 8*C bytes (tracemalloc)
for any d; a serial one streams ``STREAM_CHUNK`` pieces, half as long, and
holds about a quarter of that. Tests check both.
Full-batch loss queries read the dataset in place; a minibatch query
gathers its b rows (b x 784 for the MLP), a term proportional to the data
that the model leaves out.
`optimizers.run` writes each optimizer's realized footprint (`held_slots`)
into every record as the CSV's ``peak_slots``: registered, not measured, and
a SlotMeter only observes it. MeZO 1d, MeZO-SVRG 2d (its anchor estimate
kept as seed and scalar, below the 3d default), ZO-SVRG 5d, FO-SGD 2d. The
tests measure whole MeZO, MeZO-SVRG and FO-SGD runs by tracemalloc.
"""

from __future__ import annotations

from .estimators import LANE_PIECE

# Documented constant overhead: two lanes' pieces in flight, at most three
# words per value each, plus bookkeeping. A whole MeZO-SVRG run on an MLP with
# d = 235,146 peaked 1,079-1,113 slots above 2d plus the pieces in 20 fresh
# processes, so 2,048 slots of bookkeeping leave it 935-969.
CONSTANT_OVERHEAD = 2 * 3 * LANE_PIECE + 2048

# Extra d-multiples on top of the parameter slots themselves. An optimizer's
# first listed mode is its default (`accounting_mode`).
_EXTRA_MULTIPLE = {
    ("mezo", None): 0,
    ("mezo-svrg", "store_g"): 2,
    ("mezo-svrg", "recompute_g"): 1,
    ("zo-svrg", "naive"): 4,
    ("fo-sgd", None): 1,
}

ACCOUNTING_MODES = tuple(mode for _, mode in _EXTRA_MULTIPLE if mode is not None)

# The mode each optimizer's implementation realizes: the buffers its runs hold.
REALIZED_MODE = {"mezo": None, "mezo-svrg": "recompute_g", "zo-svrg": "naive", "fo-sgd": None}


class SlotMeter:
    """Tracks live float slots registered by a run; remembers the peak."""

    def __init__(self):
        self.live = 0
        self.peak = 0

    def add(self, n: int) -> None:
        self.live += n
        if self.live > self.peak:
            self.peak = self.live

    def release(self, n: int) -> None:
        self.live -= n
        if self.live < 0:
            raise RuntimeError("slot meter released more slots than were added")


def _extra_multiple(optimizer: str, mode: str | None) -> int:
    if (optimizer, mode) not in _EXTRA_MULTIPLE:
        known = ", ".join(f"{o}/{m}" for o, m in _EXTRA_MULTIPLE)
        raise ValueError(f"unknown optimizer/mode {optimizer}/{mode}; known: {known}")
    return _EXTRA_MULTIPLE[(optimizer, mode)]


def accounting_mode(optimizer: str, mode: str | None = None) -> str | None:
    """`mode`, or by default the optimizer's first listed one; the model must cover it."""
    if mode is None:
        mode = next((m for o, m in _EXTRA_MULTIPLE if o == optimizer), None)
    _extra_multiple(optimizer, mode)
    return mode


def held_slots(optimizer: str, d: int) -> int:
    """The float slots a run of `optimizer` holds, as its realized mode models them."""
    return (1 + _extra_multiple(optimizer, REALIZED_MODE[optimizer])) * d


def account_memory(optimizer: str, mode: str | None, d: int) -> int:
    """Modeled peak float-slot count for an optimizer/accounting mode."""
    return (1 + _extra_multiple(optimizer, mode)) * d + CONSTANT_OVERHEAD
