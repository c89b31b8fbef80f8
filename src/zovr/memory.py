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

plus a constant overhead C that covers the streaming chunk temporaries
and bookkeeping. C bounds the measured heap of the streaming kernel: one
in-place ``theta += alpha * z`` pass allocates at most 8*C bytes
(tracemalloc) for any d, which a test checks. Above ``PARALLEL_MIN_D``
the pass runs in two lanes of half-size pieces, so the temporaries in
flight still fit in C. Full-batch loss queries
read the dataset in place, so an anchor query adds no copy of the data.
The live runs register their actual d-scale buffers on a SlotMeter so
measured peaks can be cross-checked against the model; note the
in-place MeZO-SVRG implementation keeps its anchor estimate as
(seed, scalar) and therefore measures *below* the 3d model.
"""

from __future__ import annotations

from .estimators import STREAM_CHUNK

# Documented constant overhead: a few streaming chunks plus bookkeeping.
CONSTANT_OVERHEAD = 4 * STREAM_CHUNK + 1024

# Extra d-multiples on top of the parameter slots themselves.
_EXTRA_MULTIPLE = {
    ("mezo", None): 0,
    ("mezo-svrg", "store_g"): 2,
    ("mezo-svrg", "recompute_g"): 1,
    ("zo-svrg", "naive"): 4,
    ("fo-sgd", None): 1,
}

ACCOUNTING_MODES = ("store_g", "recompute_g", "naive")


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


def has_accounting_model(optimizer: str, mode: str | None) -> bool:
    return (optimizer, mode) in _EXTRA_MULTIPLE


def account_memory(optimizer: str, mode: str | None, d: int) -> int:
    """Modeled peak float-slot count for an optimizer/accounting mode."""
    key = (optimizer, mode)
    if key not in _EXTRA_MULTIPLE:
        known = ", ".join(f"{o}/{m}" for o, m in _EXTRA_MULTIPLE)
        raise ValueError(f"unknown optimizer/mode {optimizer}/{mode}; known: {known}")
    return (1 + _EXTRA_MULTIPLE[key]) * d + CONSTANT_OVERHEAD
