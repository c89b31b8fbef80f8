"""Abstract float-slot accounting for the optimizer memory footprints.

The unit is one float64 slot; the reference point is the "inference
footprint" of holding the d parameters. The model mirrors the minimum
footprints of each optimizer family, as the `memory` column of
`optimizers.OPTIMIZER_ROWS` states them (mode -> d-multiples beyond theta):

    mezo                  1 x d   (parameters only; z is regenerated)
    mezo-svrg, store_g    3 x d   (parameters, anchor copy, anchor estimate)
    mezo-svrg, recompute_g 2 x d  (anchor estimate recomputed on demand)
    zo-svrg, naive        5 x d   (dense fullbatch + two dense minibatch
                                   estimates + anchor copy + parameters)
    fo-sgd                2 x d   (parameters + dense gradient)

plus a constant overhead C: two lanes' pieces in flight, at most
``LANE_PIECE`` values each, three words per value while ``prng.normals``
makes them on its numpy path (two with its compiled kernel), and
bookkeeping. One ``theta += alpha * z`` pass allocates at most 8*C bytes
(tracemalloc) for any d. A serial one streams
k = ceil(d / ``STREAM_CHUNK``) equal pieces and holds about 3 * ceil(d / k)
words, at most a quarter of C. Tests check both.
Full-batch loss queries read the dataset in place; a minibatch query
gathers its b rows (b x 784 for the MLP), a term proportional to the data
that the model leaves out.
`optimizers.run` writes each optimizer's realized footprint (`held_slots`,
the model of its row's last mode; MeZO-SVRG keeps its anchor estimate as a
seed and scalar) into every record as the CSV's ``peak_slots``: registered,
not measured, and a SlotMeter only observes it. `zovr run` prints it after
every model of the optimizer, in row order. The tests measure whole MeZO,
MeZO-SVRG and FO-SGD runs by tracemalloc.
"""

from __future__ import annotations

from . import optimizers  # a module, not its names: optimizers imports this module too
from .estimators import LANE_PIECE

# Documented constant overhead: two lanes' pieces in flight, at most
# LANE_PIECE values and three words per value each, plus bookkeeping. A whole
# MeZO-SVRG run on an MLP with d = 235,146 peaked 1,079-1,113 slots above 2d
# plus the pieces in 20 fresh processes, so 2,048 slots of bookkeeping leave
# it 935-969.
CONSTANT_OVERHEAD = 2 * 3 * LANE_PIECE + 2048


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


def held_slots(optimizer: str, d: int) -> int:
    """The float slots a run of `optimizer` holds, as its realized (last) mode models them."""
    return (1 + next(reversed(optimizers.OPTIMIZER_ROWS[optimizer].memory.values()))) * d


def account_memory(optimizer: str, mode: str | None, d: int) -> int:
    """Modeled peak float-slot count for an optimizer/accounting mode."""
    row = optimizers.OPTIMIZER_ROWS.get(optimizer)
    if row is None or mode not in row.memory:
        raise ValueError(f"unknown optimizer/mode {optimizer}/{mode}")
    return (1 + row.memory[mode]) * d + CONSTANT_OVERHEAD
