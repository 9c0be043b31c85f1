"""General Purpose Register File (GPRF) and predicate file of one block.

Registers are per-thread: ``read(reg, tid)`` / ``write(reg, tid, value)``.
All values are 32-bit unsigned words (two's-complement semantics live in the
functional unit models).  Storage is register-major — ``regs`` is a
``(NUM_REGS, num_threads)`` ``uint32`` array and ``preds`` a
``(NUM_PREDS, num_threads)`` bool array — so one register of a warp's lanes
is a row slice the SM reads and writes as a lane vector.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..isa.instruction import NUM_PREDS, NUM_REGS

MASK32 = 0xFFFFFFFF


class RegisterFile:
    """Per-thread GPRs and predicate registers for one thread block."""

    def __init__(self, num_threads):
        if num_threads < 1:
            raise SimulationError("register file needs at least one thread")
        self.num_threads = num_threads
        self.regs = np.zeros((NUM_REGS, num_threads), dtype=np.uint32)
        self.preds = np.zeros((NUM_PREDS, num_threads), dtype=bool)

    def _check_thread(self, tid):
        if not 0 <= tid < self.num_threads:
            raise SimulationError("thread id {} out of range".format(tid))

    def read(self, reg, tid):
        self._check_thread(tid)
        return int(self.regs[reg, tid])

    def write(self, reg, tid, value):
        self._check_thread(tid)
        self.regs[reg, tid] = value & MASK32

    def read_pred(self, pred, tid):
        self._check_thread(tid)
        return bool(self.preds[pred, tid])

    def write_pred(self, pred, tid, value):
        self._check_thread(tid)
        self.preds[pred, tid] = bool(value)
