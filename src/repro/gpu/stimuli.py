"""Per-module test-pattern (stimulus) extraction.

The paper's gate-level logic simulation observes the I/O switching activity
at the inputs of the target module and emits the per-clock-cycle sequence of
test patterns the PTP implicitly applies to it (Section III stage 2, VCDE
format).  The cycle-level simulator reproduces this through
:class:`StimulusCollector` subclasses — one per fault-targeted module — that
translate architectural events into netlist port assignments:

* Decoder Unit: the fetched 64-bit instruction word, at the decode cycle;
* SP core: (micro-op, cmp, a, b, c) per lane beat, at the execute cycles;
* SFU: (func, x) per lane beat for transcendental instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.opcodes import Op, Unit
from ..netlist.modules.sfu import FUNC_CODES
from ..netlist.modules.sp_core import ISA_TO_SPOP, SPOp


@dataclass(frozen=True)
class StimulusRecord:
    """One test pattern applied to a target module.

    Attributes:
        cc: clock cycle at which the pattern reaches the module inputs.
        block / warp / lane: originating block, warp, and hardware lane
            (lane is 0 for whole-warp modules like the DU).
        pc: program counter of the causing instruction (kept for report
            validation; the labeling stage joins on ``cc``, not on ``pc``).
        thread: originating thread id within the block (-1 for whole-warp
            modules like the DU); the signature-per-thread FC evaluation
            groups patterns by this field.
        values: port name -> integer value (matching the module's
            ``input_words``).
    """

    cc: int
    block: int
    warp: int
    lane: int
    pc: int
    values: tuple  # sorted tuple of (port, value) pairs; hashable
    thread: int = -1

    @property
    def value_dict(self):
        return dict(self.values)


class StimulusCollector:
    """Base class: collects the pattern stream for one target module.

    Subclasses override the hook(s) they consume; the monitor calls only
    overridden hooks.
    """

    #: name matching the HardwareModule this collector feeds.
    module_name = None

    def __init__(self):
        self.records = []

    def on_decode(self, cc, block, warp, pc, instr, word):
        """Called once per instruction decode; *word* is the instruction's
        64-bit encoding."""

    def on_execute(self, block, warp, pc, instr, ccs, lanes, threads,
                   operands):
        """Called once per warp instruction that executes on some lane.

        *ccs*, *lanes* and *threads* hold, per executing lane in ascending
        lane order, its execute-beat cycle, hardware lane and thread id
        within the block; *operands* is the ``(a, b, c)`` triple of lists
        of the lanes' resolved 32-bit source values (immediates already
        substituted).
        """

    def sort_key(self, record):
        return (record.cc, record.warp, record.lane)

    def finish(self):
        """Stable-sort records into application (cc) order."""
        self.records.sort(key=self.sort_key)
        return self.records


class DecoderUnitCollector(StimulusCollector):
    """Captures the 64-bit instruction word at each decode cycle."""

    module_name = "decoder_unit"

    def on_decode(self, cc, block, warp, pc, instr, word):
        self.records.append(StimulusRecord(cc, block, warp, 0, pc,
                                           (("instr", word),)))


class SpCoreCollector(StimulusCollector):
    """Captures (op, cmp, a, b, c) patterns entering one SP core lane.

    The SP netlist is *width* bits wide; operands are truncated to the
    datapath width exactly as the synthesized module would see them.
    """

    module_name = "sp_core"

    def __init__(self, width, lane_filter=None):
        super().__init__()
        self.width = width
        self.mask = (1 << width) - 1
        self.lane_filter = lane_filter

    def on_execute(self, block, warp, pc, instr, ccs, lanes, threads,
                   operands):
        if instr.unit is not Unit.SP:
            return
        spop = ISA_TO_SPOP.get(instr.op, SPOp.PASS).value
        cmp = instr.cmp.value
        mask, lane_filter = self.mask, self.lane_filter
        a, b, c = operands
        if instr.op is Op.MOV32I:
            a = b  # PASS forwards port a; MOV32I's value arrives as b
        append = self.records.append
        # Port values in sorted port-name order (StimulusRecord.values).
        for cc, lane, thread, x, y, z in zip(ccs, lanes, threads, a, b, c):
            if lane_filter is None or lane == lane_filter:
                append(StimulusRecord(cc, block, warp, lane, pc, (
                    ("a", x & mask), ("b", y & mask), ("c", z & mask),
                    ("cmp", cmp), ("op", spop)), thread))


class SfuCollector(StimulusCollector):
    """Captures (func, x) patterns entering the SFUs."""

    module_name = "sfu"

    _FUNC_BY_OP = {
        Op.RCP: FUNC_CODES["RCP"], Op.RSQ: FUNC_CODES["RSQ"],
        Op.SIN: FUNC_CODES["SIN"], Op.COS: FUNC_CODES["COS"],
        Op.LG2: FUNC_CODES["LG2"], Op.EX2: FUNC_CODES["EX2"],
    }

    def __init__(self, width):
        super().__init__()
        self.width = width
        self.mask = (1 << width) - 1

    def on_execute(self, block, warp, pc, instr, ccs, lanes, threads,
                   operands):
        func = self._FUNC_BY_OP.get(instr.op)
        if func is None:
            return
        mask = self.mask
        append = self.records.append
        for cc, lane, thread, x in zip(ccs, lanes, threads, operands[0]):
            append(StimulusRecord(cc, block, warp, lane, pc, (
                ("func", func), ("x", x & mask)), thread))
