"""Reference SIMT interpreter: the per-thread SM that the predecoded,
warp-vectorized one in :mod:`repro.gpu.sm` replaced.  Test-only oracle.

``SM`` below is that interpreter verbatim: it resolves every operand per
thread and retires one thread at a time.  The per-lane ``Monitor``, the
three stimulus collectors and the ``execute_arith`` if-chain it drove are
kept beside it, so the oracle shares no execution code with
``repro.gpu.sm`` — only the memory, register-file and SIMT-stack
containers and the scalar float helpers of ``repro.gpu.functional``.
:func:`run_kernel` mirrors :meth:`repro.gpu.Gpu.run_kernel` and
:func:`run_logic_tracing` mirrors :func:`repro.core.tracing.run_logic_tracing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.patterns import PatternReport
from repro.core.tracing import TracingResult
from repro.errors import SimulationError
from repro.gpu.config import WARP_SIZE, GpuConfig, KernelConfig
from repro.gpu.functional import (
    MASK32,
    compare_float,
    compare_int,
    float_to_word,
    from_signed,
    int_shift_amount,
    sfu_function,
    to_signed,
    word_to_float,
)
from repro.gpu.gpu import KernelResult
from repro.gpu.memory import MemorySystem
from repro.gpu.regfile import RegisterFile
from repro.gpu.simt_stack import DIV, SYNC, SimtStack
from repro.gpu.stimuli import StimulusRecord
from repro.gpu.trace import TraceRecord
from repro.isa import encoding
from repro.isa.opcodes import Op, SpecialReg, Unit, info
from repro.netlist.modules.sfu import FUNC_CODES
from repro.netlist.modules.sp_core import ISA_TO_SPOP, SPOp


# -- scalar semantics ---------------------------------------------------------

def execute_arith(instr, a, b, c, cmp_op):
    """Execute one arithmetic/logic/FP/SFU instruction for one thread.

    Args:
        instr: the :class:`~repro.isa.instruction.Instruction`.
        a, b, c: resolved 32-bit source operands (immediates already
            substituted into *b* for ``*32I`` forms).
        cmp_op: the instruction's comparison operator.

    Returns:
        (result_word, pred_value) — *pred_value* is None unless the
        instruction defines a predicate.
    """
    op = instr.op
    if op in (Op.IADD, Op.IADD32I):
        return from_signed(to_signed(a) + to_signed(b)), None
    if op is Op.ISUB:
        return from_signed(to_signed(a) - to_signed(b)), None
    if op in (Op.IMUL, Op.IMUL32I):
        return from_signed(to_signed(a) * to_signed(b)), None
    if op is Op.IMAD:
        return from_signed(to_signed(a) * to_signed(b) + to_signed(c)), None
    if op is Op.IMIN:
        return (a if to_signed(a) < to_signed(b) else b), None
    if op is Op.IMAX:
        return (a if to_signed(a) > to_signed(b) else b), None
    if op in (Op.AND, Op.AND32I):
        return a & b, None
    if op in (Op.OR, Op.OR32I):
        return a | b, None
    if op in (Op.XOR, Op.XOR32I):
        return a ^ b, None
    if op is Op.NOT:
        return (~a) & MASK32, None
    if op in (Op.SHL, Op.SHL32I):
        amount = int_shift_amount(b)
        return (a << amount) & MASK32 if amount < 32 else 0, None
    if op in (Op.SHR, Op.SHR32I):
        amount = int_shift_amount(b)
        return (a & MASK32) >> amount if amount < 32 else 0, None
    if op is Op.ISET:
        return (MASK32 if compare_int(cmp_op, a, b) else 0), None
    if op is Op.ISETP:
        return 0, compare_int(cmp_op, a, b)
    if op in (Op.FADD, Op.FADD32I):
        return float_to_word(word_to_float(a) + word_to_float(b)), None
    if op in (Op.FMUL, Op.FMUL32I):
        return float_to_word(word_to_float(a) * word_to_float(b)), None
    if op is Op.FMAD:
        return float_to_word(word_to_float(a) * word_to_float(b)
                             + word_to_float(c)), None
    if op is Op.FSET:
        return (MASK32 if compare_float(cmp_op, a, b) else 0), None
    if op is Op.F2I:
        value = word_to_float(a)
        if math.isnan(value):
            return 0, None
        clamped = max(min(value, 2147483647.0), -2147483648.0)
        return from_signed(int(clamped)), None
    if op is Op.I2F:
        return float_to_word(float(to_signed(a))), None
    if op in (Op.RCP, Op.RSQ, Op.SIN, Op.COS, Op.LG2, Op.EX2):
        return sfu_function(op, a), None
    if op is Op.MOV:
        return a, None
    if op is Op.MOV32I:
        return b, None
    raise SimulationError("{} is not handled by execute_arith".format(op))


# -- per-lane monitor and collectors ------------------------------------------

class Monitor:
    """Collects trace records and per-module stimuli during a kernel run."""

    def __init__(self, collectors=()):
        self.trace = []
        self.collectors = list(collectors)

    def add_collector(self, collector):
        self.collectors.append(collector)

    def on_decode(self, cc, block, warp, pc, instr):
        for collector in self.collectors:
            collector.on_decode(cc, block, warp, pc, instr)

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        for collector in self.collectors:
            collector.on_execute_beat(cc, block, warp, lane, pc, instr,
                                      operands, thread)

    def on_instruction_done(self, block, warp, pc, instr, decode_cc,
                            exec_start_cc, exec_end_cc, active_mask,
                            exec_mask):
        self.trace.append(TraceRecord(
            block=block, warp=warp, pc=pc, mnemonic=instr.op.value,
            decode_cc=decode_cc, exec_start_cc=exec_start_cc,
            exec_end_cc=exec_end_cc, active_mask=active_mask,
            exec_mask=exec_mask))

    def finish(self):
        """Sort collector streams; returns {module_name: [StimulusRecord]}."""
        return {collector.module_name: collector.finish()
                for collector in self.collectors}


def _record(cc, block, warp, lane, pc, values, thread=-1):
    return StimulusRecord(cc, block, warp, lane, pc,
                          tuple(sorted(values.items())), thread)


class StimulusCollector:
    """Base class: collects the pattern stream for one target module."""

    #: name matching the HardwareModule this collector feeds.
    module_name = None

    def __init__(self):
        self.records = []

    def on_decode(self, cc, block, warp, pc, instr):
        """Called once per instruction decode."""

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        """Called once per executing thread beat.

        *operands* is the (a, b, c) tuple of resolved 32-bit source values
        for the thread on *lane* (immediates already substituted); *thread*
        is the thread id within the block.
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

    def on_decode(self, cc, block, warp, pc, instr):
        word = encoding.encode(instr)
        self.records.append(_record(cc, block, warp, 0, pc,
                                    {"instr": word}))


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

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        if instr.unit is not Unit.SP:
            return
        if self.lane_filter is not None and lane != self.lane_filter:
            return
        spop = ISA_TO_SPOP.get(instr.op, SPOp.PASS)
        a, b, c = operands
        if instr.op is Op.MOV32I:
            a = b  # PASS forwards port a; MOV32I's value arrives as b
        self.records.append(_record(cc, block, warp, lane, pc, {
            "op": spop.value,
            "cmp": instr.cmp.value,
            "a": a & self.mask,
            "b": b & self.mask,
            "c": c & self.mask,
        }, thread))


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

    def on_execute_beat(self, cc, block, warp, lane, pc, instr, operands,
                        thread):
        func = self._FUNC_BY_OP.get(instr.op)
        if func is None:
            return
        a, __, __ = operands
        self.records.append(_record(cc, block, warp, lane, pc, {
            "func": func,
            "x": a & self.mask,
        }, thread))


# -- the per-thread SM ----------------------------------------------------------

@dataclass
class WarpState:
    """Architectural state of one warp."""

    warp_id: int
    pc: int = 0
    active_mask: int = 0
    done: bool = False
    at_barrier: bool = False
    stack: SimtStack = field(default_factory=SimtStack)
    call_stack: list = field(default_factory=list)


class SM:
    """Executes one block of a kernel program."""

    def __init__(self, config, program, block_id, block_threads, grid_blocks,
                 regfile, memsys, monitor, start_cycle=0,
                 max_instructions=20_000_000):
        self.config = config
        self.program = program
        self.block_id = block_id
        self.block_threads = block_threads
        self.grid_blocks = grid_blocks
        self.regfile = regfile
        self.memsys = memsys
        self.monitor = monitor
        self.cycle = start_cycle
        self.max_instructions = max_instructions
        self.instructions_executed = 0

        num_warps = -(-block_threads // WARP_SIZE)
        self.warps = []
        for w in range(num_warps):
            threads = min(WARP_SIZE, block_threads - w * WARP_SIZE)
            self.warps.append(WarpState(warp_id=w,
                                        active_mask=(1 << threads) - 1))

    # -- operand / predicate helpers ------------------------------------------

    def _thread_id(self, warp, lane):
        return warp.warp_id * WARP_SIZE + lane

    def _guard_mask(self, instr, warp):
        """Lanes whose predicate guard allows execution."""
        if instr.pred is None:
            return warp.active_mask
        mask = 0
        for lane in self._lanes(warp.active_mask):
            tid = self._thread_id(warp, lane)
            value = self.regfile.read_pred(instr.pred.index, tid)
            if value != instr.pred.negate:
                mask |= 1 << lane
        return mask

    @staticmethod
    def _lanes(mask):
        lane = 0
        while mask:
            if mask & 1:
                yield lane
            mask >>= 1
            lane += 1

    def _operands(self, instr, tid, lane, warp):
        """Resolve (a, b, c) source words for one thread."""
        read = self.regfile.read
        op = instr.op
        a = b = c = 0
        fmt = instr.fmt.name
        if op is Op.MOV32I:
            b = instr.imm
        elif op is Op.S2R:
            a = self._special_reg(instr.sreg, tid, warp, lane)
        elif op is Op.SEL:
            sel = self.regfile.read_pred(instr.src_c, tid)
            a = read(instr.src_a, tid) if sel else read(instr.src_b, tid)
        elif fmt == "RRI32":
            a = read(instr.src_a, tid)
            b = instr.imm
        elif fmt in ("RRR", "RRC", "PRC"):
            a = read(instr.src_a, tid)
            b = read(instr.src_b, tid)
        elif fmt == "RRRR":
            a = read(instr.src_a, tid)
            b = read(instr.src_b, tid)
            c = read(instr.src_c, tid)
        elif fmt == "RR":
            a = read(instr.src_a, tid)
        elif fmt in ("LD", "ST"):
            a = read(instr.src_a, tid)
            if fmt == "ST":
                b = read(instr.src_b, tid)
        elif fmt == "CONSTLD":
            a = instr.imm
        return a, b, c

    def _special_reg(self, sreg, tid, warp, lane):
        if sreg is SpecialReg.TID_X:
            return tid
        if sreg is SpecialReg.NTID_X:
            return self.block_threads
        if sreg is SpecialReg.CTAID_X:
            return self.block_id
        if sreg is SpecialReg.NCTAID_X:
            return self.grid_blocks
        if sreg is SpecialReg.LANEID:
            return lane
        if sreg is SpecialReg.WARPID:
            return warp.warp_id
        raise SimulationError("unknown special register {!r}".format(sreg))

    # -- main loop ---------------------------------------------------------------

    def run(self):
        """Execute the block to completion; returns the final cycle count."""
        while True:
            runnable = [w for w in self.warps if not w.done]
            if not runnable:
                return self.cycle
            progressed = False
            for warp in self.warps:
                if warp.done or warp.at_barrier:
                    continue
                self._step(warp)
                progressed = True
            waiting = [w for w in runnable if w.at_barrier]
            if waiting and all(w.at_barrier or w.done for w in self.warps):
                for w in waiting:
                    w.at_barrier = False
                progressed = True
            if not progressed:
                raise SimulationError(
                    "deadlock: no runnable warp in block {}".format(
                        self.block_id))

    # -- single instruction -----------------------------------------------------

    def _step(self, warp):
        if not 0 <= warp.pc < len(self.program):
            raise SimulationError("warp {} pc {} out of program".format(
                warp.warp_id, warp.pc))
        self.instructions_executed += 1
        if self.instructions_executed > self.max_instructions:
            raise SimulationError("instruction budget exceeded "
                                  "(runaway kernel?)")
        pc = warp.pc
        instr = self.program[pc]
        opinfo = info(instr.op)

        fetch_cc = self.cycle
        decode_cc = fetch_cc + 1
        self.monitor.on_decode(decode_cc, self.block_id, warp.warp_id, pc,
                               instr)

        active_mask, exec_mask = warp.active_mask, self._guard_mask(instr, warp)

        lanes_per_beat = (self.config.num_sfus
                          if opinfo.unit is Unit.SFU else self.config.num_sps)
        # Lanes map to beats positionally (lane L runs in beat L // width),
        # so the beat count is set by the highest active lane.
        if opinfo.unit is Unit.CTRL or exec_mask == 0:
            beats = 1
        else:
            highest_lane = exec_mask.bit_length() - 1
            beats = highest_lane // lanes_per_beat + 1
        beat_cost = opinfo.latency
        if opinfo.unit is Unit.MEM and instr.op in (Op.GLD, Op.GST):
            beat_cost += self.config.global_latency
        exec_start = fetch_cc + 3  # after fetch, decode, read stages
        exec_end = exec_start + beats * beat_cost - 1
        total_cycles = self.config.pipeline_overhead + beats * beat_cost

        self._execute(instr, warp, exec_mask, exec_start, beat_cost,
                      lanes_per_beat)

        self.monitor.on_instruction_done(
            self.block_id, warp.warp_id, pc, instr, decode_cc, exec_start,
            exec_end, active_mask, exec_mask)
        self.cycle += total_cycles

    def _execute(self, instr, warp, exec_mask, exec_start, beat_cost,
                 lanes_per_beat):
        op = instr.op
        unit = info(instr.op).unit

        if unit is Unit.CTRL:
            self._execute_control(instr, warp, exec_mask)
            return

        next_pc = warp.pc + 1
        # Assign beats by lane groups: lane L executes in beat L // width.
        for lane in self._lanes(exec_mask):
            tid = self._thread_id(warp, lane)
            beat = lane // lanes_per_beat
            beat_cc = exec_start + beat * beat_cost
            operands = self._operands(instr, tid, lane, warp)
            self.monitor.on_execute_beat(beat_cc, self.block_id,
                                         warp.warp_id, lane % lanes_per_beat,
                                         warp.pc, instr, operands, tid)
            self._retire_thread(instr, tid, operands)
        warp.pc = next_pc

    def _retire_thread(self, instr, tid, operands):
        op = instr.op
        a, b, c = operands
        if op in (Op.GLD, Op.SLD):
            space = self.memsys.global_mem if op is Op.GLD else (
                self.memsys.shared)
            value = space.load(a + instr.imm)
            self.regfile.write(instr.dst, tid, value)
        elif op in (Op.GST, Op.SST):
            space = self.memsys.global_mem if op is Op.GST else (
                self.memsys.shared)
            space.store(a + instr.imm, b)
        elif op is Op.CLD:
            self.regfile.write(instr.dst, tid,
                               self.memsys.constant.load(instr.imm))
        elif op is Op.SEL or op is Op.S2R:
            self.regfile.write(instr.dst, tid, a)
        elif op is Op.ISETP:
            __, pred = execute_arith(instr, a, b, c, instr.cmp)
            self.regfile.write_pred(instr.dst, tid, pred)
        else:
            result, pred = execute_arith(instr, a, b, c,
                                                    instr.cmp)
            if info(op).writes_reg:
                self.regfile.write(instr.dst, tid, result)

    # -- control flow ---------------------------------------------------------------

    def _execute_control(self, instr, warp, exec_mask):
        op = instr.op
        if op is Op.NOP:
            warp.pc += 1
        elif op is Op.EXIT:
            warp.done = True
        elif op is Op.BAR:
            warp.at_barrier = True
            warp.pc += 1
        elif op is Op.SSY:
            warp.stack.push_sync(instr.target, warp.active_mask)
            warp.pc += 1
        elif op is Op.JOIN:
            self._execute_join(warp)
        elif op is Op.CAL:
            warp.call_stack.append(warp.pc + 1)
            warp.pc = instr.target
        elif op is Op.RET:
            if not warp.call_stack:
                raise SimulationError("RET with empty call stack")
            warp.pc = warp.call_stack.pop()
        elif op is Op.BRA:
            self._execute_branch(instr, warp, exec_mask)
        else:  # pragma: no cover - exhaustive over CTRL ops
            raise SimulationError("unhandled control op {}".format(op))

    def _execute_branch(self, instr, warp, exec_mask):
        taken = exec_mask
        not_taken = warp.active_mask & ~exec_mask
        if not_taken == 0:
            warp.pc = instr.target
        elif taken == 0:
            warp.pc += 1
        else:
            # Divergence: run the taken path first; park the fall-through.
            warp.stack.push_div(warp.pc + 1, not_taken)
            warp.active_mask = taken
            warp.pc = instr.target

    def _execute_join(self, warp):
        entry = warp.stack.pop()
        if entry.kind == DIV:
            # Switch to the parked fall-through path; the JOIN will run
            # again when that path reaches it.
            warp.active_mask = entry.mask
            warp.pc = entry.pc
        elif entry.kind == SYNC:
            warp.active_mask = entry.mask
            warp.pc += 1
        else:  # pragma: no cover
            raise SimulationError("corrupt SIMT stack entry")


# -- kernel driver ------------------------------------------------------------

def collectors_for(names, width=8):
    """Fresh reference collectors for module *names*."""
    make = {"decoder_unit": DecoderUnitCollector,
            "sp_core": lambda: SpCoreCollector(width),
            "sfu": lambda: SfuCollector(width)}
    return [make[name]() for name in names]


def run_kernel(program, kernel=None, collectors=(), global_image=None,
               max_instructions=20_000_000, config=None):
    """:meth:`repro.gpu.Gpu.run_kernel` on the reference interpreter."""
    config = config or GpuConfig()
    kernel = kernel or KernelConfig()
    instructions = list(program)
    monitor = Monitor(collectors)
    memsys = MemorySystem(config, kernel.const_words)
    if global_image:
        memsys.global_mem.preload(global_image)

    cycle = 0
    executed = 0
    for block in range(kernel.grid_blocks):
        regfile = RegisterFile(kernel.block_threads)
        sm = SM(config, instructions, block, kernel.block_threads,
                kernel.grid_blocks, regfile, memsys, monitor,
                start_cycle=cycle, max_instructions=max_instructions)
        cycle = sm.run()
        executed += sm.instructions_executed

    stimuli = monitor.finish()
    return KernelResult(
        cycles=cycle,
        instructions=executed,
        global_memory=memsys.global_mem.snapshot(),
        trace=monitor.trace,
        stimuli=stimuli,
    )


def run_logic_tracing(ptp, module, config=None):
    """Stage-2 tracing of *ptp* against *module* on the reference."""
    width = module.params.get("width", 8)
    collectors = collectors_for([module.name], width)
    result = run_kernel(ptp.program, ptp.kernel, collectors=collectors,
                        global_image=ptp.global_image, config=config)
    return TracingResult(
        trace=result.trace,
        pattern_report=PatternReport(module, result.stimuli[module.name]),
        cycles=result.cycles,
        instructions=result.instructions,
        kernel_result=result,
    )
