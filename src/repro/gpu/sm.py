"""Streaming Multiprocessor: the cycle-level SIMT execution engine.

One SM executes one thread block at a time.  Warps are scheduled round-robin
at instruction granularity through the 5-stage pipeline (fetch, decode,
read, execute, write); the execute stage processes the warp's 32 threads in
beats of ``num_sps`` lanes (4 beats for the paper's 8-SP configuration).

The timing model charges, per instruction and warp::

    pipeline_overhead + beats * opcode_latency (+ global_latency per beat
                                                 for global memory accesses)

which preserves the quantities the compaction method consumes — per-cc
instruction attribution and total kernel duration in clock cycles — without
modeling stage overlap (FlexGripPlus keeps one warp in flight per SM, so
instruction-serial timing is the faithful abstraction).

The interpreter is predecoded and warp-vectorized (DESIGN.md §14).  The
first fetch of a pc decodes its instruction once into a :class:`Decoded`
entry that binds its timing terms, its 64-bit encoding, an operand fetcher
and an executor; dead code is never decoded.  A warp's guarded lanes then
execute together: integer, logic, shift, move and compare ops as numpy
``uint32`` lane vectors over the block's ``(NUM_REGS x threads)`` register
file, FP32 and SFU ops through the scalar :mod:`~repro.gpu.functional`
models lane by lane (binary32 rounding and NaN canonicalisation stay
bit-exact), and loads and stores lane by lane in ascending lane order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..isa.encoding import encode
from ..isa.opcodes import CmpOp, Fmt, Op, SpecialReg, Unit, info
from . import functional
from .config import WARP_SIZE
from .simt_stack import DIV, SYNC, SimtStack

_ALL_ONES = np.uint32(0xFFFFFFFF)
_NO_BITS = np.uint32(0)
_SHIFT_FIELD = np.uint32(0x3F)
_SHIFT_WIDTH = np.uint32(31)
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")

#: Signed lane-vector comparisons of ISET / ISETP (operands viewed int32).
_INT_COMPARE = {
    CmpOp.LT: np.less, CmpOp.LE: np.less_equal, CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal, CmpOp.EQ: np.equal, CmpOp.NE: np.not_equal,
}


@dataclass
class WarpState:
    """Architectural state of one warp.

    ``lane_groups`` caches the :class:`LaneGroup` of every exec mask the
    warp has issued with.
    """

    warp_id: int
    pc: int = 0
    active_mask: int = 0
    done: bool = False
    at_barrier: bool = False
    stack: SimtStack = field(default_factory=SimtStack)
    call_stack: list = field(default_factory=list)
    lane_groups: dict = field(default_factory=dict)


class LaneGroup:
    """The lanes of one warp that execute under one exec mask.

    Lane-vector ops read and write the register-file columns ``sel``, a
    slice from the lowest to the highest executing lane.  When other lanes
    lie in between, ``keep`` marks the executing columns of ``sel`` and
    writes go through it; otherwise ``keep`` is None.

    Attributes:
        lanes: executing lane indices, ascending.
        threads: their thread ids within the block.
        sel / keep: see above.
        lane_ids / tids: lane indices and thread ids of ``sel``'s columns,
            as ``uint32`` lane vectors.
        warp_id: the warp's index within the block.
    """

    __slots__ = ("lanes", "threads", "sel", "keep", "lane_ids", "tids",
                 "warp_id")

    def __init__(self, warp_id, mask):
        base = warp_id * WARP_SIZE
        lanes = [lane for lane in range(WARP_SIZE) if mask >> lane & 1]
        low, high = lanes[0], lanes[-1]
        self.lanes = lanes
        self.threads = [base + lane for lane in lanes]
        self.sel = slice(base + low, base + high + 1)
        span = np.arange(low, high + 1, dtype=np.uint32)
        self.keep = (None if len(lanes) == high + 1 - low
                     else (mask >> span & 1).astype(bool))
        self.lane_ids = span
        self.tids = span + np.uint32(base)
        self.warp_id = warp_id

    def pick(self, value):
        """One operand as a list of Python ints, one per executing lane."""
        if isinstance(value, np.ndarray):
            return (value if self.keep is None
                    else value[self.keep]).tolist()
        return [int(value)] * len(self.lanes)

    def write(self, row, values):
        """Store a lane vector (or one broadcast value) of ``sel``'s
        columns into the executing lanes of register-file *row*."""
        if self.keep is None:
            row[self.sel] = values
        else:
            np.putmask(row[self.sel], self.keep, values)

    def write_lanes(self, row, values):
        """Store one value per executing lane (a list, in lane order)."""
        if self.keep is None:
            row[self.sel] = values
        else:
            row[self.sel][self.keep] = values


class Decoded:
    """One predecoded instruction, bound at first fetch.

    Attributes:
        instr: the :class:`~repro.isa.instruction.Instruction`.
        word: its 64-bit encoding (None when no collector observes
            decodes).
        is_ctrl: dispatched to the control unit (one beat, no lanes).
        lanes_per_beat: execute-stage width of its unit.
        beat_cost: cycles per beat, global-memory latency included.
        pred / negate: guard predicate index (None: unguarded).
        control: ``(warp, exec_mask, target)`` handler of a control op.
        fetch: ``(group) -> (a, b, c)`` source operands: lane vectors over
            the group's ``sel`` columns, or plain ints for immediates and
            unused slots.
        execute: ``(group, a, b, c)`` computes and writes the results.
    """

    __slots__ = ("instr", "word", "is_ctrl", "lanes_per_beat", "beat_cost",
                 "pred", "negate", "control", "fetch", "execute")


def _warp_bits(flags):
    """Lane bitmask of a warp's boolean lane vector (lane 0 is bit 0)."""
    return int(flags.tobytes()[::-1].translate(_BIT_CHARS), 2)


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
        self._decoded = [None] * len(program)

        num_warps = -(-block_threads // WARP_SIZE)
        self.warps = []
        self._warp_threads = []
        for w in range(num_warps):
            threads = min(WARP_SIZE, block_threads - w * WARP_SIZE)
            self.warps.append(WarpState(warp_id=w,
                                        active_mask=(1 << threads) - 1))
            self._warp_threads.append(
                slice(w * WARP_SIZE, w * WARP_SIZE + threads))

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
        pc = warp.pc
        if not 0 <= pc < len(self._decoded):
            raise SimulationError("warp {} pc {} out of program".format(
                warp.warp_id, pc))
        self.instructions_executed += 1
        if self.instructions_executed > self.max_instructions:
            raise SimulationError("instruction budget exceeded "
                                  "(runaway kernel?)")
        decoded = self._decoded[pc] or self._decode(pc)
        instr = decoded.instr
        monitor = self.monitor

        fetch_cc = self.cycle
        decode_cc = fetch_cc + 1
        if monitor.decode_collectors:
            monitor.on_decode(decode_cc, self.block_id, warp.warp_id, pc,
                              instr, decoded.word)

        active_mask = exec_mask = warp.active_mask
        if decoded.pred is not None:
            guard = _warp_bits(self.regfile.preds[
                decoded.pred, self._warp_threads[warp.warp_id]])
            exec_mask &= ~guard if decoded.negate else guard

        # Lanes map to beats positionally (lane L runs in beat L // width),
        # so the beat count is set by the highest active lane.
        if decoded.is_ctrl or exec_mask == 0:
            beats = 1
        else:
            beats = ((exec_mask.bit_length() - 1) // decoded.lanes_per_beat
                     + 1)
        beat_cost = decoded.beat_cost
        exec_start = fetch_cc + 3  # after fetch, decode, read stages
        exec_end = exec_start + beats * beat_cost - 1

        if decoded.is_ctrl:
            decoded.control(warp, exec_mask, instr.target)
        else:
            if exec_mask:
                self._execute(decoded, warp, exec_mask, exec_start)
            warp.pc = pc + 1

        monitor.on_instruction_done(
            self.block_id, warp.warp_id, pc, instr, decode_cc, exec_start,
            exec_end, active_mask, exec_mask)
        self.cycle = (fetch_cc + self.config.pipeline_overhead
                      + beats * beat_cost)

    def _execute(self, decoded, warp, exec_mask, exec_start):
        group = warp.lane_groups.get(exec_mask)
        if group is None:
            group = warp.lane_groups[exec_mask] = LaneGroup(warp.warp_id,
                                                            exec_mask)
        a, b, c = decoded.fetch(group)
        monitor = self.monitor
        if monitor.execute_collectors:
            width, cost = decoded.lanes_per_beat, decoded.beat_cost
            lanes = group.lanes
            monitor.on_execute(
                self.block_id, warp.warp_id, warp.pc, decoded.instr,
                [exec_start + lane // width * cost for lane in lanes],
                [lane % width for lane in lanes], group.threads,
                (group.pick(a), group.pick(b), group.pick(c)))
        decoded.execute(group, a, b, c)

    # -- predecode ---------------------------------------------------------------

    def _decode(self, pc):
        """Decode the instruction at *pc* once and cache the entry."""
        instr = self.program[pc]
        op = instr.op
        opinfo = info(op)
        unit = opinfo.unit
        decoded = Decoded()
        decoded.instr = instr
        decoded.word = (encode(instr) if self.monitor.decode_collectors
                        else None)
        decoded.is_ctrl = unit is Unit.CTRL
        decoded.lanes_per_beat = (self.config.num_sfus if unit is Unit.SFU
                                  else self.config.num_sps)
        decoded.beat_cost = opinfo.latency + (
            self.config.global_latency if op in _GLOBAL_OPS else 0)
        guard = instr.pred
        decoded.pred = None if guard is None else guard.index
        decoded.negate = guard is not None and guard.negate
        if decoded.is_ctrl:
            if guard is not None and op not in _GUARDABLE_CONTROL:
                # The SIMT model has no per-lane form of these ops: running
                # them for the whole warp would ignore the guard.
                raise SimulationError(
                    "pc {}: guarded {} is not supported (among control ops "
                    "only BRA takes a predicate guard)".format(pc, op.value))
            decoded.control = _CONTROL[op]
        else:
            decoded.fetch = self._fetcher(instr, opinfo.fmt)
            if unit is Unit.SP:
                decoded.execute = self._vector_executor(instr)
            elif unit is Unit.MEM:
                decoded.execute = self._memory_executor(instr)
            else:
                decoded.execute = self._scalar_executor(instr)
        self._decoded[pc] = decoded
        return decoded

    def _fetcher(self, instr, fmt):
        regs = self.regfile.regs
        ra, rb, rc = instr.src_a, instr.src_b, instr.src_c
        imm = np.uint32(instr.imm)
        kind = _OPERAND_KIND.get(instr.op) or _OPERAND_KIND.get(fmt)
        if kind == "imm_b":
            return lambda group: (0, imm, 0)
        if kind == "special":
            return self._special_fetcher(instr.sreg)
        if kind == "select":
            preds = self.regfile.preds
            return lambda group: (np.where(preds[rc, group.sel],
                                           regs[ra, group.sel],
                                           regs[rb, group.sel]), 0, 0)
        if kind == "a_imm":
            return lambda group: (regs[ra, group.sel], imm, 0)
        if kind == "ab":
            return lambda group: (regs[ra, group.sel], regs[rb, group.sel],
                                  0)
        if kind == "abc":
            return lambda group: (regs[ra, group.sel], regs[rb, group.sel],
                                  regs[rc, group.sel])
        if kind == "a":
            return lambda group: (regs[ra, group.sel], 0, 0)
        if kind == "imm_a":
            return lambda group: (imm, 0, 0)
        return lambda group: (0, 0, 0)

    def _special_fetcher(self, sreg):
        if sreg is SpecialReg.TID_X:
            return lambda group: (group.tids, 0, 0)
        if sreg is SpecialReg.LANEID:
            return lambda group: (group.lane_ids, 0, 0)
        if sreg is SpecialReg.WARPID:
            return lambda group: (group.warp_id, 0, 0)
        value = {SpecialReg.NTID_X: self.block_threads,
                 SpecialReg.CTAID_X: self.block_id,
                 SpecialReg.NCTAID_X: self.grid_blocks}.get(sreg)
        if value is None:
            def unknown(group):
                raise SimulationError(
                    "unknown special register {!r}".format(sreg))
            return unknown
        return lambda group: (value, 0, 0)

    def _vector_executor(self, instr):
        """SP-unit ops: one lane-vector computation for the whole group."""
        dst = instr.dst
        if instr.op is Op.ISETP:
            row = self.regfile.preds[dst]
            compare = _INT_COMPARE[instr.cmp]
            return lambda group, a, b, c: group.write(
                row, compare(a.view(np.int32), b.view(np.int32)))
        row = self.regfile.regs[dst]
        vector = _lane_vector_op(instr)
        return lambda group, a, b, c: group.write(row, vector(a, b, c))

    def _scalar_executor(self, instr):
        """FP32 / SFU ops: the scalar binary32 models, lane by lane.  The
        models are pure, so lanes with equal operands share one call."""
        row = self.regfile.regs[instr.dst]
        scalar, cmp_op = functional.arith_function(instr.op), instr.cmp

        def scalar_lanes(group, a, b, c):
            results = {}
            words = []
            for operands in zip(group.pick(a), group.pick(b), group.pick(c)):
                word = results.get(operands)
                if word is None:
                    word = results[operands] = scalar(*operands, cmp_op)[0]
                words.append(word)
            group.write_lanes(row, words)
        return scalar_lanes

    def _memory_executor(self, instr):
        """Loads and stores: per lane, in ascending lane order."""
        memsys, imm = self.memsys, instr.imm
        op = instr.op
        if op is Op.CLD:
            row, constant = self.regfile.regs[instr.dst], memsys.constant
            return lambda group, a, b, c: group.write(row,
                                                      constant.load(imm))
        space = memsys.global_mem if op in _GLOBAL_OPS else memsys.shared
        if op in _LOAD_OPS:
            row = self.regfile.regs[instr.dst]
            return lambda group, a, b, c: group.write_lanes(
                row, space.load_lanes([address + imm
                                       for address in group.pick(a)]))
        return lambda group, a, b, c: space.store_lanes(
            [address + imm for address in group.pick(a)], group.pick(b))


_GLOBAL_OPS = (Op.GLD, Op.GST)
_LOAD_OPS = (Op.GLD, Op.SLD)
_GUARDABLE_CONTROL = (Op.BRA, Op.NOP)

#: How an op (or else its format) resolves its ``(a, b, c)`` operands.
_OPERAND_KIND = {
    Op.MOV32I: "imm_b", Op.S2R: "special", Op.SEL: "select",
    Fmt.RRI32: "a_imm", Fmt.RRR: "ab", Fmt.RRC: "ab", Fmt.PRC: "ab",
    Fmt.ST: "ab", Fmt.RRRR: "abc", Fmt.RR: "a", Fmt.LD: "a",
    Fmt.CONSTLD: "imm_a",
}


def _variable_shift(shift):
    def lanes(a, b, c):
        # 6-bit amount; 32..63 flush to zero (numpy leaves them undefined).
        amount = b & _SHIFT_FIELD
        return np.where(amount < 32, shift(a, amount & _SHIFT_WIDTH),
                        _NO_BITS)
    return lanes


#: SP-unit op -> ``(a, b, c) -> result`` on ``uint32`` lane vectors;
#: wrapping arithmetic mod 2**32 is two's-complement arithmetic.
_VECTOR_OPS = {
    Op.IADD: lambda a, b, c: a + b,
    Op.ISUB: lambda a, b, c: a - b,
    Op.IMUL: lambda a, b, c: a * b,
    Op.IMAD: lambda a, b, c: a * b + c,
    Op.IMIN: lambda a, b, c: np.where(
        a.view(np.int32) < b.view(np.int32), a, b),
    Op.IMAX: lambda a, b, c: np.where(
        a.view(np.int32) > b.view(np.int32), a, b),
    Op.AND: lambda a, b, c: a & b,
    Op.OR: lambda a, b, c: a | b,
    Op.XOR: lambda a, b, c: a ^ b,
    Op.NOT: lambda a, b, c: ~a,
    Op.SHL: _variable_shift(np.left_shift),
    Op.SHR: _variable_shift(np.right_shift),
    Op.MOV: lambda a, b, c: a,
    Op.MOV32I: lambda a, b, c: b,
    Op.SEL: lambda a, b, c: a,
    Op.S2R: lambda a, b, c: a,
}
for _op, _base in ((Op.IADD32I, Op.IADD), (Op.IMUL32I, Op.IMUL),
                   (Op.AND32I, Op.AND), (Op.OR32I, Op.OR),
                   (Op.XOR32I, Op.XOR)):
    _VECTOR_OPS[_op] = _VECTOR_OPS[_base]


def _lane_vector_op(instr):
    """``(a, b, c) -> result`` of an SP-unit op on ``uint32`` lane
    vectors."""
    op = instr.op
    vector = _VECTOR_OPS.get(op)
    if vector is not None:
        return vector
    if op is Op.ISET:
        compare = _INT_COMPARE[instr.cmp]
        return lambda a, b, c: np.where(
            compare(a.view(np.int32), b.view(np.int32)), _ALL_ONES, _NO_BITS)
    if op in (Op.SHL32I, Op.SHR32I):
        amount = functional.int_shift_amount(instr.imm)
        if amount >= 32:  # 32..63 flush to zero
            return lambda a, b, c: _NO_BITS
        amount = np.uint32(amount)
        if op is Op.SHL32I:
            return lambda a, b, c: a << amount
        return lambda a, b, c: a >> amount
    raise SimulationError("{} has no lane-vector form".format(op))


# -- control flow ---------------------------------------------------------------

def _nop(warp, exec_mask, target):
    warp.pc += 1


def _exit(warp, exec_mask, target):
    warp.done = True


def _barrier(warp, exec_mask, target):
    warp.at_barrier = True
    warp.pc += 1


def _ssy(warp, exec_mask, target):
    warp.stack.push_sync(target, warp.active_mask)
    warp.pc += 1


def _join(warp, exec_mask, target):
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


def _call(warp, exec_mask, target):
    warp.call_stack.append(warp.pc + 1)
    warp.pc = target


def _ret(warp, exec_mask, target):
    if not warp.call_stack:
        raise SimulationError("RET with empty call stack")
    warp.pc = warp.call_stack.pop()


def _branch(warp, exec_mask, target):
    taken = exec_mask
    not_taken = warp.active_mask & ~exec_mask
    if not_taken == 0:
        warp.pc = target
    elif taken == 0:
        warp.pc += 1
    else:
        # Divergence: run the taken path first; park the fall-through.
        warp.stack.push_div(warp.pc + 1, not_taken)
        warp.active_mask = taken
        warp.pc = target


#: Control op -> ``(warp, exec_mask, target)`` handler.
_CONTROL = {
    Op.NOP: _nop, Op.EXIT: _exit, Op.BAR: _barrier, Op.SSY: _ssy,
    Op.JOIN: _join, Op.CAL: _call, Op.RET: _ret, Op.BRA: _branch,
}
