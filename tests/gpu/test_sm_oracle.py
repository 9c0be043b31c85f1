"""Differential oracle: the predecoded SIMT interpreter against the
per-thread reference interpreter it replaced (``reference_sm.py``).

Every kernel result must be byte-identical: cycles, instruction count,
the global-memory image, every trace row and the stimuli of all three
collectors, compared through ``repr`` so a numpy scalar leaking where a
Python int belongs fails too.  Each run is compared twice on the new
side: with all three collectors attached (the lane-operand path) and with
the decoder-unit collector alone (the path DU campaigns take, where no
collector consumes execute beats).  Error paths must raise the same
:class:`SimulationError` with the same message.

Two error conditions have no program that reaches them, on either
interpreter: a deadlock (a warp waiting at BAR is released as soon as
every other warp waits or has exited) and a store to read-only constant
memory (no instruction stores to the constant bank);
``test_memory_config`` covers the latter on :class:`WordMemory` directly.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tracing import run_logic_tracing
from repro.errors import SimulationError
from repro.exec.cache import tracing_to_payload
from repro.gpu import (
    DecoderUnitCollector,
    Gpu,
    GpuConfig,
    KernelConfig,
    SfuCollector,
    SpCoreCollector,
)
from repro.isa import MASK32, Instruction, Pred, assemble
from repro.isa.opcodes import CmpOp, Fmt, Op, SpecialReg, Unit, info
from repro.stl import (
    generate_cntrl,
    generate_imm,
    generate_mem,
    generate_rand,
    generate_sfu_imm,
    generate_tpgen,
)

from . import reference_sm as ref

WIDTH = 8
MODULES = ("decoder_unit", "sp_core", "sfu")


def _new_collectors(names=MODULES):
    make = {"decoder_unit": DecoderUnitCollector,
            "sp_core": lambda: SpCoreCollector(WIDTH),
            "sfu": lambda: SfuCollector(WIDTH)}
    return [make[name]() for name in names]


def _outcome(run):
    try:
        return run()
    except SimulationError as exc:
        return exc


def _assert_same_error(new, old):
    assert type(new) is type(old)
    assert str(new) == str(old)


def _assert_same_rows(new, old, what):
    """Element-wise ``repr`` equality, reporting the first differing row
    (a whole-list assert would make pytest diff megabytes of text)."""
    for index, (a, b) in enumerate(zip(new, old)):
        if repr(a) != repr(b):
            pytest.fail("{} row {}: {!r} != reference {!r}".format(
                what, index, a, b))
    if len(new) != len(old):
        pytest.fail("{}: {} rows != reference {}".format(what, len(new),
                                                         len(old)))


def _assert_same_result(new, old, modules=MODULES):
    assert (new.cycles, new.instructions) == (old.cycles, old.instructions)
    _assert_same_rows(sorted(new.global_memory.items()),
                      sorted(old.global_memory.items()), "global memory")
    _assert_same_rows(new.trace, old.trace, "trace")
    for name in modules:
        _assert_same_rows(new.stimuli[name], old.stimuli[name], name)


def assert_kernels_match(program, kernel=None, global_image=None,
                         config=None, max_instructions=20_000_000):
    """Run *program* on both interpreters and require identical outcomes;
    returns the reference outcome."""
    config = config or GpuConfig()
    kwargs = {"global_image": global_image,
              "max_instructions": max_instructions}
    old = _outcome(lambda: ref.run_kernel(
        program, kernel, collectors=ref.collectors_for(MODULES, WIDTH),
        config=config, **kwargs))
    gpu = Gpu(config)
    full = _outcome(lambda: gpu.run_kernel(
        program, kernel, collectors=_new_collectors(), **kwargs))
    du_only = _outcome(lambda: gpu.run_kernel(
        program, kernel, collectors=_new_collectors(["decoder_unit"]),
        **kwargs))
    if isinstance(old, SimulationError):
        _assert_same_error(full, old)
        _assert_same_error(du_only, old)
        return old
    _assert_same_result(full, old)
    _assert_same_result(du_only, old, modules=["decoder_unit"])
    return old


# -- the six generators -------------------------------------------------------

GENERATORS = {
    "IMM": lambda seed, sp, sfu: generate_imm(seed=seed),
    "MEM": lambda seed, sp, sfu: generate_mem(seed=seed),
    "CNTRL": lambda seed, sp, sfu: generate_cntrl(seed=seed),
    "RAND": lambda seed, sp, sfu: generate_rand(seed=seed, num_sbs=24),
    "TPGEN": lambda seed, sp, sfu: generate_tpgen(
        sp, seed=seed, atpg_random_patterns=32, atpg_max_backtracks=2,
        atpg_podem_fault_limit=8)[0],
    "SFU_IMM": lambda seed, sp, sfu: generate_sfu_imm(
        sfu, seed=seed, atpg_random_patterns=32, atpg_max_backtracks=2,
        atpg_podem_fault_limit=8)[0],
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_ptps_match_reference(name, seed, du_module, sp_module,
                                        sfu_module):
    ptp = GENERATORS[name](seed, sp_module, sfu_module)
    old = assert_kernels_match(ptp.program, ptp.kernel, ptp.global_image)

    # Stage 2 as the pipeline runs it: one collector, through
    # run_logic_tracing, down to the artifact-cache payload bytes.
    module = {"decoder_unit": du_module, "sp_core": sp_module,
              "sfu": sfu_module}[ptp.target]
    new = run_logic_tracing(ptp, module, gpu=Gpu())
    reference = ref.run_logic_tracing(ptp, module)
    assert (new.cycles, new.instructions) == (old.cycles, old.instructions)
    _assert_same_rows(new.trace, reference.trace, "trace")
    _assert_same_rows(new.pattern_report.records,
                      reference.pattern_report.records, "pattern report")
    payload = json.dumps(tracing_to_payload(new), sort_keys=True)
    assert payload == json.dumps(tracing_to_payload(reference),
                                 sort_keys=True), "cache payload differs"


# -- hypothesis-generated programs --------------------------------------------

#: R1..R9 hold random words; R10 and R12 are predicate scratch, R11 the
#: loop counter, R13 zero, R14 the thread's 16-word result slot.
POOL = list(range(1, 10))
THRESHOLD, LOOP_REG, SCRATCH, ZERO, SLOT = 10, 11, 12, 13, 14
LOOP_PRED = 3

#: Words that stress binary32 and shift semantics: zeros, NaNs (quiet,
#: signalling, negative), infinities, denormals, extremes, shift counts
#: around 32 and 64.
SPECIAL_WORDS = [
    0x00000000, 0x80000000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FBFFFFF,
    0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF,
    0x3F800000, 0xBF800000, 0x4B000000, 0xCF000000, 31, 32, 33, 63, 64,
    0xFFFFFFFF, 0x7FFFFFFF,
]
words = st.one_of(st.sampled_from(SPECIAL_WORDS), st.integers(0, MASK32))
pool_regs = st.sampled_from(POOL)
guards = st.one_of(st.none(), st.builds(Pred, st.integers(0, 2),
                                        st.booleans()))

#: Every op a random body may compute with (SP, FP32 and SFU units).
ARITH_OPS = [op for op in Op
             if info(op).unit in (Unit.SP, Unit.FP32, Unit.SFU)
             and op not in (Op.ISETP, Op.SEL, Op.S2R)]


@st.composite
def arith_instruction(draw):
    op = draw(st.sampled_from(ARITH_OPS))
    fmt = info(op).fmt
    kwargs = {"op": op, "dst": draw(pool_regs), "pred": draw(guards)}
    if fmt in (Fmt.RRR, Fmt.RRRR, Fmt.RRC, Fmt.RR, Fmt.RRI32):
        kwargs["src_a"] = draw(pool_regs)
    if fmt in (Fmt.RRR, Fmt.RRRR, Fmt.RRC):
        kwargs["src_b"] = draw(pool_regs)
    if fmt is Fmt.RRRR:
        kwargs["src_c"] = draw(pool_regs)
    if fmt in (Fmt.RRI32, Fmt.RI32):
        kwargs["imm"] = draw(words)
    if fmt is Fmt.RRC:
        kwargs["cmp"] = draw(st.sampled_from(list(CmpOp)))
    return Instruction(**kwargs)


def _emit_predicate(draw, builder, pred, guard):
    """A per-lane condition on tid: contiguous (tid < t) or strided
    (tid & m == r) lane sets."""
    builder.emit(Instruction(Op.AND32I, dst=SCRATCH, src_a=0,
                             imm=draw(st.sampled_from([MASK32, 1, 3, 5]))))
    builder.emit(Instruction(Op.MOV32I, dst=THRESHOLD,
                             imm=draw(st.integers(0, 40))))
    builder.emit(Instruction(Op.ISETP, dst=pred, src_a=SCRATCH,
                             src_b=THRESHOLD,
                             cmp=draw(st.sampled_from(list(CmpOp))),
                             pred=guard))


class _Builder:
    """Instruction list with forward-label patching."""

    def __init__(self):
        self.code = []
        self.patches = []  # (index, label)
        self.labels = {}
        self.subroutines = []

    def emit(self, instr, label=None):
        if label is not None:
            self.patches.append((len(self.code), label))
        self.code.append(instr)

    def here(self, label):
        self.labels[label] = len(self.code)

    def finish(self):
        for index, label in self.patches:
            self.code[index] = self.code[index].with_target(
                self.labels[label])
        return self.code


def _emit_body(draw, builder, depth, in_loop):
    kinds = ["arith"] * 6 + ["predicate", "sel", "s2r", "store",
                             "conflict", "shared", "load", "bar"]
    if depth < 3:
        kinds += ["diverge", "diverge", "call"]
        if not in_loop:
            kinds.append("loop")
    for __ in range(draw(st.integers(1, 6))):
        _emit_item(draw, builder, draw(st.sampled_from(kinds)), depth,
                   in_loop)


def _emit_item(draw, builder, kind, depth, in_loop):
    emit = builder.emit
    if kind == "arith":
        emit(draw(arith_instruction()))
    elif kind == "predicate":
        _emit_predicate(draw, builder, draw(st.integers(0, 2)), draw(guards))
    elif kind == "sel":
        emit(Instruction(Op.SEL, dst=draw(pool_regs),
                         src_c=draw(st.integers(0, 3)), src_a=draw(pool_regs),
                         src_b=draw(pool_regs), pred=draw(guards)))
    elif kind == "s2r":
        emit(Instruction(Op.S2R, dst=draw(pool_regs),
                         sreg=draw(st.sampled_from(list(SpecialReg))),
                         pred=draw(guards)))
    elif kind == "store":
        emit(Instruction(Op.GST, src_a=SLOT, src_b=draw(pool_regs),
                         imm=draw(st.integers(12, 15)), pred=draw(guards)))
    elif kind == "conflict":
        # Every executing lane stores to one address: the highest wins.
        op = draw(st.sampled_from([Op.GST, Op.SST]))
        emit(Instruction(op, src_a=ZERO, src_b=draw(pool_regs),
                         imm=draw(st.integers(0x300, 0x303)),
                         pred=draw(guards)))
    elif kind == "shared":
        emit(Instruction(Op.SST, src_a=0, src_b=draw(pool_regs),
                         imm=draw(st.integers(0x100, 0x104)),
                         pred=draw(guards)))
        emit(Instruction(Op.SLD, dst=draw(pool_regs), src_a=0,
                         imm=draw(st.integers(0x100, 0x104))))
    elif kind == "load":
        if draw(st.booleans()):
            emit(Instruction(Op.GLD, dst=draw(pool_regs), src_a=0,
                             imm=draw(st.integers(0x40, 0x60)),
                             pred=draw(guards)))
        else:
            emit(Instruction(Op.CLD, dst=draw(pool_regs),
                             imm=draw(st.integers(0, 7)), pred=draw(guards)))
    elif kind == "bar":
        emit(Instruction(Op.BAR))
    elif kind == "diverge":
        label = "join{}".format(len(builder.code))
        emit(Instruction(Op.SSY), label)
        emit(Instruction(Op.BRA, pred=Pred(draw(st.integers(0, 2)),
                                           draw(st.booleans()))), label)
        _emit_body(draw, builder, depth + 1, in_loop)
        builder.here(label)
        emit(Instruction(Op.JOIN))
    elif kind == "call":
        label = "sub{}".format(len(builder.subroutines))
        builder.subroutines.append((label, depth + 1, in_loop))
        emit(Instruction(Op.CAL), label)
    elif kind == "loop":
        label = "loop{}".format(len(builder.code))
        emit(Instruction(Op.MOV32I, dst=LOOP_REG,
                         imm=draw(st.integers(1, 3))))
        builder.here(label)
        _emit_body(draw, builder, depth + 1, True)
        emit(Instruction(Op.IADD32I, dst=LOOP_REG, src_a=LOOP_REG,
                         imm=MASK32))
        emit(Instruction(Op.ISETP, dst=LOOP_PRED, src_a=LOOP_REG, src_b=ZERO,
                         cmp=CmpOp.GT))
        emit(Instruction(Op.BRA, pred=Pred(LOOP_PRED)), label)


@st.composite
def kernels(draw):
    """(program, kernel, global image, gpu config) of a random kernel."""
    builder = _Builder()
    emit = builder.emit
    emit(Instruction(Op.S2R, dst=0, sreg=SpecialReg.TID_X))
    emit(Instruction(Op.S2R, dst=SLOT, sreg=SpecialReg.CTAID_X))
    emit(Instruction(Op.S2R, dst=SCRATCH, sreg=SpecialReg.NTID_X))
    emit(Instruction(Op.IMAD, dst=SLOT, src_a=SLOT, src_b=SCRATCH, src_c=0))
    emit(Instruction(Op.SHL32I, dst=SLOT, src_a=SLOT, imm=4))
    emit(Instruction(Op.MOV32I, dst=ZERO, imm=0))
    for reg in POOL:
        if draw(st.booleans()):
            emit(Instruction(Op.MOV32I, dst=reg, imm=draw(words)))
        else:  # per-lane operands from global memory
            emit(Instruction(Op.GLD, dst=reg, src_a=0,
                             imm=draw(st.integers(0x40, 0x60))))
    for pred in range(3):
        _emit_predicate(draw, builder, pred, None)
    _emit_body(draw, builder, 0, False)
    for k, reg in enumerate(POOL):
        emit(Instruction(Op.GST, src_a=SLOT, src_b=reg, imm=k))
    emit(Instruction(Op.EXIT))
    index = 0
    while index < len(builder.subroutines):  # subroutines may add more
        label, depth, in_loop = builder.subroutines[index]
        builder.here(label)
        _emit_body(draw, builder, depth, in_loop)
        emit(Instruction(Op.RET))
        index += 1
    program = builder.finish()

    kernel = KernelConfig(
        grid_blocks=draw(st.integers(1, 2)),
        block_threads=draw(st.sampled_from([32, 40, 64, 128])),
        const_words={k: draw(words) for k in range(8)})
    image = {0x40 + k: draw(words) for k in range(0x60)}
    config = GpuConfig(num_sps=draw(st.sampled_from([8, 8, 16, 32])))
    return program, kernel, image, config


@given(kernels())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_random_kernels_match_reference(case):
    program, kernel, image, config = case
    assert_kernels_match(program, kernel, image, config)


# -- targeted semantics -------------------------------------------------------

FP_SFU_OPS = [op for op in Op if info(op).unit in (Unit.FP32, Unit.SFU)]


@pytest.mark.parametrize("op", FP_SFU_OPS, ids=lambda op: op.value)
def test_fp_and_sfu_special_operands(op):
    """NaN, +-inf, denormal and zero operands on every FP32 / SFU op, one
    (a, b, c) combination per lane."""
    values = SPECIAL_WORDS[:16]
    image = {}
    for tid in range(64):
        image[0x000 + tid] = values[tid % 16]
        image[0x100 + tid] = values[(tid // 16 + tid * 7) % 16]
        image[0x200 + tid] = values[(tid * 5 + 3) % 16]
    fmt = info(op).fmt
    cmps = list(CmpOp) if fmt is Fmt.RRC else [CmpOp.EQ]
    source = ["S2R R0, TID_X", "GLD R1, [R0+0x0]", "GLD R2, [R0+0x100]",
              "GLD R3, [R0+0x200]", "SHL32I R9, R0, 0x3"]
    program = assemble("\n".join(source))
    program = list(program)
    for k, cmp_op in enumerate(cmps):
        kwargs = {"op": op, "dst": 4, "src_a": 1, "cmp": cmp_op}
        if fmt in (Fmt.RRR, Fmt.RRRR, Fmt.RRC):
            kwargs["src_b"] = 2
        if fmt is Fmt.RRRR:
            kwargs["src_c"] = 3
        if fmt is Fmt.RRI32:
            kwargs["imm"] = values[(k * 3 + 5) % 16]
        program.append(Instruction(**kwargs))
        program.append(Instruction(Op.GST, src_a=9, src_b=4, imm=k))
    program.append(Instruction(Op.EXIT))
    assert_kernels_match(program, KernelConfig(block_threads=64), image)


def test_shift_amounts_at_and_beyond_32():
    """Register shifts take a 6-bit amount per lane (32..63 flush to zero;
    bits above 6 are ignored); immediate shifts likewise."""
    amounts = [0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 0xFFFFFFFF, 0x80000020]
    image = {0x100 + tid: amounts[tid % len(amounts)] for tid in range(32)}
    lines = ["S2R R0, TID_X", "GLD R1, [R0+0x100]", "MOV32I R2, 0xF0F0F0F1",
             "SHL R3, R2, R1", "SHR R4, R2, R1", "SHL32I R9, R0, 0x5"]
    store = 0
    for reg in (3, 4):
        lines.append("GST [R9+{:#x}], R{}".format(store, reg))
        store += 1
    for amount in (0, 1, 31, 32, 33, 63, 64, 0xFFFFFFFF):
        for op in ("SHL32I", "SHR32I"):
            lines.append("{} R5, R2, {:#x}".format(op, amount))
            lines.append("GST [R9+{:#x}], R5".format(store))
            store += 1
    lines.append("EXIT")
    result = assert_kernels_match(assemble("\n".join(lines)), None, image)
    assert result.global_memory[0] == 0xF0F0F0F1  # lane 0: amount 0


def test_same_address_lane_stores():
    """All lanes store to one address, some lanes guarded off: the highest
    executing lane's value stays, in global and in shared memory."""
    result = assert_kernels_match(assemble("""
        S2R R0, TID_X
        MOV32I R1, 0x0
        AND32I R2, R0, 0x3
        ISETP P0, R2, R1, NE       ; strided lanes: tid % 4 != 0
        MOV32I R3, 0x14
        ISETP P1, R0, R3, LT       ; contiguous lanes: tid < 20
        GST [R1+0x50], R0
    @P0 GST [R1+0x51], R0
    @!P0 GST [R1+0x52], R0
    @P1 GST [R1+0x53], R0
    @P1 SST [R1+0x10], R0
        BAR
        SLD R4, [R1+0x10]
        SHL32I R5, R0, 0x1
        GST [R5+0x100], R4
        EXIT
    """), KernelConfig(block_threads=64))
    memory = result.global_memory
    assert memory[0x50] == 63 and memory[0x51] == 63
    assert memory[0x52] == 60 and memory[0x53] == 19


ERROR_PROGRAMS = {
    "pc out of program": ("NOP", {}),
    "instruction budget": ("loop:\nBRA loop", {"max_instructions": 100}),
    "RET with empty call stack": ("RET", {}),
    "JOIN with empty SIMT stack": ("JOIN", {}),
    "SIMT stack overflow": ("\n".join(["SSY end"] * 33 + ["end:", "JOIN",
                                                          "EXIT"]), {}),
    "shared memory bounds": ("S2R R0, TID_X\nSLD R1, [R0+0xFFA]\nEXIT", {}),
}


@pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
def test_error_paths_match_reference(name):
    source, kwargs = ERROR_PROGRAMS[name]
    outcome = assert_kernels_match(assemble(source), **kwargs)
    assert isinstance(outcome, SimulationError)


def test_sp_lane_filter_matches_reference():
    ptp = generate_imm(seed=2, num_sbs=12)
    old = ref.SpCoreCollector(WIDTH, lane_filter=3)
    new = SpCoreCollector(WIDTH, lane_filter=3)
    ref.run_kernel(ptp.program, ptp.kernel, collectors=[old],
                   global_image=ptp.global_image)
    Gpu().run_kernel(ptp.program, ptp.kernel, collectors=[new],
                     global_image=ptp.global_image)
    assert new.records and {r.lane for r in new.records} == {3}
    _assert_same_rows(new.records, old.records, "sp_core lane 3")


def test_unknown_special_register_matches_reference():
    program = [Instruction(Op.S2R, dst=1, sreg=99), Instruction(Op.EXIT)]
    old = _outcome(lambda: ref.run_kernel(
        program, collectors=ref.collectors_for(["sp_core"], WIDTH)))
    new = _outcome(lambda: Gpu().run_kernel(
        program, collectors=_new_collectors(["sp_core"])))
    assert isinstance(old, SimulationError)
    _assert_same_error(new, old)
