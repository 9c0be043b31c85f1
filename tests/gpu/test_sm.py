"""SM execution: SIMT semantics, divergence, barriers, memory, timing."""

import pytest

from repro.errors import SimulationError
from repro.gpu import Gpu, KernelConfig
from repro.isa import assemble


def run(gpu, source, **kw):
    return gpu.run_kernel(assemble(source), KernelConfig(**kw))


def test_per_thread_computation(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        IMUL32I R1, R0, 0x3
        IADD32I R1, R1, 0x7
        GST [R0+0x100], R1
        EXIT
    """)
    for tid in range(32):
        assert result.global_memory[0x100 + tid] == tid * 3 + 7


def test_special_registers(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        S2R R1, NTID_X
        S2R R2, CTAID_X
        S2R R3, NCTAID_X
        S2R R4, LANEID
        S2R R5, WARPID
        SHL32I R6, R0, 0x3
        GST [R6+0x0], R1
        GST [R6+0x1], R2
        GST [R6+0x2], R3
        GST [R6+0x3], R4
        GST [R6+0x4], R5
        EXIT
    """, grid_blocks=2, block_threads=64)
    # thread 33 of block 1: warp 1, lane 1.
    base = 33 * 8
    assert result.global_memory[base + 0] == 64
    assert result.global_memory[base + 2] == 2
    assert result.global_memory[base + 3] == 1
    assert result.global_memory[base + 4] == 1


def test_predicated_execution(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x10
        ISETP P0, R0, R1, LT
        MOV32I R2, 0x0
    @P0 MOV32I R2, 0xAA
    @!P0 MOV32I R2, 0xBB
        GST [R0+0x0], R2
        EXIT
    """)
    for tid in range(32):
        assert result.global_memory[tid] == (0xAA if tid < 16 else 0xBB)


DIVERGENCE = """
    S2R R0, TID_X
    MOV32I R1, 0x8
    ISETP P0, R0, R1, LT
    MOV32I R2, 0x1
    SSY join
@P0 BRA join
    IADD32I R2, R2, 0x10      ; only threads >= 8
join:
    JOIN
    IADD32I R2, R2, 0x100     ; everyone again
    GST [R0+0x0], R2
    EXIT
"""


def test_divergence_reconverges(gpu):
    result = run(gpu, DIVERGENCE)
    for tid in range(32):
        expected = 0x101 if tid < 8 else 0x111
        assert result.global_memory[tid] == expected


def test_trace_records_active_mask_at_issue(gpu):
    """A divergent BRA and a JOIN switch the warp's mask while they
    execute; their trace rows still show the lanes active at issue."""
    trace = run(gpu, DIVERGENCE).trace
    bra = [r for r in trace if r.mnemonic == "BRA"]
    assert [(r.pc, r.active_mask, r.exec_mask) for r in bra] == [
        (5, 0xFFFFFFFF, 0xFF)]
    joins = [r for r in trace if r.mnemonic == "JOIN"]
    assert [(r.active_mask, r.exec_mask) for r in joins] == [
        (0xFF, 0xFF), (0xFFFFFF00, 0xFFFFFF00)]
    assert all(r.exec_mask & ~r.active_mask == 0 for r in trace)


def test_nested_divergence(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x10
        ISETP P0, R0, R1, LT       ; P0: tid < 16
        MOV32I R3, 0x8
        ISETP P1, R0, R3, LT       ; P1: tid < 8
        MOV32I R2, 0x0
        SSY outer
    @P0 BRA outer
        IADD32I R2, R2, 0x1        ; tid >= 16
        SSY inner
    @P1 BRA inner                  ; never taken here (P1 false for >=16)
        IADD32I R2, R2, 0x2
    inner:
        JOIN
    outer:
        JOIN
        GST [R0+0x0], R2
        EXIT
    """)
    for tid in range(32):
        assert result.global_memory[tid] == (0 if tid < 16 else 3)


def test_loop_execution(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x0
        MOV32I R2, 0x5
    loop:
        IADD32I R1, R1, 0x3
        IADD32I R2, R2, -1
        MOV32I R3, 0x0
        ISETP P0, R2, R3, GT
    @P0 BRA loop
        GST [R0+0x0], R1
        EXIT
    """)
    assert result.global_memory[0] == 15


def test_call_return(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x1
        CAL sub
        CAL sub
        GST [R0+0x0], R1
        EXIT
    sub:
        IADD32I R1, R1, 0x10
        RET
    """)
    assert result.global_memory[0] == 0x21


def test_barrier_synchronizes_warps(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        SST [R0+0x0], R0
        BAR
        MOV32I R2, 0x3F
        AND R3, R0, R2
        XOR R3, R3, R2          ; partner thread id = 63 - tid
        SLD R4, [R3+0x0]
        GST [R0+0x0], R4
        EXIT
    """, block_threads=64)
    for tid in range(64):
        assert result.global_memory[tid] == 63 - tid


def test_shared_and_constant_memory(gpu):
    program = assemble("""
        S2R R0, TID_X
        CLD R1, c[0x5]
        SST [R0+0x20], R1
        SLD R2, [R0+0x20]
        GST [R0+0x0], R2
        EXIT
    """)
    result = Gpu().run_kernel(program, KernelConfig(
        const_words={0x5: 0xCAFE}))
    assert result.global_memory[0] == 0xCAFE


def test_multi_block_serializes_on_one_sm(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        S2R R1, CTAID_X
        MOV32I R2, 0x20
        IMUL R3, R1, R2
        IADD R3, R3, R0
        GST [R3+0x0], R1
        EXIT
    """, grid_blocks=3, block_threads=32)
    assert result.global_memory[0] == 0
    assert result.global_memory[33] == 1
    assert result.global_memory[70] == 2


def test_cycle_accounting_monotonic_and_positive(gpu):
    short = run(gpu, "NOP\nEXIT")
    longer = run(gpu, "NOP\nNOP\nNOP\nNOP\nEXIT")
    assert 0 < short.cycles < longer.cycles


def test_sel_uses_predicate(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x1
        MOV32I R2, 0x2
        MOV32I R3, 0x10
        ISETP P1, R0, R3, LT
        SEL R4, P1, R1, R2
        GST [R0+0x0], R4
        EXIT
    """)
    assert result.global_memory[0] == 1
    assert result.global_memory[31] == 2


def test_runaway_kernel_guard(gpu):
    with pytest.raises(SimulationError, match="budget"):
        gpu.run_kernel(assemble("loop:\nBRA loop"), KernelConfig(),
                       max_instructions=100)


def test_pc_out_of_program_raises(gpu):
    with pytest.raises(SimulationError):
        gpu.run_kernel(assemble("NOP"), KernelConfig())  # falls off the end


def test_ragged_block_tail(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        GST [R0+0x0], R0
        EXIT
    """, block_threads=40)  # 1 full warp + 8-thread warp
    assert result.global_memory[39] == 39
    assert 40 not in result.global_memory


@pytest.mark.parametrize("op", ["EXIT", "RET", "BAR", "JOIN", "SSY end",
                                "CAL end"])
def test_guarded_control_op_other_than_bra_is_rejected(gpu, op):
    """A guard on EXIT/CAL/RET/SSY/JOIN/BAR would be ignored (the op acts
    on the whole warp): with P0 true for threads 0-7 only, ``@P0 EXIT``
    would end threads 8-31 before their store.  Predecode refuses it."""
    source = """
        S2R R0, TID_X
        MOV32I R1, 0x8
        ISETP P0, R0, R1, LT
    @P0 {}
        GST [R0+0x0], R0
    end:
        EXIT
    """.format(op)
    with pytest.raises(SimulationError, match="guarded"):
        run(gpu, source)


def test_guarded_bra_and_nop_are_accepted(gpu):
    result = run(gpu, """
        S2R R0, TID_X
        MOV32I R1, 0x8
        ISETP P0, R0, R1, LT
    @P0 NOP
        SSY skip
    @!P0 BRA skip
        GST [R0+0x0], R0
    skip:
        JOIN
        EXIT
    """)
    assert sorted(result.global_memory) == list(range(8))
