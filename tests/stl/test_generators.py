"""The six PTP generators: structure, determinism, executability."""

import pytest

from repro.core.partition import partition_ptp
from repro.core.reduction import segment_small_blocks
from repro.core.tracing import run_logic_tracing
from repro.isa.opcodes import Op, Unit, info
from repro.stl import (
    SelfTestLibrary,
    generate_cntrl,
    generate_imm,
    generate_mem,
    generate_rand,
    generate_sfu_imm,
    generate_tpgen,
)


@pytest.fixture(scope="module")
def imm():
    return generate_imm(seed=5, num_sbs=10)


@pytest.fixture(scope="module")
def mem():
    return generate_mem(seed=5, num_sbs=10)


@pytest.fixture(scope="module")
def cntrl():
    return generate_cntrl(seed=5, num_sbs=6)


@pytest.fixture(scope="module")
def rand_ptp():
    return generate_rand(seed=5, num_sbs=10)


@pytest.fixture(scope="module")
def tpgen(sp_module):
    ptp, atpg = generate_tpgen(sp_module, seed=5, atpg_random_patterns=32,
                               atpg_max_backtracks=4)
    return ptp, atpg


@pytest.fixture(scope="module")
def sfu_imm(sfu_module):
    ptp, atpg = generate_sfu_imm(sfu_module, seed=5,
                                 atpg_random_patterns=32,
                                 atpg_max_backtracks=3)
    return ptp, atpg


def test_generators_are_deterministic():
    a = generate_imm(seed=11, num_sbs=4)
    b = generate_imm(seed=11, num_sbs=4)
    assert list(a.program) == list(b.program)
    assert a.global_image == b.global_image
    c = generate_imm(seed=12, num_sbs=4)
    assert list(a.program) != list(c.program)


def test_imm_targets_du_with_immediate_coverage(imm):
    assert imm.target == "decoder_unit"
    used = {instr.op for instr in imm.program}
    from repro.stl.generators.base import IMMEDIATE_OPS
    assert len(used & set(IMMEDIATE_OPS)) >= 6


def test_imm_sb_sizes_in_paper_band(imm):
    # Section IV: IMM/MEM SBs are 15-18 instructions; ours 13-18.
    for start, end in imm.sb_hints:
        assert 13 <= end - start <= 18


def test_mem_exercises_all_memory_spaces(mem):
    used = {instr.op for instr in mem.program}
    assert {Op.GLD, Op.GST, Op.SLD, Op.SST, Op.CLD} <= used
    assert mem.kernel.const_words  # CLD coverage needs constants


def test_cntrl_has_divergence_and_parametric_loop(cntrl):
    used = {instr.op for instr in cntrl.program}
    assert {Op.SSY, Op.BRA, Op.JOIN, Op.CLD} <= used
    partition = partition_ptp(cntrl)
    assert partition.inadmissible_blocks, "parametric loop must be excluded"
    assert any(loop["parametric"] for loop in partition.loops)
    assert 75.0 < partition.arc_percent() < 99.0


def test_straight_line_ptps_are_fully_admissible(imm, mem, rand_ptp):
    for ptp in (imm, mem, rand_ptp):
        assert partition_ptp(ptp).arc_percent() == 100.0


def test_rand_uses_signature(rand_ptp):
    assert rand_ptp.uses_signature
    from repro.stl.signature import SIG_REG
    stores = [i for i in rand_ptp.program
              if i.op is Op.GST and i.src_b == SIG_REG]
    assert stores, "signature must be flushed to memory"


def test_sb_hints_are_contiguous_partition(imm, rand_ptp):
    for ptp in (imm, rand_ptp):
        hints = ptp.sb_hints
        for (s1, e1), (s2, __) in zip(hints, hints[1:]):
            assert e1 == s2
        assert hints[0][0] >= 1  # prologue precedes the first SB


def test_structural_segmentation_recovers_hinted_boundaries(imm, rand_ptp,
                                                            mem):
    """Every generator-known SB start must be a detected SB boundary."""
    for ptp in (imm, rand_ptp, mem):
        partition = partition_ptp(ptp)
        detected = {sb.start for sb in segment_small_blocks(ptp, partition)}
        hinted = {start for start, __ in ptp.sb_hints}
        assert hinted <= detected


def test_all_ptps_execute_on_gpu(gpu, du_module, sp_module, sfu_module, imm,
                                 mem, cntrl, rand_ptp, tpgen, sfu_imm):
    modules = {"decoder_unit": du_module, "sp_core": sp_module,
               "sfu": sfu_module}
    for ptp in (imm, mem, cntrl, rand_ptp, tpgen[0], sfu_imm[0]):
        tracing = run_logic_tracing(ptp, modules[ptp.target], gpu=gpu)
        assert tracing.cycles > 0
        assert tracing.pattern_report.count > 0


def test_trace_exec_mask_within_active_mask(gpu, du_module, sp_module,
                                            sfu_module, imm, mem, cntrl,
                                            rand_ptp, tpgen, sfu_imm):
    """Every trace row's executing lanes are among its lanes active at
    issue, for all six generators."""
    modules = {"decoder_unit": du_module, "sp_core": sp_module,
               "sfu": sfu_module}
    for ptp in (imm, mem, cntrl, rand_ptp, tpgen[0], sfu_imm[0]):
        tracing = run_logic_tracing(ptp, modules[ptp.target], gpu=gpu)
        outside = [r for r in tracing.trace
                   if r.exec_mask & ~r.active_mask]
        assert not outside, (ptp.name, outside[:3])


def test_tpgen_structure(tpgen, sp_module):
    ptp, atpg = tpgen
    assert ptp.target == "sp_core"
    assert ptp.style == "atpg"
    assert ptp.uses_signature
    loads = [i for i in ptp.program if i.op is Op.GLD]
    assert loads, "TPGEN loads per-thread operands from memory"
    for load in loads:
        base = load.imm
        for t in range(ptp.kernel.block_threads):
            assert base + t in ptp.global_image


def test_tpgen_patterns_grouped_by_op(tpgen):
    ptp, atpg = tpgen
    # Instructions carrying the test op must come from the SPOP_TO_ISA map.
    from repro.stl.generators.atpg_based import SPOP_TO_ISA
    body_ops = {i.op for i in ptp.program
                if info(i.op).unit is Unit.SP and i.op is not Op.MOV32I}
    assert body_ops <= set(SPOP_TO_ISA.values()) | {
        Op.SHL32I, Op.SHR32I, Op.OR, Op.XOR, Op.SEL,
        Op.S2R}  # + MISR helpers and the tid prologue


def test_sfu_imm_structure(sfu_imm):
    ptp, atpg = sfu_imm
    assert ptp.target == "sfu"
    assert not ptp.uses_signature  # results stored directly, no SpT
    sfu_ops = [i for i in ptp.program if info(i.op).unit is Unit.SFU]
    movs = [i for i in ptp.program if i.op is Op.MOV32I]
    stores = [i for i in ptp.program if i.op is Op.GST]
    # One SB per converted pattern: MOV32I / SFU-op / GST.
    assert len(sfu_ops) == len(ptp.sb_hints)
    assert len(movs) >= len(sfu_ops)
    assert len(stores) >= len(sfu_ops)


def test_atpg_conversion_reports_skips(tpgen, sfu_imm):
    for ptp, __ in (tpgen, sfu_imm):
        assert "skipped in conversion" in ptp.description


def test_stl_container_round_trip(imm, mem, cntrl):
    stl = SelfTestLibrary([imm, mem, cntrl])
    assert len(stl) == 3
    assert stl["MEM"] is mem
    assert [p.name for p in stl.targeting("decoder_unit")] == [
        "IMM", "MEM", "CNTRL"]
    assert stl.total_size == imm.size + mem.size + cntrl.size
    replacement = imm.with_program(imm.program, name="IMM")
    stl.replace("IMM", replacement)
    assert stl["IMM"] is replacement
