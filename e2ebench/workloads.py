"""The benchmark's four workloads: set-up and one operation each.

One operation is one whole campaign through
:func:`repro.core.campaign.run_stl_campaign` over the workload's STL.
Each operation starts from what a fresh ``repro campaign`` process holds
after module construction: freshly built modules, a fresh checkpoint and
an empty artifact cache (``du_edit``: a private copy of the warm cache).
:func:`prepare` builds that state outside the timed region.

Why each workload exists (layer shares are in README.md):

* ``du_cold`` -- DU IMM->MEM->CNTRL at the paper-table scale with the
  default configuration.  The SIMT interpreter dominates and there is no
  ATPG, so an interpreter change must show here and an ATPG change must
  not.
* ``sp_signature`` -- SP TPGEN->RAND at 8-bit width: the only
  signature-observability (MISR) flow, and ATPG-heavy set-up.
* ``sfu_pool`` -- SFU_IMM at 16-bit width with reversed patterns and
  ``jobs=2``: fault simulation in the worker pool dominates.
* ``du_edit`` -- the ``du_cold`` STL with one seeded immediate edit,
  re-compacted with ``incremental="on"`` against the warm cache the
  unedited STL filled: the cache read side and the incremental restore.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import shutil
from dataclasses import dataclass, field

from repro.analysis.experiments import DEFAULT
from repro.core.campaign import run_stl_campaign
from repro.core.checkpoint import CampaignCheckpoint
from repro.exec.cache import ArtifactCache
from repro.exec.metrics import RunMetrics
from repro.isa.instruction import Program
from repro.isa.opcodes import Op
from repro.netlist.modules import build_decoder_unit, build_sfu, build_sp_core
from repro.stl.generators import (
    generate_cntrl,
    generate_imm,
    generate_mem,
    generate_rand,
    generate_sfu_imm,
    generate_tpgen,
)
from repro.stl.ptp import SelfTestLibrary

#: SP datapath width.  At the paper-table 16 bits one SP operation takes
#: 22-28 s and ~1 GB RSS, too long to take a median over in one run.
SP_WIDTH = 8
#: RAND SBs of the SP STL (TPGEN is sized by its ATPG campaign).
SP_RAND_SBS = 80
#: PTPs compacted with reversed patterns (the paper's SFU_IMM setting).
REVERSE_FOR = ("SFU_IMM",)


@dataclass
class Prepared:
    """What set-up produced for one seed.

    Attributes:
        ptps: the original PTPs each operation compacts, in STL order.
        atpg: ATPG results made while generating them.
        cache_template: warm artifact cache each operation copies
            (None: operations start from an empty cache).
    """

    ptps: list
    atpg: list = field(default_factory=list)
    cache_template: str | None = None


@dataclass
class Operation:
    """The fresh state one timed campaign starts from."""

    stl: SelfTestLibrary
    modules: dict
    checkpoint: CampaignCheckpoint
    cache: ArtifactCache
    metrics: RunMetrics


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name (``--workload``).
        modules: module name -> function building it.
        generate: ``generate(modules, seed) -> (ptps, atpg_results)``.
        jobs: ``run_stl_campaign`` *jobs* (None: unset, so 1).
        incremental: ``run_stl_campaign`` *incremental* mode.
        warm_cache: set-up runs a cold ``incremental="on"`` campaign on
            the generated STL to fill the cache, then edits the STL.
        setup_reps: set-ups per run; ``setup_s`` is their median.  The
            ATPG-bound set-ups run once to keep a run inside its budget.
        min_ops: timed operations per run however long they take.
        must_reach: layers an operation must call (the traced run fails
            otherwise); ``exec.pool`` means pool chunks were dispatched.
    """

    name: str
    modules: dict
    generate: object
    jobs: int | None = None
    incremental: str = "off"
    warm_cache: bool = False
    setup_reps: int = 1
    min_ops: int = 2
    must_reach: tuple = ()

    def build_modules(self):
        return {name: build() for name, build in self.modules.items()}

    def campaign(self, op):
        """The timed call: one whole campaign over *op*'s STL."""
        return run_stl_campaign(op.stl, op.modules,
                                checkpoint=op.checkpoint, cache=op.cache,
                                metrics=op.metrics, jobs=self.jobs,
                                incremental=self.incremental,
                                reverse_for=REVERSE_FOR)

    def setup(self, seed, workdir):
        """Build modules and generate the STL from *seed* (``du_edit``:
        also fill the warm cache and apply the edit)."""
        ptps, atpg = self.generate(self.build_modules(), seed)
        if not self.warm_cache:
            return Prepared(ptps=ptps, atpg=atpg)
        cold = prepare(self, Prepared(ptps=ptps), workdir)
        self.campaign(cold)
        return Prepared(ptps=[edit_imm(ptps[0], seed)] + ptps[1:],
                        atpg=atpg, cache_template=cold.cache.directory)


def prepare(workload, prepared, opdir):
    """Fresh operation state under *opdir* (not timed)."""
    os.makedirs(opdir)
    cache_dir = os.path.join(opdir, "cache")
    if prepared.cache_template is not None:
        shutil.copytree(prepared.cache_template, cache_dir)
    return Operation(
        stl=SelfTestLibrary(copy.deepcopy(prepared.ptps)),
        modules=workload.build_modules(),
        checkpoint=CampaignCheckpoint.load_or_create(
            os.path.join(opdir, "campaign.json")),
        cache=ArtifactCache(cache_dir),
        metrics=RunMetrics())


def edit_imm(imm, seed):
    """*imm* with one MOV32I immediate, in a seeded SB, XORed with a
    seeded odd word."""
    rng = random.Random("du_edit:{}".format(seed))
    blocks = list(imm.sb_hints)
    rng.shuffle(blocks)
    for start, end in blocks:
        movs = [pc for pc in range(start, end)
                if imm.program[pc].op is Op.MOV32I]
        if movs:
            break
    else:
        raise ValueError("IMM has no MOV32I inside an SB")
    pc = rng.choice(movs)
    word = rng.getrandbits(32) | 1
    instructions = list(imm.program.instructions)
    instructions[pc] = dataclasses.replace(
        instructions[pc], imm=instructions[pc].imm ^ word)
    return dataclasses.replace(
        imm, program=Program(instructions, dict(imm.program.labels)))


def _du_stl(modules, seed):
    return [generate_imm(seed=seed, num_sbs=DEFAULT.imm_sbs),
            generate_mem(seed=seed, num_sbs=DEFAULT.mem_sbs),
            generate_cntrl(seed=seed, num_sbs=DEFAULT.cntrl_sbs)], []


def _sp_stl(modules, seed):
    tpgen, atpg = generate_tpgen(
        modules["sp_core"], seed=seed,
        atpg_random_patterns=DEFAULT.tpgen_random_patterns,
        atpg_max_backtracks=DEFAULT.tpgen_max_backtracks,
        atpg_podem_fault_limit=DEFAULT.tpgen_podem_fault_limit)
    return [tpgen, generate_rand(seed=seed, num_sbs=SP_RAND_SBS)], [atpg]


def _sfu_stl(modules, seed):
    sfu_imm, atpg = generate_sfu_imm(
        modules["sfu"], seed=seed,
        atpg_random_patterns=DEFAULT.sfu_random_patterns,
        atpg_max_backtracks=DEFAULT.sfu_max_backtracks,
        atpg_podem_fault_limit=DEFAULT.sfu_podem_fault_limit)
    return [sfu_imm], [atpg]


#: Layers every workload's operation crosses.
_COMMON_LAYERS = ("gpu", "core.tracing", "core.patterns", "core.fc_eval",
                  "exec.scheduler", "exec.cache.get", "exec.cache.put",
                  "exec.cache.codec", "verify", "core.partition",
                  "core.labeling", "core.reduction", "core.checkpoint")

WORKLOADS = {
    "du_cold": Workload(
        name="du_cold", modules={"decoder_unit": build_decoder_unit},
        generate=_du_stl, setup_reps=5, min_ops=3,
        must_reach=_COMMON_LAYERS + ("faults.sim",)),
    "sp_signature": Workload(
        name="sp_signature",
        modules={"sp_core": lambda: build_sp_core(SP_WIDTH)},
        generate=_sp_stl, min_ops=3,
        must_reach=_COMMON_LAYERS + ("faults.sim", "faults.signature",
                                     "faults.atpg")),
    "sfu_pool": Workload(
        name="sfu_pool",
        modules={"sfu": lambda: build_sfu(DEFAULT.datapath_width)},
        generate=_sfu_stl, jobs=2,
        must_reach=_COMMON_LAYERS + ("faults.atpg", "exec.pool")),
    "du_edit": Workload(
        name="du_edit", modules={"decoder_unit": build_decoder_unit},
        generate=_du_stl, incremental="on", warm_cache=True, setup_reps=2,
        min_ops=3, must_reach=_COMMON_LAYERS + ("exec.incremental",)),
}
