"""Hardware tracing monitor.

The paper incorporates one hardware monitor in one SM "without any effect on
the functional operation of the PTP"; it captures instruction opcodes from
the fetch stage and generates the tracing report (Section III stage 2).
:class:`Monitor` is that component: the SM calls it at every decode and once
per executed warp instruction, and it fans the events out to the
trace-record list and to the registered per-module stimulus collectors.
A collector receives only the events it overrides the hook of, so the SM
skips building lane operand lists when no collector consumes execute beats.
"""

from __future__ import annotations

from .stimuli import StimulusCollector
from .trace import TraceRecord


class Monitor:
    """Collects trace records and per-module stimuli during a kernel run.

    Attributes:
        trace: the :class:`TraceRecord` list, in issue order.
        collectors: every registered collector.
        decode_collectors / execute_collectors: the collectors that
            override :meth:`StimulusCollector.on_decode` /
            :meth:`StimulusCollector.on_execute`.
    """

    def __init__(self, collectors=()):
        self.trace = []
        self.collectors = []
        self.decode_collectors = []
        self.execute_collectors = []
        for collector in collectors:
            self.add_collector(collector)

    def add_collector(self, collector):
        self.collectors.append(collector)
        kind = type(collector)
        if kind.on_decode is not StimulusCollector.on_decode:
            self.decode_collectors.append(collector)
        if kind.on_execute is not StimulusCollector.on_execute:
            self.execute_collectors.append(collector)

    def on_decode(self, cc, block, warp, pc, instr, word):
        for collector in self.decode_collectors:
            collector.on_decode(cc, block, warp, pc, instr, word)

    def on_execute(self, block, warp, pc, instr, ccs, lanes, threads,
                   operands):
        for collector in self.execute_collectors:
            collector.on_execute(block, warp, pc, instr, ccs, lanes, threads,
                                 operands)

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
