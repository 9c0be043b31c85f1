"""Outside-in span tracer for the campaign benchmark.

The tracer wraps public callables of ``repro`` at each layer boundary
from the benchmark's own files; nothing under ``src/`` changes.  Every
wrapped call records a span (layer, start, end, parent span).  A layer's
self time is its spans' durations minus the time their child spans
cover, so the self times of all layers plus the root span's self time
(time no boundary claims) add up to the root span's wall time exactly.

A function boundary is patched in every loaded ``repro`` module that
holds the function under any name, because callers bind it with
``from .x import f``; a method boundary is patched on its class.  Both
are restored by :meth:`Tracer.remove`.

Without a clock (``timed=False``) the wrappers only count calls and read
counters, which is what untraced operations use for the deterministic
work counters.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time


class StaleBoundary(Exception):
    """A wrapped callable is gone, or a required boundary saw no call."""


def _gpu_counts(counts, args, kwargs, result):
    counts["gpu.sim_cycles"] += result.cycles
    counts["gpu.warp_instructions"] += result.instructions


def _signature_counts(counts, args, kwargs, result):
    # run_signature(self, patterns, fault_list, result_word, sequences)
    patterns, fault_list = args[1], args[2]
    counts["faults.signature.fault_patterns"] += (
        patterns.count * len(fault_list))


#: (layer, module, qualified attribute, counter reader) for every layer
#: boundary an operation crosses.  Several boundaries may share a layer.
BOUNDARIES = (
    ("gpu", "repro.gpu.gpu", "Gpu.run_kernel", _gpu_counts),
    ("core.tracing", "repro.core.tracing", "run_logic_tracing", None),
    ("core.patterns", "repro.core.patterns",
     "PatternReport.to_pattern_set", None),
    ("core.fc_eval", "repro.core.fc_eval", "evaluate_fc", None),
    ("faults.sim", "repro.faults.fault_sim", "FaultSimulator.run", None),
    ("faults.signature", "repro.faults.fault_sim",
     "FaultSimulator.run_signature", _signature_counts),
    ("exec.scheduler", "repro.exec.scheduler",
     "ShardedFaultScheduler.run", None),
    ("exec.cache.get", "repro.exec.cache", "ArtifactCache.get", None),
    ("exec.cache.put", "repro.exec.cache", "ArtifactCache.put", None),
    ("exec.cache.codec", "repro.exec.cache", "tracing_to_payload", None),
    ("exec.cache.codec", "repro.exec.cache", "tracing_from_payload", None),
    ("exec.incremental", "repro.exec.incremental",
     "IncrementalFaultSim.run", None),
    ("verify", "repro.verify.verifier", "verify_compaction", None),
    ("core.partition", "repro.core.partition", "partition_ptp", None),
    ("core.labeling", "repro.core.labeling", "label_instructions", None),
    ("core.reduction", "repro.core.reduction", "reduce_ptp", None),
    ("core.checkpoint", "repro.core.checkpoint",
     "CampaignCheckpoint.save", None),
)

#: The one boundary traced during set-up: test generation.
SETUP_BOUNDARIES = (
    ("faults.atpg", "repro.faults.atpg", "run_atpg", None),
)

#: Layers whose wrappers untraced operations keep, for the GPU counters.
COUNT_BOUNDARIES = tuple(b for b in BOUNDARIES if b[0] == "gpu")

#: Every layer name, in report order.
LAYERS = tuple(dict.fromkeys(
    b[0] for b in BOUNDARIES + SETUP_BOUNDARIES))


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(module_name, qualname):
    """``(targets, original)`` for one boundary: *targets* lists the
    ``(namespace, attribute)`` pairs to patch.  Raises
    :class:`StaleBoundary` when the callable no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise StaleBoundary("module {} is gone: {}".format(
            module_name, exc)) from exc
    *owner_path, attr = qualname.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise StaleBoundary("{}.{} is gone".format(module_name, part))
    namespace = vars(owner)
    original = namespace.get(attr)
    if not callable(original):
        raise StaleBoundary("{}.{} is gone or no longer a plain "
                            "callable".format(module_name, qualname))
    if owner_path:
        return [(owner, attr)], original
    targets = [(loaded, key) for loaded in _repro_modules()
               for key, value in list(vars(loaded).items())
               if value is original]
    return targets, original


class Tracer:
    """Span recorder installed around one operation.

    Args:
        boundaries: boundary tuples as in :data:`BOUNDARIES`.
        timed: record spans with the clock (False: count calls only).
    """

    def __init__(self, boundaries, timed=True):
        self.boundaries = boundaries
        self.timed = timed
        self.spans = []          # [layer, start, end, parent index]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {"gpu.sim_cycles": 0, "gpu.warp_instructions": 0,
                       "faults.signature.fault_patterns": 0}
        self._stack = []
        self._patches = []
        self._originals = {}     # id(wrapper) -> (wrapper, original)
        self._thread = threading.get_ident()

    # -- install / remove ------------------------------------------------

    def install(self):
        """Patch every boundary; raises :class:`StaleBoundary` (leaving
        nothing patched) when one is gone."""
        try:
            for layer, module_name, qualname, reader in self.boundaries:
                targets, original = _resolve(module_name, qualname)
                wrapper = self._wrap(layer, original, reader)
                self._originals[id(wrapper)] = (wrapper, original)
                for namespace, attr in targets:
                    self._patches.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)
        except StaleBoundary:
            self.remove()
            raise
        return self

    def remove(self):
        """Restore every patched name, including names a module imported
        while the wrappers were installed."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(loaded, key, entry[1])

    def _wrap(self, layer, original, reader):
        calls, counts = self.calls, self.counts
        if not self.timed:
            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[layer] = calls.get(layer, 0) + 1
                if reader is not None:
                    reader(counts, args, kwargs, result)
                return result
            return counting

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        thread = self._thread

        def spanning(*args, **kwargs):
            if threading.get_ident() != thread:
                return original(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            calls[layer] = calls.get(layer, 0) + 1
            if reader is not None:
                reader(counts, args, kwargs, result)
            return result
        return spanning

    # -- spans -----------------------------------------------------------

    def root(self, name, call):
        """Run ``call()`` inside a root span called *name*; returns its
        result."""
        return self._wrap(name, call, None)()

    def self_times(self):
        """{layer: self seconds} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (layer, start, end, __) in enumerate(self.spans):
            totals[layer] = (totals.get(layer, 0.0)
                             + (end - start) - child_time[index])
        return totals


def wrapper_cost_seconds(samples=20000):
    """Measured extra seconds one timed wrapper adds to a call."""
    def noop():
        return None

    tracer = Tracer(())
    wrapped = tracer._wrap("calibration", noop, None)
    clock = time.perf_counter
    started = clock()
    for __ in range(samples):
        noop()
    bare = clock() - started
    started = clock()
    for __ in range(samples):
        wrapped()
    return max(0.0, (clock() - started - bare) / samples)
