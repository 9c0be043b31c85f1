"""Content-addressed artifact cache for simulation artifacts.

Stage 2 (logic tracing) recomputes the same RTL/GL simulation whenever the
same PTP meets the same module under the same GPU configuration — on plain
re-runs, on ``--resume``, and in the FC-guard's stage-5 re-evaluation of
the *original* PTP.  This module memoizes those artifacts on disk:

* **addressing** — an entry key is the SHA-256 of the canonical JSON of
  (PTP content, GPU configuration, module fingerprint, stage name,
  payload-format version).  Content addressing makes invalidation
  automatic: editing the PTP, resizing the GPU, or regenerating the module
  netlist changes the key, so stale entries are never *read* — they just
  age out of the LRU cap.
* **storage** — one JSON file per entry under ``<cache-dir>/ab/<key>.json``
  (two-hex-char fan-out), written with the same write-temp-then-
  ``os.replace`` discipline as campaign checkpoints, so concurrent or
  killed writers leave whole files only.
* **eviction** — an LRU byte-size cap: reads touch the entry mtime, and
  a put that pushes the directory over ``max_bytes`` evicts
  oldest-mtime entries first.

The default cache directory is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Corrupt or unreadable entries are treated as misses and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ..errors import CacheError
from ..gpu.stimuli import StimulusRecord
from ..gpu.trace import TraceRecord

#: Bumped whenever a cached payload's layout or meaning changes
#: incompatibly; part of every key, so a version bump simply stops old
#: entries from being hit.  2: trace rows record the active mask at issue
#: (version 1 rows held the mask after a divergent BRA or JOIN switched it).
FORMAT_VERSION = 2

#: Layout version of the incremental fault-state records stored by
#: :class:`repro.exec.incremental.IncrementalFaultSim`; part of their key,
#: so bumping it orphans (never corrupts) old records.
FAULT_STATE_VERSION = 1

#: Default LRU size cap (bytes of payload files per cache directory).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def module_fingerprint(module):
    """Stable SHA-256 hex digest identifying a built module.

    Covers the module name, generator params, port words, and the full
    gate list — any netlist regeneration that changes structure changes
    the fingerprint (and therefore every cache key derived from it).
    """
    netlist = module.netlist
    document = {
        "name": module.name,
        "params": {str(k): repr(v) for k, v in module.params.items()},
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
        "input_words": {k: list(v) for k, v in module.input_words.items()},
        "output_words": {k: list(v) for k, v in module.output_words.items()},
        "gates": [[g.index, g.gate_type.name, list(g.inputs), g.output]
                  for g in netlist.gates],
    }
    return _sha256_of(document)


def _sha256_of(document):
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """On-disk content-addressed artifact store with LRU size cap.

    Args:
        directory: cache root (default: :func:`default_cache_dir`).
        max_bytes: LRU cap over the total payload size (None: uncapped).
    """

    def __init__(self, directory=None, max_bytes=DEFAULT_MAX_BYTES):
        self.directory = directory or default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = {"hits": 0, "misses": 0, "puts": 0, "evictions": 0,
                      "corrupt": 0}

    # -- keys ------------------------------------------------------------

    def key_for(self, ptp, gpu_config, module, stage):
        """Content key for one (PTP, GPU config, module, stage) artifact."""
        from ..stl.io import ptp_to_dict

        document = {
            "format": FORMAT_VERSION,
            "ptp": ptp_to_dict(ptp),
            "gpu": {
                "num_sms": gpu_config.num_sms,
                "num_sps": gpu_config.num_sps,
                "num_sfus": gpu_config.num_sfus,
                "shared_mem_words": gpu_config.shared_mem_words,
                "const_mem_words": gpu_config.const_mem_words,
                "global_latency": gpu_config.global_latency,
                "pipeline_overhead": gpu_config.pipeline_overhead,
            },
            "module": module_fingerprint(module),
            "stage": stage,
        }
        return _sha256_of(document)

    def fault_state_key(self, ptp_name, module, engine):
        """Key of the incremental fault-state record for one
        (PTP, module, engine) combination.

        Deliberately keyed by PTP *name*, not content: an edited PTP must
        find the record its previous revision wrote so unchanged cones can
        be restored — value-level fingerprints inside the record handle
        invalidation.  The GPU configuration is excluded for the same
        reason.
        """
        document = {
            "format": FORMAT_VERSION,
            "fault_state": FAULT_STATE_VERSION,
            "ptp_name": ptp_name,
            "module": module_fingerprint(module),
            "engine": engine,
            "stage": "fault_state",
        }
        return _sha256_of(document)

    def _path_of(self, key):
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- lookup / store --------------------------------------------------

    def get(self, key):
        """Payload dict for *key*, or None (counted as hit/miss).

        A hit refreshes the entry's LRU position; a corrupt entry is
        deleted and reported as a miss.
        """
        path = self._path_of(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            self.stats["misses"] += 1
            return None
        except json.JSONDecodeError:
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stats["misses"] += 1
            self.stats["corrupt"] += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats["hits"] += 1
        return payload

    def put(self, key, payload):
        """Store *payload* (JSON-serializable) under *key* atomically."""
        path = self._path_of(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory,
                                             prefix=".entry-",
                                             suffix=".tmp")
        except OSError as exc:
            raise CacheError("cannot write cache entry under {!r}: {}"
                             .format(self.directory, exc)) from exc
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stats["puts"] += 1
        self._enforce_cap()

    def report_corrupt(self, key):
        """Delete *key*'s entry after a content-level integrity failure
        (e.g. a checksum mismatch the JSON parser cannot see)."""
        try:
            os.unlink(self._path_of(key))
        except OSError:
            pass
        self.stats["corrupt"] += 1

    # -- eviction --------------------------------------------------------

    def _entries(self):
        """[(mtime, size, path)] of every entry file, oldest first."""
        entries = []
        try:
            shards = os.listdir(self.directory)
        except OSError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def _enforce_cap(self):
        if self.max_bytes is None:
            return
        entries = self._entries()
        total = sum(size for __, size, __p in entries)
        for __, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats["evictions"] += 1

    def clear(self):
        """Delete every entry (the directory itself is kept)."""
        for __, __s, path in self._entries():
            try:
                os.unlink(path)
            except OSError:
                pass


# -- stage-2 tracing memoization -------------------------------------------

def tracing_to_payload(tracing):
    """JSON payload for a :class:`~repro.core.tracing.TracingResult`.

    The raw ``kernel_result`` is deliberately not captured (it holds the
    full architectural end state and nothing downstream of stage 2 reads
    it); cache-hit results carry ``kernel_result=None``.
    """
    return {
        "cycles": tracing.cycles,
        "instructions": tracing.instructions,
        "trace": [[r.block, r.warp, r.pc, r.mnemonic, r.decode_cc,
                   r.exec_start_cc, r.exec_end_cc, r.active_mask,
                   r.exec_mask] for r in tracing.trace],
        "patterns": [[r.cc, r.block, r.warp, r.lane, r.pc, r.thread,
                      [[port, value] for port, value in r.values]]
                     for r in tracing.pattern_report.records],
    }


def tracing_from_payload(payload, module):
    """Rebuild a :class:`~repro.core.tracing.TracingResult` from
    :func:`tracing_to_payload` output (``kernel_result`` is None)."""
    from ..core.patterns import PatternReport
    from ..core.tracing import TracingResult

    trace = [TraceRecord(block=row[0], warp=row[1], pc=row[2],
                         mnemonic=row[3], decode_cc=row[4],
                         exec_start_cc=row[5], exec_end_cc=row[6],
                         active_mask=row[7], exec_mask=row[8])
             for row in payload["trace"]]
    records = [StimulusRecord(cc=row[0], block=row[1], warp=row[2],
                              lane=row[3], pc=row[4], thread=row[5],
                              values=tuple((port, value)
                                           for port, value in row[6]))
               for row in payload["patterns"]]
    return TracingResult(trace=trace,
                         pattern_report=PatternReport(module, records),
                         cycles=payload["cycles"],
                         instructions=payload["instructions"],
                         kernel_result=None)


def cached_logic_tracing(ptp, module, gpu, cache, metrics=None):
    """Stage-2 logic tracing through the artifact cache.

    Returns ``(tracing, key, hit)`` — with *cache* None this degrades to a
    plain :func:`~repro.core.tracing.run_logic_tracing` call (key None).
    """
    from ..core.tracing import run_logic_tracing
    from ..gpu.gpu import Gpu

    gpu = gpu or Gpu()
    if cache is None:
        return run_logic_tracing(ptp, module, gpu=gpu), None, False
    key = cache.key_for(ptp, gpu.config, module, "tracing")
    payload = cache.get(key)
    if payload is not None:
        if metrics is not None:
            metrics.record_cache_event(True)
        return tracing_from_payload(payload, module), key, True
    if metrics is not None:
        metrics.record_cache_event(False)
    tracing = run_logic_tracing(ptp, module, gpu=gpu)
    cache.put(key, tracing_to_payload(tracing))
    return tracing, key, False
