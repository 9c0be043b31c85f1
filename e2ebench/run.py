"""End-to-end campaign benchmark: the paper's compaction flow, whole.

Run from the repository root::

    python3 e2ebench/run.py --workload du_cold --seed 2022 --seconds 12 --trace 0

Set-up builds the modules and generates the workload's STL from
``--seed``; then whole campaigns (operations) run back to back through
:func:`repro.core.campaign.run_stl_campaign` until ``--seconds`` have
passed and the workload's minimum count is reached.  Every operation's
outputs are checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics: the median operation time
and the median set-up time, both scaled to a reference host speed that
is sampled while they run (see ``sampler.py``), the peak memory of the
process tree, and the three quality metrics.
``--trace 1`` wraps each layer boundary around every operation and
prints the per-layer metrics of the median operation.  Both print the run
context and the deterministic work counters on the lines before the
last; the last line is the result object.

Exit codes: 0 after a run (``correct`` says whether the outputs were
right), 2 when the ``repro`` sources are missing or the workload is
unknown, 3 when a traced
boundary is stale (a wrapped callable is gone, or a layer the workload
must reach saw no call).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import sampler as sampling
import tracer as spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")

EXIT_USAGE = 2
EXIT_STALE = 3

#: (name, unit) of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("campaign_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("size_reduction_pct", "%"), ("duration_reduction_pct", "%"),
    ("fc_retained_pct", "%"),
)

#: Counters that must repeat exactly across operations and runs.  Pool
#: counters under ``jobs=2`` depend on worker timing and are reported
#: beside them but not compared.
DETERMINISTIC = (
    "gpu.sim_cycles", "gpu.warp_instructions", "faults.sim.fault_patterns",
    "faults.sim.gates_evaluated", "faults.atpg.patterns", "exec.cache.hits",
    "exec.cache.misses", "exec.incremental.faults_restored",
    "exec.incremental.faults_resimulated",
)
TIMING_DEPENDENT = ("exec.pool.chunks_dispatched", "exec.pool.drops_skipped")


def _unit(name):
    units = dict(END_TO_END)
    if name in units:
        return units[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return {"gpu.host_us_per_sim_cycle": "us/cycle",
            "faults.sim.ns_per_fault_pattern": "ns",
            "exec.cache.hit_ratio": "ratio",
            "exec.cache.bytes_written": "bytes",
            "gpu.sim_cycles": "cycles"}.get(name, "count")


def per_layer_names(layers):
    """Names of the per-layer metrics (``--trace 1``), in report order."""
    names = [layer + ".self_s" for layer in layers]
    names += ["gpu.calls", "gpu.sim_cycles", "gpu.warp_instructions",
              "gpu.host_us_per_sim_cycle", "core.tracing.calls",
              "core.fc_eval.calls", "faults.sim.calls",
              "faults.sim.fault_patterns", "faults.sim.gates_evaluated",
              "faults.sim.ns_per_fault_pattern", "faults.signature.calls",
              "faults.signature.fault_patterns", "faults.atpg.patterns",
              "faults.atpg.untestable", "faults.atpg.aborted",
              "exec.pool.chunks_dispatched", "exec.pool.worker_init_s",
              "exec.cache.hits", "exec.cache.misses", "exec.cache.hit_ratio",
              "exec.cache.bytes_written", "exec.incremental.faults_restored",
              "exec.incremental.faults_resimulated", "core.unattributed_s",
              "trace.overhead_pct"]
    return names


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- run context ----------------------------------------------------------

def _git_revision():
    """HEAD's commit id read from ``.git`` (None outside a checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over every ``.py`` file under ``src/`` (path and bytes)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cache_entries(directory):
    """{path: (inode, bytes)} of the cache's entry files."""
    entries = {}
    for parent, __, files in os.walk(directory):
        for name in files:
            if name.endswith(".json"):
                stat = os.stat(os.path.join(parent, name))
                entries[os.path.join(parent, name)] = (stat.st_ino,
                                                       stat.st_size)
    return entries


def _peak_memory_mib(sampler):
    """Peak memory of the process tree in MiB: the larger of this
    process's exact peak RSS and the sampled peak of its RSS plus the
    pool workers' private memory."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, sampler.peak_kib) / 1024.0


# -- one operation ----------------------------------------------------------

def _run_operation(workload, prepared, opdir, sampler):
    """Prepare, time, and check one campaign (traced when *sampler* is
    None).  Returns a dict with the wall and scaled times, reports,
    counters, span recorder and failures."""
    import checks
    import workloads

    traced = sampler is None
    op = workloads.prepare(workload, prepared, opdir)
    before = _cache_entries(op.cache.directory) if traced else None
    gc.collect()
    recorder = spans.Tracer(
        spans.BOUNDARIES if traced else spans.COUNT_BOUNDARIES,
        timed=traced).install()
    failures = []
    reports = None
    try:
        if traced:
            reports = recorder.root("campaign",
                                    lambda: workload.campaign(op))
        else:
            sampler.start()
            try:
                reports = workload.campaign(op)
            finally:
                sampler.stop()
    except Exception as exc:  # a crashed operation is a failed operation
        failures.append("campaign raised {}: {}".format(
            type(exc).__name__, exc))
    finally:
        recorder.remove()
    if traced:
        root = next(span for span in recorder.spans
                    if span[0] == "campaign")
        wall = scaled = root[2] - root[1]
        speed = None
    else:
        wall, scaled, speed = (sampler.wall, sampler.scaled_seconds(),
                               sampler.speed())
    metrics = op.metrics
    counters = {
        "gpu.sim_cycles": recorder.counts["gpu.sim_cycles"],
        "gpu.warp_instructions": recorder.counts["gpu.warp_instructions"],
        "faults.sim.fault_patterns": sum(
            run["faults"] * run["patterns"]
            for run in metrics.fault_sim_runs),
        "faults.sim.gates_evaluated": metrics.total_gates_evaluated,
        "faults.atpg.patterns": sum(result.patterns.count
                                    for result in prepared.atpg),
        "exec.cache.hits": op.cache.stats["hits"],
        "exec.cache.misses": op.cache.stats["misses"],
        "exec.incremental.faults_restored":
            metrics.incremental["faults_restored"],
        "exec.incremental.faults_resimulated":
            metrics.incremental["faults_resimulated"],
    }
    for name in TIMING_DEPENDENT:
        counters[name] = metrics.pool.get(name.rsplit(".", 1)[1], 0)
    result = {"wall": wall, "scaled": scaled, "speed": speed,
              "reports": reports,
              "counters": counters, "recorder": recorder,
              "failures": failures, "digest": None,
              "pool": dict(metrics.pool)}
    if reports is not None:
        failures.extend(checks.operation_failures(reports))
        result["digest"] = checks.output_digest(reports)
    if traced:
        after = _cache_entries(op.cache.directory)
        result["bytes_written"] = sum(
            size for path, (inode, size) in after.items()
            if before.get(path, (None,))[0] != inode)
    shutil.rmtree(opdir)
    return result


def _layer_metrics(op, setup_recorder, prepared, overhead_s):
    """Per-layer metrics of one traced operation."""
    recorder, counters = op["recorder"], op["counters"]
    self_s = recorder.self_times()
    self_s["faults.atpg"] = setup_recorder.self_times().get("faults.atpg",
                                                            0.0)
    values = {layer + ".self_s": self_s.get(layer, 0.0)
              for layer in spans.LAYERS}
    calls = recorder.calls
    for layer in ("gpu", "core.tracing", "core.fc_eval", "faults.sim",
                  "faults.signature"):
        values[layer + ".calls"] = calls.get(layer, 0)
    values.update(counters)
    values["faults.signature.fault_patterns"] = recorder.counts[
        "faults.signature.fault_patterns"]
    values["gpu.host_us_per_sim_cycle"] = (
        1e6 * self_s.get("gpu", 0.0) / counters["gpu.sim_cycles"]
        if counters["gpu.sim_cycles"] else 0.0)
    # Fault-simulation wall per simulated (fault, pattern) pair: the
    # simulator plus the scheduler, which under jobs=2 waits on the pool.
    fault_patterns = counters["faults.sim.fault_patterns"]
    values["faults.sim.ns_per_fault_pattern"] = (
        1e9 * (self_s.get("faults.sim", 0.0)
               + self_s.get("exec.scheduler", 0.0)) / fault_patterns
        if fault_patterns else 0.0)
    values["faults.atpg.untestable"] = sum(len(result.untestable)
                                           for result in prepared.atpg)
    values["faults.atpg.aborted"] = sum(len(result.aborted)
                                        for result in prepared.atpg)
    values["exec.pool.worker_init_s"] = op["pool"].get(
        "worker_init_seconds", 0.0)
    lookups = counters["exec.cache.hits"] + counters["exec.cache.misses"]
    values["exec.cache.hit_ratio"] = (counters["exec.cache.hits"] / lookups
                                      if lookups else 0.0)
    values["exec.cache.bytes_written"] = op["bytes_written"]
    values["core.unattributed_s"] = self_s.get("campaign", 0.0)
    wrapped_calls = sum(1 for span in recorder.spans
                        if span[0] != "campaign")
    values["trace.overhead_pct"] = 100.0 * wrapped_calls * overhead_s / (
        op["wall"])
    return values


def _check_reached(workload, op, setup_recorder):
    """Raise StaleBoundary when a layer the workload must reach saw no
    call (a refactor moved the work past the wrapped callable)."""
    calls = dict(op["recorder"].calls)
    calls["faults.atpg"] = setup_recorder.calls.get("faults.atpg", 0)
    calls["exec.pool"] = op["counters"]["exec.pool.chunks_dispatched"]
    missed = [layer for layer in workload.must_reach if not calls.get(layer)]
    if missed:
        raise spans.StaleBoundary(
            "{} recorded zero calls on {}".format(", ".join(missed),
                                                  workload.name))


# -- the run ----------------------------------------------------------------

def _run(args, workdir):
    import numpy

    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    context = {"workload": workload.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "cpu_count": os.cpu_count(),
               "loadavg_before": list(os.getloadavg()),
               "git_revision": _git_revision(),
               "src_digest": _source_digest(),
               "python": platform.python_version(),
               "numpy": numpy.__version__}

    sampler = None if traced else sampling.Sampler()
    setup_seconds, setup_wall = [], []
    setup_recorder = spans.Tracer(spans.SETUP_BOUNDARIES)
    for rep in range(1 if traced else workload.setup_reps):
        setup_dir = os.path.join(workdir, "setup{}".format(rep))
        gc.collect()
        if traced:
            setup_recorder.install()
            started = time.perf_counter()
            try:
                prepared = workload.setup(args.seed, setup_dir)
            finally:
                setup_recorder.remove()
            setup_wall.append(time.perf_counter() - started)
            setup_seconds.append(setup_wall[-1])
            continue
        sampler.start()
        try:
            prepared = workload.setup(args.seed, setup_dir)
        finally:
            setup_wall.append(sampler.stop())
        setup_seconds.append(sampler.scaled_seconds())

    overhead_s = spans.wrapper_cost_seconds() if traced else 0.0
    ops = []
    started = time.perf_counter()
    while True:
        op = _run_operation(workload, prepared,
                            os.path.join(workdir, "op{}".format(len(ops))),
                            sampler)
        if ops:
            # Only the first operation's outputs are re-checked below;
            # holding every operation's would grow the peak RSS per run.
            op["reports"] = None
        ops.append(op)
        if (time.perf_counter() - started >= args.seconds
                and len(ops) >= workload.min_ops):
            break

    # Output checks: digests against the run's first operation and the
    # stored reference; deterministic counters against the first
    # operation; FCs against a plain evaluation (once per run).
    first = ops[0]
    reference = checks.load_reference(workload.name, args.seed)
    for op in ops:
        if op["digest"] != first["digest"]:
            op["failures"].append("digest differs from the first "
                                  "operation's")
        if reference is not None and op["digest"] != reference:
            op["failures"].append("digest differs from the stored "
                                  "reference")
        changed = [name for name in DETERMINISTIC
                   if op["counters"][name] != first["counters"][name]]
        if changed:
            op["failures"].append("counters differ from the first "
                                  "operation's: {}".format(changed))
    plain_failures, retained = (["first operation produced no reports"],
                                0.0)
    if first["reports"] is not None:
        plain_failures, retained = checks.plain_fc_check(
            workload, prepared, first["reports"])
    for op in ops:
        op["failures"].extend(plain_failures)
    failed = sum(1 for op in ops if op["failures"])
    for index, op in enumerate(ops):
        for reason in op["failures"]:
            print("e2ebench: operation {} failed: {}".format(index, reason),
                  file=sys.stderr)

    walls = [op["wall"] for op in ops]
    scaled = [op["scaled"] for op in ops]
    if traced:
        median_index = sorted(range(len(ops)),
                              key=lambda i: walls[i])[(len(ops) - 1) // 2]
        median_op = ops[median_index]
        _check_reached(workload, median_op, setup_recorder)
        values = _layer_metrics(median_op, setup_recorder, prepared,
                                overhead_s)
        names = per_layer_names(spans.LAYERS)
        context["traced_operation_seconds"] = median_op["wall"]
    else:
        size_pct, duration_pct = (checks.quality_metrics(first["reports"])
                                  if first["reports"] is not None
                                  else (0.0, 0.0))
        values = {"campaign_s": statistics.median(scaled),
                  "setup_s": statistics.median(setup_seconds),
                  "peak_rss_mb": _peak_memory_mib(sampler),
                  "size_reduction_pct": size_pct,
                  "duration_reduction_pct": duration_pct,
                  "fc_retained_pct": retained}
        names = [name for name, __ in END_TO_END]

    context.update({
        "loadavg_after": list(os.getloadavg()),
        "operation_wall_seconds": walls,
        "operation_scaled_seconds": scaled,
        "operation_speed": [op["speed"] for op in ops],
        "setup_wall_seconds": setup_wall,
        "setup_scaled_seconds": setup_seconds,
        "ptp_sizes": {ptp.name: ptp.size for ptp in prepared.ptps},
        "reference": ("absent" if reference is None else
                      "match" if reference == first["digest"] else
                      "mismatch"),
        "digest": first["digest"],
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "counters": first["counters"],
        "counters_repeat": all(op["counters"][name]
                               == first["counters"][name]
                               for op in ops for name in DETERMINISTIC)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": _unit(name)}
                    for name in names},
    }))
    return 0


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("e2ebench: no repro sources under {}".format(SRC),
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, SRC)
    # The workloads fix jobs and the cache themselves; environment
    # defaults must not leak into them.
    for variable in ("REPRO_JOBS", "REPRO_CACHE_DIR"):
        os.environ.pop(variable, None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("e2ebench: unknown workload {!r}; pick one of {}".format(
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return EXIT_USAGE
    workdir = os.path.join(WORK, "run-{}".format(os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    except spans.StaleBoundary as exc:
        print("e2ebench: stale boundary: {}".format(exc), file=sys.stderr)
        return EXIT_STALE
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
