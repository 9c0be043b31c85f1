"""Self-test of the campaign benchmark (takes about eight minutes).

Run from the repository root::

    python3 e2ebench/selftest.py [WORKLOAD ...]

For every workload (default: all four) it checks that

* two untraced runs at seed 2022 and one at the held-out seed pass every
  output check, and the deterministic work counters and quality metrics
  repeat exactly across operations and across the two seed-2022 runs;
* a traced run prints every per-layer metric ``BENCHMARK.json`` names,
  and the self times plus ``core.unattributed_s`` add up to the traced
  operation's wall time;
* the printed metric names are exactly those ``BENCHMARK.json`` lists;

and that the tracer refuses a boundary whose callable is gone, and that
the output checks count a failed PTP as a failure instead of crashing.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import run as bench
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
SEED = 2022
#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 4099


def _run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 3:
        raise AssertionError("{} exited {}: {}".format(
            " ".join(command[1:]), done.returncode, done.stderr[-2000:]))
    context = json.loads(lines[-3])["context"]
    counters = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return context, counters, result


def _values(result):
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def check_workload(workload, spec):
    problems = []
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    runs = [_run(workload, SEED, 0), _run(workload, SEED, 0),
            _run(workload, HELD_OUT_SEED, 0)]
    for index, (context, counters, result) in enumerate(runs):
        label = "{} run {} (seed {})".format(workload, index,
                                             context["seed"])
        if not result["correct"] or result["failed"]:
            problems.append("{}: {} of {} operations failed".format(
                label, result["failed"], result["attempted"]))
        if not counters["counters_repeat"]:
            problems.append("{}: counters differ across operations"
                            .format(label))
        if sorted(result["metrics"]) != sorted(end_to_end):
            problems.append("{}: printed {} but BENCHMARK.json lists {}"
                            .format(label, sorted(result["metrics"]),
                                    sorted(end_to_end)))
    (__, first_counters, first), (__, second_counters, second) = runs[:2]
    for name in bench.DETERMINISTIC:
        if (first_counters["counters"][name]
                != second_counters["counters"][name]):
            problems.append("{}: counter {} differs across runs".format(
                workload, name))
    for name in ("size_reduction_pct", "duration_reduction_pct",
                 "fc_retained_pct"):
        if _values(first)[name] != _values(second)[name]:
            problems.append("{}: {} differs across runs".format(
                workload, name))

    context, __, traced = _run(workload, SEED, 1)
    if sorted(traced["metrics"]) != sorted(per_layer):
        problems.append("{} traced: printed {} but BENCHMARK.json lists {}"
                        .format(workload, sorted(traced["metrics"]),
                                sorted(per_layer)))
    values = _values(traced)
    # ATPG runs in set-up, outside the traced operation.
    covered = values["core.unattributed_s"] + sum(
        value for name, value in values.items()
        if name.endswith(".self_s") and name != "faults.atpg.self_s")
    wall = context["traced_operation_seconds"]
    if abs(covered - wall) > 1e-6 * wall:
        problems.append("{} traced: self times sum to {} s, the operation "
                        "took {} s".format(workload, covered, wall))
    return problems


def check_stale_guard():
    from repro.gpu.gpu import Gpu

    original = Gpu.run_kernel
    stale = (("gpu", "repro.gpu.gpu", "Gpu.run_kernel", None),
             ("gpu", "repro.gpu.gpu", "Gpu.no_such_method", None))
    try:
        tracer.Tracer(stale).install()
    except tracer.StaleBoundary:
        if Gpu.run_kernel is not original:
            return ["stale install left Gpu.run_kernel patched"]
        return []
    return ["installing a missing boundary did not raise StaleBoundary"]


def check_failed_record():
    """A campaign that reports a FAILED PTP (no outcome, no numbers)
    fails the operation checks and passes through the other checks."""
    import checks
    from repro.core.campaign import FAILED

    record = SimpleNamespace(name="IMM", status=FAILED, outcome=None,
                             numbers={})
    reports = [SimpleNamespace(records=[record])]
    problems = []
    try:
        failures = checks.operation_failures(reports)
        checks.output_digest(reports)
        checks.quality_metrics(reports)
        plain, __ = checks.plain_fc_check(
            SimpleNamespace(build_modules=dict), SimpleNamespace(ptps=[]),
            reports)
    except Exception as exc:
        return ["checks raised {} on a FAILED record: {}".format(
            type(exc).__name__, exc)]
    if failures != ["IMM: status {}".format(FAILED)]:
        problems.append("FAILED record gave failures {}".format(failures))
    if plain:
        problems.append("plain FC check flagged a FAILED record: {}"
                        .format(plain))
    return problems


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    problems = check_stale_guard() + check_failed_record()
    for workload in workloads:
        found = check_workload(workload, spec)
        print("{}: {}".format(workload, "ok" if not found else "FAILED"),
              flush=True)
        problems.extend(found)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
