"""Output checks for campaign operations, and the quality metrics.

An operation passes when no PTP failed or was rolled back, the verifier
reports no error on any compacted PTP, every compacted PTP is no larger
and no longer than its original, and its output digest equals the first
operation's in the run and the stored reference for (workload, seed).
Once per run, :func:`plain_fc_check` re-evaluates every PTP with a plain
:func:`~repro.core.fc_eval.evaluate_fc` call (no cache, pool or
incremental restore) and requires the FCs the campaign reported.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.core.campaign import COMPACTED
from repro.core.fc_eval import evaluate_fc
from repro.isa.encoding import encode_program
from workloads import REVERSE_FOR

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def records_of(reports):
    return [record for report in reports for record in report.records]


def compacted_records(reports):
    """The records that carry a compacted PTP.  The others already fail
    :func:`operation_failures`."""
    return [record for record in records_of(reports)
            if record.status == COMPACTED and record.outcome is not None]


def output_digest(reports):
    """SHA-256 over, per PTP, the compacted program words, global-memory
    image, sizes, cycles and FC."""
    document = []
    for record in records_of(reports):
        compacted = record.outcome.compacted if record.outcome else None
        numbers = record.numbers
        document.append({
            "name": record.name,
            "status": record.status,
            "words": (encode_program(list(compacted.program))
                      if compacted is not None else None),
            "image": (sorted(compacted.global_image.items())
                      if compacted is not None else None),
            "sizes": [numbers.get("original_size"),
                      numbers.get("compacted_size")],
            "cycles": [numbers.get("original_cycles"),
                       numbers.get("compacted_cycles")],
            "fc": [repr(numbers.get("original_fc")),
                   repr(numbers.get("compacted_fc"))],
        })
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def operation_failures(reports):
    """Reasons the campaign's own outputs are wrong ([] when sound)."""
    failures = []
    for record in records_of(reports):
        if record.status != COMPACTED:
            failures.append("{}: status {}".format(record.name,
                                                   record.status))
            continue
        if record.outcome is None:
            failures.append("{}: no compaction outcome".format(record.name))
            continue
        verification = record.outcome.verification
        if verification is None or verification.errors:
            failures.append("{}: verifier errors {}".format(
                record.name, None if verification is None
                else [d.rule for d in verification.errors]))
        numbers = record.numbers
        if numbers["compacted_size"] > numbers["original_size"]:
            failures.append("{}: compacted PTP is larger".format(
                record.name))
        if numbers["compacted_cycles"] > numbers["original_cycles"]:
            failures.append("{}: compacted PTP is longer".format(
                record.name))
    return failures


def load_reference(workload, seed):
    """The stored digest for (*workload*, *seed*), or None."""
    try:
        with open(REFERENCE_FILE) as handle:
            references = json.load(handle)
    except FileNotFoundError:
        return None
    return references.get(workload, {}).get(str(seed))


def plain_fc_check(workload, prepared, reports):
    """Re-evaluate every original and compacted PTP with a plain
    ``evaluate_fc`` on freshly built modules.

    Returns ``(failures, fc_retained_pct)``: mismatches against the FCs
    and cycles the campaign reported, and the compacted STL's combined
    FC as a percentage of the original STL's.
    """
    modules = workload.build_modules()
    originals = {ptp.name: ptp for ptp in prepared.ptps}
    failures = []
    detected = {"original": set(), "compacted": set()}
    for record in compacted_records(reports):
        module = modules[originals[record.name].target]
        reverse = record.name in REVERSE_FOR
        for side, ptp in (("original", originals[record.name]),
                          ("compacted", record.outcome.compacted)):
            evaluation = evaluate_fc(ptp, module, reverse_patterns=reverse)
            # Faults are per-module objects; key them by module name.
            detected[side].update((module.name, fault)
                                  for fault in evaluation.detected)
            for quantity, value in (("fc", evaluation.fc_percent),
                                    ("cycles", evaluation.cycles)):
                reported = record.numbers["{}_{}".format(side, quantity)]
                if value != reported:
                    failures.append("{}: plain {} {} {!r} != campaign's "
                                    "{!r}".format(record.name, side,
                                                  quantity, value, reported))
    retained = (100.0 * len(detected["compacted"]) / len(detected["original"])
                if detected["original"] else 0.0)
    return failures, retained


def quality_metrics(reports):
    """Size and duration reduction of the compacted STL, in percent."""
    numbers = [record.numbers for record in compacted_records(reports)]

    def reduction(quantity):
        before = sum(n["original_" + quantity] for n in numbers)
        after = sum(n["compacted_" + quantity] for n in numbers)
        return 100.0 * (before - after) / before if before else 0.0

    return reduction("size"), reduction("cycles")
