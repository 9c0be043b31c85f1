"""Record the output digests ``run.py`` checks operations against.

Run from the repository root::

    python3 e2ebench/make_reference.py SEED [SEED ...]

For every workload and seed it runs one short untraced benchmark run and
stores the output digest in ``reference.json`` when every output check
passed.  A seed that already has a stored digest must match it; to
record new outputs on purpose, delete the entries first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def main(seeds):
    try:
        with open(REFERENCE_FILE) as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}
    failed = False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    for workload in names:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", seed, "--seconds", "0", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print("{} seed {}: failed ({})".format(
                    workload, seed, done.stderr.strip()[-500:]))
                failed = True
                continue
            digest = json.loads(lines[-3])["context"]["digest"]
            references.setdefault(workload, {})[seed] = digest
            print("{} seed {}: {}".format(workload, seed, digest),
                  flush=True)
            with open(REFERENCE_FILE, "w") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
