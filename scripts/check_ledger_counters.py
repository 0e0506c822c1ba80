#!/usr/bin/env python
"""Gate the reproduction benchmark's exact work counters.

Usage::

    python scripts/check_ledger_counters.py [--update]

For each workload of ``perfbench/run.py`` this runs one traced
measurement at seed 1 (``--seed 1 --seconds 1 --trace 1``) and fails
when the run is not ``correct`` or when any counter named in
``perfbench.ledger.EXACT`` (levelize calls, co-sim cycles, store
puts/gets, fingerprint calls, artifact builds, span count, ...) differs
from the committed ``benchmarks/ledger_counters.json``.  The counters
count work, not time, so they repeat exactly on any machine: a change
that moves one either means to (and updates the file in the same
commit, saying why) or has silently changed how much work a layer does.

``--update`` rewrites the file from the runs instead of comparing.
Exit status: 0 pass, 1 a counter moved or a run failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "ledger_counters.json"
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))

from ledger import EXACT  # noqa: E402
from run import WORKLOADS  # noqa: E402


def measure(workload):
    """``(correct, {counter: value})`` of one traced seed-1 run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", "1"],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        return False, {}
    if not result.get("correct"):
        sys.stderr.write(proc.stdout)
    metrics = result.get("metrics", {})
    counters = {name: metrics[name]["value"] for name in EXACT
                if name in metrics}
    return bool(result.get("correct")), counters


def compare(workload, got, want):
    """One message per counter of ``workload`` that moved."""
    problems = []
    for name in EXACT:
        if got.get(name) != want.get(name):
            problems.append("{}: {} is {}, committed {}".format(
                workload, name, got.get(name, "missing"),
                want.get(name, "missing")))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite {} from the runs".format(
                            BASELINE.relative_to(ROOT)))
    args = parser.parse_args(argv)

    committed = {} if args.update or not BASELINE.exists() \
        else json.loads(BASELINE.read_text())
    measured = {}
    problems = []
    for workload in WORKLOADS:
        print("== {} (seed {})".format(workload, SEED), flush=True)
        correct, counters = measure(workload)
        if not correct:
            problems.append("{}: the run was not correct".format(workload))
        measured[workload] = counters
        if not args.update:
            problems += compare(workload, counters,
                                committed.get(workload, {}))

    if args.update and not problems:
        BASELINE.write_text(json.dumps(measured, indent=2, sort_keys=True)
                            + "\n")
        print("wrote {}".format(BASELINE.relative_to(ROOT)))
    for problem in problems:
        print("error: {}".format(problem), file=sys.stderr)
    if not problems and not args.update:
        print("ledger counters match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
