"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no memo or
cache carries over between repetitions, and reads the JSON object it
prints as its last line of output::

    python3 perfbench/child.py --workload paper --seed 1 --trace 0 \\
        --spawned <time.monotonic() at launch> --tmp <scratch dir>

``setup_s`` is the CPU time the process spent getting ready, interpreter
start included; ``--spawned``, the parent's ``time.monotonic()`` just
before launch (the clock is system-wide), gives its wall-clock too.
With ``--trace 1`` the layer wrappers of :mod:`ledger` are installed
around the timed unit and their summary is part of the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agreement", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    from ledger import Ledger, import_targets
    from workloads import PAPER_SEED, WORKLOADS, RunnerCensus, \
        paper_agreement

    import_targets()
    workload = WORKLOADS[args.workload](ROOT, args.seed, Path(args.tmp))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_s = usage.ru_utime + usage.ru_stime
    setup_wall_s = time.monotonic() - args.spawned
    ledger = Ledger() if args.trace else None
    with RunnerCensus() as census:
        if ledger is None:
            outcome = workload.run()
        else:
            with ledger.installed():
                outcome = workload.run(around=ledger.root)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "write_s": outcome.write_s,
        "read_s": outcome.read_s,
        "cpu_s": outcome.cpu_s,
        "wall_s": outcome.wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "problems": outcome.problems,
        "stats": census.totals(),
    }
    if ledger is not None:
        result["ledger"] = ledger.summary()
    if args.agreement:
        # Other workloads regenerate the tables at the default seed.
        result["paper_saving_err_pts"] = paper_agreement(
            args.seed if args.workload == "paper" else PAPER_SEED)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
