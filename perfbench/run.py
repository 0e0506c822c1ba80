"""Reproduction benchmark: regenerate the paper, explore the design space.

Run from the root of a checkout (nothing needs building; the program is
imported from ``src/``)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 45 --trace 0

Workloads (:mod:`workloads` documents each, and why it was chosen):

* ``paper`` -- one cold regeneration of every EXPERIMENTS.md number;
* ``design_space`` -- a serial Session comparing techniques on
  seed-drawn database designs, backed by a fresh SQLite store.

The loop is closed: repetitions run one after another, each in a fresh
interpreter (``child.py``), until ``--seconds`` have passed and at least
the minimum number of repetitions ran.  Metrics are medians over the
repetitions.  With ``--trace 0`` they are the end-to-end metrics,
measured with no tracing.  With ``--trace 1`` traced repetitions
alternate with untraced ones and the metrics are the per-layer ones
(:mod:`ledger`).  Every repetition's outputs are checked; the last line
of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

End-to-end metrics, each the median over repetitions.  Times are CPU
seconds of the repetition's process (both workloads are serial): on a
shared host the wall-clock of identical work drifts by tens of percent
with other tenants' load.  The wall-clock is printed beside them.

* ``cpu_s`` -- the timed unit: a write pass, which computes every
  result cold (and stores it, where the workload has a store), then a
  read pass, which asks for the same results again (``paper``:
  re-rendered in the same process).  Each pass is printed per
  repetition; the read pass is too short and noisy to gate on alone;
* ``setup_s`` -- interpreter start to ready: imports, ``build_scl90()``
  and the workload's untimed priming;
* ``peak_rss_mb`` -- peak resident memory of the repetition's process;
* ``points_per_cpu_s`` -- grid points the program's runners were asked
  for, per CPU second of the timed unit.

The error rate is ``failed / attempted`` of the result line (an
operation is one regeneration or design request); it is 0
on correct code, so it is reported per layer, with the mean gap to the
paper's Table I/II savings (``paper_saving_err_pts``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import EXACT, LAYER_SOURCES, ROOT_SPAN, layer_metrics, \
    layer_self_times  # noqa: E402

#: What the benchmark needs from the checkout.
REQUIRED = ("src/repro/__init__.py", "scripts/gen_experiments.py",
            "EXPERIMENTS.md")
WORKLOADS = ("paper", "design_space")
MIN_UNTRACED = 3          # repetitions per untraced run
MIN_TRACED = 2            # traced repetitions per traced run, plus one
                          # untraced one for the tracing overhead
CHILD_TIMEOUT_S = 150.0
LAUNCH_DEADLINE_S = 150.0  # start no repetition that could end past this
TMP_DIR = ".perfbench_tmp"

#: The program must not inherit persistent caches, test shortcuts or
#: worker counts from the environment; the pinned values keep runs steady.
DROPPED_ENV_PREFIX = "REPRO_"
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "points_per_cpu_s": "1/s",
}

#: Layer quantities each workload must reach; a traced repetition in
#: which one never fires measured the wrong thing.
EXPECTED = {
    "paper": ("circuits.elaborate", "flows.implement", "scpg.transform",
              "scpg.model", "netlist.lower_soa", "netlist.lower_leakage",
              "netlist.flatten", "netlist.levelize", "sim.compile",
              "sim.vectors", "isa.cosim", "sta.run", "power.leakage",
              "power.dynamic", "analysis.self", "subvt.self",
              "runner.grid", "runner.fingerprint"),
    "design_space": ("circuits.elaborate", "scpg.transform", "scpg.model",
                     "netlist.levelize", "sta.run", "power.switching",
                     "power.leakage", "techniques.transform",
                     "techniques.model", "runner.artifact_build",
                     "runner.grid", "runner.fingerprint",
                     "runner.store_put", "runner.store_get",
                     "analysis.self", "subvt.self"),
}


def per_layer_units():
    units = {}
    for name in list(LAYER_SOURCES) + [
            "isa.cycles_per_s", "runner.hit_ratio", "trace.overhead_pct",
            "trace.unattributed_s", "trace.wall_s", "trace.spans",
            "error_rate", "paper_saving_err_pts"]:
        if name.endswith("per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith(("ratio", "rate")):
            units[name] = "ratio"
        elif name.endswith("_pts"):
            units[name] = "pts"
        else:
            units[name] = "count"
    return units


class ChildFailed(Exception):
    """A repetition that crashed, timed out or printed no result."""


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def child_env(tmp):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(DROPPED_ENV_PREFIX)}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _kill_group(pgid):
    """SIGKILL whatever is left of a repetition's process group, then
    wait (up to 5 s) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def repetition(workload, seed, traced, agreement, tmp, timeout):
    """Run one repetition in a fresh interpreter; returns its result."""
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--agreement", str(int(agreement)), "--tmp", str(tmp),
           "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(tmp),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise ChildFailed("{} timed out after {:.0f} s".format(
                workload, timeout))
    finally:
        _kill_group(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("{} exited {}:\n{}".format(
            workload, proc.returncode, err[-4000:]))
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def run_repetitions(workload, seed, seconds, trace):
    """Closed loop of repetitions until the time is up."""
    start = time.monotonic()
    tmp_root = ROOT / TMP_DIR / "{}-{}".format(os.getpid(), workload)
    reps = []
    longest = 0.0
    try:
        while True:
            n_traced = sum(r["traced"] for r in reps)
            n_plain = len(reps) - n_traced
            done = (n_traced >= MIN_TRACED and n_plain >= 1) if trace \
                else n_plain >= MIN_UNTRACED
            elapsed = time.monotonic() - start
            if done and elapsed >= seconds:
                break
            if elapsed + 1.5 * longest > LAUNCH_DEADLINE_S:
                if done:
                    break
                raise ChildFailed("only {} repetitions fit in {:.0f} s"
                                  .format(len(reps), LAUNCH_DEADLINE_S))
            traced = trace and len(reps) % 2 == 0
            agreement = trace and (workload == "paper" or (
                not traced and n_plain == 0))
            began = time.monotonic()
            reps.append(repetition(
                workload, seed, traced, agreement,
                tmp_root / "rep-{}".format(len(reps)),
                min(CHILD_TIMEOUT_S, LAUNCH_DEADLINE_S + 25.0 - elapsed)))
            longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            (ROOT / TMP_DIR).rmdir()
        except OSError:
            pass
    return reps


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def failed_ops(reps):
    """Failed operations; a repetition that broke an isolation or
    correctness check counts every operation it attempted as failed."""
    return sum(r["attempted"] if r["problems"] else r["failed"]
               for r in reps)


def end_to_end(reps):
    timed = [r for r in reps if not r["problems"]]
    return {
        "cpu_s": _median([r["cpu_s"] for r in timed]),
        "setup_s": _median([r["setup_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        "points_per_cpu_s": _median([r["stats"]["points"] / r["cpu_s"]
                                     for r in timed]),
    }


def per_layer(workload, reps, problems):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    rows = [layer_metrics(r["ledger"], r["stats"]) for r in traced]
    for r in traced:
        summary = r["ledger"]
        missing = [q for q in EXPECTED[workload]
                   if not summary["calls"].get(q)]
        if missing:
            problems.append("layers never reached: {}".format(
                ", ".join(missing)))
        if summary["roots"] != [ROOT_SPAN]:
            problems.append("spans outside the unit: {}".format(
                summary["roots"]))
        total = sum(summary["self_s"].values())
        if abs(total - summary["wall_s"]) > 1e-9 * (summary["spans"] + 1):
            problems.append("self-times sum to {} s, traced wall is {} s"
                            .format(total, summary["wall_s"]))
    for name in EXACT:
        values = sorted({row[name] for row in rows})
        if len(values) > 1:
            problems.append("counter {} differs between repetitions: {}"
                            .format(name, values))
    metrics = {name: _median([row[name] for row in rows])
               for name in rows[0]}
    metrics.update({name: rows[0][name] for name in EXACT})
    metrics["trace.overhead_pct"] = 100.0 * (
        _median([r["wall_s"] for r in traced])
        / _median([r["wall_s"] for r in plain]) - 1.0)
    metrics["error_rate"] = failed_ops(reps) / sum(
        r["attempted"] for r in reps)
    metrics["paper_saving_err_pts"] = _median(
        [r["paper_saving_err_pts"] for r in reps
         if "paper_saving_err_pts" in r])
    return metrics


def consistency(reps, problems):
    """Checks across the repetitions of one seed."""
    for r in reps:
        problems.extend(r["problems"])
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append("repetitions disagree on the digest: {}".format(
            digests))
    stats = sorted({json.dumps(r["stats"], sort_keys=True) for r in reps})
    if len(stats) > 1:
        problems.append("runner counters differ between repetitions: {}"
                        .format(stats))


def report(workload, seed, reps, trace):
    """Human-readable lines printed before the result."""
    for i, r in enumerate(reps):
        print("rep {} {}: cpu {:.3f} s (write {:.3f}, read {:.3f}) wall "
              "{:.3f} s, setup {:.3f} s cpu {:.3f} s wall, rss {:.1f} MB, "
              "points {}, failed {}/{}".format(
                  i, "traced" if r["traced"] else "plain", r["cpu_s"],
                  r["write_s"], r["read_s"], r["wall_s"], r["setup_s"],
                  r["setup_wall_s"], r["peak_rss_mb"], r["stats"]["points"],
                  r["failed"], r["attempted"]))
    print("digest {} seed={}: {}".format(workload, seed, reps[0]["digest"]))
    if trace:
        summary = next(r["ledger"] for r in reps if r["traced"])
        wall = summary["wall_s"]
        print("layer self-time, first traced repetition ({:.3f} s):"
              .format(wall))
        for layer, seconds in sorted(layer_self_times(summary).items(),
                                     key=lambda kv: -kv[1]):
            print("  {:<14} {:8.3f} s {:6.1f}%".format(
                layer, seconds, 100.0 * seconds / wall if wall else 0.0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write("perfbench: not a repro checkout (missing {})\n"
                         .format(", ".join(missing)))
        return 2
    try:
        reps = run_repetitions(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except ChildFailed as exc:
        sys.stderr.write("perfbench: {}\n".format(exc))
        return 1

    problems = []
    consistency(reps, problems)
    if args.trace:
        values = per_layer(args.workload, reps, problems)
        units = per_layer_units()
    else:
        values = end_to_end(reps)
        units = END_TO_END_UNITS
    report(args.workload, args.seed, reps, bool(args.trace))
    for problem in problems:
        print("problem: {}".format(problem))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed_ops(reps),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
