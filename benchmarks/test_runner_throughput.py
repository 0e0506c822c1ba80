"""Runner throughput: parallel fan-out and warm-cache speedups.

The workload is a DVFS-style operating-point sweep over the multiplier:
64 log-spaced frequencies x 3 power modes, where every point re-runs STA
and leakage at that point's scaled supply before evaluating the SCPG
power model.  That per-point cost (~15-20 ms) is what makes process
fan-out worthwhile; the raw Table-I sweep (~9 us/point) never would be.

Acceptance targets (ISSUE): with 4 workers the sweep completes in
<= 0.6x the serial wall-clock, and a warm-cache rerun in <= 0.2x, with
cache-hit counters to prove no point was re-evaluated.
"""

import multiprocessing
import os
import time

import pytest

from repro.errors import ScpgError
from repro.power.leakage import leakage_power
from repro.runner import INFEASIBLE_MARKER  # noqa: F401  (re-export check)
from repro.runner import RunStats, SqliteStore, evaluate_grid, stable_hash
from repro.scpg.power_model import Mode, ScpgPowerModel
from repro.sta.analysis import TimingAnalysis

from .conftest import emit

N_FREQS = 64
MODES = (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX)
F_LO, F_HI = 1e4, 14.3e6
V_LO, V_HI = 0.35, 0.6

needs_four_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 cores")
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method")


def _vdd_for(freq_hz):
    """The sweep's DVFS schedule: supply scales with log-frequency."""
    import math

    t = (math.log(freq_hz) - math.log(F_LO)) \
        / (math.log(F_HI) - math.log(F_LO))
    return V_LO + (V_HI - V_LO) * t


def _grid():
    import math

    lo, hi = math.log(F_LO), math.log(F_HI)
    freqs = [math.exp(lo + (hi - lo) * k / (N_FREQS - 1))
             for k in range(N_FREQS)]
    return [(f, mode, _vdd_for(f)) for mode in MODES for f in freqs]


def _operating_point(study, point):
    """Full re-evaluation of one (freq, mode, vdd) operating point.

    STA and leakage are recomputed at the point's supply, so each point
    carries the real cost of a DVFS table entry.
    """
    freq_hz, mode, vdd = point
    sta = TimingAnalysis(study.base.top, study.library).run(vdd=vdd)
    if freq_hz > 1.0 / sta.min_period:
        raise ScpgError("baseline cannot reach {} Hz at {} V"
                        .format(freq_hz, vdd))
    model = ScpgPowerModel.from_scpg_design(study.scpg, study.e_cycle,
                                            vdd=vdd)
    base = leakage_power(study.base.top, study.library, vdd=vdd)
    model.leak_comb_base = base.combinational
    model.leak_alwayson_base = base.always_on
    return model.power(freq_hz, mode)


@needs_four_cores
@needs_fork
def test_runner_throughput_mult16(mult_study, tmp_path):
    points = _grid()
    cache = SqliteStore(tmp_path / "bench.sqlite")
    key = stable_hash("throughput-bench", mult_study.model)

    def timed(**kwargs):
        stats = RunStats()
        t0 = time.perf_counter()
        results = evaluate_grid(_operating_point, points,
                                context=mult_study, on_error=(ScpgError,),
                                stats=stats, **kwargs)
        return time.perf_counter() - t0, results, stats

    t_serial, serial, _ = timed(workers=None)
    t_parallel, parallel, cold = timed(workers=4, cache=cache,
                                       cache_key=key)
    t_warm, warm, hot = timed(workers=4, cache=cache, cache_key=key)

    ratio_par = t_parallel / t_serial
    ratio_warm = t_warm / t_serial
    emit("Runner throughput -- mult16 DVFS sweep ({} points)"
         .format(len(points)),
         "serial    {:7.3f} s\n"
         "parallel  {:7.3f} s   ({:.2f}x serial, target <= 0.6x)\n"
         "warm      {:7.3f} s   ({:.2f}x serial, target <= 0.2x)\n"
         "cold: {}\nwarm: {}".format(
             t_serial, t_parallel, ratio_par, t_warm, ratio_warm,
             cold.render(), hot.render()))

    # Correctness before speed: all three runs agree exactly.
    assert parallel == serial
    assert warm == serial
    assert any(r is not None for r in serial)

    # Cache accounting: cold evaluated everything, warm evaluated nothing.
    assert cold.cache_hits == 0
    assert cold.evaluated == len(points)
    assert hot.cache_hits == len(points)
    assert hot.evaluated == 0
    assert hot.cache_misses == 0

    assert ratio_par <= 0.6, \
        "parallel run too slow: {:.2f}x serial".format(ratio_par)
    assert ratio_warm <= 0.2, \
        "warm-cache run too slow: {:.2f}x serial".format(ratio_warm)
