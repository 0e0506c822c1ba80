"""Gate-level logic simulation, VCD output and switching-activity capture.

Replaces the paper's Mentor ModelSim step: the levelized simulator runs
vectors through flat netlists, records per-net toggle counts (the input to
dynamic power analysis, standing in for PrimeTime-PX's VCD flow), and can
write/parse VCD.

* :mod:`repro.sim.logic` -- ternary cell evaluation (compiled truth tables).
* :mod:`repro.sim.compiled` -- the levelized simulator: batched vector
  runs (``schedule_for(module).run_vectors``), the closed-loop stepper,
  bus helpers.
* :mod:`repro.sim.vcd` -- VCD writer/parser.
* :mod:`repro.sim.activity` -- toggle recording, vector grouping (Fig. 7).
* :mod:`repro.sim.saif` -- SAIF-lite activity interchange.
"""

from .logic import X, compile_cell
from .vcd import VcdWriter, parse_vcd
from .activity import ActivityTrace, GroupActivity, group_activity
from .saif import dumps_saif, parse_saif, read_saif, write_saif

__all__ = [
    "dumps_saif",
    "parse_saif",
    "read_saif",
    "write_saif",
    "X",
    "compile_cell",
    "VcdWriter",
    "parse_vcd",
    "ActivityTrace",
    "GroupActivity",
    "group_activity",
]
