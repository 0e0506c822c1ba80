"""repro -- reproduction of "Sub-Clock Power-Gating Technique for
Minimising Leakage Power During Active Mode" (Mistry, Al-Hashimi, Flynn,
Hill; DATE 2011).

Quick start::

    from repro import Session

    session = Session(workers=4)          # scl90 library, 4-way sweeps
    handle = session.design("mult16")     # registry-built multiplier
    rows = handle.table([1e4, 1e6, 1e7])  # Table-I style rows
    print(session.stats.render())         # what the runner did

The lower-level entry points remain public (see ``docs/api.md``)::

    from repro import multiplier_study, Mode, build_table, format_table
    from repro.analysis.tables import TABLE_I_FREQS

    study = multiplier_study()
    rows = build_table(study.model, TABLE_I_FREQS)
    print(format_table(rows))

Package map (see DESIGN.md for the full inventory):

========================  ====================================================
``repro.tech``            synthetic 90nm library, device models, Liberty-lite
``repro.netlist``         netlist model, Verilog subset I/O, transforms
``repro.circuits``        generator families + keyed design database + registry
``repro.sim``             levelized gate simulator, VCD, activity capture
``repro.sta``             static timing analysis
``repro.power``           leakage / dynamic / rails / header sizing
``repro.isa``             M0-lite ISA, assembler, ISS, Dhrystone-lite
``repro.scpg``            the SCPG technique (transform + power model)
``repro.techniques``      pluggable gating schemes (scpg/cbtstc/lector) +
                          cross-technique comparison
``repro.flows``           Fig. 5 implementation flows
``repro.subvt``           sub-threshold study (§IV)
``repro.analysis``        tables, figures, sweeps, ASCII plots
``repro.runner``          parallel grid evaluation + result cache + stats
``repro.session``         the Session/DesignHandle facade over all of it
========================  ====================================================
"""

from .analysis.tables import build_table, format_table
from .circuits.generators import DesignKey, available_families, \
    expand_family, register_family
from .circuits.registry import available_designs, register_design
from .errors import ReproError
from .netlist.core import Design, Module
from .paper import CaseStudy, cortex_m0_study, multiplier_study
from .runner import Runner, RunStats, SqliteStore, evaluate_grid
from .scpg import Mode, ScpgPowerModel
from .session import DesignHandle, Session
from .tech import build_scl90
from .techniques import available_techniques, register_technique, technique

__version__ = "1.1.0"

__all__ = [
    "ReproError",
    "Design",
    "Module",
    "build_scl90",
    "Mode",
    "ScpgPowerModel",
    "CaseStudy",
    "multiplier_study",
    "cortex_m0_study",
    "build_table",
    "format_table",
    "Session",
    "DesignHandle",
    "Runner",
    "RunStats",
    "SqliteStore",
    "evaluate_grid",
    "register_design",
    "available_designs",
    "DesignKey",
    "register_family",
    "available_families",
    "expand_family",
    "technique",
    "register_technique",
    "available_techniques",
    "__version__",
]
