"""SAIF-lite: switching-activity interchange.

Real flows hand activity from simulation to power tools as SAIF (per-net
``T0``/``T1`` durations and ``TC`` toggle counts).  This module writes and
parses a SAIF subset so activity captured by the gate simulator can be
stored, diffed and fed back into :func:`repro.power.dynamic.dynamic_power`
without re-simulating::

    (SAIFILE
      (SAIFVERSION "2.0")
      (DURATION 300)
      (INSTANCE top
        (NET
          (n1 (T0 120) (T1 180) (TC 42))
          ...))

Durations are in clock cycles (the simulator is cycle-based).
"""

from __future__ import annotations

import io
import re

from ..errors import SimulationError


def write_saif(stream_or_path, module, cycles, toggles, probabilities=None,
               instance=None):
    """Write SAIF-lite for ``module``.

    Parameters
    ----------
    cycles:
        Observation window in cycles.
    toggles:
        Dict net name -> toggle count (``CompiledRun.toggle_snapshot``).
    probabilities:
        Optional dict net name -> P(net = 1); ``T1 = P * cycles``.  When
        absent, a 0.5 split is assumed.
    """
    if cycles <= 0:
        raise SimulationError("SAIF needs a positive duration")
    probabilities = probabilities or {}
    own = isinstance(stream_or_path, (str, bytes))
    stream = open(stream_or_path, "w") if own else stream_or_path
    try:
        w = stream.write
        w("(SAIFILE\n")
        w('  (SAIFVERSION "2.0")\n')
        w('  (DIRECTION "backward")\n')
        w("  (DURATION {})\n".format(int(cycles)))
        w("  (INSTANCE {}\n".format(instance or module.name))
        w("    (NET\n")
        for net in module.nets():
            if net.is_const:
                continue
            tc = int(toggles.get(net.name, 0))
            p1 = probabilities.get(net.name, 0.5)
            t1 = int(round(p1 * cycles))
            t0 = int(cycles) - t1
            w("      ({} (T0 {}) (T1 {}) (TC {}))\n".format(
                net.name, t0, t1, tc))
        w("    )\n  )\n)\n")
    finally:
        if own:
            stream.close()


def dumps_saif(module, cycles, toggles, probabilities=None):
    """SAIF-lite text in a string."""
    out = io.StringIO()
    write_saif(out, module, cycles, toggles, probabilities)
    return out.getvalue()


_NET_RE = re.compile(
    r"\(\s*([^\s()]+)\s*\(T0\s+(\d+)\)\s*\(T1\s+(\d+)\)\s*\(TC\s+(\d+)\)\s*\)"
)
_DURATION_RE = re.compile(r"\(DURATION\s+(\d+)\)")


def parse_saif(text):
    """Parse SAIF-lite; returns ``(duration, {net: (t0, t1, tc)})``."""
    m = _DURATION_RE.search(text)
    if not m:
        raise SimulationError("SAIF input has no DURATION")
    duration = int(m.group(1))
    nets = {}
    for name, t0, t1, tc in _NET_RE.findall(text):
        nets[name] = (int(t0), int(t1), int(tc))
    if not nets:
        raise SimulationError("SAIF input has no NET entries")
    return duration, nets


def read_saif(path):
    """Read a SAIF-lite file."""
    with open(path) as f:
        return parse_saif(f.read())


def toggles_from_saif(saif_nets):
    """Extract the toggle-count dict the power engine consumes."""
    return {name: tc for name, (_t0, _t1, tc) in saif_nets.items()}


def probabilities_from_saif(saif_nets, duration):
    """Extract P(net = 1) per net."""
    if duration <= 0:
        raise SimulationError("bad SAIF duration")
    return {
        name: t1 / duration for name, (_t0, t1, _tc) in saif_nets.items()
    }
