"""VCD (value change dump) writer and a small parser.

The paper's methodology creates a VCD from ModelSim and feeds it to
PrimeTime-PX.  :class:`VcdWriter` writes the changes between consecutive
settled value rows of the levelized simulator (:func:`dump_simulation`
does so phase by phase), and :func:`parse_vcd` reads the subset back
(toggle counting, cross-checking).
"""

from __future__ import annotations

import io

import numpy as np

from ..errors import SimulationError
from .logic import X

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index):
    """Short VCD identifier code for signal ``index``."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


class VcdWriter:
    """Stream net value changes as VCD.

    Usage, with rows from a
    :class:`~repro.sim.compiled.ClosedLoopStepper`::

        writer = VcdWriter(out_file, names)
        columns = [soa.net_index[name] for name in names]
        before = stepper.state_row()
        writer.set_time(cycle * period_ns)
        stepper.cycle(vec)
        writer.write_changes(before, stepper.state_row(), columns)
        writer.close()
    """

    def __init__(self, stream, net_names, timescale="1ns",
                 module_name="top"):
        self._stream = stream if hasattr(stream, "write") else None
        if self._stream is None:
            raise SimulationError("VcdWriter needs a writable stream")
        self._ids = {}
        self._names = list(net_names)
        self._time = 0
        self._time_written = None
        out = self._stream
        out.write("$date repro $end\n")
        out.write("$version repro gate-level simulator $end\n")
        out.write("$timescale {} $end\n".format(timescale))
        out.write("$scope module {} $end\n".format(module_name))
        for i, name in enumerate(net_names):
            ident = _identifier(i)
            self._ids[name] = ident
            out.write("$var wire 1 {} {} $end\n".format(ident, name))
        out.write("$upscope $end\n$enddefinitions $end\n")
        out.write("$dumpvars\n")
        for name in net_names:
            out.write("x{}\n".format(self._ids[name]))
        out.write("$end\n")

    def set_time(self, time):
        """Advance the VCD timestamp (monotonic)."""
        if time < self._time:
            raise SimulationError("VCD time must not go backwards")
        self._time = time

    def write_changes(self, before, after, columns):
        """Write, at the current time, every net whose value differs
        between the settled rows ``before`` and ``after``;
        ``columns[k]`` is the row column of the ``k``-th declared net."""
        columns = np.asarray(columns, dtype=np.int64)
        old, new = before[columns], after[columns]
        changed = np.flatnonzero(old != new)
        if not len(changed):
            return
        if self._time_written != self._time:
            self._stream.write("#{}\n".format(self._time))
            self._time_written = self._time
        for k in changed.tolist():
            value = int(new[k])
            symbol = "x" if value == X else str(value)
            self._stream.write("{}{}\n".format(
                symbol, self._ids[self._names[k]]))

    def close(self):
        """Flush the stream (caller owns closing files)."""
        self._stream.flush()


def dump_simulation(module, vectors, clock="clk", period_ns=10,
                    net_names=None):
    """Run ``vectors`` through ``module`` (clock ``clock`` low, flops
    forced to 0, then one apply / posedge / negedge cycle per vector)
    and return the VCD text: the inputs change at the start of each
    period, the clock pulses at its middle."""
    from .compiled import schedule_for

    stepper = schedule_for(module).stepper(clock, record_toggles=False)
    stepper.negedge()
    stepper.force_flops(0)
    names = net_names or [n.name for n in module.nets() if not n.is_const]
    columns = [stepper.soa.net_index[name] for name in names]
    out = io.StringIO()
    writer = VcdWriter(out, names, module_name=module.name)
    for i, vec in enumerate(vectors):
        for time, phase in ((i * period_ns, lambda: stepper.apply(vec or {})),
                            (i * period_ns + period_ns // 2,
                             stepper.posedge),
                            (i * period_ns + period_ns // 2,
                             stepper.negedge)):
            writer.set_time(time)
            before = stepper.state_row()
            phase()
            writer.write_changes(before, stepper.state_row(), columns)
    writer.close()
    return out.getvalue()


def parse_vcd(text):
    """Parse VCD text into ``(changes, name_by_id)``.

    ``changes`` is a list of ``(time, identifier, value)`` with value 0/1/X.
    """
    name_by_id = {}
    changes = []
    time = 0
    in_defs = True
    tokens = iter(text.split("\n"))
    for line in tokens:
        line = line.strip()
        if not line:
            continue
        if in_defs:
            if line.startswith("$var"):
                parts = line.split()
                # $var wire 1 <id> <name> $end
                name_by_id[parts[3]] = parts[4]
            elif line.startswith("$enddefinitions"):
                in_defs = False
            continue
        if line.startswith("$"):
            continue
        if line.startswith("#"):
            time = int(line[1:])
            continue
        symbol, ident = line[0], line[1:]
        if symbol in "01xX":
            value = X if symbol in "xX" else int(symbol)
            changes.append((time, ident, value))
    return changes, name_by_id
