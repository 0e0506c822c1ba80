"""Cell-library object model.

A :class:`Library` is a named collection of :class:`Cell` definitions plus
the device flavours (:class:`~repro.tech.transistor.DeviceParams`) that give
it voltage/temperature scaling.  Numbers stored on cells are characterised at
``library.vdd_nom``; the STA and power engines rescale them to the operating
voltage through the device models, so a single characterisation serves the
whole VDD sweep of the paper's Section IV.

Units: seconds, farads, watts (at vdd_nom), square micrometres, volts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import LibraryError
from ..runner.fingerprint import canonical
from .boolfunc import BoolExpr
from .transistor import DeviceModel


class PinDirection(enum.Enum):
    """Direction of a cell pin."""

    INPUT = "input"
    OUTPUT = "output"


class CellKind(enum.Enum):
    """Coarse classification used by the SCPG domain partitioner."""

    COMBINATIONAL = "comb"
    SEQUENTIAL = "seq"
    BUFFER = "buffer"
    CLOCK = "clock"
    ISOLATION = "isolation"
    TIE = "tie"
    HEADER = "header"


@dataclass
class Pin:
    """One pin of a library cell.

    ``function`` is set on output pins of combinational cells (a
    :class:`~repro.tech.boolfunc.BoolExpr` source string); ``is_clock`` marks
    the clock input of sequential cells.
    """

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    function: str | None = None
    is_clock: bool = False

    def __post_init__(self):
        self._expr = BoolExpr(self.function) if self.function else None

    @property
    def expr(self):
        """Parsed :class:`BoolExpr` of an output pin, or ``None``."""
        return self._expr


@dataclass
class LeakageState:
    """State-dependent leakage: power (W at vdd_nom) when ``when`` holds.

    ``when`` is a boolean expression over the cell's input pins, or ``None``
    for the state-independent default.
    """

    power: float
    when: str | None = None

    def __post_init__(self):
        self._expr = BoolExpr(self.when) if self.when else None

    def matches(self, values):
        """True when this state's condition holds for pin ``values``."""
        if self._expr is None:
            return True
        return self._expr.eval(values) == 1


@dataclass
class Cell:
    """One library cell.

    Timing model: ``delay(C_load) = intrinsic_delay + drive_resistance *
    C_load`` at vdd_nom, scaled to the operating point by the library's
    device model.  Power model: every output transition dissipates
    ``0.5 * (c_internal + C_load) * VDD^2``; leakage is looked up from
    ``leakage_states`` (falling back to ``leakage`` when no state matches).

    Sequential cells carry ``setup``/``hold`` (at the clock pin) and use the
    clock-to-Q path for ``intrinsic_delay``.
    Header cells (sleep transistors) carry ``header_ron`` / ``header_width``
    for IR-drop analysis and switch their (large) gate capacitance once per
    gating cycle.
    """

    name: str
    kind: CellKind
    area: float
    pins: tuple[Pin, ...] = ()
    leakage: float = 0.0
    leakage_states: list[LeakageState] = field(default_factory=list)
    intrinsic_delay: float = 0.0
    drive_resistance: float = 0.0
    c_internal: float = 0.0
    setup: float = 0.0
    hold: float = 0.0
    header_ron: float = 0.0
    header_width: float = 0.0
    drive_strength: int = 1

    def __post_init__(self):
        # The pin tables are computed once; ``pins`` becomes a tuple so
        # they cannot go stale.
        self.pins = tuple(self.pins)
        self._pin_table = {p.name: p for p in self.pins}
        if len(self._pin_table) != len(self.pins):
            raise LibraryError(
                "cell {} has duplicate pin names".format(self.name)
            )
        #: Input / output pins and their names, in declaration order.
        self.inputs = tuple(
            p for p in self.pins if p.direction is PinDirection.INPUT)
        self.outputs = tuple(
            p for p in self.pins if p.direction is PinDirection.OUTPUT)
        self.input_names = tuple(p.name for p in self.inputs)
        self.output_names = tuple(p.name for p in self.outputs)
        self._state_memo = {}

    # -- pin queries ---------------------------------------------------------

    def pin(self, name):
        """Look up a pin by name; raises :class:`LibraryError` if absent."""
        try:
            return self._pin_table[name]
        except KeyError:
            raise LibraryError(
                "cell {} has no pin {}".format(self.name, name)) from None

    def has_pin(self, name):
        """True when a pin of that name exists."""
        return name in self._pin_table

    @property
    def clock_pin(self):
        """The clock input pin of a sequential cell, else ``None``."""
        for p in self.pins:
            if p.is_clock:
                return p
        return None

    @property
    def is_sequential(self):
        """True for flip-flops/latches."""
        return self.kind is CellKind.SEQUENTIAL

    @property
    def is_combinational(self):
        """True for cells evaluated by boolean functions (incl. iso/buffer)."""
        return self.kind in (
            CellKind.COMBINATIONAL,
            CellKind.BUFFER,
            CellKind.CLOCK,
            CellKind.ISOLATION,
        )

    # -- characterisation queries ---------------------------------------------

    def delay(self, c_load, scale=1.0):
        """Propagation delay (s) into ``c_load`` farads, voltage-scaled."""
        return (self.intrinsic_delay + self.drive_resistance * c_load) * scale

    def switching_energy(self, c_load, vdd):
        """Energy (J) of one output transition into ``c_load`` at ``vdd``."""
        return 0.5 * (self.c_internal + c_load) * vdd * vdd

    def leakage_for_state(self, values):
        """Leakage power (W at vdd_nom) for input pin ``values`` (a dict).

        The first matching :class:`LeakageState` wins; with no match (or no
        states at all) the average ``leakage`` is returned.  Matches are
        memoised per input-pin value tuple -- there are at most ``3**k``
        distinct assignments, while a state-dependent analysis asks about
        the same handful millions of times.  (``values.get`` reproduces
        the expression evaluator's own missing-pin handling, so the key
        is exact.)
        """
        key = tuple(values.get(name) for name in self.input_names)
        power = self._state_memo.get(key, self)
        if power is not self:
            return power
        power = self.leakage
        for state in self.leakage_states:
            if state.when is not None and state.matches(values):
                power = state.power
                break
        self._state_memo[key] = power
        return power

    def input_capacitance(self, pin_name):
        """Capacitance (F) presented by input pin ``pin_name``."""
        return self.pin(pin_name).capacitance


class Library:
    """A named cell library plus its device flavours.

    Parameters
    ----------
    name:
        Library name (appears in Liberty output).
    vdd_nom:
        Characterisation voltage (V); all cell numbers are at this supply.
    devices:
        Mapping of flavour name -> :class:`DeviceParams`.  Must include
        ``"svt"`` (standard-Vt logic) and ``"hvt"`` (high-Vt sleep headers).
    temp_c:
        Characterisation temperature.
    wire_cap_per_fanout:
        Estimated wire capacitance (F) added per fanout connection; stands in
        for extracted parasitics of the placed-and-routed netlists the paper
        simulates.
    """

    def __init__(self, name, vdd_nom, devices, temp_c=25.0,
                 wire_cap_per_fanout=0.0):
        if "svt" not in devices or "hvt" not in devices:
            raise LibraryError("library needs 'svt' and 'hvt' device flavours")
        self.name = name
        self.vdd_nom = float(vdd_nom)
        self.temp_c = float(temp_c)
        self.wire_cap_per_fanout = float(wire_cap_per_fanout)
        self.devices = dict(devices)
        #: Devices the cells were characterised with; scaling references
        #: these, so corner libraries (``with_devices``) shift correctly.
        self.ref_devices = dict(devices)
        self._cells = {}
        self._cells_canon = None    # memo of __fingerprint__'s cell part

    def __getstate__(self):
        """Pickle without the fingerprint memo."""
        state = dict(self.__dict__)
        state["_cells_canon"] = None
        return state

    # -- cell management ------------------------------------------------------

    def add_cell(self, cell):
        """Register ``cell``; duplicate names are an error."""
        if cell.name in self._cells:
            raise LibraryError("duplicate cell {}".format(cell.name))
        self._cells[cell.name] = cell
        self._cells_canon = None
        return cell

    def cell(self, name):
        """Look up a cell; raises :class:`LibraryError` when unknown."""
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(
                "library {} has no cell {}".format(self.name, name)
            ) from None

    def has_cell(self, name):
        """True when the library defines ``name``."""
        return name in self._cells

    def cells(self):
        """All cells, in insertion order."""
        return list(self._cells.values())

    def cells_of_kind(self, kind):
        """All cells of the given :class:`CellKind`."""
        return [c for c in self._cells.values() if c.kind is kind]

    def __len__(self):
        return len(self._cells)

    def __contains__(self, name):
        return name in self._cells

    def __fingerprint__(self):
        """Content identity for result-cache keys (see repro.runner).

        Covers everything the analyses read: the scalar parameters, every
        device flavour (current and characterisation reference) and every
        cell's full definition.  Cells and devices are dataclasses, so the
        canonicaliser descends into them field by field.  The cell part,
        the bulk of it, is canonicalised once and reused until
        :meth:`add_cell` (cells are read-only once added).
        """
        if self._cells_canon is None:
            names = sorted(self._cells)
            self._cells_canon = (
                canonical(names),
                canonical([self._cells[name] for name in names]))
        return (
            "library-v1",
            self.name,
            self.vdd_nom,
            self.temp_c,
            self.wire_cap_per_fanout,
            self.devices,
            self.ref_devices,
        ) + self._cells_canon

    def __repr__(self):
        return "Library({}, {} cells, vdd_nom={}V)".format(
            self.name, len(self._cells), self.vdd_nom
        )

    # -- scaling --------------------------------------------------------------

    def device_model(self, flavour="svt", temp_c=None):
        """A :class:`DeviceModel` for ``flavour`` at ``temp_c`` (default lib temp)."""
        try:
            params = self.devices[flavour]
        except KeyError:
            raise LibraryError(
                "library {} has no device flavour {}".format(self.name, flavour)
            ) from None
        return DeviceModel(params, self.temp_c if temp_c is None else temp_c)

    def _ref_model(self, flavour):
        from .transistor import DeviceModel

        return DeviceModel(self.ref_devices[flavour], self.temp_c)

    def delay_scale(self, vdd, temp_c=None):
        """Multiplier applied to all cell delays at supply ``vdd`` (and
        optionally a different temperature), relative to the
        characterisation point (vdd_nom at the library temperature, with
        the characterisation-time devices)."""
        ref = self._ref_model("svt")
        op = self.device_model("svt", temp_c)
        i_ref = ref.on_current(self.vdd_nom, 1.0)
        i_op = op.on_current(vdd, 1.0)
        if i_op <= 0:
            return float("inf")
        return (vdd / i_op) / (self.vdd_nom / i_ref)

    def leakage_scale(self, vdd, flavour="svt", temp_c=None):
        """Multiplier applied to cell leakage powers at supply ``vdd``
        (and optionally temperature), relative to the characterisation
        point.  Leakage *power* scales as ``I_leak(vdd) * vdd``.
        """
        ref = self._ref_model(flavour)
        op = self.device_model(flavour, temp_c)
        i_ref = ref.subthreshold_leakage(self.vdd_nom, 1.0)
        if i_ref <= 0:
            return 0.0
        i_scale = op.subthreshold_leakage(vdd, 1.0) / i_ref
        return i_scale * (vdd / self.vdd_nom)

    def energy_scale(self, vdd):
        """Multiplier for switching energies (quadratic in VDD)."""
        return (vdd / self.vdd_nom) ** 2

    def with_devices(self, devices):
        """A shallow copy of this library sharing all cells but using
        different device flavours (process-corner analysis).

        Cell characterisation stays anchored at the *original* nominal
        point; the new devices only change how numbers scale -- exactly
        how a corner re-characterisation behaves to first order.
        """
        corner = Library(
            self.name,
            self.vdd_nom,
            devices,
            temp_c=self.temp_c,
            wire_cap_per_fanout=self.wire_cap_per_fanout,
        )
        corner._cells = self._cells  # shared, read-only by convention
        corner.ref_devices = dict(self.ref_devices)
        return corner
