"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (bad connection, duplicate name...)."""


class VerilogSyntaxError(NetlistError):
    """The structural-Verilog subset parser rejected the input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line {}: {}".format(line, message)
        super().__init__(message)
        self.line = line


class LibertySyntaxError(ReproError):
    """The Liberty-lite parser rejected the input."""


class LibraryError(ReproError):
    """Unknown cell/pin, or an inconsistent library definition."""


class SimulationError(ReproError):
    """The gate-level simulator hit an unrecoverable condition."""


class TimingError(ReproError):
    """Static timing analysis failed (combinational loop, no clock...)."""


class PowerError(ReproError):
    """Power analysis failed (missing activity, bad domain...)."""


class IsaError(ReproError):
    """Assembler or instruction-set simulator error."""


class SupplyError(ReproError):
    """An operating supply voltage that is not a positive finite
    number."""


class ScpgError(ReproError):
    """Sub-clock power gating transform or model error."""


class RegistryError(ReproError):
    """Unknown design name, or a conflicting registration."""


class GeneratorError(RegistryError):
    """Design-database misuse: unknown generator family, a malformed
    design key, or a parameter outside its declared space."""


class TechniqueError(ReproError):
    """Power-gating technique misuse: unknown technique name, an
    ineligible design, or an infeasible operating point."""


class RunnerError(ReproError):
    """Batch experiment runner misuse (bad grid, unusable cache...)."""


class PointTimeoutError(RunnerError):
    """One grid point exceeded the runner's per-point timeout.

    Raised inside the evaluation (worker or serial path); retried like
    any transient failure and propagated once retries are exhausted,
    unless the caller lists it in ``on_error`` to mean "treat a stuck
    point as infeasible".
    """


class ServeError(ReproError):
    """Sweep-service misuse: a malformed job spec, an unknown job id,
    or an operation a job's state does not allow."""


class FlowError(ReproError):
    """Implementation-flow step failed."""


class CalibrationError(ReproError):
    """Technology calibration could not satisfy its anchors."""
