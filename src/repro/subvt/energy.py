"""Energy-per-operation versus supply voltage (Figs 9 and 10).

At each supply the design runs at its voltage-scaled Fmax; energy per
operation is::

    E(V) = E_cycle * (V / Vnom)^2  +  P_leak(V) / Fmax(V)

Dynamic energy falls quadratically while the leakage term *rises* as the
clock slows exponentially below threshold -- the two cross at the
minimum-energy point.  A design with a higher leakage-to-dynamic ratio
(the Cortex-M0's "increased density of logic") reaches its minimum at a
higher supply, exactly the Fig. 9 vs Fig. 10 contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PowerError


@dataclass(frozen=True)
class EnergyPoint:
    """One operating point of the sub-threshold sweep."""

    vdd: float
    fmax_hz: float
    e_dynamic: float
    e_leakage: float
    power: float

    @property
    def energy(self):
        """Total energy per operation (J)."""
        return self.e_dynamic + self.e_leakage


class SubvtModel:
    """Voltage-scaled energy model for one design.

    Parameters
    ----------
    library:
        Cell library (provides the device scaling).
    e_cycle:
        Switched energy per cycle at ``vdd_nom`` (J).
    leak_nominal:
        Total leakage power at ``vdd_nom`` (W).
    min_period:
        Minimum clock period at ``vdd_nom`` (s) -- the STA result.
    """

    def __init__(self, library, e_cycle, leak_nominal, min_period):
        if min_period <= 0:
            raise PowerError("min_period must be positive")
        self.library = library
        self.e_cycle = e_cycle
        self.leak_nominal = leak_nominal
        self.min_period = min_period

    def __fingerprint__(self):
        """Content identity for result-cache keys (see repro.runner)."""
        return ("subvt-model-v1", self.library, self.e_cycle,
                self.leak_nominal, self.min_period)

    def point(self, vdd):
        """Evaluate one supply voltage."""
        lib = self.library
        fmax = 1.0 / (self.min_period * lib.delay_scale(vdd))
        p_leak = self.leak_nominal * lib.leakage_scale(vdd)
        e_dyn = self.e_cycle * lib.energy_scale(vdd)
        return EnergyPoint(
            vdd=vdd,
            fmax_hz=fmax,
            e_dynamic=e_dyn,
            e_leakage=p_leak / fmax,
            power=e_dyn * fmax + p_leak,
        )

    def _supply_batch(self, vdds):
        """Evaluate a whole supply axis in one pass (the batch kernel).

        Hoists the device models and reference currents the library's
        scaling functions rebuild per call; every remaining operation
        replays :meth:`point` -- via ``Library.delay_scale`` /
        ``leakage_scale`` / ``energy_scale`` -- unchanged, so results
        are bit-identical to the point-at-a-time path (including the
        degenerate ``i_op <= 0`` / ``i_ref <= 0`` branches).
        """
        lib = self.library
        ref = lib._ref_model("svt")
        op = lib.device_model("svt")
        vdd_nom = lib.vdd_nom
        on_ref_term = vdd_nom / ref.on_current(vdd_nom, 1.0)
        i_ref_leak = ref.subthreshold_leakage(vdd_nom, 1.0)
        min_period = self.min_period
        leak_nominal = self.leak_nominal
        e_cycle = self.e_cycle
        inf = float("inf")
        out = []
        for vdd in vdds:
            i_op = op.on_current(vdd, 1.0)
            delay_scale = inf if i_op <= 0 \
                else (vdd / i_op) / on_ref_term
            fmax = 1.0 / (min_period * delay_scale)
            leakage_scale = 0.0 if i_ref_leak <= 0 \
                else (op.subthreshold_leakage(vdd, 1.0) / i_ref_leak) \
                * (vdd / vdd_nom)
            p_leak = leak_nominal * leakage_scale
            e_dyn = e_cycle * ((vdd / vdd_nom) ** 2)
            out.append(EnergyPoint(
                vdd=vdd,
                fmax_hz=fmax,
                e_dynamic=e_dyn,
                e_leakage=p_leak / fmax,
                power=e_dyn * fmax + p_leak,
            ))
        return out


def _voltage_point(model, vdd):
    return model.point(vdd)


def _batch_kernel(model):
    """The sweep's batch kernel, ``model._supply_batch`` -- or ``None``
    for a subclassed model or one whose ``point`` is replaced on the
    instance, so the override stays honoured on the point-at-a-time
    path."""
    if type(model) is SubvtModel and "point" not in vars(model):
        return model._supply_batch
    return None


def _model_cache_key(model):
    from ..runner import stable_hash_or_none

    return stable_hash_or_none("subvt-point", model)


def energy_sweep(model, v_lo=0.15, v_hi=0.9, steps=76, runner=None):
    """Sweep the supply; returns a list of :class:`EnergyPoint`.

    ``runner`` (a :class:`repro.runner.Runner`) supplies workers and the
    result cache; by default the sweep runs serial and uncached.
    """
    if steps < 2 or v_hi <= v_lo:
        raise PowerError("bad sweep range")
    from ..runner import Runner

    runner = Runner() if runner is None else runner
    grid = [v_lo + (v_hi - v_lo) * k / (steps - 1) for k in range(steps)]
    return runner.run(_voltage_point, grid, context=model,
                      cache_key=_model_cache_key(model),
                      label="energy_sweep",
                      kernel=_batch_kernel(model))


def minimum_energy_point(model, v_lo=0.15, v_hi=0.9, tolerance=1e-3,
                         runner=None):
    """Golden-section search for the minimum-energy supply voltage.

    With a ``runner`` the per-voltage evaluations go through its result
    cache, so repeated searches over the same model are warm no-ops.
    """
    if runner is None:
        point = model.point
    else:
        evaluator = runner.evaluator(
            lambda vdd: model.point(vdd),
            cache_key=_model_cache_key(model))
        point = evaluator
    phi = (5 ** 0.5 - 1) / 2.0
    lo, hi = v_lo, v_hi
    a = hi - phi * (hi - lo)
    b = lo + phi * (hi - lo)
    ea = point(a).energy
    eb = point(b).energy
    while hi - lo > tolerance:
        if ea < eb:
            hi, b, eb = b, a, ea
            a = hi - phi * (hi - lo)
            ea = point(a).energy
        else:
            lo, a, ea = a, b, eb
            b = lo + phi * (hi - lo)
            eb = point(b).energy
    return point((lo + hi) / 2.0)
