"""Frequency sweeps and the savings convergence point.

Figs 6(a) and 8(a) show the three configurations' average power converging
as the clock rises: the per-cycle gating overhead grows linearly with
frequency while the gatable idle time shrinks.  :func:`find_convergence`
locates the frequency where SCPG stops saving power -- about 15 MHz for
the multiplier and 5 MHz for the Cortex-M0 in the paper.

Both entry points execute through :mod:`repro.runner`: pass a
:class:`~repro.runner.Runner` to fan the grid over worker processes
and/or reuse the content-addressed result cache.  Sweeps and convergence
searches share one cache namespace -- a convergence search after a sweep
of the same model re-reads the sweep's points instead of recomputing
them.  The runner's fault-tolerance policy (``retry_on`` / ``retries`` /
``timeout``) and its JSONL journal apply here too: sweep grids are
journalled under the label ``"sweep"``.  The defaults (no runner) keep
the historical serial, uncached behaviour with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ScpgError
from ..runner import Runner, stable_hash_or_none
from ..scpg.power_model import Mode, ScpgPowerModel


@dataclass
class FrequencySweep:
    """Power/energy of every mode across a frequency grid."""

    freqs: list
    results: dict = field(default_factory=dict)  # mode -> list of breakdowns

    def totals(self, mode):
        """Average power (W) per grid point (``None`` when infeasible)."""
        return [
            b.total if b is not None else None for b in self.results[mode]
        ]

    def energies(self, mode):
        """Energy per op (J) per grid point (``None`` when infeasible)."""
        return [
            b.energy_per_op if b is not None else None
            for b in self.results[mode]
        ]


def _power_point(model, point):
    freq_hz, mode = point
    return model.power(freq_hz, mode)


def _batch_kernel(model):
    """The sweep's batch kernel, ``model._power_points`` -- or ``None``
    for a subclassed model or one whose ``power`` is replaced on the
    instance, so the override stays honoured on the point-at-a-time
    path."""
    if type(model) is ScpgPowerModel and "power" not in vars(model):
        return model._power_points
    return None


def power_cache_key(model):
    """Cache namespace for one model's ``power(f, mode)`` evaluations.

    ``None`` (caching disabled) for models without a content fingerprint
    -- a wrong key is worse than no cache.
    """
    return stable_hash_or_none("scpg-power-point", model)


def sweep(model, freqs, modes=(Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX),
          runner=None, label="sweep"):
    """Evaluate ``model`` across ``freqs`` for each mode.

    Infeasible (frequency, mode) points come back as ``None``, exactly as
    the serial implementation always produced them.  ``label`` names the
    grid in the journal/trace (``DesignHandle.sweep`` passes
    ``"sweep:<design>"`` so replay reports break down per design).
    """
    runner = Runner() if runner is None else runner
    freqs = list(freqs)
    modes = tuple(modes)
    grid = [(f, mode) for mode in modes for f in freqs]
    values = runner.run(_power_point, grid, context=model,
                        cache_key=power_cache_key(model),
                        on_error=(ScpgError,), label=label,
                        kernel=_batch_kernel(model))
    out = FrequencySweep(freqs=freqs)
    for i, mode in enumerate(modes):
        out.results[mode] = values[i * len(freqs):(i + 1) * len(freqs)]
    return out


def find_convergence(model, mode=Mode.SCPG, f_lo=1e4, f_hi=None,
                     tolerance=1e-3, runner=None):
    """Frequency where ``mode`` stops saving power versus No-PG.

    The saving ``P_nopg(f) - P_mode(f)`` decreases monotonically with
    frequency (linear overhead vs shrinking idle time), so bisection finds
    the zero crossing.  Returns ``None`` when the mode still saves power at
    its own maximum feasible frequency.

    Every breakdown evaluation goes through the runner's cached evaluator,
    so the No-PG reference is computed once per frequency and repeated
    searches over the same model (with a cache-equipped runner) evaluate
    nothing at all.
    """
    runner = Runner() if runner is None else runner
    if f_hi is None:
        f_hi = model.feasible_fmax(mode)
    breakdown = runner.evaluator(
        lambda point: model.power(point[0], point[1]),
        cache_key=power_cache_key(model))

    def saving(f):
        return breakdown((f, Mode.NO_PG)).total - breakdown((f, mode)).total

    if saving(f_lo) <= 0:
        raise ScpgError("no saving even at {:.3g} Hz".format(f_lo))
    if saving(f_hi) > 0:
        return None
    lo, hi = f_lo, f_hi
    while (hi - lo) / hi > tolerance:
        mid = (lo + hi) / 2.0
        if saving(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
