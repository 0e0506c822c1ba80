"""The in-process batch-kernel path of :func:`evaluate_grid`.

A ``kernel`` evaluates every cache-missed point in one call instead of
dispatching ``fn`` per point.  The contract under test: identical
results, identical cache behaviour, per-point counts on the batch span,
and the shipped kernels identical to their point-at-a-time models.
"""

import functools

import pytest

from repro.errors import RunnerError
from repro.runner import RunStats, SqliteStore, evaluate_grid


def _square(point):
    return point * point


def _square_batch(points):
    return [p * p for p in points]


def _ctx_scale(ctx, point):
    return ctx * point


def _ctx_scale_batch(ctx, points):
    return [ctx * p for p in points]


def _evens_only(point):
    from repro.errors import ScpgError

    if point % 2:
        raise ScpgError("odd")
    return point


def _evens_only_batch(points):
    # The kernel maps on_error exceptions to None itself.
    return [None if p % 2 else p for p in points]


class TestBatchPath:
    def test_results_match_serial(self):
        points = list(range(10))
        assert evaluate_grid(_square, points, kernel=_square_batch) \
            == evaluate_grid(_square, points)

    def test_context_forwarded(self):
        # Kernels close over their own context (functools.partial here);
        # the grid context still reaches ``fn`` for the per-point path.
        got = evaluate_grid(_ctx_scale, [1, 2, 3], context=10,
                            kernel=functools.partial(_ctx_scale_batch, 10))
        assert got == [10, 20, 30]

    def test_infeasible_nones_counted(self):
        from repro.errors import ScpgError

        stats = RunStats()
        got = evaluate_grid(_evens_only, list(range(6)),
                            on_error=(ScpgError,), stats=stats,
                            kernel=_evens_only_batch)
        assert got == [0, None, 2, None, 4, None]
        assert stats.infeasible == 3
        assert stats.evaluated == 6

    def test_length_mismatch_raises(self):
        with pytest.raises(RunnerError):
            evaluate_grid(_square, [1, 2, 3],
                          kernel=lambda pts: [1])

    def test_journal_keeps_per_point_events(self, trace):
        from repro.errors import ScpgError

        evaluate_grid(_evens_only, list(range(5)), tracer=trace.tracer,
                      on_error=(ScpgError,), label="batch-test",
                      kernel=_evens_only_batch)
        (batch,) = trace.spans("batch")
        assert (batch["label"], batch["points"], batch["status"]) \
            == ("batch-test", 5, "ok")
        assert batch["ok"] == 3 and batch["infeasible"] == 2
        assert trace.spans("point") == []    # one span for the call

    def test_cache_warm_rerun_evaluates_nothing(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        points = list(range(8))
        cold = RunStats()
        evaluate_grid(_square, points, cache=cache, cache_key="sq",
                      stats=cold, kernel=_square_batch)
        assert cold.evaluated == 8
        warm = RunStats()
        got = evaluate_grid(_square, points, cache=cache, cache_key="sq",
                            stats=warm, kernel=_square_batch)
        assert got == [p * p for p in points]
        assert warm.evaluated == 0
        assert warm.cache_hits == 8

    def test_partial_cache_batches_only_the_misses(self, tmp_path):
        cache = SqliteStore(tmp_path / "store.sqlite")
        evaluate_grid(_square, [0, 1, 2, 3], cache=cache, cache_key="sq",
                      kernel=_square_batch)
        seen = []

        def spy(points):
            seen.extend(points)
            return _square_batch(points)

        got = evaluate_grid(_square, [2, 3, 4, 5], cache=cache,
                            cache_key="sq", kernel=spy)
        assert got == [4, 9, 16, 25]
        assert seen == [4, 5]  # 2 and 3 came from the cache

    def test_infeasible_marker_cached(self, tmp_path):
        from repro.errors import ScpgError

        cache = SqliteStore(tmp_path / "store.sqlite")
        evaluate_grid(_evens_only, [1, 2], cache=cache, cache_key="ev",
                      on_error=(ScpgError,), kernel=_evens_only_batch)
        warm = RunStats()
        got = evaluate_grid(_evens_only, [1, 2], cache=cache,
                            cache_key="ev", on_error=(ScpgError,),
                            stats=warm, kernel=_evens_only_batch)
        assert got == [None, 2]
        assert warm.evaluated == 0
        assert warm.infeasible == 1


class TestKernelGuards:
    def test_sweep_guard_rejects_instance_override(self, lib):
        from repro.analysis.sweep import _batch_kernel
        from repro.session import Session

        s = Session(library=lib, store=None)
        try:
            model = s.design("counter16").power_model()
            assert _batch_kernel(model) is not None
            model.power = type(model).power.__get__(model)
            assert _batch_kernel(model) is None
        finally:
            s.close()

    def test_sweep_guard_rejects_subclass(self, lib):
        from repro.analysis.sweep import _batch_kernel
        from repro.scpg.power_model import ScpgPowerModel
        from repro.session import Session

        class Patched(ScpgPowerModel):
            pass

        s = Session(library=lib, store=None)
        try:
            model = s.design("counter16").power_model()
            patched = Patched(**{
                k: getattr(model, k) for k in (
                    "e_cycle", "leak_comb", "leak_alwayson",
                    "leak_header_off", "rail", "header_gate_cap",
                    "timing", "vdd", "e_iso_cycle")})
            assert _batch_kernel(patched) is None
        finally:
            s.close()

    def test_subvt_guard(self, lib):
        from repro.session import Session
        from repro.subvt.energy import _batch_kernel

        s = Session(library=lib, store=None)
        try:
            model = s.design("counter16").subvt_model()
            assert _batch_kernel(model) is not None
            model.point = type(model).point.__get__(model)
            assert _batch_kernel(model) is None
        finally:
            s.close()


class TestKernelParity:
    """The shipped kernels against their point-at-a-time references."""

    def test_power_sweep_parity(self, lib):
        from repro.analysis.sweep import _batch_kernel, sweep
        from repro.scpg.power_model import Mode
        from repro.session import Session

        s1 = Session(library=lib, store=None)
        s2 = Session(library=lib, store=None)
        try:
            model = s1.design("counter16").power_model()
            freqs = [10 ** (4 + 0.2 * k) for k in range(20)]
            batch = sweep(model, freqs)
            pointwise = s2.design("counter16").power_model()
            pointwise.power = type(pointwise).power.__get__(pointwise)
            ref = sweep(pointwise, freqs)
            for mode in (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX):
                assert batch.results[mode] == ref.results[mode]
            # The batch kernel itself, called directly, equals the
            # per-point ``power()`` of the same model.
            kernel = _batch_kernel(model)
            points = [(1e5, Mode.SCPG), (2e6, Mode.SCPG_MAX)]
            assert kernel(points) == [pointwise.power(f, mode)
                                      for f, mode in points]
        finally:
            s1.close()
            s2.close()

    def test_subvt_sweep_parity(self, lib):
        from repro.session import Session
        from repro.subvt.energy import _batch_kernel, energy_sweep

        s1 = Session(library=lib, store=None)
        s2 = Session(library=lib, store=None)
        try:
            model = s1.design("counter16").subvt_model()
            batch = energy_sweep(model, steps=24)
            pointwise = s2.design("counter16").subvt_model()
            pointwise.point = type(pointwise).point.__get__(pointwise)
            assert batch == energy_sweep(pointwise, steps=24)
            kernel = _batch_kernel(model)
            vdds = [0.25, 0.5]
            assert kernel(vdds) == [pointwise.point(v) for v in vdds]
        finally:
            s1.close()
            s2.close()
