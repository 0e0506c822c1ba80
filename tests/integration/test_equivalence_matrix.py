"""Every execution strategy produces bit-for-bit identical results.

The runner promises that its two executors (in-process and a worker
pool), batch kernels, the result store and the artifact bundle are pure
execution detail: the Table I / Table II grids (the Fig. 6 / Fig. 8
frequency axes x all three modes) must come back as *exactly* the same
:class:`PowerBreakdown` objects -- float-equal, not approx -- whichever
way they are evaluated.  The strategy matrix is {serial fn, serial
kernel, pool fn, pool kernel} on mult16 and M0-lite; this differential
harness holds every optimisation (and anything layered on top, like
tracing) to the paper's numbers.
"""

import importlib

import pytest

from repro.analysis.sweep import sweep
from repro.analysis.tables import TABLE_I_FREQS, TABLE_II_FREQS
from repro.runner import Runner, WorkerPool
from repro.scpg.power_model import Mode

MODES = (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX)


def _reference_for(model, freqs):
    """Plain serial, uncached, kernel-less evaluation of a grid."""
    results = {}
    for mode in MODES:
        for f in freqs:
            try:
                results[(f, mode)] = model.power(f, mode)
            except Exception:
                results[(f, mode)] = None
    return results


@pytest.fixture(scope="module")
def model(mult_study):
    return mult_study.model


@pytest.fixture(scope="module")
def reference(model):
    """The plain serial, uncached, kernel-less evaluation."""
    return _reference_for(model, TABLE_I_FREQS)


def _flatten(data):
    return {(f, mode): b
            for mode in MODES
            for f, b in zip(data.freqs, data.results[mode])}


def _assert_identical(results, reference):
    assert set(results) == set(reference)
    for key, breakdown in results.items():
        expected = reference[key]
        if expected is None:
            assert breakdown is None, key
        else:
            # dataclass ==: every field must be float-identical
            assert breakdown == expected, key


class TestEquivalenceMatrix:
    def test_serial_point_at_a_time(self, model, reference, monkeypatch):
        """The runner with the batch kernel disabled: one
        ``model.power`` call per point, like the original code path."""
        sweep_mod = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_mod, "_batch_kernel", lambda m: None)
        data = sweep(model, TABLE_I_FREQS, runner=Runner())
        _assert_identical(_flatten(data), reference)

    def test_parallel_workers(self, model, reference):
        """Pool kernel at the default adaptive chunk size."""
        data = sweep(model, TABLE_I_FREQS, runner=Runner(workers=2))
        _assert_identical(_flatten(data), reference)

    def test_batch_kernel(self, model, reference):
        """type(model) is ScpgPowerModel, so a serial sweep takes the
        ``_power_points`` batch kernel path."""
        data = sweep(model, TABLE_I_FREQS, runner=Runner())
        _assert_identical(_flatten(data), reference)

    def test_batch_kernel_directly(self, model, reference):
        points = [(f, mode) for mode in MODES for f in TABLE_I_FREQS]
        feasible = [p for p in points if reference[p] is not None]
        for point, breakdown in zip(feasible,
                                    model._power_points(feasible)):
            assert breakdown == reference[point], point

    def test_cold_then_warm_cache(self, model, reference, tmp_path):
        runner = Runner(cache=tmp_path / "store.sqlite")
        cold = sweep(model, TABLE_I_FREQS, runner=runner)
        assert runner.stats.cache_misses > 0
        warm = sweep(model, TABLE_I_FREQS, runner=runner)
        assert runner.stats.cache_hits >= runner.stats.cache_misses
        _assert_identical(_flatten(cold), reference)
        _assert_identical(_flatten(warm), reference)

    def test_parallel_warm_cache(self, model, reference, tmp_path):
        serial = Runner(cache=tmp_path / "store.sqlite")
        sweep(model, TABLE_I_FREQS, runner=serial)
        parallel = Runner(workers=2, cache=tmp_path / "store.sqlite")
        data = sweep(model, TABLE_I_FREQS, runner=parallel)
        _assert_identical(_flatten(data), reference)

    def test_journal_and_trace_do_not_perturb(self, model, reference,
                                              tmp_path):
        """Observability on vs off: identical numbers."""
        from repro.obs import JsonlSink, MetricsRegistry, Tracer

        runner = Runner(tracer=Tracer(JsonlSink(tmp_path / "run.jsonl")),
                        metrics=MetricsRegistry())
        data = sweep(model, TABLE_I_FREQS, runner=runner)
        runner.tracer.close()
        _assert_identical(_flatten(data), reference)
        assert runner.tracer.spans > 0

    def test_parallel_batch_explicit_chunks(self, model, reference,
                                            monkeypatch):
        """Chunk boundaries are pure scheduling: a deliberately odd
        chunk size still reassembles the grid bit-for-bit."""
        core = importlib.import_module("repro.runner.core")
        monkeypatch.setattr(core, "CHUNK_FLOOR", 3)
        monkeypatch.setattr(core, "CHUNK_CAP", 3)
        data = sweep(model, TABLE_I_FREQS, runner=Runner(workers=2))
        _assert_identical(_flatten(data), reference)

    def test_artifact_table_evaluation(self):
        """The Session's bundle-built model against one built by direct
        module-level calls: the whole grid matches bit-for-bit."""
        from repro.power.leakage import leakage_power
        from repro.power.probabilistic import vectorless_switching
        from repro.scpg.power_model import ScpgPowerModel
        from repro.session import Session

        handle = Session(store=None).design("mult16")
        top, lib = handle.design.top, handle.session.library
        e_cycle, _ = vectorless_switching(top, lib)
        direct = ScpgPowerModel.from_scpg_design(handle.scpg(), e_cycle)
        base = leakage_power(top, lib)
        direct.leak_comb_base = base.combinational
        direct.leak_alwayson_base = base.always_on
        with_tables = handle.sweep(TABLE_I_FREQS)
        without = sweep(direct, TABLE_I_FREQS, runner=Runner())
        for mode in MODES:
            assert with_tables.results[mode] == without.results[mode], \
                mode


#: design -> (case-study fixture, paper frequency axis)
CASES = {
    "mult16": ("mult_study", TABLE_I_FREQS),
    "m0": ("m0_study", TABLE_II_FREQS),
}


@pytest.fixture(scope="module", params=sorted(CASES), ids=sorted(CASES))
def case(request):
    """``(model, freqs, reference)`` for each paper case study."""
    study_fixture, freqs = CASES[request.param]
    model = request.getfixturevalue(study_fixture).model
    return model, freqs, _reference_for(model, freqs)


class TestParallelBatchMatrix:
    """The four strategies -- serial fn, serial kernel, pool fn, pool
    kernel (on an ephemeral pool, which inherits the state, and on a
    warm pool, which receives it as a blob) -- for *both* paper case
    studies: the scheduler may shard, pool and requeue however it
    likes, but the Table I / Table II grids must come back
    float-identical."""

    def test_serial_reference_strategy(self, case, monkeypatch):
        """Serial fn: one ``model.power`` call per point."""
        model, freqs, reference = case
        sweep_mod = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_mod, "_batch_kernel", lambda m: None)
        data = sweep(model, freqs, runner=Runner())
        _assert_identical(_flatten(data), reference)

    def test_serial_batch_kernel(self, case):
        """Serial kernel: one compiled-kernel call for the grid."""
        model, freqs, reference = case
        data = sweep(model, freqs, runner=Runner())
        _assert_identical(_flatten(data), reference)

    def test_per_point_parallel(self, case, monkeypatch):
        """Pool fn: chunks of one point."""
        model, freqs, reference = case
        sweep_mod = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_mod, "_batch_kernel", lambda m: None)
        data = sweep(model, freqs, runner=Runner(workers=2))
        _assert_identical(_flatten(data), reference)

    def test_parallel_batch(self, case, monkeypatch):
        """Pool kernel: a deliberately odd chunk size still reassembles
        the grid bit-for-bit (chunk boundaries are pure scheduling)."""
        model, freqs, reference = case
        core = importlib.import_module("repro.runner.core")
        monkeypatch.setattr(core, "CHUNK_FLOOR", 3)
        monkeypatch.setattr(core, "CHUNK_CAP", 3)
        data = sweep(model, freqs, runner=Runner(workers=2))
        _assert_identical(_flatten(data), reference)

    def test_parallel_batch_on_a_warm_pool(self, case):
        model, freqs, reference = case
        with WorkerPool(workers=2) as pool:
            runner = Runner(workers=2, pool=pool)
            data = sweep(model, freqs, runner=runner)
            again = sweep(model, freqs, runner=runner)
            # The pool really served the grids (unpicklable state would
            # have silently degraded to an ephemeral fork pool).
            assert pool.alive and pool.generation == 1
        _assert_identical(_flatten(data), reference)
        _assert_identical(_flatten(again), reference)


class TestCosimEngineStrategy:
    """The gate-level co-sim engine against the event oracle as one more
    execution strategy: both must agree on every observable of a full
    program run -- cycle-for-cycle, toggle-for-toggle -- exactly like
    workers, kernels and caches above."""

    @pytest.fixture(scope="class")
    def runs(self, m0_module):
        from repro.isa.programs import crc32_program, dhrystone_memory
        from repro.isa.trace import cosimulate

        from ..sim.testbench import event_cosimulate

        program, memory = crc32_program(1), dhrystone_memory()
        return {"event": event_cosimulate(m0_module, program, dict(memory)),
                "compiled": cosimulate(m0_module, program, dict(memory))}

    def test_both_architecturally_ok(self, runs):
        assert runs["event"].ok and runs["compiled"].ok

    def test_scalar_observables_identical(self, runs):
        ev, cp = runs["event"], runs["compiled"]
        assert (ev.instructions, ev.cycles, ev.cpi) == \
               (cp.instructions, cp.cycles, cp.cpi)

    def test_grouped_toggle_trace_identical(self, runs):
        ev, cp = runs["event"].trace, runs["compiled"].trace
        assert len(ev.groups) == len(cp.groups)
        for a, b in zip(ev.groups, cp.groups):
            assert (a.index, a.cycles, a.total_toggles, a.nets,
                    a.toggles) == \
                   (b.index, b.cycles, b.total_toggles, b.nets, b.toggles)


#: design name -> paper frequency axis, for the serve strategy below.
SERVE_CASES = {
    "mult16": TABLE_I_FREQS,
    "m0lite": TABLE_II_FREQS,
}


@pytest.fixture(scope="module")
def serve_server(tmp_path_factory):
    """One HTTP server over a *cold* SQLite store: every point is
    computed fresh by the serve path, nothing borrowed from the offline
    reference sessions."""
    from repro.serve import serve_in_thread

    tmp = tmp_path_factory.mktemp("serve-equiv")
    handle = serve_in_thread(store=str(tmp / "store.sqlite"),
                             spool=str(tmp / "spool"))
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def serve_client(serve_server):
    from repro.serve import ServeClient

    return ServeClient(serve_server.host, serve_server.port,
                       tenant="equiv")


class TestServeStrategy:
    """The serve path as one more execution strategy: a sweep submitted
    over HTTP, executed by the service's own session against a cold
    SQLite store, and shipped back as JSON must be float-*exact* equal
    to the offline ``Session.sweep()`` -- JSON serialises floats via
    ``repr`` (shortest round-trip), so equality here really is
    bit-for-bit, and any drift in the serve pipeline (store, job
    scheduling, serialisation) fails the diff."""

    @pytest.fixture(scope="class", params=sorted(SERVE_CASES),
                    ids=sorted(SERVE_CASES))
    def offline(self, request):
        """``(design, freqs, offline Session sweep as wire dict)``."""
        import json

        from repro.serve import sweep_to_dict
        from repro.session import Session

        design = request.param
        freqs = SERVE_CASES[design]
        session = Session(store=None)
        data = session.design(design).sweep(freqs)
        session.close()
        return design, freqs, json.loads(json.dumps(sweep_to_dict(data)))

    def test_sweep_float_exact_vs_offline(self, offline, serve_client):
        design, freqs, expected = offline
        result = serve_client.run({"kind": "sweep", "design": design,
                                   "freqs": list(freqs)}, timeout=600.0)
        assert result == expected

    def test_compare_float_exact_vs_offline(self, offline, serve_client):
        import json

        from repro.session import Session

        design, freqs, _ = offline
        session = Session(store=None)
        expected = json.loads(json.dumps(
            session.compare_techniques(design,
                                       freqs=list(freqs)).as_dict()))
        session.close()
        result = serve_client.run({"kind": "compare", "design": design,
                                   "freqs": list(freqs)}, timeout=600.0)
        assert result == expected
