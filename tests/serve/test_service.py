"""SweepService behaviour: FIFO fairness, cancellation, dedupe
accounting, failure capture and the per-job journals."""

import os
import threading
import time

import pytest

from repro.errors import ServeError
from repro.runner import read_journal
from repro.serve import JobSpec, SweepService
from repro.session import Session


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise AssertionError("job stuck {}".format(job.state))
        time.sleep(0.01)
    return job


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(store=tmp_path / "store.sqlite",
                       spool=tmp_path / "spool")
    yield svc
    svc.close()


SWEEP = {"kind": "sweep", "design": "counter16",
         "freqs": [1e4, 1e5, 1e6]}


class TestLifecycle:
    def test_sweep_job_completes(self, service):
        job = service.submit(SWEEP)
        assert job.state in ("queued", "running", "done")
        _wait(job)
        assert job.state == "done"
        assert job.result["freqs"] == [1e4, 1e5, 1e6]
        assert set(job.result["series"]) == {"no-pg", "scpg",
                                             "scpg-max"}
        assert job.started >= job.submitted
        assert job.finished >= job.started
        assert job.latency > 0

    def test_status_dict_is_json_shaped(self, service):
        import json

        job = _wait(service.submit(SWEEP))
        status = json.loads(json.dumps(job.status_dict()))
        assert status["id"] == job.id
        assert status["state"] == "done"
        assert status["spec"] == JobSpec.from_dict(SWEEP).to_dict()
        assert status["dedupe"] == job.dedupe

    def test_unknown_job_id_raises(self, service):
        with pytest.raises(ServeError, match="unknown job id"):
            service.get("job-999999")

    def test_failed_job_keeps_the_error(self, service):
        job = _wait(service.submit(
            {"kind": "sweep", "design": "no_such_design",
             "freqs": [1e4]}))
        assert job.state == "failed"
        assert job.error and "no_such_design" in job.error
        assert job.result is None

    def test_compare_job(self, service):
        job = _wait(service.submit(
            {"kind": "compare", "design": "counter16",
             "freqs": [1e5, 1e6]}))
        assert job.state == "done", job.error
        assert job.result["design"]
        assert job.result["entries"]

    def test_family_sweep_job(self, service):
        job = _wait(service.submit(
            {"kind": "family_sweep", "family": "counter",
             "freqs": [1e5, 1e6], "axes": {"width": [4, 8]}}))
        assert job.state == "done", job.error
        designs = [d["design"] for d in job.result["designs"]]
        assert len(designs) == 2
        for block in job.result["designs"]:
            assert len(block["rows"]) == 2

    def test_submit_after_close_raises(self, tmp_path):
        svc = SweepService(store=None, spool=tmp_path / "s")
        svc.close()
        with pytest.raises(ServeError, match="closed"):
            svc.submit(SWEEP)


class TestFifoFairness:
    def test_jobs_start_in_submission_order(self, tmp_path):
        svc = SweepService(store=None, spool=tmp_path / "spool",
                           start=False)
        try:
            specs = [
                {"kind": "sweep", "design": "counter16",
                 "freqs": [1e4 * (i + 1)], "tenant": "t{}".format(i)}
                for i in range(5)
            ]
            jobs = [svc.submit(s) for s in specs]
            svc.start()
            for job in jobs:
                _wait(job)
            starts = [job.started for job in jobs]
            assert starts == sorted(starts)
            # And strictly serial: no job starts before the previous
            # one finished.
            for prev, job in zip(jobs, jobs[1:]):
                assert job.started >= prev.finished
        finally:
            svc.close()

    def test_jobs_listing_preserves_order_and_filters(self, tmp_path):
        svc = SweepService(store=None, spool=tmp_path / "spool",
                           start=False)
        try:
            a = svc.submit(dict(SWEEP, tenant="alice"))
            b = svc.submit(dict(SWEEP, tenant="bob"))
            c = svc.submit(dict(SWEEP, tenant="alice"))
            assert [j.id for j in svc.jobs()] == [a.id, b.id, c.id]
            assert [j.id for j in svc.jobs(tenant="alice")] \
                == [a.id, c.id]
        finally:
            svc.close()


class TestCancel:
    def test_queued_job_cancels(self, tmp_path):
        svc = SweepService(store=None, spool=tmp_path / "spool",
                           start=False)
        try:
            job = svc.submit(SWEEP)
            svc.cancel(job.id)
            assert job.state == "cancelled"
            assert job.finished is not None
            # A cancelled job never runs, even once the worker starts.
            svc.start()
            time.sleep(0.1)
            assert job.state == "cancelled"
            assert job.result is None
        finally:
            svc.close()

    def test_terminal_job_does_not_cancel(self, service):
        job = _wait(service.submit(SWEEP))
        with pytest.raises(ServeError, match="only queued"):
            service.cancel(job.id)

    def test_close_cancels_the_queue(self, tmp_path):
        svc = SweepService(store=None, spool=tmp_path / "spool",
                           start=False)
        job = svc.submit(SWEEP)
        svc.close()
        assert job.state == "cancelled"


class TestDedupeAccounting:
    def test_identical_jobs_dedupe_fully(self, service):
        first = _wait(service.submit(SWEEP))
        second = _wait(service.submit(SWEEP))
        assert first.cache_misses > 0
        assert first.cache_hits == 0
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_misses
        assert second.dedupe == 1.0

    def test_overlapping_jobs_dedupe_partially(self, service):
        _wait(service.submit(SWEEP))
        overlap = _wait(service.submit(
            {"kind": "sweep", "design": "counter16",
             "freqs": [1e4, 1e5, 1e6, 5e6]}))
        assert 0.0 < overlap.dedupe < 1.0
        # Exactly the 3 shared freqs x 3 modes hit; the new freq misses.
        assert overlap.cache_hits == 9
        assert overlap.cache_misses == 3

    def test_counts_and_metrics(self, service):
        _wait(service.submit(SWEEP))
        _wait(service.submit(SWEEP))
        counts = service.counts()
        assert counts["done"] == 2
        text = service.render_metrics()
        assert 'repro_serve_jobs{state="done"} 2' in text
        assert "repro_serve_dedupe_ratio 0.5" in text
        assert "repro_serve_job_seconds_count 2" in text
        # The session-level registry rides along.
        assert "repro_cache_hits_total" in text

    def test_metrics_scrapes_do_not_double_count(self, service):
        _wait(service.submit(SWEEP))
        service.render_metrics()
        text = service.render_metrics()
        assert "repro_serve_job_seconds_count 1" in text


class TestJournals:
    def test_every_job_gets_its_own_journal(self, service):
        a = _wait(service.submit(SWEEP))
        b = _wait(service.submit(dict(SWEEP, freqs=[5e6])))
        assert a.journal_path != b.journal_path
        for job in (a, b):
            assert os.path.exists(job.journal_path)
            events = [e["event"] for e in
                      read_journal(job.journal_path)]
            assert events[0] == "job_submitted"
            assert "job_started" in events
            assert "run_start" in events
            assert "point_finished" in events
            assert events[-1] == "job_finished"

    def test_accounting_event_carries_the_dedupe(self, service):
        _wait(service.submit(SWEEP))
        job = _wait(service.submit(SWEEP))
        events = read_journal(job.journal_path)
        acct = [e for e in events if e["event"] == "job_accounting"]
        assert len(acct) == 1
        assert acct[0]["cache_hits"] == job.cache_hits
        assert acct[0]["dedupe"] == 1.0

    def test_failed_job_journal_records_the_error(self, service):
        job = _wait(service.submit(
            {"kind": "sweep", "design": "nope", "freqs": [1e4]}))
        events = read_journal(job.journal_path)
        assert events[-1]["event"] == "job_failed"
        assert "nope" in events[-1]["error"]

    def test_session_journal_restored_after_each_job(self, tmp_path):
        session = Session(store=None,
                          journal=str(tmp_path / "session.jsonl"))
        svc = SweepService(session=session, spool=tmp_path / "spool")
        try:
            _wait(svc.submit(SWEEP))
            assert svc.session.runner.journal.path \
                == str(tmp_path / "session.jsonl")
        finally:
            svc.close()
            session.close()


class TestSharedSessionRules:
    def test_session_and_kwargs_are_exclusive(self):
        session = Session(store=None)
        try:
            with pytest.raises(ValueError, match="not both"):
                SweepService(session=session, workers=2)
        finally:
            session.close()

    def test_borrowed_session_stays_open(self, tmp_path):
        session = Session(store=None)
        svc = SweepService(session=session, spool=tmp_path / "spool")
        svc.close()
        handle = session.design("counter16")
        assert handle.sta().min_period > 0
        session.close()

    def test_concurrent_submitters_all_complete(self, service):
        jobs, lock = [], threading.Lock()

        def client(i):
            job = service.submit(
                {"kind": "sweep", "design": "counter16",
                 "freqs": [1e4 + i], "tenant": "t{}".format(i)})
            with lock:
                jobs.append(job)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(jobs) == 6
        assert len({j.id for j in jobs}) == 6
        for job in jobs:
            assert _wait(job).state == "done"
