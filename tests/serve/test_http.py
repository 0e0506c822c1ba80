"""HTTP front-end: routes, status codes, SSE streaming, metrics.

Everything runs against a real server on a real socket (``port=0``
picks a free one); the client is the stdlib-only
:class:`repro.serve.ServeClient`, same as the load benchmark uses.
"""

import http.client
import json

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, SweepService, serve_in_thread

SWEEP = {"kind": "sweep", "design": "counter16",
         "freqs": [1e4, 1e5, 1e6]}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-http")
    handle = serve_in_thread(store=str(tmp / "store.sqlite"),
                             spool=str(tmp / "spool"))
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.host, server.port, tenant="pytest")


def _raw(server, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=30.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        text = response.read().decode()
    finally:
        conn.close()
    return response.status, text


class TestRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done",
                                       "failed", "cancelled"}

    def test_submit_wait_result(self, client):
        status = client.submit(SWEEP)
        assert status["state"] in ("queued", "running", "done")
        assert status["spec"]["tenant"] == "pytest"
        final = client.wait(status["id"])
        assert final["state"] == "done"
        result = client.result(status["id"])
        assert result["freqs"] == [1e4, 1e5, 1e6]
        assert set(result["series"]) == {"no-pg", "scpg", "scpg-max"}

    def test_jobs_listing_and_tenant_filter(self, client):
        client.run(SWEEP)
        everyone = client.jobs()
        mine = client.jobs(tenant="pytest")
        nobody = client.jobs(tenant="ghost")
        assert len(everyone) >= len(mine) >= 1
        assert nobody == []
        assert all(j["spec"]["tenant"] == "pytest" for j in mine)

    def test_unknown_job_is_404(self, server, client):
        status, text = _raw(server, "GET", "/jobs/job-999999")
        assert status == 404
        assert "unknown job id" in json.loads(text)["error"]
        with pytest.raises(ServeError, match="404"):
            client.status("job-999999")

    def test_unknown_route_is_404(self, server):
        status, _ = _raw(server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _ = _raw(server, "DELETE", "/jobs")
        assert status == 405

    def test_bad_json_is_400(self, server):
        status, text = _raw(server, "POST", "/jobs", body="not json{")
        assert status == 400
        assert "JSON" in json.loads(text)["error"]

    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.submit({"kind": "sweep", "design": "counter16",
                           "freqs": []})

    def test_unknown_spec_field_is_400(self, server):
        status, text = _raw(server, "POST", "/jobs",
                            body=json.dumps(dict(SWEEP, surprise=1)))
        assert status == 400
        assert "surprise" in json.loads(text)["error"]

    def test_oversized_body_is_413(self, server):
        status, _ = _raw(server, "POST", "/jobs",
                         body="x" * (2 << 20))
        assert status == 413

    def test_failed_job_result_is_500(self, client):
        status = client.submit({"kind": "sweep", "design": "missing",
                                "freqs": [1e4]})
        final = client.wait(status["id"])
        assert final["state"] == "failed"
        with pytest.raises(ServeError, match="500"):
            client.result(status["id"])


class TestResultStates:
    def test_pending_result_is_409_and_cancel_flow(self, tmp_path):
        service = SweepService(store=None,
                               spool=tmp_path / "spool", start=False)
        handle = serve_in_thread(service=service)
        try:
            client = ServeClient(handle.host, handle.port)
            job_id = client.submit(SWEEP)["id"]
            with pytest.raises(ServeError, match="409"):
                client.result(job_id)
            cancelled = client.cancel(job_id)
            assert cancelled["state"] == "cancelled"
            # Result of a cancelled job: 410.
            with pytest.raises(ServeError, match="410"):
                client.result(job_id)
            # Cancelling twice: 409 with the reason.
            with pytest.raises(ServeError, match="409"):
                client.cancel(job_id)
        finally:
            handle.close()
            service.close()


class TestEvents:
    def test_sse_stream_replays_the_job_journal(self, client):
        job_id = client.submit(dict(SWEEP, freqs=[2e4, 2e5]))["id"]
        client.wait(job_id)
        events = client.events(job_id)
        names = [e["event"] for e in events]
        assert names[0] == "job_submitted"
        assert "run_start" in names
        assert names.count("point_finished") >= 6  # 2 freqs x 3 modes
        assert "job_accounting" in names
        assert names[-1] == "job_finished"

    def test_sse_frames_are_wellformed(self, server, client):
        job_id = client.submit(dict(SWEEP, freqs=[3e4]))["id"]
        client.wait(job_id)
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30.0)
        try:
            conn.request("GET", "/jobs/" + job_id + "/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") \
                == "text/event-stream"
            raw = response.read().decode()
        finally:
            conn.close()
        frames = [f for f in raw.split("\n\n") if f.strip()]
        assert frames[-1].startswith("event: end\ndata: ")
        end_status = json.loads(
            frames[-1].split("\ndata: ", 1)[1])
        assert end_status["id"] == job_id
        assert end_status["state"] == "done"
        for frame in frames[:-1]:
            assert frame.startswith("data: ")
            json.loads(frame[len("data: "):])


class TestMetrics:
    def test_prometheus_exposition(self, client):
        client.run(SWEEP)
        text = client.metrics()
        assert "# TYPE repro_serve_jobs gauge" in text
        assert 'repro_serve_jobs{state="done"}' in text
        assert "repro_serve_dedupe_ratio" in text
        assert "repro_serve_job_seconds_bucket" in text
        assert "repro_cache_hits_total" in text
        assert "repro_points_total" in text
