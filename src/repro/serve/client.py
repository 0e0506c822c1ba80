"""Minimal blocking client for the sweep service's HTTP API.

Built on ``http.client`` so the load/differential tests (and any script)
talk to the server over real sockets with nothing beyond the stdlib.
One :class:`ServeClient` is cheap; each call opens its own connection
(the server closes after every response anyway), so one client object
can be shared across threads -- which is exactly what the concurrency
tests do with eight of them hammering one server.
"""

from __future__ import annotations

import http.client
import json
import time

from ..errors import ServeError


class ServeClient:
    """Talk to a running ``repro serve`` endpoint.

    Parameters
    ----------
    host / port:
        Where the server listens (take them from
        :attr:`~repro.serve.http.ServerHandle.host` / ``.port`` in
        tests).
    tenant:
        Stamped onto every submitted spec that does not carry its own --
        how per-client accounting shows up in ``GET /jobs?tenant=``.
    timeout:
        Socket timeout per request, seconds.
    """

    def __init__(self, host, port, tenant=None, timeout=60.0):
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout = float(timeout)

    # -- transport -------------------------------------------------------------

    def _request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        try:
            data = json.loads(text) if text else None
        except ValueError:
            data = text
        return response.status, data

    def _expect(self, status, data, *allowed):
        if status not in allowed:
            message = data.get("error") if isinstance(data, dict) \
                else str(data)
            raise ServeError("server said {}: {}".format(status, message))
        return data

    # -- API -------------------------------------------------------------------

    def health(self):
        """The ``/healthz`` payload (raises when not healthy)."""
        status, data = self._request("GET", "/healthz")
        return self._expect(status, data, 200)

    def metrics(self):
        """The Prometheus text exposition, verbatim."""
        status, data = self._request("GET", "/metrics")
        return self._expect(status, data, 200)

    def submit(self, spec):
        """Submit a job spec (dict or :class:`~repro.serve.jobs.
        JobSpec`); returns the status dict (its ``id`` keys everything
        else)."""
        if hasattr(spec, "to_dict"):
            spec = spec.to_dict()
        else:
            spec = dict(spec)
        if self.tenant is not None:
            spec.setdefault("tenant", self.tenant)
        status, data = self._request("POST", "/jobs", payload=spec)
        return self._expect(status, data, 202)

    def jobs(self, tenant=None):
        """All job statuses (optionally one tenant's)."""
        path = "/jobs" if tenant is None else "/jobs?tenant=" + tenant
        status, data = self._request("GET", path)
        return self._expect(status, data, 200)

    def status(self, job_id):
        """One job's status dict."""
        status, data = self._request("GET", "/jobs/" + job_id)
        return self._expect(status, data, 200)

    def result(self, job_id):
        """A finished job's result payload.

        Raises :class:`~repro.errors.ServeError` while the job is still
        pending (409), and for failed (500) or cancelled (410) jobs.
        """
        status, data = self._request("GET",
                                     "/jobs/" + job_id + "/result")
        return self._expect(status, data, 200)["result"]

    def cancel(self, job_id):
        """Cancel a queued job; returns its status dict."""
        status, data = self._request("POST",
                                     "/jobs/" + job_id + "/cancel")
        return self._expect(status, data, 200)

    def wait(self, job_id, timeout=300.0, poll=0.05):
        """Block until a job reaches a terminal state; returns the final
        status dict.  Raises on timeout -- never on a failed job (the
        caller decides what a failure means)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() > deadline:
                raise ServeError(
                    "job {} still {} after {}s".format(
                        job_id, status["state"], timeout))
            time.sleep(poll)

    def run(self, spec, timeout=300.0):
        """Submit, wait, and return the result payload (raises when the
        job fails or is cancelled)."""
        job_id = self.submit(spec)["id"]
        final = self.wait(job_id, timeout=timeout)
        if final["state"] != "done":
            raise ServeError("job {} ended {}: {}".format(
                job_id, final["state"], final.get("error")))
        return self.result(job_id)

    def events(self, job_id, timeout=300.0):
        """The job's SSE stream as parsed journal lines (blocks until
        the stream ends): the job's lifecycle lines (``"event":
        "job_started"`` ...) and the tracer spans of its grids
        (``"event": "span"``; a ``grid`` span and an in-process
        ``point`` span appear twice, opening with ``"elapsed": null``
        and closing with their full attributes).  The terminal ``event:
        end`` status is NOT included -- it is the same dict
        :meth:`status` returns."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        events = []
        try:
            conn.request("GET", "/jobs/" + job_id + "/events")
            response = conn.getresponse()
            if response.status != 200:
                raise ServeError("server said {} on events stream".format(
                    response.status))
            ended = False
            for raw in response:
                line = raw.decode("utf-8", "replace").strip()
                if line == "event: end":
                    ended = True
                elif line.startswith("data: ") and not ended:
                    try:
                        events.append(json.loads(line[len("data: "):]))
                    except ValueError:
                        continue
        finally:
            conn.close()
        return events

    def __repr__(self):
        return "ServeClient(http://{}:{}, tenant={!r})".format(
            self.host, self.port, self.tenant)
