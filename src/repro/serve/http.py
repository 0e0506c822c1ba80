"""Asyncio HTTP front-end for the sweep service (stdlib only).

The server is a hand-rolled HTTP/1.1 implementation on
``asyncio.start_server`` -- no web framework in the toolchain, and the
protocol surface is small enough that one is pure weight: request line,
headers, an optional JSON body, JSON (or Prometheus text, or SSE) back.

Routes
------

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
GET    ``/healthz``                 liveness + job counts
GET    ``/metrics``                 Prometheus text exposition
POST   ``/jobs``                    submit a job spec; ``202`` + status
GET    ``/jobs``                    all job statuses (``?tenant=`` filters)
GET    ``/jobs/<id>``               one job's status
GET    ``/jobs/<id>/result``        result payload (``409`` until terminal)
POST   ``/jobs/<id>/cancel``        cancel a queued job
GET    ``/jobs/<id>/events``        SSE stream tailing the job's journal
====== ============================ ==========================================

The event stream is a live tail of the per-job JSONL journal: each line
-- the job's lifecycle lines (``job_submitted``, ``job_started``,
``job_accounting``, ``job_finished`` ...) and the tracer spans of its
grids (``"event": "span"`` with ``name`` ``grid``, ``point``, ``batch``,
``chunk`` ...) -- becomes one ``data:`` frame, so a client watches its
sweep make progress; the stream ends once the job is terminal and the
file is drained.

Blocking service calls (``submit`` validates, the rest are dict reads)
are cheap, so handlers call the :class:`~repro.serve.service.
SweepService` directly from the event loop; the actual sweeps run on the
service's own worker thread, never on the loop.
"""

from __future__ import annotations

import asyncio
import json
import threading

from ..errors import ServeError

#: Largest accepted request body; a job spec is tiny, anything larger
#: is a mistake or mischief.
MAX_BODY = 1 << 20

#: Most oversized-body bytes drained before giving up on the client
#: reading its 413 (and seconds allowed for the drain).
DISCARD_CAP = 8 << 20
DISCARD_TIMEOUT = 10.0

#: Seconds between journal polls on the SSE path.
EVENT_POLL = 0.05

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 500: "Internal Server Error",
}

#: Job states that stop the SSE tail once the journal is drained.
_TERMINAL = ("done", "failed", "cancelled")


def _response(status, body, content_type="application/json"):
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    elif isinstance(body, str):
        body = body.encode()
    head = ("HTTP/1.1 {} {}\r\n"
            "Content-Type: {}\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n"
            "\r\n").format(status, _REASONS.get(status, "?"),
                           content_type, len(body))
    return head.encode() + body


def _error(status, message):
    return _response(status, {"error": message})


async def _read_request(reader):
    """``(method, path, query, headers, body)`` or ``None`` on EOF/junk."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, target, _version = parts
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY:
        return method, target, {}, headers, b"__too_large__"
    body = await reader.readexactly(length) if length else b""
    path, _, query_text = target.partition("?")
    query = {}
    for pair in query_text.split("&"):
        if "=" in pair:
            name, _, value = pair.partition("=")
            query[name] = value
    return method, path, query, headers, body


class ServeApp:
    """Routes HTTP requests onto a :class:`~repro.serve.service.
    SweepService` (one app per service; the server wires connections to
    :meth:`handle`)."""

    def __init__(self, service):
        self.service = service

    async def handle(self, reader, writer):
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, query, _headers, body = request
            if body == b"__too_large__":
                writer.write(_error(413, "request body too large"))
                await writer.drain()
                # The client is still sending the body it declared;
                # closing now RSTs the socket under those unread bytes
                # and the 413 never reaches it.  Drain (bounded) so a
                # well-behaved client finishes its send and reads the
                # rejection.
                await self._discard(
                    reader,
                    int(_headers.get("content-length", 0) or 0))
            else:
                await self._dispatch(method, path, query, body, writer)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError lands when the loop shuts down while a
                # connection drains; the task ends right here either
                # way, so completing quietly beats a logged traceback.
                pass

    @staticmethod
    async def _discard(reader, remaining):
        remaining = min(remaining, DISCARD_CAP)

        async def drain():
            left = remaining
            while left > 0:
                chunk = await reader.read(min(65536, left))
                if not chunk:
                    return
                left -= len(chunk)

        try:
            await asyncio.wait_for(drain(), DISCARD_TIMEOUT)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _dispatch(self, method, path, query, body, writer):
        if path == "/healthz" and method == "GET":
            writer.write(_response(200, {
                "status": "ok", "jobs": self.service.counts()}))
            return
        if path == "/metrics" and method == "GET":
            writer.write(_response(
                200, self.service.render_metrics(),
                content_type="text/plain; version=0.0.4"))
            return
        if path == "/jobs":
            if method == "POST":
                writer.write(self._submit(body))
            elif method == "GET":
                jobs = self.service.jobs(tenant=query.get("tenant"))
                writer.write(_response(
                    200, [job.status_dict() for job in jobs]))
            else:
                writer.write(_error(405, "use GET or POST on /jobs"))
            return
        if path.startswith("/jobs/"):
            await self._job_route(method, path, writer)
            return
        writer.write(_error(404, "no route {}".format(path)))

    def _submit(self, body):
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            return _error(400, "body must be JSON")
        try:
            job = self.service.submit(payload)
        except ServeError as exc:
            return _error(400, str(exc))
        return _response(202, job.status_dict())

    async def _job_route(self, method, path, writer):
        parts = path.split("/")  # ['', 'jobs', <id>] or + [<action>]
        job_id = parts[2] if len(parts) > 2 else ""
        action = parts[3] if len(parts) > 3 else None
        try:
            job = self.service.get(job_id)
        except ServeError as exc:
            writer.write(_error(404, str(exc)))
            return
        if action is None and method == "GET":
            writer.write(_response(200, job.status_dict()))
        elif action == "result" and method == "GET":
            writer.write(self._result(job))
        elif action == "cancel" and method == "POST":
            try:
                job = self.service.cancel(job.id)
            except ServeError as exc:
                writer.write(_error(409, str(exc)))
                return
            writer.write(_response(200, job.status_dict()))
        elif action == "events" and method == "GET":
            await self._events(job, writer)
        else:
            writer.write(_error(405, "no {} on {}".format(method, path)))

    @staticmethod
    def _result(job):
        if job.state == "done":
            return _response(200, {"id": job.id, "result": job.result})
        if job.state == "failed":
            return _response(500, {"id": job.id, "error": job.error})
        if job.state == "cancelled":
            return _error(410, "job {} was cancelled".format(job.id))
        return _error(409, "job {} is {}; result not ready".format(
            job.id, job.state))

    async def _events(self, job, writer):
        """Server-sent events: tail the job journal line by line until
        the job is terminal and the file is drained."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        offset = 0
        while True:
            terminal = job.state in _TERMINAL
            chunk, offset = self._tail(job.journal_path, offset)
            for line in chunk:
                writer.write(b"data: " + line.encode() + b"\n\n")
            if chunk:
                await writer.drain()
            if terminal and not chunk:
                writer.write(b"event: end\ndata: " +
                             json.dumps(job.status_dict()).encode() +
                             b"\n\n")
                await writer.drain()
                return
            if not chunk:
                await asyncio.sleep(EVENT_POLL)

    @staticmethod
    def _tail(path, offset):
        """Complete journal lines past ``offset`` and the new offset
        (a torn final line stays unconsumed until its newline lands)."""
        try:
            with open(path, "rb") as f:
                f.seek(offset)
                data = f.read()
        except FileNotFoundError:
            return [], offset
        keep = data.rfind(b"\n") + 1
        lines = [line.decode("utf-8", "replace")
                 for line in data[:keep].splitlines() if line.strip()]
        return lines, offset + keep


class ServerHandle:
    """A running server: ``host``/``port`` to reach it, ``close()`` to
    stop it (thread-safe; usable as a context manager)."""

    def __init__(self, host, port, loop, server, thread, service,
                 owns_service):
        self.host = host
        self.port = port
        self._loop = loop
        self._server = server
        self._thread = thread
        self.service = service
        self._owns_service = owns_service
        self._closed = False

    @property
    def url(self):
        return "http://{}:{}".format(self.host, self.port)

    def close(self):
        """Stop accepting, drain the loop, join the thread; closes a
        handle-owned service too (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._server.close)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if self._owns_service:
            self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return "ServerHandle({})".format(self.url)


def serve_in_thread(service=None, host="127.0.0.1", port=0, **kwargs):
    """Run the HTTP server on a daemon thread; returns a
    :class:`ServerHandle` once the socket is listening.

    ``service=None`` builds a :class:`~repro.serve.service.SweepService`
    from ``kwargs`` and ties its lifetime to the handle.  ``port=0``
    picks a free port (the handle reports which) -- the test-suite mode.
    """
    from .service import SweepService

    owns = service is None
    if owns:
        service = SweepService(**kwargs)
    elif kwargs:
        raise ValueError("pass either service or service kwargs, not both")
    app = ServeApp(service)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    box = {}

    def _run():
        asyncio.set_event_loop(loop)

        async def _start():
            server = await asyncio.start_server(
                app.handle, host=host, port=port)
            box["server"] = server
            box["port"] = server.sockets[0].getsockname()[1]
            started.set()

        loop.run_until_complete(_start())
        try:
            loop.run_forever()
        finally:
            _drain_loop(loop)

    thread = threading.Thread(target=_run, name="repro-serve-http",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise ServeError("server failed to start listening")
    return ServerHandle(host, box["port"], loop, box["server"], thread,
                        service, owns)


def _drain_loop(loop):
    """Finish cancelled tasks and close the loop cleanly."""
    pending = asyncio.all_tasks(loop)
    for task in pending:
        task.cancel()
    if pending:
        loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True))
    loop.run_until_complete(loop.shutdown_asyncgens())
    loop.close()


def serve_forever(service, host="127.0.0.1", port=8080):
    """Blocking server for the ``repro serve`` CLI; returns on
    KeyboardInterrupt."""
    app = ServeApp(service)

    async def _main():
        server = await asyncio.start_server(app.handle, host=host,
                                            port=port)
        addr = server.sockets[0].getsockname()
        print("repro serve listening on http://{}:{}".format(
            addr[0], addr[1]))
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
