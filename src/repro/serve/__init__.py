"""Sweep-as-a-service: an HTTP job API over one warm shared Session.

The package turns the library's batch machinery into a long-running
multi-tenant service:

* :class:`~repro.serve.jobs.JobSpec` -- the JSON wire form of one job
  (sweep / compare / family_sweep) with exact round-trip serialisation;
* :class:`~repro.serve.service.SweepService` -- FIFO job execution over
  one :class:`~repro.Session`, per-job JSONL journals (lifecycle lines
  plus the job's tracer spans), per-job cache
  hit/miss accounting (the cross-tenant dedupe measurement);
* :mod:`~repro.serve.http` -- the stdlib-asyncio HTTP front-end:
  job routes, Prometheus ``/metrics``, SSE progress streams;
* :class:`~repro.serve.client.ServeClient` -- a blocking stdlib client.

Point the service at an :class:`~repro.runner.SqliteStore`
(``Session(store="sweeps.sqlite")``) and several clients sweeping
overlapping grids pay for each distinct point once, service-wide::

    from repro.serve import serve_in_thread, ServeClient

    handle = serve_in_thread(workers=2, store="sweeps.sqlite")
    client = ServeClient(handle.host, handle.port)
    result = client.run({"kind": "sweep", "design": "mult16",
                         "freqs": [1e4, 1e5, 1e6]})
    handle.close()

Or from the command line: ``repro serve --port 8080 --workers 2
--store sweeps.sqlite``.
"""

from .client import ServeClient
from .http import ServeApp, ServerHandle, serve_forever, serve_in_thread
from .jobs import (
    KINDS,
    STATES,
    JobSpec,
    breakdown_to_dict,
    sweep_to_dict,
    table_rows_to_dicts,
)
from .service import Job, SweepService

__all__ = [
    "Job",
    "JobSpec",
    "KINDS",
    "STATES",
    "ServeApp",
    "ServeClient",
    "ServerHandle",
    "SweepService",
    "breakdown_to_dict",
    "serve_forever",
    "serve_in_thread",
    "sweep_to_dict",
    "table_rows_to_dicts",
]
