"""Serve-path load benchmark: concurrent clients, overlapping grids.

Eight clients hammer one running serve endpoint over real sockets, two
waves each:

* **wave 1** -- every client sweeps a grid that is half *shared* (all
  clients ask for the same frequencies) and half *private* (per-client
  frequencies nobody else asks for).  The shared half is computed once,
  service-wide; the private halves miss.
* **wave 2** -- every client sweeps the *union* grid (everything wave 1
  touched plus a few brand-new frequencies).  All but the new points are
  already in the store, whoever paid for them, so per-job dedupe must
  clear the ISSUE's >50% floor -- measured cross-client cache fan-in,
  not a warm-process artefact (each point was computed by at most one
  job, the hits land in *other* clients' jobs).

Also checked here, because load is where they would break:

* **fairness** -- jobs start strictly in submission order (FIFO), no
  client starves another;
* **bit-exactness under load** -- a wave-2 result fetched over HTTP
  equals the offline ``Session.sweep()`` float-for-float.

The measurement is emitted as a ``repro-bench-sweep-v2`` JSON section
(``REPRO_BENCH_SERVE_JSON=path``) gated by
``scripts/check_bench_regression.py`` on ``dedupe_ratio``; set
``REPRO_BENCH_SERVE_SPOOL=dir`` to keep the per-job journals (CI
uploads them as a build artifact).
"""

import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_SCHEMA = "repro-bench-sweep-v2"
DESIGN = "mult16"
CLIENTS = 8
#: Grid shared by every wave-1 client (computed once, service-wide).
SHARED_FREQS = [10 ** (4 + 0.25 * k) for k in range(8)]
#: Per-client private frequencies (unique work per wave-1 job).
PRIVATE_PER_CLIENT = 2
#: Frequencies nobody asked for until wave 2 (keeps wave-2 dedupe < 1).
NEW_IN_WAVE2 = [10 ** (6.1 + 0.2 * k) for k in range(3)]
MIN_WAVE2_DEDUPE = 0.5

_ENV_OUT = "REPRO_BENCH_SERVE_JSON"
_ENV_SPOOL = "REPRO_BENCH_SERVE_SPOOL"

from .conftest import emit


def _private_freqs(client):
    return [10 ** (4.1 + 0.2 * k + 0.01 * client)
            for k in range(PRIVATE_PER_CLIENT)]


def _quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def test_serve_load_dedupe_and_fairness(tmp_path):
    from repro.serve import ServeClient, serve_in_thread
    from repro.serve.jobs import sweep_to_dict
    from repro.session import Session

    value = os.environ.get("REPRO_BENCH_WORKERS", "")
    workers = int(value) if value.strip() else 2
    spool = os.environ.get(_ENV_SPOOL, "").strip() \
        or str(tmp_path / "spool")
    handle = serve_in_thread(workers=workers,
                             store=str(tmp_path / "store.sqlite"),
                             spool=spool)
    union = sorted(set(SHARED_FREQS)
                   | {f for c in range(CLIENTS)
                      for f in _private_freqs(c)}
                   | set(NEW_IN_WAVE2))
    try:
        clients = [ServeClient(handle.host, handle.port,
                               tenant="client-{}".format(c))
                   for c in range(CLIENTS)]

        def wave(grids):
            def one(pair):
                client, freqs = pair
                submitted = client.submit(
                    {"kind": "sweep", "design": DESIGN,
                     "freqs": freqs})
                return client.wait(submitted["id"], timeout=600.0)

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                finals = list(pool.map(one, zip(clients, grids)))
            return finals, time.perf_counter() - start

        wave1, wave1_s = wave(
            [SHARED_FREQS + _private_freqs(c) for c in range(CLIENTS)])
        wave2, wave2_s = wave([union] * CLIENTS)

        for final in wave1 + wave2:
            assert final["state"] == "done", final["error"]

        # -- dedupe: the shared half was computed once, service-wide ----
        wave1_hits = sum(f["cache_hits"] for f in wave1)
        wave1_misses = sum(f["cache_misses"] for f in wave1)
        # 3 modes x (shared once + private per client + nothing else).
        assert wave1_misses == 3 * (len(SHARED_FREQS)
                                    + CLIENTS * PRIVATE_PER_CLIENT)
        wave2_dedupes = [f["dedupe"] for f in wave2]
        wave2_dedupe = sum(wave2_dedupes) / len(wave2_dedupes)
        wave2_misses = sum(f["cache_misses"] for f in wave2)
        assert wave2_misses == 3 * len(NEW_IN_WAVE2)  # only the new pts
        assert min(wave2_dedupes) > MIN_WAVE2_DEDUPE
        overall = wave1_hits + sum(f["cache_hits"] for f in wave2)
        lookups = overall + wave1_misses + wave2_misses
        dedupe_ratio = overall / lookups

        # -- fairness: strict FIFO under concurrent submitters ----------
        statuses = clients[0].jobs()
        assert len(statuses) == 2 * CLIENTS
        starts = [s["started"] for s in statuses]
        assert starts == sorted(starts), "a job started out of order"
        finishes = [s["finished"] for s in statuses]
        for prev_finish, start in zip(finishes, starts[1:]):
            assert start >= prev_finish  # strictly serial execution

        # -- bit-exactness under load -----------------------------------
        offline = Session(store=None)
        expected = json.loads(json.dumps(
            sweep_to_dict(offline.design(DESIGN).sweep(union))))
        offline.close()
        under_load = clients[3].result(wave2[3]["id"])
        assert under_load == expected

        latencies = [s["latency"] for s in statuses]
        payload = {
            "schema": BENCH_SCHEMA,
            "design": DESIGN,
            "python": platform.python_version(),
            "platform": sys.platform,
            "measurements": {
                "serve": {
                    "clients": CLIENTS,
                    "jobs": len(statuses),
                    "workers": workers,
                    "grid_points": 3 * len(union),
                    "dedupe_ratio": round(dedupe_ratio, 3),
                    "wave2_dedupe": round(wave2_dedupe, 3),
                    "wave1_s": round(wave1_s, 6),
                    "wave2_s": round(wave2_s, 6),
                    "latency_p50_s": round(_quantile(latencies, 0.50), 6),
                    "latency_p95_s": round(_quantile(latencies, 0.95), 6),
                },
            },
        }
        emit("Serve load ({} clients, {} workers)".format(
            CLIENTS, workers), json.dumps(payload, indent=2,
                                          sort_keys=True))
        out_path = os.environ.get(_ENV_OUT, "").strip()
        if out_path:
            with open(out_path, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
        if os.environ.get(_ENV_SPOOL, "").strip():
            emit("Job journals", "kept under {}".format(spool))
    finally:
        handle.close()
