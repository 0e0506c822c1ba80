"""The content-addressed result store: one SQLite database file.

Every entry is keyed by a :mod:`~repro.runner.fingerprint` digest of what
was evaluated and of the package source that evaluated it
(:func:`~repro.runner.fingerprint.code_digest`), so the store never
needs a dependency graph: editing the design, the library or the code
changes the key, and the stale entry is simply never looked up again.
Entries are disposable -- deleting the file only costs recomputation.
Explicit invalidation (:meth:`SqliteStore.invalidate`,
:meth:`SqliteStore.clear`) exists for operators who want the space back
or distrust an entry; :meth:`SqliteStore.prune` (``repro cache prune``)
drops the rows filed under any other code digest, which each row records.
Reads and writes are batched (:meth:`SqliteStore.lookup_many`,
:meth:`SqliteStore.put_many`); the single-key calls are one-element
batches.

Why SQLite:

* **one file, many writers** -- the database runs in WAL mode, so many
  processes (the serve front-end, its worker pool, an offline CLI run
  pointed at the same store) read concurrently while writers serialise
  through SQLite's own locking, with a ``busy_timeout`` instead of
  "database is locked" errors under load;
* **crash recovery is SQLite's** -- a process killed mid-``put_many``
  leaves a WAL journal that the next opener replays or rolls back;
  committed batches survive, torn ones vanish;
* **content-addressed, multi-tenant dedupe** -- two tenants sweeping
  overlapping grids share entries byte-for-byte, and per-job hit/miss
  deltas measure exactly how much work one tenant saved another.

Values are pickled.  Misses are accounted in two columns: ``absent`` --
the entry simply was not there -- and ``corrupt`` -- a row existed but
its bytes would not unpickle (a torn write planted from outside the
store, a truncated copy).  ``misses`` is always their sum.  A corrupt
row is cleaned compare-before-delete: the reader only removes the exact
bytes it failed to read, never a concurrent writer's repair that landed
in between.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import time

from ..errors import RunnerError
from ..obs.trace import layer
from .fingerprint import code_digest, hashes_under, stable_hash

#: Namespace of every entry key, beside the package's code digest.
CACHE_SCHEMA = "repro-cache-v1"

#: Environment variable naming the directory that holds the default
#: store.  Unset, empty, "0", "off" or "none" disable it (library users
#: opt in explicitly).
CACHE_ENV = "REPRO_CACHE_DIR"

#: File name of the default store inside :data:`CACHE_ENV`'s directory.
STORE_FILE = "results.sqlite"

#: Bump when the table layout changes; a mismatched file fails loudly at
#: open instead of being misread (the ``digest`` column is added in place).
SQLITE_SCHEMA = "repro-sqlite-store-v1"

#: Keys per ``SELECT ... IN``: the bound-parameter limit of SQLite builds
#: older than 3.32.
MAX_PARAMS = 999

#: What a store-side write failure raises (disk full, a locked file).
STORE_ERRORS = (OSError, sqlite3.Error)

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key     TEXT PRIMARY KEY,
    value   BLOB NOT NULL,
    created REAL NOT NULL,
    digest  TEXT NOT NULL DEFAULT ''
);
"""


class SqliteStore:
    """A content-addressed pickle store inside one SQLite database.

    Parameters
    ----------
    path:
        Database file (created on first open; its parent directory is
        created when missing).
    timeout:
        Seconds a writer waits on SQLite's lock before giving up
        (forwarded as ``busy_timeout``); generous by default because
        serve-path writers genuinely contend.

    Every row records the code digest it was written under; pruning the
    others is explicit, never done on open, because two checkouts may
    share one store.

    Connections are per-thread (SQLite objects must not cross threads);
    separate processes open their own stores on the same file and
    coordinate through SQLite's locking.  A path that is a directory,
    or a file that is not a store of this layout, raises
    :class:`~repro.errors.RunnerError` naming the path.
    """

    def __init__(self, path, timeout=30.0):
        self.path = str(path)
        self.timeout = float(timeout)
        self.hits = 0
        self.misses = 0
        self.absent = 0
        self.corrupt = 0
        self.puts = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        # Fail at construction, not first lookup: create the file, the
        # schema and the WAL journal now, and reject a foreign layout.
        self._conn()

    # -- connection management ------------------------------------------------

    def _conn(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open()
            self._local.conn = conn
        return conn

    def _open(self):
        if os.path.isdir(self.path):
            raise RunnerError(
                "result store {} is a directory; the store is one SQLite "
                "file (old *.pkl cache directories are no longer read)"
                .format(self.path))
        try:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=self.timeout)
        except (OSError, sqlite3.Error) as exc:
            raise RunnerError("cannot open result store {}: {}".format(
                self.path, exc)) from exc
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "PRAGMA busy_timeout={}".format(int(self.timeout * 1000)))
            conn.executescript(_DDL)
            row = conn.execute(
                "SELECT value FROM meta WHERE name='schema'").fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta(name, value) "
                    "VALUES('schema', ?)", (SQLITE_SCHEMA,))
                conn.commit()
            elif row[0] == SQLITE_SCHEMA:
                try:    # a file from before rows recorded their digest
                    conn.execute("ALTER TABLE entries ADD COLUMN "
                                 "digest TEXT NOT NULL DEFAULT ''")
                except sqlite3.OperationalError as exc:
                    if "duplicate column" not in str(exc):
                        raise
        except sqlite3.Error as exc:
            conn.close()
            raise RunnerError("cannot open result store {}: {}".format(
                self.path, exc)) from exc
        if row is not None and row[0] != SQLITE_SCHEMA:
            conn.close()
            raise RunnerError(
                "{} holds schema {!r}, this build reads {!r}".format(
                    self.path, row[0], SQLITE_SCHEMA))
        return conn

    def close(self):
        """Close this thread's connection (others close on their own
        thread or at interpreter exit; the file stays valid either way)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- the store interface ---------------------------------------------------

    def key_for(self, *parts):
        """Derive an entry key from canonicalisable ``parts``, salted
        with :data:`CACHE_SCHEMA` and the package's
        :func:`~repro.runner.fingerprint.code_digest` (which raises
        :class:`~repro.errors.RunnerError` when the source is
        unreadable: no key may cover no code)."""
        return stable_hash(CACHE_SCHEMA, code_digest(), *parts)

    def key_maker(self, *parts):
        """``item -> key_for(*parts, fingerprint(item))``, with the
        salted prefix canonicalised once (for the many points of one
        grid or search)."""
        return hashes_under(CACHE_SCHEMA, code_digest(), *parts)

    @layer("runner.store_get")
    def lookup_many(self, keys):
        """``[(hit, value)]``, one per key of ``keys`` in order; counts
        each hit or (absent or corrupt) miss.  A repeated key reads as
        often as it is given, as successive :meth:`lookup` calls would."""
        keys = list(keys)
        distinct = list(dict.fromkeys(keys))
        conn = self._conn()
        rows = {}
        for lo in range(0, len(distinct), MAX_PARAMS):
            part = distinct[lo:lo + MAX_PARAMS]
            rows.update(conn.execute(
                "SELECT key, value FROM entries WHERE key IN ({})".format(
                    ",".join("?" * len(part))), part))
        out = []
        for key in keys:
            data = rows.get(key)
            if data is None:
                self.absent += 1
            else:
                try:
                    out.append((True, pickle.loads(data)))
                    self.hits += 1
                    continue
                except Exception:
                    # Corrupt bytes can raise nearly anything: a miss,
                    # and the row is deleted for the next writer to fix.
                    del rows[key]
                    self._drop_if_unchanged(key, data)
                    self.corrupt += 1
            self.misses += 1
            out.append((False, None))
        return out

    def lookup(self, key):
        """``(hit, value)`` for ``key``: :meth:`lookup_many` of one."""
        return self.lookup_many((key,))[0]

    def get(self, key, default=None):
        """Value for ``key`` or ``default``; counts the hit or miss."""
        hit, value = self.lookup(key)
        return value if hit else default

    def reclassify_hit_as_miss(self):
        """Move the most recently counted hit to the miss column.

        For callers to whom a stored value is unusable -- e.g. a search
        loop reading a persisted infeasible marker it must recompute --
        so the store's own ledger and the caller's stats agree on what
        the lookup meant.
        """
        self.hits -= 1
        self.misses += 1

    @layer("runner.store_put")
    def put_many(self, items):
        """Store every ``(key, value)`` of ``items`` in one transaction
        (last writer wins) under the current code digest; returns the
        number written.  Values that will not pickle are skipped; a
        store-side failure raises one of :data:`STORE_ERRORS`."""
        digest = code_digest()
        now = time.time()
        rows = []
        for key, value in items:
            try:
                blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError):
                continue
            rows.append((key, sqlite3.Binary(blob), now, digest))
        if rows:
            self._execute(
                "INSERT INTO entries(key, value, created, digest) "
                "VALUES(?, ?, ?, ?) ON CONFLICT(key) DO UPDATE SET "
                "value=excluded.value, created=excluded.created, "
                "digest=excluded.digest", rows)
            self.puts += len(rows)
        return len(rows)

    def put(self, key, value):
        """Store ``value`` under ``key``: :meth:`put_many` of one;
        ``True`` when it was written."""
        return self.put_many(((key, value),)) == 1

    def writeback(self, key, value):
        """Best-effort :meth:`put`: a store-side problem degrades to
        "not stored" rather than fail the run; ``True`` when stored."""
        try:
            return self.put(key, value)
        except STORE_ERRORS:
            return False

    def prune(self):
        """Drop every entry filed under another code digest (a current
        writer's rows are never among them); returns the number."""
        return self._execute("DELETE FROM entries WHERE digest != ?",
                             (code_digest(),))

    def invalidate(self, key):
        """Drop one entry; returns True when it existed."""
        return self._execute(
            "DELETE FROM entries WHERE key=?", (key,)) > 0

    def clear(self):
        """Drop every entry; returns the number removed."""
        return self._execute("DELETE FROM entries")

    def _drop_if_unchanged(self, key, observed):
        """Drop ``key`` only while it still holds ``observed`` bytes (the
        WHERE clause never matches a concurrent writer's repair)."""
        return self._execute(
            "DELETE FROM entries WHERE key=? AND value=?",
            (key, observed)) > 0

    def _execute(self, sql, params=()):
        """One statement (once per row for a list of rows) in one
        transaction; returns the rows changed."""
        conn = self._conn()
        with self._lock, conn:
            run = conn.executemany if isinstance(params, list) \
                else conn.execute
            return run(sql, params).rowcount

    def __len__(self):
        return self._conn().execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0]

    def __contains__(self, key):
        return self._conn().execute(
            "SELECT 1 FROM entries WHERE key=?", (key,)).fetchone() \
            is not None

    def __repr__(self):
        return "SqliteStore({!r}, hits={}, misses={})".format(
            self.path, self.hits, self.misses)


def open_store(spec):
    """A store from a user-facing spec.

    ``Session(store=...)``, ``Runner(cache=...)`` and ``repro --cache`` /
    ``repro serve --store`` accept either an existing
    :class:`SqliteStore` (returned as-is) or the path of its database
    file (conventionally ``*.sqlite``).
    """
    if isinstance(spec, SqliteStore):
        return spec
    return SqliteStore(os.path.expanduser(str(spec)))


def default_cache(env=os.environ):
    """The store in the directory named by ``REPRO_CACHE_DIR`` (one
    :data:`STORE_FILE` inside it), or ``None`` when unset.

    Caching is opt-in for library users, who choose where a persistent
    file may grow.  Its entries cannot outlive the code that computed
    them: every key covers the package source, so after any edit the
    store recomputes instead of serving an old result.
    """
    root = env.get(CACHE_ENV, "").strip()
    if not root or root.lower() in ("0", "off", "none"):
        return None
    return SqliteStore(os.path.join(os.path.expanduser(root), STORE_FILE))
