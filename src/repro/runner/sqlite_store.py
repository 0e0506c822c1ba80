"""The content-addressed result store: one SQLite database file.

Every entry is keyed by a :mod:`~repro.runner.fingerprint` digest of what
was evaluated, so the store never needs a dependency graph: editing the
design or the library changes the key, and the stale entry is simply
never looked up again.  Entries are disposable -- deleting the file only
costs recomputation.  Explicit invalidation (:meth:`SqliteStore.
invalidate`, :meth:`SqliteStore.clear`) exists for operators who want
the space back or distrust an entry.

Why SQLite:

* **one file, many writers** -- the database runs in WAL mode, so many
  processes (the serve front-end, its worker pool, an offline CLI run
  pointed at the same store) read concurrently while writers serialise
  through SQLite's own locking, with a ``busy_timeout`` instead of
  "database is locked" errors under load;
* **crash recovery is SQLite's** -- a process killed mid-``put`` leaves
  a WAL journal that the next opener replays or rolls back; committed
  entries survive, torn ones vanish;
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
from .fingerprint import stable_hash

#: Bump when the key format changes; old entries become unreachable
#: instead of being misread.
CACHE_SCHEMA = "repro-cache-v1"

#: Environment variable naming the directory that holds the default
#: store.  Unset, empty, "0", "off" or "none" disable it (library users
#: opt in explicitly).
CACHE_ENV = "REPRO_CACHE_DIR"

#: File name of the default store inside :data:`CACHE_ENV`'s directory.
STORE_FILE = "results.sqlite"

#: Bump when the table layout changes; a mismatched file fails loudly at
#: open instead of being misread.
SQLITE_SCHEMA = "repro-sqlite-store-v1"

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key     TEXT PRIMARY KEY,
    value   BLOB NOT NULL,
    created REAL NOT NULL
);
"""


class SqliteStore:
    """A content-addressed pickle store inside one SQLite database.

    Parameters
    ----------
    path:
        Database file (created on first open; its parent directory is
        created when missing).
    salt:
        Extra key component; defaults to :data:`CACHE_SCHEMA`.
    timeout:
        Seconds a writer waits on SQLite's lock before giving up
        (forwarded as ``busy_timeout``); generous by default because
        serve-path writers genuinely contend.

    Connections are per-thread (SQLite objects must not cross threads);
    separate processes open their own stores on the same file and
    coordinate through SQLite's locking.  A path that is a directory,
    or a file that is not a store of this layout, raises
    :class:`~repro.errors.RunnerError` naming the path.
    """

    def __init__(self, path, salt=CACHE_SCHEMA, timeout=30.0):
        self.path = str(path)
        self.salt = salt
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
        """Derive an entry key from canonicalisable ``parts``."""
        return stable_hash(self.salt, *parts)

    def lookup(self, key):
        """``(hit, value)`` for ``key``; counts the hit or the (absent or
        corrupt) miss."""
        row = self._conn().execute(
            "SELECT value FROM entries WHERE key=?", (key,)).fetchone()
        if row is None:
            self.misses += 1
            self.absent += 1
            return False, None
        data = row[0]
        try:
            value = pickle.loads(data)
        except Exception:
            # Unpickling corrupt bytes can raise nearly anything; the
            # entry degrades to a miss and is deleted so the next writer
            # repairs it and the next reader takes the cheap absent path.
            self._drop_if_unchanged(key, data)
            self.misses += 1
            self.corrupt += 1
            return False, None
        self.hits += 1
        return True, value

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

    def put(self, key, value):
        """Store ``value`` under ``key`` (transactional, last writer
        wins)."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._execute(
            "INSERT INTO entries(key, value, created) VALUES(?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value, "
            "created=excluded.created",
            (key, sqlite3.Binary(blob), time.time()))
        self.puts += 1

    def writeback(self, key, value):
        """Best-effort incremental :meth:`put` -- never fails the run.

        The runner flushes each result as it arrives so an abort or a
        pool crash cannot lose paid work; a store-side problem (disk
        full, a locked file, an unpicklable value -- pickle raises
        ``AttributeError`` for local objects) must therefore degrade to
        "this point isn't stored" rather than kill the sweep it exists to
        protect.  Returns ``True`` when the entry was persisted.
        """
        try:
            self.put(key, value)
        except (OSError, sqlite3.Error, pickle.PicklingError, TypeError,
                AttributeError):
            return False
        return True

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
        conn = self._conn()
        with self._lock:
            cursor = conn.execute(sql, params)
            conn.commit()
            return cursor.rowcount

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


def open_store(spec, salt=CACHE_SCHEMA):
    """A store from a user-facing spec.

    ``Session(store=...)``, ``Runner(cache=...)`` and ``repro --cache`` /
    ``repro serve --store`` accept either an existing
    :class:`SqliteStore` (returned as-is) or the path of its database
    file (conventionally ``*.sqlite``).
    """
    if isinstance(spec, SqliteStore):
        return spec
    return SqliteStore(os.path.expanduser(str(spec)), salt=salt)


def default_cache(env=os.environ):
    """The store in the directory named by ``REPRO_CACHE_DIR`` (one
    :data:`STORE_FILE` inside it), or ``None`` when unset.

    Caching is opt-in for library users: results silently surviving code
    edits would be surprising as a default.  The schema salt protects
    against format drift, not against every model change, so the operator
    chooses when a persistent directory is appropriate.
    """
    root = env.get(CACHE_ENV, "").strip()
    if not root or root.lower() in ("0", "off", "none"):
        return None
    return SqliteStore(os.path.join(os.path.expanduser(root), STORE_FILE))
