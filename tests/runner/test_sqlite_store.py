"""SqliteStore: interface conformance, the pinned miss ledger,
multi-process writers, WAL crash recovery, and bad store paths."""

import multiprocessing
import os
import pickle
import shutil
import sqlite3
import threading

import pytest

from repro.errors import RunnerError
from repro.runner import CACHE_SCHEMA, SqliteStore, open_store, stable_hash

#: The fork start method matches the runner's own worker model and keeps
#: the spawned writers cheap.
_mp = multiprocessing.get_context("fork")


@pytest.fixture()
def store(tmp_path):
    s = SqliteStore(tmp_path / "store.sqlite")
    yield s
    s.close()


def _corrupt_row(path, key, junk=b"not a pickle"):
    """Plant junk bytes under ``key`` from outside the store (the
    simulated torn write of a crashed process)."""
    conn = sqlite3.connect(str(path))
    conn.execute("INSERT INTO entries(key, value, created) "
                 "VALUES(?, ?, 0) ON CONFLICT(key) DO UPDATE "
                 "SET value=excluded.value", (key, junk))
    conn.commit()
    conn.close()


class TestInterfaceConformance:
    """SqliteStore honours the result-store contract."""

    def test_roundtrip(self, store):
        key = store.key_for("ns", "point")
        hit, value = store.lookup(key)
        assert not hit and value is None
        store.put(key, {"power": 1.5})
        hit, value = store.lookup(key)
        assert hit and value == {"power": 1.5}
        assert store.get(key) == {"power": 1.5}
        assert key in store
        assert len(store) == 1

    def test_none_is_a_real_value(self, store):
        key = store.key_for("ns", "point")
        store.put(key, None)
        assert store.lookup(key) == (True, None)

    def test_counters(self, store):
        key = store.key_for("k")
        store.lookup(key)
        store.put(key, 1)
        store.lookup(key)
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert (store.absent, store.corrupt) == (1, 0)

    def test_put_overwrites(self, store):
        key = store.key_for("k")
        store.put(key, 1)
        store.put(key, 2)
        assert store.get(key) == 2
        assert len(store) == 1

    def test_invalidate_and_clear(self, store):
        keys = [store.key_for("k", i) for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, i)
        assert store.invalidate(keys[0]) is True
        assert store.invalidate(keys[0]) is False
        assert len(store) == 4
        assert store.clear() == 4
        assert len(store) == 0

    def test_reclassify_hit_as_miss(self, store):
        key = store.key_for("k")
        store.put(key, 1)
        store.lookup(key)
        store.reclassify_hit_as_miss()
        assert (store.hits, store.misses) == (0, 1)

    def test_writeback_is_a_counted_put(self, store):
        key = store.key_for("k")
        assert store.writeback(key, 7) is True
        assert store.get(key) == 7
        assert store.puts == 1

    def test_writeback_swallows_unpicklable_values(self, store):
        assert store.writeback(store.key_for("k"), lambda: 1) is False
        assert store.key_for("k") not in store

    def test_salt_partitions_keys(self, tmp_path):
        a = SqliteStore(tmp_path / "s.sqlite", salt="v1")
        b = SqliteStore(tmp_path / "s.sqlite", salt="v2")
        assert a.key_for("k") != b.key_for("k")
        a.close(), b.close()

    def test_same_keys_as_directory_store(self, tmp_path):
        # Keys are the digests the retired directory store derived
        # (same CACHE_SCHEMA salt), so key stability survives the move.
        sql = SqliteStore(tmp_path / "s.sqlite")
        assert sql.key_for("a", 1, 2.5) \
            == stable_hash(CACHE_SCHEMA, "a", 1, 2.5)
        sql.close()

    def test_foreign_schema_fails_loudly(self, tmp_path):
        path = tmp_path / "s.sqlite"
        SqliteStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value='someone-elses-v9' "
                     "WHERE name='schema'")
        conn.commit()
        conn.close()
        with pytest.raises(RunnerError, match="someone-elses-v9"):
            SqliteStore(path)


class TestLedgerAgreement:
    """One scripted sequence lands on the (hits, misses, absent,
    corrupt, puts) ledger the retired directory store also produced."""

    def _script(self, cache, corrupt_entry):
        k1, k2, k3 = (cache.key_for("k", i) for i in range(3))
        cache.lookup(k1)                  # absent miss
        cache.put(k1, "v1")
        cache.lookup(k1)                  # hit
        cache.lookup(k2)                  # absent miss
        cache.put(k2, "v2")
        corrupt_entry(cache, k2)          # torn write from outside
        cache.lookup(k2)                  # corrupt miss (+ cleanup)
        cache.lookup(k2)                  # absent miss (cleaned up)
        cache.put(k2, "v2")               # repair
        cache.lookup(k2)                  # hit
        cache.lookup(k3)                  # absent miss
        return (cache.hits, cache.misses, cache.absent, cache.corrupt,
                cache.puts)

    def test_identical_ledgers(self, tmp_path):
        sql = SqliteStore(tmp_path / "s.sqlite")

        def corrupt_sql(cache, key):
            _corrupt_row(cache.path, key)

        assert self._script(sql, corrupt_sql) == (2, 5, 4, 1, 3)
        # The invariant the docstring promises:
        assert sql.misses == sql.absent + sql.corrupt
        sql.close()


class TestCorruptEntries:
    def test_corrupt_blob_is_a_counted_miss_and_cleaned(self, store):
        key = store.key_for("k")
        store.put(key, 1)
        _corrupt_row(store.path, key)
        assert store.lookup(key) == (False, None)
        assert (store.corrupt, store.absent) == (1, 0)
        assert key not in store          # cleaned up
        assert store.lookup(key) == (False, None)
        assert (store.corrupt, store.absent) == (1, 1)
        store.put(key, 2)
        assert store.get(key) == 2

    def test_cleanup_preserves_a_concurrent_repair(self, store,
                                                   monkeypatch):
        # A writer repairs the row between this reader's SELECT and its
        # DELETE; compare-before-delete (WHERE value=<torn bytes>) must
        # leave the repair alive.
        key = store.key_for("k")
        _corrupt_row(store.path, key, b"torn bytes")
        good = {"power": 2.5}
        real_loads = pickle.loads

        def racing_loads(data, **kw):
            if data == b"torn bytes":
                _corrupt_row(store.path, key,
                             pickle.dumps(good))  # the repair lands
                raise pickle.UnpicklingError("torn")
            return real_loads(data, **kw)

        monkeypatch.setattr("repro.runner.sqlite_store.pickle.loads",
                            racing_loads)
        assert store.lookup(key) == (False, None)
        assert store.corrupt == 1
        monkeypatch.undo()
        assert store.lookup(key) == (True, good)


class TestThreadsAndProcesses:
    def test_parallel_threads_share_one_store(self, store):
        # Each thread gets its own connection (threading.local) but all
        # land in one database.
        errors = []

        def worker(tag):
            try:
                for i in range(25):
                    key = store.key_for(tag, i)
                    store.put(key, (tag, i))
                    assert store.get(key) == (tag, i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 100

    def test_parallel_processes_share_one_file(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        SqliteStore(path).close()   # create schema before the fork

        def worker(tag, path, failures):
            try:
                mine = SqliteStore(path, timeout=60.0)
                for i in range(25):
                    mine.put(mine.key_for(tag, i), {"tag": tag, "i": i})
                mine.close()
            except Exception as exc:
                failures.put("{}: {}".format(tag, exc))

        failures = _mp.Queue()
        procs = [_mp.Process(target=worker, args=(t, str(path), failures))
                 for t in "abcd"]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        assert failures.empty(), failures.get()
        check = SqliteStore(path)
        assert len(check) == 100
        for tag in "abcd":
            for i in range(25):
                assert check.get(check.key_for(tag, i)) \
                    == {"tag": tag, "i": i}
        check.close()

    def test_two_store_objects_dedupe_each_other(self, tmp_path):
        # The serve scenario in miniature: tenant B's lookups hit what
        # tenant A computed, through independent store objects.
        path = tmp_path / "shared.sqlite"
        a = SqliteStore(path)
        b = SqliteStore(path)
        key = a.key_for("point")
        a.put(key, 42)
        assert b.lookup(key) == (True, 42)
        assert (b.hits, b.misses) == (1, 0)
        a.close(), b.close()


class TestCrashRecovery:
    def test_committed_entries_survive_a_wal_snapshot(self, tmp_path):
        # Copy the live db + WAL + shm mid-stream -- the on-disk state
        # an abrupt kill leaves behind (no clean close, nothing
        # checkpointed) -- and open the copy fresh: every committed put
        # must be there.
        live_dir = tmp_path / "live"
        dead_dir = tmp_path / "dead"
        os.makedirs(live_dir), os.makedirs(dead_dir)
        live = SqliteStore(live_dir / "s.sqlite")
        keys = [live.key_for("k", i) for i in range(20)]
        for i, key in enumerate(keys):
            live.put(key, {"i": i})
        # WAL mode really is on and carrying the writes.
        assert live._conn().execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        for suffix in ("", "-wal", "-shm"):
            src = str(live_dir / "s.sqlite") + suffix
            if os.path.exists(src):
                shutil.copy(src, str(dead_dir / "s.sqlite") + suffix)
        revived = SqliteStore(dead_dir / "s.sqlite")
        for i, key in enumerate(keys):
            assert revived.get(key) == {"i": i}
        assert len(revived) == 20
        revived.close()
        live.close()


class TestOpenStore:
    def test_existing_store_passes_through(self, store):
        assert open_store(store) is store

    def test_path_opens_sqlite(self, tmp_path):
        s = open_store(str(tmp_path / "new.sqlite"))
        assert isinstance(s, SqliteStore)
        assert os.path.exists(s.path)
        s.close()

    def test_directory_is_a_named_error(self, tmp_path):
        # An old ``--cache DIR`` lands here: a RunnerError naming the
        # path, not sqlite3's bare "unable to open database file".
        old = tmp_path / "old-cache"
        old.mkdir()
        with pytest.raises(RunnerError, match="old-cache.*directory"):
            open_store(str(old))

    def test_junk_file_is_a_named_error(self, tmp_path):
        junk = tmp_path / "notes.txt"
        junk.write_bytes(b"this is not an SQLite database " * 64)
        with pytest.raises(RunnerError,
                           match="notes.txt.*not a database"):
            open_store(str(junk))

    def test_foreign_schema_is_a_named_error(self, tmp_path):
        path = tmp_path / "theirs.sqlite"
        SqliteStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value='v0' WHERE name='schema'")
        conn.commit()
        conn.close()
        with pytest.raises(RunnerError, match="theirs.sqlite.*'v0'"):
            open_store(str(path))


class TestSessionIntegration:
    def test_session_store_dedupes_across_sessions(self, tmp_path):
        from repro.session import Session

        path = str(tmp_path / "shared.sqlite")
        first = Session(store=path)
        sweep1 = first.design("counter16").sweep([1e4, 1e5])
        assert first.stats.cache_misses > 0
        assert first.stats.cache_hits == 0
        first.close()

        second = Session(store=path)
        sweep2 = second.design("counter16").sweep([1e4, 1e5])
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits > 0
        second.close()
        for mode in sweep1.results:
            for a, b in zip(sweep1.results[mode], sweep2.results[mode]):
                assert a == b

    def test_store_and_cache_are_exclusive(self, tmp_path):
        # ``store=`` is the only spelling: the old ``cache=`` argument is
        # rejected, not silently ignored.
        from repro.session import Session

        with pytest.raises(TypeError, match="cache"):
            Session(store=str(tmp_path / "s.sqlite"),
                    cache=str(tmp_path / "c"))
