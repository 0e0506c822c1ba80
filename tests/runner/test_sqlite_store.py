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
from repro.runner import (
    CACHE_SCHEMA,
    SqliteStore,
    fingerprint,
    open_store,
    sqlite_store,
    stable_hash,
)
from repro.runner.fingerprint import code_digest

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

    def test_salt_partitions_keys(self, tmp_path, monkeypatch):
        a = SqliteStore(tmp_path / "s.sqlite")
        key = a.key_for("k")
        monkeypatch.setattr(sqlite_store, "code_digest", lambda: "1" * 64)
        b = SqliteStore(tmp_path / "s.sqlite")
        assert b.key_for("k") != key
        a.close(), b.close()

    def test_same_keys_as_directory_store(self, tmp_path):
        # The key format: the parts, salted with the namespace and the
        # package's code digest.
        sql = SqliteStore(tmp_path / "s.sqlite")
        assert sql.key_for("a", 1, 2.5) \
            == stable_hash(CACHE_SCHEMA, code_digest(), "a", 1, 2.5)
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


class TestBatched:
    """``lookup_many`` / ``put_many``: the store's one read path and one
    write path."""

    def test_lookup_many_crosses_the_parameter_chunk(self, store):
        n = 2500
        assert n > 2 * sqlite_store.MAX_PARAMS
        keys = [store.key_for("k", i) for i in range(n)]
        assert store.put_many((key, i) for i, key in enumerate(keys)
                              if i % 3) == n - len(range(0, n, 3))
        asked = keys + keys[:10]          # duplicates read twice
        found = store.lookup_many(asked)
        assert found == [(bool(i % 3), i if i % 3 else None)
                         for i in list(range(n)) + list(range(10))]
        hits = sum(hit for hit, _ in found)
        assert (store.hits, store.absent, store.corrupt) \
            == (hits, len(asked) - hits, 0)

    def test_keys_of_a_grid_match_key_for(self, store):
        points = [0.5, (1e6, "scpg"), {"vdd": 0.3}, None]
        key_of = store.key_maker("ns", 7)
        assert [key_of(p) for p in points] \
            == [store.key_for("ns", 7, fingerprint(p)) for p in points]

    def test_corrupt_row_among_good_ones(self, store):
        keys = [store.key_for("k", i) for i in range(5)]
        store.put_many((key, i) for i, key in enumerate(keys))
        _corrupt_row(store.path, keys[2], b"torn")
        drops = []
        real_drop = store._drop_if_unchanged
        store._drop_if_unchanged = \
            lambda key, data: (drops.append((key, bytes(data))),
                               real_drop(key, data))[1]
        found = store.lookup_many(keys + [keys[2]])
        assert found == [(True, 0), (True, 1), (False, None), (True, 3),
                         (True, 4), (False, None)]
        assert (store.corrupt, store.absent, store.hits) == (1, 1, 4)
        assert drops == [(keys[2], b"torn")]
        assert len(store) == 4

    def test_put_many_skips_an_unpicklable_value(self, store):
        keys = [store.key_for("k", i) for i in range(3)]
        written = store.put_many([(keys[0], 0), (keys[1], lambda: 1),
                                  (keys[2], 2)])
        assert written == 2 and store.puts == 2
        assert store.lookup_many(keys) == [(True, 0), (False, None),
                                           (True, 2)]

    def test_put_many_is_one_transaction(self, store, monkeypatch):
        statements = []
        real = store._execute
        monkeypatch.setattr(store, "_execute", lambda sql, params=():
                            (statements.append(sql), real(sql, params))[1])
        store.put_many((store.key_for("k", i), i) for i in range(50))
        assert len(statements) == 1
        assert store.put_many([]) == 0
        assert len(statements) == 1


def _rows_by_digest(path):
    conn = sqlite3.connect(str(path))
    try:
        return dict(conn.execute(
            "SELECT digest, COUNT(*) FROM entries GROUP BY digest"))
    finally:
        conn.close()


class TestDigestAndPrune:
    def test_rows_record_the_code_digest(self, store):
        store.put(store.key_for("k"), 1)
        assert _rows_by_digest(store.path) == {code_digest(): 1}

    def test_old_file_gains_the_column_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(
            "CREATE TABLE meta (name TEXT PRIMARY KEY, value TEXT NOT "
            "NULL); CREATE TABLE entries (key TEXT PRIMARY KEY, value "
            "BLOB NOT NULL, created REAL NOT NULL);")
        conn.execute("INSERT INTO meta VALUES('schema', ?)",
                     (sqlite_store.SQLITE_SCHEMA,))
        conn.execute("INSERT INTO entries VALUES('old', ?, 0)",
                     (pickle.dumps("kept"),))
        conn.commit()
        conn.close()
        store = SqliteStore(path)
        assert store.get("old") == "kept"
        store.put(store.key_for("new"), 2)
        assert _rows_by_digest(path) == {"": 1, code_digest(): 1}
        assert store.prune() == 1
        assert len(store) == 1
        store.close()

    def test_prune_drops_only_other_digests(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        with monkeypatch.context() as m:
            m.setattr(sqlite_store, "code_digest", lambda: "0" * 64)
            old = SqliteStore(path)
            old.put_many((old.key_for("k", i), i) for i in range(7))
            old.close()
        store = SqliteStore(path)
        current = [store.key_for("k", i) for i in range(3)]
        store.put_many((key, i) for i, key in enumerate(current))
        assert len(store) == 10
        assert store.prune() == 7
        assert store.prune() == 0
        assert store.lookup_many(current) == [(True, 0), (True, 1),
                                              (True, 2)]
        store.close()

    def test_prune_racing_a_writer_keeps_every_current_row(self, tmp_path):
        # Fault injection: another process writes current-digest rows
        # (one transaction per batch) while this one prunes in a loop;
        # no current row may be lost, and every foreign row goes.
        path = tmp_path / "raced.sqlite"
        conn = sqlite3.connect(str(path))
        SqliteStore(path).close()
        conn.executemany(
            "INSERT INTO entries(key, value, created, digest) "
            "VALUES(?, ?, 0, 'stale')",
            [("stale-{}".format(i), pickle.dumps(i)) for i in range(200)])
        conn.commit()
        conn.close()

        def writer(path, failures):
            try:
                mine = SqliteStore(path, timeout=60.0)
                for batch in range(40):
                    mine.put_many((mine.key_for("w", batch, i), i)
                                  for i in range(25))
                mine.close()
            except Exception as exc:
                failures.put(repr(exc))

        failures = _mp.Queue()
        proc = _mp.Process(target=writer, args=(str(path), failures))
        proc.start()
        pruner = SqliteStore(path, timeout=60.0)
        pruned = 0
        while proc.is_alive():
            pruned += pruner.prune()
        proc.join(timeout=120)
        pruned += pruner.prune()
        assert proc.exitcode == 0
        assert failures.empty(), failures.get()
        assert pruned == 200
        keys = [pruner.key_for("w", b, i)
                for b in range(40) for i in range(25)]
        assert all(hit for hit, _ in pruner.lookup_many(keys))
        assert len(pruner) == 1000
        pruner.close()

    def test_cli_prune(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        path = tmp_path / "s.sqlite"
        with monkeypatch.context() as m:
            m.setattr(sqlite_store, "code_digest", lambda: "0" * 64)
            old = SqliteStore(path)
            old.put(old.key_for("k"), 1)
            old.close()
        assert main(["cache", "prune", "--cache", str(path)]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert main(["--cache", str(path), "cache", "prune"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "prune"]) == 1
        assert "no result store" in capsys.readouterr().err
