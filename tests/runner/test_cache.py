"""The result cache -- one SQLite store: storage, invalidation, the
absent/corrupt miss ledger, and ``REPRO_CACHE_DIR`` plumbing."""

import os
import pickle
import sqlite3
import threading

import pytest

from repro.runner import (
    CACHE_ENV,
    STORE_FILE,
    SqliteStore,
    default_cache,
    sqlite_store,
)


@pytest.fixture()
def cache(tmp_path):
    store = SqliteStore(tmp_path / "cache.sqlite")
    yield store
    store.close()


def _write_raw(cache, key, data):
    """Overwrite ``key``'s row with raw bytes from outside the store (a
    torn write of a crashed process, or a writer's repair)."""
    conn = sqlite3.connect(cache.path)
    conn.execute("INSERT INTO entries(key, value, created) "
                 "VALUES(?, ?, 0) ON CONFLICT(key) DO UPDATE "
                 "SET value=excluded.value", (key, data))
    conn.commit()
    conn.close()


def _read_raw(cache, key):
    conn = sqlite3.connect(cache.path)
    row = conn.execute("SELECT value FROM entries WHERE key=?",
                       (key,)).fetchone()
    conn.close()
    return row[0]


class TestResultCache:
    """The result cache's contract, held by its one store."""

    def test_roundtrip(self, cache):
        key = cache.key_for("ns", "point")
        hit, value = cache.lookup(key)
        assert not hit and value is None
        cache.put(key, {"power": 1.5})
        hit, value = cache.lookup(key)
        assert hit and value == {"power": 1.5}
        assert cache.get(key) == {"power": 1.5}
        assert key in cache
        assert len(cache) == 1

    def test_none_is_a_real_value(self, cache):
        key = cache.key_for("ns", "point")
        cache.put(key, None)
        hit, value = cache.lookup(key)
        assert hit and value is None

    def test_counters(self, cache):
        key = cache.key_for("k")
        cache.lookup(key)
        cache.put(key, 1)
        cache.lookup(key)
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.puts == 1

    def test_invalidate(self, cache):
        key = cache.key_for("k")
        cache.put(key, 1)
        cache.invalidate(key)
        assert key not in cache
        cache.invalidate(key)   # idempotent

    def test_clear(self, cache):
        for i in range(5):
            cache.put(cache.key_for("k", i), i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0

    # pickle.load raises UnpicklingError for the first payload and
    # ValueError for the second -- both must degrade to a miss.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n"])
    def test_corrupt_entry_is_a_miss(self, cache, junk):
        key = cache.key_for("k")
        cache.put(key, 1)
        _write_raw(cache, key, junk)
        hit, value = cache.lookup(key)
        assert not hit and value is None
        cache.put(key, 2)
        assert cache.get(key) == 2

    def test_cold_miss_issues_no_unlink(self, cache, monkeypatch):
        # The common absent-entry case must not pay a pointless DELETE
        # per miss (regression: it used to take the corrupt path).
        drops = []
        real_drop = cache._drop_if_unchanged
        monkeypatch.setattr(
            cache, "_drop_if_unchanged",
            lambda key, data: (drops.append(key), real_drop(key, data))[1])
        hit, value = cache.lookup(cache.key_for("never-written"))
        assert not hit and value is None
        assert drops == []

    def test_corrupt_entry_dropped_exactly_once(self, cache, monkeypatch):
        key = cache.key_for("k")
        cache.put(key, 1)
        _write_raw(cache, key, b"truncated garbag")
        drops = []
        real_drop = cache._drop_if_unchanged
        monkeypatch.setattr(
            cache, "_drop_if_unchanged",
            lambda k, data: (drops.append(k), real_drop(k, data))[1])
        assert cache.lookup(key) == (False, None)   # corrupt -> dropped
        assert cache.lookup(key) == (False, None)   # absent -> cheap miss
        assert drops == [key]
        assert cache.misses == 2

    def test_misses_split_into_absent_and_corrupt(self, cache):
        key = cache.key_for("k")
        cache.lookup(key)                       # absent
        cache.put(key, 1)
        _write_raw(cache, key, b"garbage")
        cache.lookup(key)                       # corrupt
        cache.lookup(key)                       # absent again (cleaned)
        assert cache.absent == 2
        assert cache.corrupt == 1
        assert cache.misses == cache.absent + cache.corrupt

    def test_hits_do_not_touch_the_miss_split(self, cache):
        key = cache.key_for("k")
        cache.put(key, 1)
        cache.lookup(key)
        assert (cache.absent, cache.corrupt, cache.misses) == (0, 0, 0)

    def test_torn_write_cleanup_preserves_concurrent_repair(
            self, cache, monkeypatch):
        # Regression: a reader that finds torn bytes used to delete the
        # entry unconditionally.  If a healthy writer replaced the torn
        # bytes between the reader's read and its cleanup, that delete
        # threw away the repair -- a paid result vanished and the next
        # reader recomputed it.  Cleanup must compare before deleting.
        key = cache.key_for("k")
        cache.put(key, {"power": 1.0})
        good = _read_raw(cache, key)
        torn = good[: len(good) // 2]
        _write_raw(cache, key, torn)
        real_loads = pickle.loads

        def racing_loads(data, **kw):
            if data == torn:
                # The writer's complete entry lands between this
                # reader's read and its cleanup.
                _write_raw(cache, key, good)
                raise pickle.UnpicklingError("truncated")
            return real_loads(data, **kw)

        monkeypatch.setattr("repro.runner.sqlite_store.pickle.loads",
                            racing_loads)
        assert cache.lookup(key) == (False, None)
        assert (cache.corrupt, cache.absent) == (1, 0)
        monkeypatch.undo()
        # Pre-fix this was a miss: the unconditional delete had removed
        # the writer's repair.
        assert cache.lookup(key) == (True, {"power": 1.0})

    def test_stale_corrupt_bytes_still_get_cleaned(self, cache):
        # The compare-before-delete must not regress the cleanup itself:
        # with no concurrent writer, the torn entry is removed and the
        # next miss takes the cheap absent path.
        key = cache.key_for("k")
        cache.put(key, 1)
        _write_raw(cache, key, b"torn")
        cache.lookup(key)
        assert key not in cache

    def test_writeback_swallows_unpicklable_values(self, cache):
        # pickle raises AttributeError for local objects; "best effort,
        # never fails the run" covers that too.
        assert cache.writeback(cache.key_for("k"), lambda: 1) is False
        assert cache.key_for("k") not in cache

    def test_reclassify_hit_as_miss(self, cache):
        key = cache.key_for("k")
        cache.put(key, 1)
        cache.lookup(key)
        cache.reclassify_hit_as_miss()
        assert cache.hits == 0
        assert cache.misses == 1

    def test_writeback_is_a_counted_put(self, cache):
        key = cache.key_for("k")
        assert cache.writeback(key, 7) is True
        assert cache.get(key) == 7
        assert cache.puts == 1

    def test_writeback_swallows_io_errors(self, cache, monkeypatch):
        def refuse(sql, params=()):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(cache, "_execute", refuse)
        assert cache.writeback(cache.key_for("k"), 7) is False

    def test_salt_partitions_keys(self, tmp_path, monkeypatch):
        # The code digest salts every key: one store file read by two
        # package sources shares no key between them.
        a = SqliteStore(tmp_path / "s.sqlite")
        key = a.key_for("k")
        monkeypatch.setattr(sqlite_store, "code_digest", lambda: "1" * 64)
        b = SqliteStore(tmp_path / "s.sqlite")
        assert b.key_for("k") != key
        a.close(), b.close()

    def test_key_depends_on_all_parts(self, cache):
        assert cache.key_for("a", "b") != cache.key_for("a", "c")
        assert cache.key_for("a", "b") != cache.key_for("ab")


class TestConcurrency:
    def test_parallel_puts_to_one_key_stay_atomic(self, cache):
        # Writers race on one key with large, distinct payloads; every
        # concurrent read must observe one *complete* payload, never a
        # torn mix, and the survivor must be a whole value too.
        key = cache.key_for("contested")
        payloads = {tag: tag * 200_000 for tag in ("a", "b", "c", "d")}
        torn = []
        stop = threading.Event()

        def writer(tag):
            for _ in range(20):
                cache.put(key, payloads[tag])

        def reader():
            while not stop.is_set():
                hit, value = cache.lookup(key)
                if hit and value not in payloads.values():
                    torn.append(value)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(t,))
                   for t in payloads]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert torn == []
        assert cache.get(key) in payloads.values()
        assert len(cache) == 1

    def test_corrupt_entry_degrades_to_a_miss_exactly_once_per_writer(
            self, cache):
        # Concurrent lookups of one corrupt entry: every reader sees a
        # miss, the entry is gone afterwards, and a subsequent put
        # repairs it for everyone.
        key = cache.key_for("corrupt")
        cache.put(key, 1)
        _write_raw(cache, key, b"garbage")
        hits = []

        def prober():
            hit, _ = cache.lookup(key)
            hits.append(hit)

        threads = [threading.Thread(target=prober) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hits == [False] * 8
        assert key not in cache
        cache.put(key, 2)
        assert cache.get(key) == 2


class TestDefaultCache:
    def test_unset_means_no_cache(self):
        assert default_cache(env={}) is None

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabling_values(self, value):
        assert default_cache(env={CACHE_ENV: value}) is None

    def test_directory(self, tmp_path):
        # The variable keeps naming a directory; the store is one SQLite
        # file inside it, created together with the directory.
        root = tmp_path / "rc"
        cache = default_cache(env={CACHE_ENV: str(root)})
        assert isinstance(cache, SqliteStore)
        assert cache.path == os.path.join(str(root), STORE_FILE)
        key = cache.key_for("k")
        cache.put(key, 42)
        assert cache.get(key) == 42
        assert default_cache(env={CACHE_ENV: str(root)}).get(key) == 42
        cache.close()

    def test_old_pickle_shards_are_ignored(self, tmp_path):
        # A directory left over from the old per-entry pickle layout is
        # not read: its shards are simply never looked up.
        root = tmp_path / "rc"
        (root / "ab").mkdir(parents=True)
        (root / "ab" / "abcdef.pkl").write_bytes(pickle.dumps(1))
        cache = default_cache(env={CACHE_ENV: str(root)})
        assert len(cache) == 0
        assert (root / "ab" / "abcdef.pkl").exists()
        cache.close()
