"""The JSONL run journal: schema, durability, runner integration."""

import json

import pytest

from repro.runner import (
    NULL_JOURNAL,
    RunJournal,
    RunStats,
    evaluate_grid,
    read_journal,
)


def _square(point):
    return point * point


class TestRunJournal:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record("run_start", label="unit", points=2)
            journal.record("point_finished", index=0, status="ok")
        events = read_journal(path)
        assert [e["event"] for e in events] \
            == ["run_start", "point_finished"]
        assert events[0]["label"] == "unit"
        assert all("t" in e for e in events)
        assert events[0]["t"] <= events[1]["t"]

    def test_append_only(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record("run_start")
        with RunJournal(path) as journal:
            journal.record("run_start")
        assert len(read_journal(path)) == 2

    def test_close_is_idempotent_and_reopens(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record("run_start")
        journal.close()
        journal.close()
        journal.record("run_finish")     # recording reopens
        journal.close()
        assert len(read_journal(journal.path)) == 2

    def test_unserialisable_fields_fall_back_to_repr(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record("point_failed", error=ValueError("boom"))
        journal.close()
        (event,) = read_journal(journal.path)
        assert "boom" in event["error"]

    def test_read_skips_torn_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({"event": "run_start"}) + "\n")
            f.write('{"event": "point_fin')   # crash mid-write
        assert [e["event"] for e in read_journal(path)] == ["run_start"]

    def test_null_journal_is_inert(self):
        NULL_JOURNAL.record("run_start", anything=1)
        NULL_JOURNAL.close()
        assert NULL_JOURNAL.events == 0


class TestGridJournalling:
    def test_serial_grid_writes_the_full_story(self, tmp_path):
        path = tmp_path / "run.jsonl"
        evaluate_grid(_square, [1, 2, 3], journal=path, label="unit")
        events = read_journal(path)
        names = [e["event"] for e in events]
        assert names[0] == "run_start"
        assert names[-1] == "run_finish"
        assert names.count("point_started") == 3
        assert names.count("point_finished") == 3
        start = events[0]
        assert start["points"] == 3 and start["label"] == "unit"
        finish = events[-1]
        assert finish["stats"]["evaluated"] == 3

    def test_infeasible_points_are_labelled(self, tmp_path):
        path = tmp_path / "run.jsonl"

        def flaky(point):
            if point == 2:
                raise ValueError("infeasible")
            return point

        evaluate_grid(flaky, [1, 2], on_error=(ValueError,), journal=path)
        statuses = {e["index"]: e["status"] for e in read_journal(path)
                    if e["event"] == "point_finished"}
        assert statuses == {0: "ok", 1: "infeasible"}

    def test_cached_points_never_reach_the_journal(self, tmp_path):
        from repro.runner import SqliteStore, stable_hash

        cache = SqliteStore(tmp_path / "store.sqlite")
        key = stable_hash("journal-cache")
        evaluate_grid(_square, [1, 2], cache=cache, cache_key=key)
        path = tmp_path / "warm.jsonl"
        evaluate_grid(_square, [1, 2], cache=cache, cache_key=key,
                      journal=path)
        events = read_journal(path)
        assert [e["event"] for e in events] == ["run_start", "run_finish"]
        assert events[0]["cached"] == 2 and events[0]["pending"] == 0

    def test_shared_journal_spans_runs(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        stats = RunStats()
        evaluate_grid(_square, [1], journal=journal, stats=stats,
                      label="first")
        evaluate_grid(_square, [2], journal=journal, stats=stats,
                      label="second")
        journal.close()
        labels = [e["label"] for e in read_journal(journal.path)
                  if e["event"] == "run_start"]
        assert labels == ["first", "second"]
