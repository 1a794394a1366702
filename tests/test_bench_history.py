"""Tests of the events/sec trend ledger (repro.bench.history)."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.history import (
    TREND_TOLERANCE,
    append_entry,
    fleet_rate,
    history_path,
    load_history,
    render_trend,
    trend_check,
)


def _meta(eid="fig1", eps=200_000.0, events=371_560, jobs=2,
          scheduler="calendar"):
    return {
        "experiment": eid,
        "jobs": jobs,
        "wall_s": events / eps,
        "events": events,
        "events_per_s": eps,
        "scheduler": scheduler,
        "seeds": [1],
        "kwargs": {},
    }


def test_append_and_load_roundtrip(tmp_path):
    d = str(tmp_path)
    e1 = append_entry(d, _meta(eps=100_000.0), rev="abc1234",
                      ts="2026-08-08T00:00:00Z")
    e2 = append_entry(d, _meta(eps=120_000.0), rev="def5678",
                      ts="2026-08-08T01:00:00Z")
    assert e1["events_per_s"] == 100_000.0
    got = load_history(d, "fig1")
    assert [e["rev"] for e in got] == ["abc1234", "def5678"]
    assert got == [e1, e2]
    # one JSON object per line, stable keys
    with open(history_path(d, "fig1")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["scheduler"] == "calendar"


def test_load_missing_history_is_empty(tmp_path):
    assert load_history(str(tmp_path), "fig9") == []


def test_trend_check_passes_within_tolerance(tmp_path):
    d = str(tmp_path)
    append_entry(d, _meta(eps=300_000.0), rev="r1", ts="t1")
    assert trend_check(d, "fig1", 300_000.0) is None
    # a slow CI runner inside the tolerance window is fine
    assert trend_check(d, "fig1", 300_000.0 / TREND_TOLERANCE + 1) is None


def test_trend_check_fails_beyond_tolerance(tmp_path):
    d = str(tmp_path)
    append_entry(d, _meta(eps=300_000.0), rev="r1", ts="t1")
    msg = trend_check(d, "fig1", 300_000.0 / TREND_TOLERANCE - 1)
    assert msg is not None and "trend regression" in msg


def test_trend_check_uses_best_of_window(tmp_path):
    d = str(tmp_path)
    # an ancient fast entry outside the window must not set the floor
    append_entry(d, _meta(eps=900_000.0), rev="old", ts="t0")
    for i in range(10):
        append_entry(d, _meta(eps=150_000.0), rev=f"r{i}", ts=f"t{i + 1}")
    assert trend_check(d, "fig1", 100_000.0, window=10) is None
    # ...but inside the window it does
    msg = trend_check(d, "fig1", 100_000.0, window=11)
    assert msg is not None


def test_trend_check_no_history_passes(tmp_path):
    assert trend_check(str(tmp_path), "fig1", 1.0) is None


def test_render_trend(tmp_path):
    d = str(tmp_path)
    append_entry(d, _meta(eps=100_000.0), rev="aaa", ts="t1")
    append_entry(d, _meta(eps=150_000.0), rev="bbb", ts="t2")
    append_entry(d, _meta(eid="fig4c", eps=80_000.0), rev="bbb", ts="t2")
    out = render_trend(d)
    assert "fig1: 2 runs" in out
    assert "+50% vs first" in out
    assert "fig4c: 1 runs" in out
    assert "calendar scheduler" in out


def test_render_trend_empty(tmp_path):
    assert render_trend(str(tmp_path)) == "no bench history found"
    assert render_trend(str(tmp_path), ["fig1"]) == "fig1: no history"


def test_serial_entry_writes_null_fleet_rate(tmp_path):
    """A run with no sharded point has no critical path: the row says
    ``null``, not a rate of zero."""
    d = str(tmp_path)
    meta = {**_meta(), "cp_s": None, "events_per_s_cp": None,
            "gc_collections": [2, 0, 0]}
    entry = append_entry(d, meta, rev="r1", ts="t1")
    assert entry["cp_s"] is None and entry["events_per_s_cp"] is None
    with open(history_path(d, "fig1")) as fh:
        row = json.loads(fh.read())
    assert row["cp_s"] is None and row["events_per_s_cp"] is None
    assert row["gc_collections"] == [2, 0, 0]
    assert fleet_rate(row) is None
    # a meta dict predating both fields writes the same row shape
    assert append_entry(d, _meta(), rev="r2", ts="t2")["cp_s"] is None


def test_sharded_entry_keeps_fleet_rate(tmp_path):
    d = str(tmp_path)
    meta = {**_meta(), "shards": 2, "cp_s": 1.23456,
            "events_per_s_cp": 300_961.04}
    entry = append_entry(d, meta, rev="r1", ts="t1")
    assert entry["cp_s"] == 1.2346
    assert fleet_rate(entry) == 300_961.0
    assert "fleet 300,961 ev/s" in render_trend(d)


def test_old_and_new_row_shapes_read_alike(tmp_path):
    """Ledgers committed before this change wrote ``0.0`` for serial
    runs and had no ``gc_collections``; they stay readable beside rows
    of the new shape, by ``--trend`` and by the trend gate."""
    d = str(tmp_path)
    old = {"ts": "t0", "rev": "old", "experiment": "fig1",
           "scheduler": "calendar", "jobs": 2, "shards": 0,
           "events": 371_560, "wall_s": 1.8578, "events_per_s": 200_000.0,
           "cp_s": 0.0, "events_per_s_cp": 0.0, "kwargs": {}}
    with open(history_path(d, "fig1"), "w") as fh:
        fh.write(json.dumps(old, sort_keys=True) + "\n")
    append_entry(d, {**_meta(eps=220_000.0), "cp_s": None,
                     "events_per_s_cp": None, "gc_collections": [1, 0, 0]},
                 rev="new", ts="t1")
    rows = load_history(d, "fig1")
    assert [fleet_rate(r) for r in rows] == [None, None]
    out = render_trend(d)
    assert "fig1: 2 runs" in out and "fleet" not in out
    assert "gc 1/0/0" in out
    assert trend_check(d, "fig1", 210_000.0, kwargs={}) is None
    # with the old-shape row latest, the gc column is simply absent
    with open(history_path(d, "fig1"), "a") as fh:
        fh.write(json.dumps(old, sort_keys=True) + "\n")
    assert "gc " not in render_trend(d)


def test_committed_ledgers_still_load():
    d = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                     "history")
    out = render_trend(d)
    assert "fig1:" in out and "no history" not in out


def test_runner_appends_history(tmp_path):
    """run_experiment(history_dir=...) writes a ledger entry with the
    active scheduler recorded, no fleet rate for a serial run, and the
    collector runs the experiment paid for."""
    from repro.bench.runner import SMOKE_CONFIGS, run_experiment

    d = str(tmp_path)
    _table, meta = run_experiment("fig3a", jobs=1, history_dir=d,
                                  **SMOKE_CONFIGS["fig3a"])
    entries = load_history(d, "fig3a")
    assert len(entries) == 1
    assert entries[0]["events"] == meta["events"]
    assert entries[0]["scheduler"] == meta["scheduler"]
    assert entries[0]["scheduler"] in ("heap", "calendar")
    assert meta["cp_s"] is None and meta["events_per_s_cp"] is None
    assert entries[0]["cp_s"] is None
    assert entries[0]["gc_collections"] == meta["gc_collections"]
    assert len(meta["gc_collections"]) == 3
    assert min(meta["gc_collections"]) >= 0


def test_runner_reports_fleet_rate_for_sharded_run(tmp_path):
    from repro.bench.runner import SMOKE_CONFIGS, run_experiment

    _table, meta = run_experiment("fig4c", jobs=2, shards=2,
                                  history_dir=str(tmp_path),
                                  **SMOKE_CONFIGS["fig4c"])
    assert meta["cp_s"] > 0 and meta["events_per_s_cp"] > 0
    assert len(meta["gc_collections"]) == 3
    assert fleet_rate(load_history(str(tmp_path), "fig4c")[0]) > 0
