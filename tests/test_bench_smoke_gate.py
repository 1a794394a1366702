"""Regression tests for the bench-smoke gate's failure modes.

A registered experiment without a committed baseline (or with a
malformed one) must fail the gate with a named message — never crash it
with a ``KeyError`` or slip through silently.  These paths were
previously only exercised when something was already wrong, so they are
pinned here.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import sys

from repro.bench.figures import ALL_EXPERIMENTS

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO) not in sys.path:               # `benchmarks` is a package
    sys.path.insert(0, str(_REPO))

from benchmarks.smoke import baseline_failures  # noqa: E402


# ---------------------------------------------------------------------------
# Registry rows: each one states what the gate runs
# ---------------------------------------------------------------------------
def test_every_registered_experiment_has_smoke_coverage():
    """Every row's smoke kwargs bind to its driver, so the gate can run
    it (a misspelled or stale key fails here, not two minutes into CI)."""
    for exp in ALL_EXPERIMENTS.values():
        inspect.signature(exp.driver).bind(**exp.smoke)


def test_every_registered_experiment_has_committed_baseline():
    for eid in ALL_EXPERIMENTS:
        path = _REPO / "benchmarks" / "baselines" / f"BENCH_{eid}.json"
        assert path.is_file(), f"no committed baseline for {eid}"


def test_shard_smoke_names_are_registered():
    """fig1 and the services stay in the gate's ``--shards`` matrix."""
    shard_smoke = {eid for eid, exp in ALL_EXPERIMENTS.items()
                   if exp.shard_smoke}
    assert {"fig1", "svc_kv", "svc_pubsub"} <= shard_smoke


# ---------------------------------------------------------------------------
# Baseline comparison: every malformed input is a message, not a crash
# ---------------------------------------------------------------------------
_NOW = {"rows": [[1, 2.0]], "events": 100, "events_per_s": 1000.0}


def test_missing_baseline_is_a_named_failure(tmp_path):
    msgs = baseline_failures("svc_kv", str(tmp_path / "BENCH_svc_kv.json"),
                             _NOW)
    assert len(msgs) == 1
    assert "missing baseline" in msgs[0] and "svc_kv" in msgs[0]


def test_unparsable_baseline_is_a_named_failure(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text("{not json")
    msgs = baseline_failures("x", str(path), _NOW)
    assert len(msgs) == 1 and "not valid JSON" in msgs[0]


def test_baseline_missing_keys_is_a_named_failure_not_keyerror(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"rows": [[1]]}))   # no events keys
    msgs = baseline_failures("x", str(path), _NOW)
    assert len(msgs) == 1
    assert "lacks required keys" in msgs[0]
    assert "events" in msgs[0]


def test_baseline_match_passes_and_drift_fails(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(_NOW))
    assert baseline_failures("x", str(path), dict(_NOW)) == []
    # rows and event count are the contract; speed is not judged here
    drift = {**_NOW, "rows": [[1, 3.0]], "events": 101,
             "events_per_s": 1.0}
    msgs = baseline_failures("x", str(path), drift)
    assert len(msgs) == 2
    assert any("determinism" in m for m in msgs)
    assert any("event count changed" in m for m in msgs)
    assert baseline_failures("x", str(path),
                             {**_NOW, "events_per_s": 1.0}) == []
