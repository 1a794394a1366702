"""Regression tests for the bench-smoke gate's failure modes.

A registered experiment without a committed baseline (or with a
malformed one) must fail the gate with a named message — never crash it
with a ``KeyError`` or slip through silently.  These paths were
previously only exercised when something was already wrong, so they are
pinned here.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.runner import SMOKE_CONFIGS

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO) not in sys.path:               # `benchmarks` is a package
    sys.path.insert(0, str(_REPO))

from benchmarks.smoke import (  # noqa: E402
    SHARD_SMOKE,
    baseline_failures,
    coverage_failures,
)


# ---------------------------------------------------------------------------
# Registry / smoke-config coverage
# ---------------------------------------------------------------------------
def test_every_registered_experiment_has_smoke_coverage():
    """The real registry must be gap-free (this is the live CI check)."""
    assert coverage_failures() == []


def test_every_registered_experiment_has_committed_baseline():
    for eid in ALL_EXPERIMENTS:
        path = _REPO / "benchmarks" / "baselines" / f"BENCH_{eid}.json"
        assert path.is_file(), f"no committed baseline for {eid}"


def test_shard_smoke_names_are_registered():
    assert set(SHARD_SMOKE) <= set(ALL_EXPERIMENTS)
    assert {"svc_kv", "svc_pubsub"} <= set(SHARD_SMOKE)


def test_unregistered_experiment_fails_coverage_loudly():
    registry = dict(ALL_EXPERIMENTS)
    registry["svc_new"] = lambda: None
    msgs = coverage_failures(registry=registry, configs=SMOKE_CONFIGS)
    assert len(msgs) == 1
    assert "svc_new" in msgs[0] and "SMOKE_CONFIGS" in msgs[0]


def test_stale_smoke_config_fails_coverage_loudly():
    configs = dict(SMOKE_CONFIGS)
    configs["fig_removed"] = {}
    msgs = coverage_failures(registry=ALL_EXPERIMENTS, configs=configs)
    assert len(msgs) == 1
    assert "fig_removed" in msgs[0]


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
