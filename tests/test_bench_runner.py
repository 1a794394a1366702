"""Parallel bench runner: split/merge equality and JSON round-trip."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.runner import (
    _jsonable,
    _sweep_points,
    bench_payload,
    run_experiment,
    write_bench_json,
)

TINY = {"sizes": (8, 512), "iters": 2}

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ENV = {**os.environ, "PYTHONPATH": os.path.join(_REPO, "src")}


def test_sweep_params_cover_registry():
    """Every row's sweep axis is a keyword of that row's driver."""
    for eid, exp in ALL_EXPERIMENTS.items():
        if exp.sweep is not None:
            params = inspect.signature(exp.driver).parameters
            assert exp.sweep in params, eid
    # Unsplittable experiments resolve to no sweep.
    assert _sweep_points("fig2", {}) == (None, None)
    assert _sweep_points("table1", {}) == (None, None)


def test_sweep_points_from_kwargs_and_defaults():
    param, values = _sweep_points("fig3a", {"sizes": (8, 64)})
    assert param == "sizes" and values == [8, 64]
    param, values = _sweep_points("fig1", {})
    assert param == "nranks_list" and values == [2, 4, 8, 16, 32]


def test_parallel_table_matches_serial():
    """The merged parallel table must be byte-identical to the serial one,
    with identical simulated-event counts."""
    serial_t, serial_m = run_experiment("fig3a", jobs=1, **TINY)
    par_t, par_m = run_experiment("fig3a", jobs=2, **TINY)
    assert str(serial_t) == str(par_t)
    assert serial_t.rows == par_t.rows
    assert serial_m["events"] == par_m["events"]
    assert serial_m["jobs"] == 1
    assert par_m["jobs"] == 2
    assert len(par_m["seeds"]) == 2  # one deterministic seed per point


def test_runner_matches_direct_driver_call():
    direct = ALL_EXPERIMENTS["fig3a"].driver(**TINY)
    table, _ = run_experiment("fig3a", jobs=2, **TINY)
    assert str(table) == str(direct)


def test_single_point_sweep_runs_serially():
    table, meta = run_experiment("fig3a", jobs=4, sizes=(8,), iters=2)
    assert meta["jobs"] == 1
    assert len(table.rows) == 1


def test_runner_reports_no_fleet_rate_for_serial_run():
    """A run with no sharded point has no critical path: the meta says
    ``None``, not a rate of zero — and counts the collector runs the
    experiment paid for."""
    _table, meta = run_experiment("fig3a", jobs=1, **TINY)
    assert meta["cp_s"] is None and meta["events_per_s_cp"] is None
    assert meta["scheduler"] in ("heap", "calendar")
    assert len(meta["gc_collections"]) == 3
    assert min(meta["gc_collections"]) >= 0


def test_runner_reports_fleet_rate_for_sharded_run():
    _table, meta = run_experiment("fig4c", jobs=2, shards=2,
                                  **ALL_EXPERIMENTS["fig4c"].smoke)
    assert meta["cp_s"] > 0 and meta["events_per_s_cp"] > 0
    assert len(meta["gc_collections"]) == 3


@pytest.mark.parametrize("eid", ["fig2", "fig3a", "fig3b", "fig3c", "fig4a",
                                 "fig5", "table1", "sec5", "sec7"])
def test_shards_flag_is_total(eid):
    """``--shards`` is accepted by every experiment and changes no cell
    (the rows flagged ``shard_smoke`` are gated in CI; fig4b and
    shard_weak stay out for run time).  An experiment that reads a
    serial-only attribute of the run, or hands results out through a
    closure a forked worker fills, fails here."""
    smoke = ALL_EXPERIMENTS[eid].smoke
    serial, _ = run_experiment(eid, **smoke)
    sharded, _ = run_experiment(eid, shards=2, **smoke)
    assert serial.rows and sharded.rows == serial.rows


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("nope")


def test_jsonable_coerces_numpy_scalars():
    out = _jsonable([np.int64(3), np.float64(1.5), (np.int32(2), "s")])
    assert out == [3, 1.5, [2, "s"]]
    assert json.dumps(out)  # actually serialisable


def test_bench_json_round_trip(tmp_path):
    table, meta = run_experiment("fig3a", jobs=1, **TINY)
    path = write_bench_json(str(tmp_path), table, meta)
    assert path.endswith("BENCH_fig3a.json")
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(bench_payload(table, meta)))
    assert loaded["experiment"] == "fig3a"
    assert loaded["columns"] == table.columns
    assert len(loaded["rows"]) == len(table.rows)
    assert loaded["events"] > 0
    assert loaded["events_per_s"] > 0
    assert loaded["kwargs"]["sizes"] == [8, 512]


def test_cli_jobs_and_json_flags(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "fig3a",
         "--jobs", "2", "--json", str(tmp_path)],
        capture_output=True, text=True, env=_ENV, cwd=_REPO, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "Figure 3a" in proc.stdout
    assert "events/s" in proc.stdout
    with open(tmp_path / "BENCH_fig3a.json") as fh:
        payload = json.load(fh)
    assert payload["jobs"] == 2


def test_cli_rejects_bad_flags():
    for argv in (["--jobs"], ["--jobs", "two"], ["--json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench", *argv],
            capture_output=True, text=True, env=_ENV, cwd=_REPO,
            check=False)
        assert proc.returncode == 2, (argv, proc.stderr)
