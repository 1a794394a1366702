"""Self-test of the benchmark's own machinery (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import math
import time

import compare
import probes
import pytest
import run
import spans
import workloads
from repro.apps.stencil import run_stencil
from repro.cluster import Cluster, ClusterConfig
from repro.sim.engine import Engine, events_scheduled
from repro.sim.scheduler import CalendarScheduler


def _spin(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


# -- span recorder ----------------------------------------------------------
def test_nested_spans_give_child_exclusive_self_times():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: _spin(2_000_000), "inner", "inner")

    def outer_body():
        _spin(1_000_000)
        inner()
        inner()
    outer = rec.wrap(outer_body, "outer", "outer")
    t0 = time.perf_counter_ns()
    outer()
    wall = time.perf_counter_ns() - t0
    layers = rec.summary(wall)["layers"]
    assert layers["inner"]["calls"] == 2 and layers["outer"]["calls"] == 1
    assert layers["inner"]["self_s"] == pytest.approx(4e-3, rel=0.25)
    assert layers["outer"]["self_s"] == pytest.approx(1e-3, rel=0.5)
    # every nanosecond lands in exactly one self time or outside all spans
    total = sum(row["raw_self_s"] for row in layers.values())
    assert total + rec.summary(wall)["unattributed_s"] == \
        pytest.approx(wall / 1e9, rel=1e-6)
    names = [(s["name"], s["parent"]) for s in rec.summary(wall)["raw_spans"]]
    assert names == [("inner", "outer"), ("inner", "outer"),
                     ("outer", "<root>")]


def test_calibrated_cost_is_subtracted():
    rec = spans.Recorder()
    leaf = rec.wrap(lambda: None, "leaf", "leaf")
    for _ in range(1000):
        leaf()
    cost = spans.calibrate(n=20_000, rounds=1)
    assert 0 < cost.plain_inner_ns <= cost.plain_total_ns
    assert 0 < cost.gen_inner_ns <= cost.gen_total_ns
    corrected = rec.summary(10**9, cost)["layers"]["leaf"]
    assert 0.0 <= corrected["self_s"] < corrected["raw_self_s"]


def test_generator_proxy_survives_send_throw_close_and_yield_from():
    rec = spans.Recorder()
    log = []

    def body(start):
        try:
            got = yield start
            while True:
                try:
                    got = yield got * 2
                except KeyError as exc:
                    got = yield f"caught {exc.args[0]}"
        finally:
            log.append("closed")
        return "unreachable"

    traced = rec.wrap(body, "gen", "body")

    def delegating():
        result = yield from traced(1)
        return result

    gen = delegating()
    assert next(gen) == 1
    assert gen.send(5) == 10
    assert gen.throw(KeyError("k")) == "caught k"
    assert gen.send(7) == 14
    gen.close()
    assert log == ["closed"]
    row = rec.summary(1)["layers"]["gen"]
    assert row["calls"] == 1 and row["spans"] == 4

    def finite():
        yield 1
        return "done"

    def collect():
        return (yield from rec.wrap(finite, "gen", "finite")())
    gen = collect()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"

    def failing():
        yield 1
        raise ValueError("boom")
    gen = rec.wrap(failing, "gen", "failing")()
    next(gen)
    with pytest.raises(ValueError, match="boom"):
        next(gen)
    assert rec._stack == [rec._stack[0]] and rec._kstack == [0]


def test_wrappers_are_removed_after_the_traced_pass():
    before = (Cluster.__init__, Cluster.run, Engine.run, Engine.timeout,
              CalendarScheduler.push, run_stencil)
    from repro.apps import stencil
    from repro.bench import figures
    rec = spans.Recorder()
    rec.install()
    try:
        assert spans.installed()
        assert Cluster.run is not before[1]
        assert figures.run_stencil is not before[5]
        with pytest.raises(RuntimeError):
            spans.Recorder().install()
    finally:
        rec.uninstall()
    assert not spans.installed()
    after = (Cluster.__init__, Cluster.run, Engine.run, Engine.timeout,
             CalendarScheduler.push, stencil.run_stencil)
    assert after == before
    assert figures.run_stencil is before[5]


def test_traced_digest_equals_untraced_digest():
    def work():
        events0 = events_scheduled()
        r = run_stencil("na", 4, rows=32, cols=128,
                        config=ClusterConfig(nranks=4))
        return workloads.digest(sorted(r.items()),
                                events_scheduled() - events0)
    untraced = work()
    rec = spans.Recorder()
    rec.install()
    try:
        t0 = time.perf_counter_ns()
        traced = work()
        wall = time.perf_counter_ns() - t0
    finally:
        rec.uninstall()
    assert traced == untraced
    summary = rec.summary(wall)
    layers = summary["layers"]
    for layer in ("cluster", "sim.kernel", "sim.scheduler", "sim.engine",
                  "network.fabric", "core.na", "rma", "mpi", "apps"):
        assert layers[layer]["calls"] > 0, layer
    assert layers["sim.shard"]["calls"] == 0
    assert summary["unattributed_s"] < 0.05 * summary["wall_s"]
    assert rec.counts["cluster.clusters_built"] == 1
    assert rec.counts["cluster.ranks_built"] == 4
    assert rec.counts["core.na.notified_ops"] > 0


# -- probes and manifest ----------------------------------------------------
def test_manifest_matches_what_the_code_emits():
    manifest = run.load_manifest()
    assert manifest["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [m["name"] for m in manifest["end_to_end"]] == \
        ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    traced = {
        "layers": {name: {"self_s": 0.0, "calls": 0}
                   for name in spans.LAYERS},
        "trace": {"overhead_ratio": 2.0, "span_cost_ns": 1.0,
                  "unattributed_s": 0.0},
        "counts": dict.fromkeys((
            "cluster.clusters_built", "cluster.ranks_built",
            "network.fabric.wire_transactions",
            "network.fabric.bytes_on_wire", "core.na.notified_ops",
            "mpi.eager_copies", "mpi.rndv_sends", "memory.cache_misses",
            "model.virt_time_us", "sim.engine.events"), 0),
        "events_per_s": 1.0, "ns_per_event": 1.0, "shard": {}, "model": {},
        "probes": probes.run_probes(probes.Budget(1, 1e-4), 42,
                                    str(run.ROOT)),
    }
    emitted = run.per_layer_metrics(traced)
    assert sorted(emitted) == sorted(m["name"]
                                     for m in manifest["per_layer"])
    assert len(emitted) <= 128
    for name, value in traced["probes"].items():
        assert math.isfinite(value) and value > 0, name
    record = {"per_layer": emitted, "end_to_end": {},
              "ops": {"attempted": 3, "failed": 0}}
    line = json.loads(run.contract_line(record, manifest, trace=1))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True


def test_compare_verdicts():
    assert compare.verdict(1.0, 1.07, bound=0.08, spread=0.0) == "ok"
    assert compare.verdict(1.0, 0.5, bound=0.08, spread=0.5) == "ok"
    assert compare.verdict(1.0, 1.2, bound=0.08, spread=0.02) == "regressed"
    assert compare.verdict(1.0, 1.2, bound=0.08, spread=0.1) == "unresolved"
