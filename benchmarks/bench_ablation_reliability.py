"""Ablation: notified access on reliable vs unreliable networks (§VIII).

Two unreliability models are exercised:

* the *pricing* model (``TransportParams.reliable``): notified gets pay an
  extra ack round trip on the buffer-reuse path;
* the *mechanism* model (:class:`repro.faults.FaultPlan`): packets really
  drop and the transport retries with exponential backoff, duplicates are
  deduplicated by sequence number, and the drop/retry/duplicate counters
  are reported.  The NA-vs-flush_notify sweep below runs that machinery
  end-to-end at drop rates {0, 0.01, 0.1}.
"""

from benchmarks.conftest import run_once
from repro.apps.pingpong import run_pingpong
from repro.bench.report import fault_table
from repro.cluster import ClusterConfig
from repro.faults import FaultPlan
from repro.network.loggp import TransportParams

DROP_RATES = (0.0, 0.01, 0.1)
FAULT_SEED = 2015                       # the paper's year; any fixed value


def _lossy_config(drop_prob: float) -> ClusterConfig:
    plan = (FaultPlan(drop_prob=drop_prob, seed=FAULT_SEED)
            if drop_prob else None)
    return ClusterConfig(nranks=2, ranks_per_node=1, faults=plan)


def test_unreliable_get_pays_roundtrip(benchmark):
    def sweep():
        rel = ClusterConfig(nranks=2,
                            params=TransportParams(reliable=True))
        unrel = ClusterConfig(nranks=2,
                              params=TransportParams(reliable=False))
        return (run_pingpong("na_get", 64, iters=15,
                             config=rel)["half_rtt_us"],
                run_pingpong("na_get", 64, iters=15,
                             config=unrel)["half_rtt_us"])

    t_rel, t_unrel = run_once(benchmark, sweep)
    print()
    print(f"notified-get half RTT: reliable={t_rel:.2f}us "
          f"unreliable={t_unrel:.2f}us")
    # The extra ack leg is roughly two wire latencies (data + ack).
    assert t_unrel > t_rel + 1.0


def test_put_unaffected_by_reliability_mode(benchmark):
    def sweep():
        rel = ClusterConfig(nranks=2,
                            params=TransportParams(reliable=True))
        unrel = ClusterConfig(nranks=2,
                              params=TransportParams(reliable=False))
        return (run_pingpong("na", 64, iters=15,
                             config=rel)["half_rtt_us"],
                run_pingpong("na", 64, iters=15,
                             config=unrel)["half_rtt_us"])

    t_rel, t_unrel = run_once(benchmark, sweep)
    assert t_rel == t_unrel


def test_retransmission_degrades_gracefully(benchmark):
    def sweep():
        return (run_pingpong("na", 64, iters=30,
                             config=_lossy_config(0.0))["half_rtt_us"],
                run_pingpong("na", 64, iters=30,
                             config=_lossy_config(0.2))["half_rtt_us"])

    t_clean, t_lossy = run_once(benchmark, sweep)
    print()
    print(f"NA put half RTT: clean={t_clean:.2f}us "
          f"20%-drop={t_lossy:.2f}us")
    assert t_lossy > t_clean


def test_na_vs_flush_notify_under_injected_drops(benchmark):
    """The paper's single-transaction argument, restated for lossy links:
    flush_notify exposes two transfers per handoff to the drop process, so
    injected loss hurts it at least as much as NA — and both survive with
    exactly-once delivery thanks to retry + dedup."""

    def sweep():
        rows = []
        for mode in ("na", "flush_notify"):
            for drop in DROP_RATES:
                res = run_pingpong(mode, 64, iters=25,
                                   config=_lossy_config(drop))
                res["drop_prob"] = drop
                rows.append(res)
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(fault_table(rows, title="NA vs flush_notify under packet loss"))
    by_key = {(r["mode"], r["drop_prob"]): r for r in rows}
    for mode in ("na", "flush_notify"):
        clean = by_key[(mode, 0.0)]
        assert "faults" not in clean           # no injector on the 0.0 runs
        # loss only ever slows a mode down, and monotonically so
        assert (by_key[(mode, 0.1)]["half_rtt_us"]
                > by_key[(mode, 0.01)]["half_rtt_us"]
                >= clean["half_rtt_us"])
        lossy = by_key[(mode, 0.1)]["faults"]
        assert lossy["retries"] > 0 and lossy["drops"] > 0
        assert lossy["lost_ops"] == 0          # every handoff recovered
    # two transfers per handoff: flush_notify is the slower mechanism
    # at every loss rate
    for drop in DROP_RATES:
        assert (by_key[("flush_notify", drop)]["half_rtt_us"]
                > by_key[("na", drop)]["half_rtt_us"])


def test_fault_injected_run_is_bit_reproducible(benchmark):
    """Acceptance: a fixed-seed FaultPlan(drop_prob=0.1) NA ping-pong run
    completes via retries and reproduces bit-for-bit."""

    def once():
        return run_pingpong("na", 64, iters=25, config=_lossy_config(0.1))

    first = run_once(benchmark, once)
    second = once()
    assert first["half_rtt_us"] == second["half_rtt_us"]
    assert first["faults"] == second["faults"]
    assert first["faults"]["retries"] > 0
    assert first["faults"]["lost_ops"] == 0
