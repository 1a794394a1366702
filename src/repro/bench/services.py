"""Saturation-sweep drivers for the service workloads (svc_kv, svc_pubsub).

Each driver sweeps the aggregate offered load over ``rates`` (the
saturation sweep: latency percentiles stay flat at low load and blow up
past the knee) and reports, per point, the measured-request count, the
p50/p99/p999 of the end-to-end latency distribution (via
:class:`~repro.bench.load.LatencyDigest` — exact-rank, one-bucket-width
accuracy), and the achieved throughput over the measurement window.

Every column is a deterministic virtual-time quantity, so the tables are
byte-identical across ``--jobs``, ``--shards``, and schedulers — the
same contract the paper-figure drivers honor.  The ``rates`` tuple is
the sweep axis of their :data:`repro.bench.figures.ALL_EXPERIMENTS` row,
so points fan out across a ``--jobs`` pool.
"""

from __future__ import annotations

from repro.bench.load import LatencyDigest
from repro.bench.report import Table
from repro.cluster import ClusterConfig

#: default aggregate offered loads (requests/s) for the saturation sweeps;
#: chosen to span flat -> knee -> saturated on the default topologies
KV_RATES = (100_000.0, 1_000_000.0, 4_000_000.0, 16_000_000.0)
PUBSUB_RATES = (50_000.0, 500_000.0, 2_000_000.0, 8_000_000.0)


def _digest_row(latencies, t_end_us: float, warmup_us: float
                ) -> tuple[int, float, float, float, float]:
    """(measured, p50, p99, p999, throughput_rps) for one sweep point."""
    digest = LatencyDigest()
    digest.record_many(latencies)
    p50, p99, p999 = digest.percentiles()
    window_us = float(t_end_us) - float(warmup_us)
    tput = digest.count / window_us * 1e6 if window_us > 0 else 0.0
    return digest.count, p50, p99, p999, float(tput)


def svc_kv(rates=KV_RATES, nservers: int = 4, nclients: int = 8,
           replication: int = 2, reqs_per_client: int = 64,
           get_frac: float = 0.5, nkeys: int = 64, zipf_skew: float = 0.9,
           ranks_per_node: int = 2, seed: int = 42) -> Table:
    """Sharded KV store: offered-load sweep with latency percentiles."""
    # deferred: repro.apps.services itself imports repro.bench.load
    from repro.apps.services import run_kv
    t = Table(
        f"svc_kv: sharded KV saturation sweep ({nservers} servers, "
        f"{nclients} clients, replication={replication}, "
        f"Zipf {zipf_skew})",
        ["rate_rps", "reqs", "measured", "p50_us", "p99_us", "p999_us",
         "tput_rps"])
    for rate in rates:
        r = run_kv(nservers=nservers, nclients=nclients,
                   replication=replication,
                   reqs_per_client=reqs_per_client, rate_rps=rate,
                   get_frac=get_frac, nkeys=nkeys, zipf_skew=zipf_skew,
                   verify=True, seed=seed,
                   config=ClusterConfig(nranks=nservers + nclients,
                                        ranks_per_node=ranks_per_node))
        measured, p50, p99, p999, tput = _digest_row(
            r["lat_put_us"] + r["lat_get_us"], r["t_end_us"],
            r["warmup_us"])
        t.add(rate, r["requests"], measured, round(p50, 3), round(p99, 3),
              round(p999, 3), round(tput, 3))
    t.notes = ("Open-loop offered-load sweep: per-request latency "
               "(put: counting replication acks; get: notified-put RPC "
               "to the primary) vs aggregate request rate.  Percentiles "
               "from the log-histogram digest (exact rank, one bucket "
               "width accuracy).")
    return t


def svc_kv_ft(replications=(1, 2, 3), nservers: int = 4, nclients: int = 8,
              reqs_per_client: int = 64, rate_rps: float = 16_000.0,
              get_frac: float = 0.5, nkeys: int = 64,
              zipf_skew: float = 0.9, death_frac: float = 0.3,
              detect_us: float = 200.0, ckpt_every: int = 8,
              ranks_per_node: int = 2, seed: int = 42) -> Table:
    """Availability and recovery time vs replication degree under a
    mid-run server death.

    Each row runs the fault-tolerant KV service with one server (rank 1)
    killed at ``death_frac`` of the expected run and reports
    availability, acked-write loss, failover count, the p99 latency of
    failover-affected requests (recovery time), and checkpoint-recovery
    coverage.  ``replication=1`` shows measurable acked-write loss; the
    paper's claim is zero loss at ``replication >= 2``.
    """
    # deferred: repro.apps.services itself imports repro.bench.load
    from repro.apps.services import run_kv_ft
    from repro.faults import FaultPlan
    expected_us = reqs_per_client * nclients / rate_rps * 1e6
    death_at = death_frac * expected_us
    t = Table(
        f"svc_kv_ft: availability vs replication ({nservers} servers, "
        f"{nclients} clients, 1 death at {death_frac:.0%} of run, "
        f"detect {detect_us:g}us)",
        ["replication", "reqs", "completed", "availability", "failed",
         "acked_lost", "failovers", "p99_us", "recovery_p99_us",
         "ckpt_epochs", "ckpt_recoverable"])
    for repl in replications:
        cfg = ClusterConfig(
            nranks=nservers + nclients, ranks_per_node=ranks_per_node,
            faults=FaultPlan(node_failures={1: death_at},
                             detect_us=detect_us))
        r = run_kv_ft(nservers=nservers, nclients=nclients,
                      replication=repl, reqs_per_client=reqs_per_client,
                      rate_rps=rate_rps, get_frac=get_frac, nkeys=nkeys,
                      zipf_skew=zipf_skew, verify=(repl >= 2),
                      ckpt_every=ckpt_every, seed=seed, config=cfg)
        _, _, p99, _, _ = _digest_row(
            r["lat_put_us"] + r["lat_get_us"], r["t_end_us"],
            r["warmup_us"])
        if r["lat_affected_us"]:
            _, _, rec_p99, _, _ = _digest_row(
                r["lat_affected_us"], r["t_end_us"], r["warmup_us"])
        else:
            rec_p99 = 0.0
        t.add(repl, r["requests"], r["completed"],
              round(r["availability"], 6), r["failed"], r["acked_lost"],
              r["failovers"], round(p99, 3), round(rec_p99, 3),
              r["ckpt_epochs"], r["ckpt_recoverable"])
    t.notes = ("Continuous node-failure injection: server rank 1 dies "
               "mid-run, its death detected after detect_us.  "
               "recovery_p99_us is the p99 latency among requests that "
               "needed a failover (re-pointed replication credit or get "
               "retry); acked_lost counts acked writes whose whole "
               "final replica set died — zero at replication >= 2.  At "
               "replication == nservers no spare remains for failover, "
               "so a write caught in the detection window fails fast "
               "instead (availability dips: more replicas without "
               "spares is not more availability).  "
               "Node-failure-only plans make no RNG draws, so every "
               "column is byte-identical across --jobs/--shards.")
    return t


def svc_pubsub(rates=PUBSUB_RATES, nbrokers: int = 2, npubs: int = 4,
               nsubs: int = 6, ntopics: int = 8, fanout: int = 3,
               msgs_per_pub: int = 64, batch: int = 4,
               zipf_skew: float = 0.9, ranks_per_node: int = 2,
               seed: int = 42) -> Table:
    """Pub/sub broker: publish-rate sweep with delivery percentiles."""
    # deferred: repro.apps.services itself imports repro.bench.load
    from repro.apps.services import run_pubsub
    t = Table(
        f"svc_pubsub: broker saturation sweep ({nbrokers} brokers, "
        f"{npubs} pubs, {nsubs} subs, fanout={fanout}, batch={batch})",
        ["rate_rps", "published", "delivered", "measured", "p50_us",
         "p99_us", "p999_us", "tput_rps"])
    for rate in rates:
        r = run_pubsub(nbrokers=nbrokers, npubs=npubs, nsubs=nsubs,
                       ntopics=ntopics, fanout=fanout,
                       msgs_per_pub=msgs_per_pub, rate_rps=rate,
                       batch=batch, zipf_skew=zipf_skew, seed=seed,
                       config=ClusterConfig(
                           nranks=nbrokers + npubs + nsubs,
                           ranks_per_node=ranks_per_node))
        measured, p50, p99, p999, tput = _digest_row(
            r["lat_us"], r["t_end_us"], r["warmup_us"])
        t.add(rate, r["published"], r["delivered"], measured,
              round(p50, 3), round(p99, 3), round(p999, 3),
              round(tput, 3))
    t.notes = ("Publish -> subscriber-batch-wakeup latency vs aggregate "
               "publish rate.  Larger batch amortizes wakeups but "
               "stretches the tail — the counting-notification "
               "trade-off, visible in p999.")
    return t
