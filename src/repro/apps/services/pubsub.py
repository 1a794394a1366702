"""Pub/sub broker over Notified Access with counting batch wakeup.

Topology: ``nbrokers`` broker ranks, then ``npubs`` publishers, then
``nsubs`` subscribers.  Topic ``t`` is owned by broker ``t % nbrokers``;
each topic has a fixed, seed-derived set of ``fanout`` subscribers.

Publish path
    Publishers are open-loop (arrivals from
    :func:`repro.bench.load.arrival_times`, topic choice Zipf-skewed):
    message ``i`` is a 16-byte ``[topic, publish_time]`` record
    ``put_notify``-ed into the publisher's private slot on the first
    ``replication`` **live** brokers of the topic's ring (owner first) —
    fire-and-forget, one wire transaction per copy.  Only the owner
    forwards; the others store the record as a mirror (durability), so
    delivery counts stay the static plan and a fault plan may only kill
    brokers that own no published topic: pure mirrors.

Fan-out path
    The broker drains publisher notifications through one wildcard
    persistent request and forwards each message to every subscriber of
    its topic: a 24-byte ``[topic, publish_time, publisher]`` record
    ``put_notify``-ed into the next slot of that subscriber's per-broker
    inbox segment (disjoint writers — no write conflicts anywhere).

Wakeup path — the counting feature
    A subscriber does **not** take a wakeup per message: it posts one
    counting request (``expected_count = batch``) and the matching
    engine wakes it once a whole batch of notifications arrived (the
    paper's counting notifications amortizing synchronization over
    fan-in, §III-B).  On wakeup it walks the request's ``match_log`` —
    notifications from one broker match in arrival order, so each
    matched (source, tag) pairs with the next unread slot of that
    broker's inbox segment — and the match itself is the
    happens-before acquire for the record read.  The batch's wakeup
    instant is the arrival clock of its count-crossing notification
    (``max`` over the match log), not the observation time, so
    end-to-end latency ``wake_time - publish_time`` is invariant to
    same-timestamp event ordering (the sharded core's tie-break
    freedom).

Termination
    A broker does not count publishes down (mirrors re-point under
    failures): each publisher sends a zero-byte end-of-stream credit to
    every live broker after its last publish, and a broker exits once
    all ``npubs`` credits arrived (a counting request).  A mirror broker
    with a planned death crash-exits at its death time
    (``waitany(reqs, until=t_die)``); there is no trailing barrier, dead
    ranks cannot join collectives.

All schedules and fan-out sets derive from the seed, subscribers know
their delivery counts from the plan, and latencies are virtual-time
differences — so the tables are byte-identical across ``--jobs``,
``--shards``, and scheduler choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.load import ZipfKeys, arrival_times
from repro.cluster import ClusterConfig, run_ranks
from repro.errors import ReproError
from repro.ft.detector import FailureDetector
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.sim.rng import RngStream

#: bytes per publisher->broker record [topic, publish_time]
_PUB_RECORD = 16
#: bytes per broker->subscriber record [topic, publish_time, publisher]
_SUB_RECORD = 24


@dataclass(frozen=True)
class PubSubPlan:
    """The full precomputed workload — identical on every rank."""

    arrivals: list[np.ndarray]      # per publisher, µs offsets
    topics: list[np.ndarray]        # per publisher, int64 topic ids
    subs_of_topic: list[list[int]]  # per topic, subscriber indices
    #: deliveries[broker][sub] — exact record count per inbox segment
    deliveries: list[list[int]]


def build_pubsub_workload(seed: int, npubs: int, nsubs: int, nbrokers: int,
                          ntopics: int, fanout: int, msgs_per_pub: int,
                          rate_rps: float,
                          zipf_skew: float,
                          process: str = "poisson") -> PubSubPlan:
    """Precompute arrivals, topic choices, subscriptions, and counts."""
    zipf = ZipfKeys(ntopics, zipf_skew)
    arrivals, topics = [], []
    for p in range(npubs):
        arrivals.append(arrival_times(seed, ("svc_pubsub", p), msgs_per_pub,
                                      rate_rps / npubs, process))
        topics.append(zipf.sample(RngStream(seed, "svc_pubsub", "topic", p),
                                  msgs_per_pub))
    subs_of_topic = []
    for t in range(ntopics):
        order = list(range(nsubs))
        RngStream(seed, "svc_pubsub", "subs", t).shuffle(order)
        subs_of_topic.append(sorted(order[:fanout]))
    deliveries = [[0] * nsubs for _ in range(nbrokers)]
    for p in range(npubs):
        for t in topics[p]:
            b = int(t) % nbrokers
            for s in subs_of_topic[int(t)]:
                deliveries[b][s] += 1
    return PubSubPlan(arrivals, topics, subs_of_topic, deliveries)


def _windows(ctx, npubs, msgs_per_pub, sub_bytes):
    """Collective window allocation (same order on all ranks): pub_win,
    sub_win, eos_win.  Only a subscriber's ``sub_win`` has an inbox."""
    pub_win = yield from ctx.win_allocate(npubs * msgs_per_pub * _PUB_RECORD)
    sub_win = yield from ctx.win_allocate(max(sub_bytes, 8))
    eos_win = yield from ctx.win_allocate(8)
    return pub_win, sub_win, eos_win


def _publisher_program(ctx, plan, nbrokers, npubs, msgs_per_pub,
                       replication):
    """Open-loop publisher: fire-and-forget notified puts to the first R
    live brokers of the topic's ring, then end-of-stream credits."""
    p_idx = ctx.rank - nbrokers
    arrivals = plan.arrivals[p_idx]
    topics = plan.topics[p_idx]
    pub_win, _sub_win, eos_win = yield from _windows(
        ctx, npubs, msgs_per_pub, 0)
    det = FailureDetector(ctx)
    yield from ctx.barrier()
    t0 = ctx.now
    mirrored = 0
    for i in range(len(arrivals)):
        due = t0 + arrivals[i]
        if ctx.now < due:
            yield ctx.timeout(due - ctx.now)
        topic = int(topics[i])
        ring = [(topic + j) % nbrokers for j in range(nbrokers)]
        targets = det.live(ring)[:replication]
        record = np.array([float(topic), ctx.now])
        for broker in targets:
            yield from ctx.na.put_notify(
                pub_win, record, broker,
                (p_idx * msgs_per_pub + i) * _PUB_RECORD, tag=i)
            yield from pub_win.flush_local(broker)
        mirrored += len(targets) - 1
    empty = np.empty(0, dtype=np.uint8)
    for b in det.live(range(nbrokers)):
        yield from ctx.na.put_notify(eos_win, empty, b, 0, tag=0)
        yield from eos_win.flush_local(b)
    return {"published": len(arrivals), "mirrored": mirrored,
            "live_requests": ctx.na.live_requests}


def _broker_program(ctx, plan, nbrokers, npubs, nsubs, msgs_per_pub):
    """Match publisher records: fan owned topics out to their
    subscribers, store mirrors; exit on the publishers' end-of-stream
    credits, or crash-exit at the planned death time."""
    b = ctx.rank
    na = ctx.na
    pub_win, sub_win, eos_win = yield from _windows(
        ctx, npubs, msgs_per_pub, 0)
    t_die = FailureDetector(ctx).death_time(b)
    # Inbox segment offsets: subscriber s's inbox lays broker segments
    # back to back; this broker's segment starts after brokers < b.
    seg_base = [sum(plan.deliveries[bb][s] for bb in range(b))
                for s in range(nsubs)]
    cursor = [0] * nsubs
    pub_req = yield from na.notify_init(pub_win, source=ANY_SOURCE,
                                        tag=ANY_TAG)
    eos_req = yield from na.notify_init(eos_win, source=ANY_SOURCE, tag=0,
                                        expected_count=npubs)
    yield from ctx.barrier()
    if t_die is not None and ctx.now >= t_die:
        raise ReproError(
            f"broker {b} is planned dead at t={t_die:g}us, before setup "
            f"finished at t={ctx.now:g}us — raise the death time")
    order: list[tuple[int, int]] = []
    mirrored = 0
    crashed = False
    yield from na.start(pub_req)
    yield from na.start(eos_req)
    while True:
        hit = yield from na.waitany([pub_req, eos_req], until=t_die)
        if hit is None:                         # the planned death
            crashed = True
            break
        idx, st = hit
        if idx == 1:                            # end of stream
            break
        p_idx = st.source - nbrokers
        slot = (p_idx * msgs_per_pub + st.tag) * _PUB_RECORD
        rec = pub_win.local(np.float64, offset=slot, count=2, mode="r")
        topic, pub_time = int(rec[0]), float(rec[1])
        if topic % nbrokers == b:
            order.append((st.source, st.tag))
            out = np.array([float(topic), pub_time, float(p_idx)])
            for s in plan.subs_of_topic[topic]:
                disp = (seg_base[s] + cursor[s]) * _SUB_RECORD
                cursor[s] += 1
                sub_rank = nbrokers + npubs + s
                yield from na.put_notify(sub_win, out, sub_rank, disp,
                                         tag=topic)
                yield from sub_win.flush_local(sub_rank)
        else:
            mirrored += 1
        yield from na.start(pub_req)
    if not crashed:
        # End of stream: every publish happened-before its publisher's
        # credit, so nothing can arrive for pub_req any more.
        for req in (pub_req, eos_req):
            na.cancel(req)
            yield from na.request_free(req)
    return {"forwarded": sum(cursor), "order": order,
            "mirrored": mirrored, "crashed": crashed,
            "live_requests": na.live_requests}


def _subscriber_program(ctx, plan, nbrokers, npubs, nsubs, batch,
                        warmup_us, msgs_per_pub):
    """Counting-notification batch wakeup + match-log consumption."""
    s = ctx.rank - nbrokers - npubs
    total = sum(plan.deliveries[b][s] for b in range(nbrokers))
    seg_base = [sum(plan.deliveries[bb][s] for bb in range(b))
                for b in range(nbrokers)]
    _pub, sub_win, _eos = yield from _windows(
        ctx, npubs, msgs_per_pub, total * _SUB_RECORD)
    yield from ctx.barrier()
    t0 = ctx.now

    matched = 0
    consumed = [0] * nbrokers   # per-broker cursor into my segments
    deliveries: list[tuple[int, int]] = []
    lat: list[float] = []
    measured = 0
    last_wake = t0
    while matched < total:
        want = min(batch, total - matched)
        req = yield from ctx.na.notify_init(sub_win, source=ANY_SOURCE,
                                            tag=ANY_TAG,
                                            expected_count=want)
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)
        batch_log = list(req.match_log)
        yield from ctx.na.request_free(req)
        matched += want
        # The batch's wakeup instant is when its count threshold was
        # crossed — the arrival clock of the latest matched
        # notification, not when this process happened to observe it
        # (keeps latencies shard-tie invariant).
        wake = max(t for _, _, t in batch_log)
        last_wake = max(last_wake, wake)
        # Per-broker segments fill in the broker's send order, and
        # notifications from one source match in arrival order, so each
        # matched (source, tag) pairs with the next unread slot of that
        # broker's segment.  The match acquired the record's
        # happens-before edge, so a checked "r" read is race-free.
        for source, tag, _t in batch_log:
            slot = (seg_base[source] + consumed[source]) * _SUB_RECORD
            consumed[source] += 1
            rec = sub_win.local(np.float64, offset=slot, count=3,
                                mode="r")
            topic, pub_time = int(rec[0]), float(rec[1])
            if topic != tag:
                raise ReproError(
                    f"subscriber {s}: slot topic {topic} != "
                    f"notification tag {tag}")
            deliveries.append((topic, int(rec[2])))
            if pub_time - t0 >= warmup_us:
                lat.append(wake - pub_time)
                measured += 1
    if sum(consumed) != total:
        raise ReproError(
            f"subscriber {s}: consumed {sum(consumed)} of {total}")
    return {"delivered": total, "measured": measured, "lat": lat,
            "deliveries": deliveries, "t_last_wake": last_wake - t0,
            "live_requests": ctx.na.live_requests}


def run_pubsub(nbrokers: int = 2, npubs: int = 4, nsubs: int = 6,
               ntopics: int = 8, fanout: int = 3, msgs_per_pub: int = 32,
               rate_rps: float = 4000.0, batch: int = 4,
               zipf_skew: float = 0.9, warmup_frac: float = 0.2,
               process: str = "poisson", replication: int = 1,
               seed: int = 42,
               config: ClusterConfig | None = None) -> dict:
    """Run the pub/sub broker service; returns delivery traces + latencies.

    ``rate_rps`` is the aggregate publish rate.  End-to-end latency is
    publish → subscriber batch wakeup, so larger ``batch`` trades wakeup
    amortization against tail latency — the counting-notification
    trade-off, measurable here.  The cluster configuration's
    :class:`~repro.faults.FaultPlan` (if any) must be node-failure-only
    and may only kill pure-mirror brokers (see the module docstring).
    """
    if min(nbrokers, npubs, nsubs) < 1:
        raise ReproError("need at least one broker/publisher/subscriber")
    if not 1 <= fanout <= nsubs:
        raise ReproError(f"fanout {fanout} outside [1, nsubs={nsubs}]")
    if not 1 <= msgs_per_pub <= 0xFFFF:
        raise ReproError("msgs_per_pub must fit the 16-bit tag space")
    if batch < 1:
        raise ReproError(f"batch must be >= 1, got {batch}")
    if not 1 <= replication <= nbrokers:
        raise ReproError(
            f"replication {replication} outside [1, nbrokers={nbrokers}]")
    nranks = nbrokers + npubs + nsubs
    if config is None:
        config = ClusterConfig(nranks=nranks, ranks_per_node=2)
    if config.nranks != nranks:
        raise ReproError(f"config has {config.nranks} ranks, "
                         f"need {nranks}")
    plan = build_pubsub_workload(seed, npubs, nsubs, nbrokers, ntopics,
                                 fanout, msgs_per_pub, rate_rps, zipf_skew,
                                 process)
    plan_f = config.faults
    if plan_f is not None and plan_f.active:
        if not plan_f.node_failures_only:
            raise ReproError(
                "run_pubsub needs a node-failure-only FaultPlan")
        primaries = {int(t) % nbrokers
                     for p in range(npubs) for t in plan.topics[p]}
        bad = [r for r in plan_f.node_failures
               if not 0 <= r < nbrokers or r in primaries]
        if bad:
            raise ReproError(
                f"only pure-mirror brokers may die (ranks < {nbrokers} "
                f"owning no published topic); plan kills {sorted(bad)}")
    expected_us = msgs_per_pub * npubs / rate_rps * 1e6
    warmup_us = warmup_frac * expected_us

    def program(ctx):
        # analyze: skip  (rank count and loop bounds come from the plan)
        if ctx.rank < nbrokers:
            result = yield from _broker_program(
                ctx, plan, nbrokers, npubs, nsubs, msgs_per_pub)
        elif ctx.rank < nbrokers + npubs:
            result = yield from _publisher_program(
                ctx, plan, nbrokers, npubs, msgs_per_pub, replication)
        else:
            result = yield from _subscriber_program(
                ctx, plan, nbrokers, npubs, nsubs, batch, warmup_us,
                msgs_per_pub)
        return result

    results, _cluster = run_ranks(nranks, program, config=config)
    brokers = results[:nbrokers]
    pubs = results[nbrokers:nbrokers + npubs]
    subs = results[nbrokers + npubs:]
    return {
        "nbrokers": nbrokers,
        "npubs": npubs,
        "nsubs": nsubs,
        "replication": replication,
        "published": msgs_per_pub * npubs,
        "forwarded": sum(r["forwarded"] for r in brokers),
        "delivered": sum(r["delivered"] for r in subs),
        "measured": sum(r["measured"] for r in subs),
        "mirrored": sum(r["mirrored"] for r in pubs),
        "mirror_stored": sum(r["mirrored"] for r in brokers),
        "crashed": sum(1 for r in brokers if r["crashed"]),
        "broker_orders": [r["order"] for r in brokers],
        "sub_deliveries": [r["deliveries"] for r in subs],
        "live_requests": [r["live_requests"] for r in results],
        "lat_us": sorted(x for r in subs for x in r["lat"]),
        "warmup_us": warmup_us,
        "t_end_us": max(r["t_last_wake"] for r in subs),
    }
