"""Sharded key-value store served over Notified Access.

The production-service counterpart of the paper's HPC kernels: ``nservers``
ranks each own a shard of the key space, ``nclients`` ranks issue an
**open-loop** stream of ``put``/``get`` requests against it (arrival times
come from :func:`repro.bench.load.arrival_times`, key popularity from
:class:`~repro.bench.load.ZipfKeys`) and record per-request latency.
There is one server and one client program with the :mod:`repro.ft`
layer always underneath: a fault-free run and a run whose fault plan
kills server nodes execute the same code.

Write path — mirrored notified puts, counting credit acks
    A put mirrors its 16-byte record to the first R **live** servers of
    the key's ring chain (:class:`~repro.ft.replicate.ReplicatedWindow`,
    one wire transaction per copy, Figure 2d).  Each server matches the
    notification, applies the record and acks with a **zero-byte**
    ``put_notify`` (the credit-message idiom of §III-B); the client
    waits for all copies through **one counting request** per put.  When
    a replica dies before acking,
    :meth:`~repro.ft.replicate.ReplicatedWindow.wait_acks` re-points the
    outstanding credit at the next live chain member; the client only
    sees :class:`~repro.errors.FaultError` when the whole chain is dead.

Read path — notified-put RPC with retry
    A get sends the 8-byte key to the first live chain server and waits
    on a single-count request for the 8-byte reply put back into its
    per-request reply slot.  Both legs are notified puts, deliberately:
    a one-sided ``win.get`` reserves the origin's receive link and the
    target's injection engine *at issue time* in the serial fabric — a
    plan-ahead the conservative shard protocol cannot replay under
    contention — and read latency honestly includes the server's
    request-service queueing.  If the server dies before replying, the
    client retries against the next live chain member under a fresh tag
    and reply slot (a stale late reply can then never alias the retry —
    it parks in the unexpected queue).  With ``replication >= 2`` the
    retry target holds every acked record; with ``replication == 1``
    staleness and loss become measurable instead of fatal.

Epoch checkpoints
    All ranks cut a collective epoch-0 checkpoint after setup.  With
    ``ckpt_every > 0`` each server then ships an incremental snapshot of
    its applied store to a buddy (the next server rank) every
    ``ckpt_every`` applies: one notified put of the packed records,
    acked by a zero-byte credit — a server never ships epoch ``k+1``
    until the buddy acked ``k``, which bounds buddy memory to one slot
    and gives the sanitizer the happens-before edge ordering successive
    slot overwrites.  The buddy's latest snapshot per dead server is
    reported as the recoverable-record count.

Termination
    A service does not know its request count in advance (failover
    re-points records), so clients send a zero-byte end-of-stream credit
    to every live server after settling, and a server exits once all
    ``nclients`` credits arrived (a counting request).  Acks
    happen-before client settle happens-before EOS, so no work can
    linger at a live server past its EOS count.  A server with a planned
    death crash-exits at its death time (``waitany(reqs, until=t_die)``);
    there is no trailing barrier, dead ranks cannot join collectives.

The client is genuinely open-loop: requests issue at their precomputed
arrival times whether or not earlier ones completed, and completion is
accounted afterwards from the deterministic event clocks — the last
matching notification's NIC **arrival** time
(:attr:`~repro.core.nrequest.NotifyRequest.match_log`) — so queueing
delay shows up in the measured latency instead of throttling the offered
load, and no number depends on when the client observed an event.  The
workload is a pure function of the seed and every wire operation is a
notified put (a contended get is not exact under ``--shards``), so
results — every latency and failover count — are byte-identical across
``--jobs`` and ``--shards``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.load import ZipfKeys, arrival_times
from repro.cluster import ClusterConfig, run_ranks
from repro.errors import FaultError, ReproError
from repro.ft.checkpoint import checkpoint as cut_checkpoint
from repro.ft.detector import FailureDetector
from repro.ft.replicate import ReplicatedWindow
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.sim.rng import RngStream

#: bytes per (key, value) record in a put slot
_RECORD_BYTES = 16
#: bytes per get request / reply value
_VALUE_BYTES = 8
#: float64 slots in a shipped checkpoint header: [epoch, record_count]
_CKPT_HEADER = 2


def seed_value(key: int) -> float:
    """Value every key holds before the first put reaches its server."""
    return key * 3.0 + 1.0


@dataclass(frozen=True)
class ClientPlan:
    """One client's precomputed open-loop request schedule."""

    arrivals: np.ndarray   # µs offsets from the post-barrier epoch start
    keys: np.ndarray       # int64 key ids
    is_get: np.ndarray     # bool per request


def build_kv_workload(seed: int, nclients: int, reqs_per_client: int,
                      rate_rps: float, get_frac: float, nkeys: int,
                      zipf_skew: float,
                      process: str = "poisson") -> list[ClientPlan]:
    """Per-client request plans — a pure function of the arguments.

    ``rate_rps`` is the *aggregate* offered load; each client runs an
    independent arrival process at ``rate_rps / nclients``.
    """
    zipf = ZipfKeys(nkeys, zipf_skew)
    plans = []
    for c in range(nclients):
        arrivals = arrival_times(seed, ("svc_kv", c), reqs_per_client,
                                 rate_rps / nclients, process)
        keys = zipf.sample(RngStream(seed, "svc_kv", "keys", c),
                           reqs_per_client)
        ops = RngStream(seed, "svc_kv", "ops", c).array(reqs_per_client)
        plans.append(ClientPlan(arrivals, keys, ops < get_frac))
    return plans


def copy_servers(key: int, nservers: int, replication: int) -> list[int]:
    """Server ranks holding ``key``: primary + chained backups."""
    primary = int(key) % nservers
    return [(primary + j) % nservers for j in range(replication)]


def _legal_values(plans: list[ClientPlan], reqs_per_client: int,
                  nkeys: int) -> dict[int, set[float]]:
    """Per key, the set of values a get may legally observe."""
    legal = {key: {seed_value(key)} for key in range(nkeys)}
    for c, plan in enumerate(plans):
        for i, (key, is_get) in enumerate(zip(plan.keys, plan.is_get)):
            if not is_get:
                legal[int(key)].add(float(c * reqs_per_client + i))
    return legal


def _ckpt_payload(store: dict[int, float], epoch: int,
                  nkeys: int) -> np.ndarray:
    """Pack a server's applied store as [epoch, count, key, val, ...]."""
    out = np.zeros(_CKPT_HEADER + 2 * nkeys, dtype=np.float64)
    out[0] = float(epoch)
    out[1] = float(len(store))
    for j, key in enumerate(sorted(store)):
        out[_CKPT_HEADER + 2 * j] = float(key)
        out[_CKPT_HEADER + 2 * j + 1] = store[key]
    return out


def _parse_ckpt(raw: np.ndarray) -> tuple[int, dict[int, float]]:
    body = raw[_CKPT_HEADER:_CKPT_HEADER + 2 * int(raw[1])]
    return int(raw[0]), {int(k): float(v)
                         for k, v in zip(body[::2], body[1::2])}


def _windows(ctx, nclients, nservers, reqs_per_client, nkeys):
    """Collective window allocation, identical on every rank.

    The RPC/reply spaces hold ``nservers`` slots per request: a get
    retried against the k-th chain member uses tag
    ``k * reqs_per_client + i``, which indexes a fresh request slot and
    a fresh reply slot — stale replies can never alias a retry.
    """
    span = nservers * reqs_per_client
    kv_win = yield from ctx.win_allocate(
        nclients * reqs_per_client * _RECORD_BYTES)
    rpc_win = yield from ctx.win_allocate(nclients * span * _VALUE_BYTES)
    ack_win = yield from ctx.win_allocate(_VALUE_BYTES)
    reply_win = yield from ctx.win_allocate(span * _VALUE_BYTES)
    eos_win = yield from ctx.win_allocate(_VALUE_BYTES)
    ckpt_win = yield from ctx.win_allocate((_CKPT_HEADER + 2 * nkeys) * 8)
    return kv_win, rpc_win, ack_win, reply_win, eos_win, ckpt_win


def _server_program(ctx, nclients, nservers, reqs_per_client, nkeys,
                    ckpt_every):
    """Own a store shard: apply/ack puts, serve get RPCs, ship and hold
    buddy snapshots — until end-of-stream or the planned crash."""
    span = nservers * reqs_per_client
    (kv_win, rpc_win, ack_win, reply_win, eos_win,
     ckpt_win) = yield from _windows(ctx, nclients, nservers,
                                     reqs_per_client, nkeys)
    det = FailureDetector(ctx)
    t_die = det.death_time(ctx.rank)
    buddy = (ctx.rank + 1) % nservers
    na = ctx.na
    put_req = yield from na.notify_init(kv_win, source=ANY_SOURCE,
                                        tag=ANY_TAG)
    get_req = yield from na.notify_init(rpc_win, source=ANY_SOURCE,
                                        tag=ANY_TAG)
    eos_req = yield from na.notify_init(eos_win, source=ANY_SOURCE, tag=0,
                                        expected_count=nclients)
    ckpt_req = yield from na.notify_init(ckpt_win, source=ANY_SOURCE,
                                         tag=ANY_TAG)
    ack_req = yield from na.notify_init(
        ack_win, source=buddy if nservers > 1 else ANY_SOURCE, tag=1)
    yield from ctx.barrier()
    # Epoch-0 collective checkpoint: every rank cuts the same setup cut.
    yield from cut_checkpoint(ctx, [kv_win], requests=(put_req,),
                              epoch=0)
    if t_die is not None and ctx.now >= t_die:
        raise ReproError(
            f"server {ctx.rank} is planned dead at t={t_die:g}us, before "
            f"setup finished at t={ctx.now:g}us — raise the death time")

    store: dict[int, float] = {}
    order: list[tuple[str, int, int]] = []
    served = 0
    applied = 0
    since_ckpt = 0
    epoch = 0
    ckpt_pending = False
    buddy_ckpts: dict[int, tuple[int, dict[int, float]]] = {}
    empty = np.empty(0, dtype=np.uint8)
    crashed = False
    for req in (put_req, get_req, eos_req, ckpt_req):
        yield from na.start(req)
    while True:
        reqs = [put_req, get_req, eos_req, ckpt_req]
        if ckpt_pending:
            reqs.append(ack_req)
        hit = yield from na.waitany(reqs, until=t_die)
        if hit is None:                         # the planned death
            crashed = True
            break
        req, st = reqs[hit[0]], hit[1]
        if req is eos_req:
            break
        if req is put_req:
            client_idx = st.source - nservers
            slot = (client_idx * reqs_per_client + st.tag) * _RECORD_BYTES
            rec = kv_win.local(np.float64, offset=slot, count=2, mode="r")
            store[int(rec[0])] = float(rec[1])
            order.append(("put", st.source, st.tag))
            applied += 1
            since_ckpt += 1
            yield from na.put_notify(ack_win, empty, st.source, 0,
                                     tag=st.tag)
            yield from ack_win.flush_local(st.source)
            yield from na.start(put_req)
            if (ckpt_every and since_ckpt >= ckpt_every
                    and not ckpt_pending and nservers > 1
                    and not det.detected(buddy)):
                # Ship the applied store to the buddy; the next ship
                # waits for this one's credit (one slot, flow-controlled,
                # and the ack match orders successive slot overwrites).
                epoch += 1
                payload = _ckpt_payload(store, epoch, nkeys)
                yield from na.put_notify(ckpt_win, payload, buddy, 0,
                                         tag=0)
                yield from ckpt_win.flush_local(buddy)
                yield from na.start(ack_req)
                ckpt_pending = True
                since_ckpt = 0
        elif req is get_req:
            client_idx = st.source - nservers
            slot = (client_idx * span + st.tag) * _VALUE_BYTES
            reqv = rpc_win.local(np.float64, offset=slot, count=1,
                                 mode="r")
            key = int(reqv[0])
            value = store.get(key, seed_value(key))
            order.append(("get", st.source, st.tag))
            yield from na.put_notify(
                reply_win, np.array([value]), st.source,
                st.tag * _VALUE_BYTES, tag=st.tag)
            yield from reply_win.flush_local(st.source)
            served += 1
            yield from na.start(get_req)
        elif req is ckpt_req:
            # Buddy snapshot arrived: copy it out (the match is the
            # acquire for the read), then credit the shipper so it may
            # overwrite the slot with the next epoch.
            raw = ckpt_win.local(np.float64, offset=0,
                                 count=_CKPT_HEADER + 2 * nkeys,
                                 mode="r").copy()
            buddy_ckpts[st.source] = _parse_ckpt(raw)
            yield from na.put_notify(ack_win, empty, st.source, 0,
                                     tag=1)
            yield from ack_win.flush_local(st.source)
            yield from na.start(ckpt_req)
        else:                                   # ack_req: buddy credit
            ckpt_pending = False
    if not crashed:
        # End of stream: nothing can arrive any more (see Termination).
        for req in (put_req, get_req, eos_req, ckpt_req, ack_req):
            na.cancel(req)
            yield from na.request_free(req)
    return {"store": store, "order": order, "served": served,
            "acked": applied, "crashed": crashed,
            "ckpt_epochs": epoch, "buddy_ckpts": buddy_ckpts,
            "live_requests": na.live_requests}


def _client_program(ctx, plans, nservers, replication, reqs_per_client,
                    nkeys, warmup_us, legal):
    """Open-loop client: issue at scheduled arrivals, settle afterwards
    (with failover), then send end-of-stream credits.

    The issue loop depends *only* on the precomputed arrival schedule —
    never on completions — so the offered load is genuinely open-loop.
    Completion times are then read off the deterministic event clocks:
    a put completes when its last credit ack **arrived** at the NIC, a
    get when its reply arrived.  Measuring arrival clocks instead of
    observation times keeps every latency invariant to same-timestamp
    event ordering, which is exactly the freedom the sharded core
    reserves for its tie-breaks.
    """
    me_idx = ctx.rank - nservers
    plan = plans[me_idx]
    span = nservers * reqs_per_client
    (kv_win, rpc_win, ack_win, reply_win, eos_win,
     ckpt_win) = yield from _windows(ctx, len(plans), nservers,
                                     reqs_per_client, nkeys)
    det = FailureDetector(ctx)
    na = ctx.na

    def chain(primary: int) -> list[int]:
        """Replica preference order for a primary: the server ring."""
        return copy_servers(primary, nservers, nservers)

    def issue_get(key, target, tag):
        req = yield from na.notify_init(reply_win, source=target, tag=tag)
        yield from na.start(req)
        yield from na.put_notify(
            rpc_win, np.array([float(key)]), target,
            (me_idx * span + tag) * _VALUE_BYTES, tag=tag)
        return req

    rwin = ReplicatedWindow(ctx, kv_win, chain, replication, detector=det)
    yield from ctx.barrier()
    yield from cut_checkpoint(ctx, [kv_win], epoch=0)
    t0 = ctx.now

    puts: list[tuple[int, object, object]] = []   # (rid, req, rput)
    gets: list[tuple[int, object, int]] = []      # (rid, req, target)
    failed = 0
    for i in range(len(plan.arrivals)):
        due = t0 + plan.arrivals[i]
        if ctx.now < due:
            yield ctx.timeout(due - ctx.now)
        key = int(plan.keys[i])
        primary = key % nservers
        if plan.is_get[i]:
            live = det.live(chain(primary))
            if not live:
                failed += 1
                continue
            req = yield from issue_get(key, live[0], i)
            gets.append((i, req, live[0]))
        else:
            slot = me_idx * reqs_per_client + i
            record = np.array([float(key), float(slot)])
            try:
                targets = rwin.targets(primary)
            except FaultError:
                failed += 1
                continue
            req = yield from na.notify_init(
                ack_win, source=ANY_SOURCE, tag=i,
                expected_count=len(targets))
            yield from na.start(req)
            rput = yield from rwin.put_notify(
                record, primary, slot * _RECORD_BYTES, tag=i,
                targets=targets)
            puts.append((i, req, rput))

    # Settle with failover.  Latencies come from the match log's NIC
    # arrival clocks; a request that needed a failover is marked
    # "affected" for the recovery-time accounting.
    lat_put: list[float] = []
    lat_get: list[float] = []
    lat_affected: list[float] = []
    put_info: list[dict] = []
    failovers = 0
    done = 0
    t_last = t0
    for rid, req, rput in puts:
        try:
            yield from rwin.wait_acks(req, rput)
        except FaultError:
            failed += 1
            na.cancel(req)
            yield from na.request_free(req)
            continue
        t_done = max(t for _, _, t in req.match_log)
        yield from na.request_free(req)
        lat = t_done - (t0 + plan.arrivals[rid])
        failovers += rput.failovers
        done += 1
        t_last = max(t_last, t_done)
        put_info.append({"rid": rid, "key": int(plan.keys[rid]),
                         "value": float(me_idx * reqs_per_client + rid),
                         "targets": list(rput.targets),
                         "failovers": rput.failovers})
        if plan.arrivals[rid] >= warmup_us:
            lat_put.append(lat)
            if rput.failovers:
                lat_affected.append(lat)
    for rid, req, target in gets:
        key = int(plan.keys[rid])
        tag = rid
        attempt = 0
        ok = True
        while ok and not (yield from na.test(req)):
            if not det.detected(target):
                yield from na.park([req])
                continue
            # Retry against the next live chain member under a fresh
            # tag + reply slot, so a stale late reply to the abandoned
            # request can never alias us.
            live = det.live(chain(key % nservers))
            attempt += 1
            stale = req
            ok = bool(live) and attempt < nservers
            if ok:
                target = live[0]
                tag = attempt * reqs_per_client + rid
                failovers += 1
                req = yield from issue_get(key, target, tag)
            na.cancel(stale)
            yield from na.request_free(stale)
        if not ok:
            failed += 1
            continue
        t_done = max(t for _, _, t in req.match_log)
        yield from na.request_free(req)
        value = float(reply_win.local(np.float64,
                                      offset=tag * _VALUE_BYTES,
                                      count=1, mode="r")[0])
        if legal is not None and value not in legal[key]:
            raise ReproError(
                f"client {me_idx} get({key}) read {value}, not one of "
                f"the {len(legal[key])} values ever written to it")
        lat = t_done - (t0 + plan.arrivals[rid])
        done += 1
        t_last = max(t_last, t_done)
        if plan.arrivals[rid] >= warmup_us:
            lat_get.append(lat)
            if attempt:
                lat_affected.append(lat)
    # End-of-stream credits to every live server.
    empty = np.empty(0, dtype=np.uint8)
    for s in det.live(range(nservers)):
        yield from na.put_notify(eos_win, empty, s, 0, tag=0)
        yield from eos_win.flush_local(s)
    return {"lat_put": lat_put, "lat_get": lat_get,
            "lat_affected": lat_affected, "done": done, "failed": failed,
            "failovers": failovers, "put_info": put_info,
            "t_end": t_last - t0, "live_requests": na.live_requests}


def run_kv(nservers: int = 4, nclients: int = 8, replication: int = 2,
           reqs_per_client: int = 32, rate_rps: float = 4000.0,
           get_frac: float = 0.5, nkeys: int = 64, zipf_skew: float = 0.9,
           warmup_frac: float = 0.2, process: str = "poisson",
           verify: bool = False, ckpt_every: int = 0, seed: int = 42,
           config: ClusterConfig | None = None) -> dict:
    """Run the sharded KV service; returns stores, orders, latencies and
    the availability, failover and checkpoint-recovery accounting.

    The cluster has ``nservers + nclients`` ranks (servers first).  The
    first ``warmup_frac`` of the expected run is excluded from latency
    and throughput accounting.  The cluster configuration's
    :class:`~repro.faults.FaultPlan` (if any) must be node-failure-only
    (the service models node death) and may only kill *server* ranks —
    clients survive to report results.  The returned dict is fully
    deterministic (virtual times only) — golden-trace tests compare it
    verbatim between serial and sharded runs.
    """
    if nservers < 1 or nclients < 1:
        raise ReproError("need at least one server and one client")
    if not 1 <= replication <= nservers:
        raise ReproError(
            f"replication {replication} outside [1, nservers={nservers}]")
    if not 1 <= nservers * reqs_per_client <= 0xFFFF:
        raise ReproError(
            "nservers * reqs_per_client must fit the 16-bit tag space "
            "(retries use tag = attempt * reqs_per_client + i)")
    nranks = nservers + nclients
    if config is None:
        config = ClusterConfig(nranks=nranks, ranks_per_node=2)
    if config.nranks != nranks:
        raise ReproError(f"config has {config.nranks} ranks, "
                         f"need {nranks}")
    plan_f = config.faults
    deaths: dict[int, float] = {}
    if plan_f is not None and plan_f.active:
        if not plan_f.node_failures_only:
            raise ReproError(
                "run_kv needs a node-failure-only FaultPlan: the "
                "service's failure model is node death, not lossy "
                "links")
        deaths = dict(plan_f.node_failures)
        bad = [r for r in deaths if not 0 <= r < nservers]
        if bad:
            raise ReproError(
                f"only server ranks (0..{nservers - 1}) may die, "
                f"plan kills {sorted(bad)}")
        if len(deaths) >= nservers:
            raise ReproError("at least one server must survive")
    plans = build_kv_workload(seed, nclients, reqs_per_client, rate_rps,
                              get_frac, nkeys, zipf_skew, process)
    legal = (_legal_values(plans, reqs_per_client, nkeys)
             if verify else None)
    expected_us = reqs_per_client * nclients / rate_rps * 1e6
    warmup_us = warmup_frac * expected_us

    def program(ctx):
        # analyze: skip  (rank count and loop bounds come from the plan)
        if ctx.rank < nservers:
            result = yield from _server_program(
                ctx, nclients, nservers, reqs_per_client, nkeys,
                ckpt_every)
        else:
            result = yield from _client_program(
                ctx, plans, nservers, replication, reqs_per_client,
                nkeys, warmup_us, legal)
        return result

    results, _cluster = run_ranks(nranks, program, config=config)
    servers = results[:nservers]
    clients = results[nservers:]
    total = reqs_per_client * nclients
    done = sum(c["done"] for c in clients)

    # -- acked-write audit ---------------------------------------------
    # (1) Every acking server really applied the record (its order log
    # carries the match) — an ack without an apply would be a protocol
    # bug.  (2) An acked write is *lost* when no live member of its
    # final replica set survives to serve it.
    orders = [set(s["order"]) for s in servers]
    acked_lost = 0
    for c_idx, c in enumerate(clients):
        for info in c["put_info"]:
            rid = info["rid"]
            for srv in info["targets"]:
                if ("put", nservers + c_idx, rid) not in orders[srv]:
                    raise ReproError(
                        f"server {srv} acked put tag {rid} of client "
                        f"{c_idx} without applying it")
            if all(srv in deaths for srv in info["targets"]):
                acked_lost += 1

    # -- checkpoint recovery: records of each dead server recoverable
    # from its buddy's latest shipped snapshot ---------------------------
    ckpt_recoverable = 0
    for dead in deaths:
        ck = servers[(dead + 1) % nservers]["buddy_ckpts"].get(dead)
        if ck is not None:
            ckpt_recoverable += len(ck[1])

    return {
        "nservers": nservers,
        "nclients": nclients,
        "replication": replication,
        "requests": total,
        "completed": done,
        "failed": sum(c["failed"] for c in clients),
        "availability": done / total if total else 1.0,
        "failovers": sum(c["failovers"] for c in clients),
        "acked_lost": acked_lost,
        "deaths": {r: float(t) for r, t in sorted(deaths.items())},
        "crashed": sum(1 for s in servers if s["crashed"]),
        "served": sum(s["served"] for s in servers),
        "acked": sum(s["acked"] for s in servers),
        "stores": [s["store"] for s in servers],
        "server_orders": [s["order"] for s in servers],
        "ckpt_epochs": sum(s["ckpt_epochs"] for s in servers),
        "ckpt_recoverable": ckpt_recoverable,
        "live_requests": [r["live_requests"] for r in results],
        "lat_put_us": sorted(x for c in clients for x in c["lat_put"]),
        "lat_get_us": sorted(x for c in clients for x in c["lat_get"]),
        "lat_affected_us": sorted(x for c in clients
                                  for x in c["lat_affected"]),
        "warmup_us": warmup_us,
        "t_end_us": max((c["t_end"] for c in clients), default=0.0),
    }
