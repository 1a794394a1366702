"""Ping-pong latency/bandwidth benchmark — Figure 3 of the paper.

The Notified Access variant is a direct port of the paper's Listing 1: a
window of ``2 * max_size`` doubles, one persistent notification request,
``put_notify`` + ``flush`` + ``start``/``wait`` per iteration.

Modes
-----
``mp``              blocking send/recv (eager or rendezvous by size)
``onesided_pscw``   general active target (start/put/complete + post/wait)
``onesided_fence``  fence synchronization each direction
``na``              notified put (Listing 1)
``na_get``          notified get: each side reads the other's buffer and the
                    owner learns from the notification that it may reuse it
``flush_notify``    plain put + notified flush (§III's rejected alternative:
                    the notification is a second, ordered transfer)
``raw``             busy-wait on the payload bytes — the illegal
                    lower bound the paper plots as "unsynchronized"
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterConfig, run_ranks
from repro.errors import ReproError

PINGPONG_MODES = ("mp", "onesided_pscw", "onesided_fence", "na", "na_get",
                  "flush_notify", "raw")

_TAG = 99


def _client_server(ctx):
    """(client_rank, server_rank, partner) helper."""
    client, server = 0, 1
    partner = server if ctx.rank == client else client
    return client, server, partner


def _mp_program(ctx, size_bytes: int, iters: int):
    client, server, partner = _client_server(ctx)
    n = size_bytes // 8
    sbuf = np.arange(n, dtype=np.float64) + ctx.rank
    rbuf = np.zeros(n, dtype=np.float64)
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from ctx.comm.send(sbuf, partner, _TAG)
            yield from ctx.comm.recv(rbuf, partner, _TAG)
        else:
            yield from ctx.comm.recv(rbuf, partner, _TAG)
            yield from ctx.comm.send(sbuf, partner, _TAG)
    return (ctx.now - t0) / (2 * iters)


def _pscw_program(ctx, size_bytes: int, iters: int):
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    n = size_bytes // 8
    data = np.arange(n, dtype=np.float64) + ctx.rank
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from win.start([partner])
            yield from win.put(data, partner, 0)
            yield from win.complete()
            yield from win.post([partner])
            yield from win.wait([partner])
        else:
            yield from win.post([partner])
            yield from win.wait([partner])
            yield from win.start([partner])
            yield from win.put(data, partner, size_bytes)
            yield from win.complete()
    return (ctx.now - t0) / (2 * iters)


def _fence_program(ctx, size_bytes: int, iters: int):
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    n = size_bytes // 8
    data = np.arange(n, dtype=np.float64) + ctx.rank
    yield from win.fence()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from win.put(data, partner, 0)
        yield from win.fence()
        if ctx.rank == server:
            yield from win.put(data, partner, size_bytes)
        yield from win.fence()
    dt = (ctx.now - t0) / (2 * iters)
    yield from win.fence_end()
    return dt


def _na_program(ctx, size_bytes: int, iters: int):
    """The paper's Listing 1."""
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    n = size_bytes // 8
    data = np.arange(n, dtype=np.float64) + ctx.rank
    req = yield from ctx.na.notify_init(win, source=partner, tag=_TAG,
                                        expected_count=1)
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from ctx.na.put_notify(win, data, partner, 0, tag=_TAG)
            yield from win.flush_local(partner)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
        else:
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            yield from ctx.na.put_notify(win, data, partner, size_bytes,
                                         tag=_TAG)
            yield from win.flush_local(partner)
    dt = (ctx.now - t0) / (2 * iters)
    yield from ctx.na.request_free(req)
    return dt


def _flush_notify_program(ctx, size_bytes: int, iters: int):
    """Put + notified flush: the data and its notification are separate
    transfers, so every handoff pays the second transaction §III costs
    against — the baseline the reliability ablation compares NA to."""
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    n = size_bytes // 8
    data = np.arange(n, dtype=np.float64) + ctx.rank
    req = yield from ctx.na.notify_init(win, source=partner, tag=_TAG,
                                        expected_count=1)
    yield from win.lock_all()
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from win.put(data, partner, 0)
            yield from ctx.na.flush_notify(win, partner, tag=_TAG)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
        else:
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            yield from win.put(data, partner, size_bytes)
            yield from ctx.na.flush_notify(win, partner, tag=_TAG)
    dt = (ctx.now - t0) / (2 * iters)
    yield from win.unlock_all()
    yield from ctx.na.request_free(req)
    return dt


def _na_get_program(ctx, size_bytes: int, iters: int):
    """Notified get ping-pong: pull the partner's buffer; the partner's
    notification doubles as the 'your data was consumed' pong."""
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    buf = ctx.alloc(max(size_bytes, 8))
    req = yield from ctx.na.notify_init(win, source=partner, tag=_TAG,
                                        expected_count=1)
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            yield from ctx.na.get_notify(win, buf, partner, 0,
                                         nbytes=size_bytes, tag=_TAG)
            yield from win.flush(partner)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
        else:
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            yield from ctx.na.get_notify(win, buf, partner, size_bytes,
                                         nbytes=size_bytes, tag=_TAG)
            yield from win.flush(partner)
    dt = (ctx.now - t0) / (2 * iters)
    yield from ctx.na.request_free(req)
    return dt


def _raw_program(ctx, size_bytes: int, iters: int):
    """Unsynchronized busy-wait bound: wait directly on the data commit.

    The real benchmark spins on the first and last payload bytes; the
    simulated receiver instead waits until exactly the time the last byte
    becomes visible (the put's commit), handed over out-of-band.  Not a
    legal program — the paper plots it only as the transfer lower bound.
    """
    from repro.sim.resources import Store
    client, server, partner = _client_server(ctx)
    win = yield from ctx.win_allocate(2 * size_bytes)
    n = max(size_bytes // 8, 1)
    data = np.arange(n, dtype=np.float64) + ctx.rank
    yield from win.fence()          # open an access epoch, then measure
    # Out-of-band handle exchange standing in for the polled marker bytes.
    mailboxes = getattr(ctx.cluster, "_raw_mailboxes", None)
    if mailboxes is None:
        mailboxes = ctx.cluster._raw_mailboxes = [
            Store(ctx.engine, name=f"raw:{r}") for r in range(ctx.size)]
    yield from ctx.barrier()
    t0 = ctx.now
    for _ in range(iters):
        if ctx.rank == client:
            h = yield from win.put(data, partner, 0)
            mailboxes[partner].put(h)
            pong = yield from mailboxes[ctx.rank].get()
            if ctx.now < pong.commit_at:
                yield ctx.timeout(pong.commit_at - ctx.now)
            ctx.san_acquire(pong)
        else:
            ping = yield from mailboxes[ctx.rank].get()
            if ctx.now < ping.commit_at:
                yield ctx.timeout(ping.commit_at - ctx.now)
            ctx.san_acquire(ping)
            h = yield from win.put(data, partner, size_bytes)
            mailboxes[partner].put(h)
    dt = (ctx.now - t0) / (2 * iters)
    yield from win.fence_end()
    return dt


_PROGRAMS = {
    "mp": _mp_program,
    "onesided_pscw": _pscw_program,
    "onesided_fence": _fence_program,
    "na": _na_program,
    "na_get": _na_get_program,
    "flush_notify": _flush_notify_program,
    "raw": _raw_program,
}


def run_pingpong(mode: str, size_bytes: int, iters: int = 50,
                 same_node: bool = False,
                 config: ClusterConfig | None = None) -> dict:
    """Run one ping-pong configuration; returns metrics in µs.

    ``same_node=True`` places both ranks on one node (the Figure 3c
    shared-memory experiment).
    """
    if mode not in _PROGRAMS:
        raise ReproError(f"unknown ping-pong mode {mode!r}; "
                         f"choose from {PINGPONG_MODES}")
    if size_bytes % 8 or size_bytes <= 0:
        raise ReproError("size_bytes must be a positive multiple of 8")
    if config is None:
        # Pinned serial whatever REPRO_SHARDS / --shards says: a two-rank
        # latency probe has nothing to shard, and ``raw`` mode exchanges
        # op handles through ``ctx.cluster._raw_mailboxes``, which cannot
        # cross a process.
        config = ClusterConfig(nranks=2, shards=1,
                               ranks_per_node=2 if same_node else 1)
    program = _PROGRAMS[mode]
    results, cluster = run_ranks(
        2, lambda ctx: program(ctx, size_bytes, iters), config=config)
    half_rtt = float(results[0])
    stats = cluster.stats()     # the surface a ShardedRun has too
    out = {
        "mode": mode,
        "size_bytes": size_bytes,
        "iters": iters,
        "same_node": same_node,
        "half_rtt_us": half_rtt,
        "bandwidth_MBps": size_bytes / half_rtt if half_rtt else 0.0,
        "wire_transactions": stats["wire_transactions"],
    }
    if "faults" in stats:
        out["faults"] = stats["faults"]
    return out
