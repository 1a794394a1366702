"""Probe pass: each layer alone, host nanoseconds per operation.

Every probe drives one layer through its public API with the least
possible work above it — a bare scheduler, a bare ``Engine``, null rank
programs on a small ``Cluster`` — and reports the best of a few timed
batches (interference only ever adds time).  Set-up (building clusters,
allocating buffers) is outside the timed region; the batch size is
calibrated so one batch lasts at least ``Budget.batch_s``.

Probes answer "did *this layer* get faster" without the other layers in
the way; the five workloads answer whether anybody would notice.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis import analyze_paths, collect_files, extract_file
from repro.analysis.instantiate import instantiate
from repro.analysis.races import check_races
from repro.apps.stencil import run_stencil
from repro.bench import figures
from repro.bench.load import LatencyDigest, ZipfKeys, arrival_times
from repro.cluster import Cluster, ClusterConfig, run_ranks
from repro.core.matching import UQ_SLOTS
from repro.ft.checkpoint import checkpoint
from repro.ft.replicate import ReplicatedWindow
from repro.memory.address import AddressSpace
from repro.memory.cache import CacheModel
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.network.cq import CompletionQueue, CqEntry
from repro.network.shardlink import ShardPacket
from repro.sim import scheduler as scheduler_mod
from repro.sim.engine import Engine
from repro.sim.rng import RngStream

#: trees the static analyzer is timed on (relative to the repo root)
ANALYSIS_TREES = ("src/repro/apps", "examples", "benchmarks")

#: pushes kept per recorded scheduler stream
STREAM_CAP = 60_000


@dataclass(frozen=True)
class Budget:
    """How long the probe pass may measure."""

    batches: int = 5
    batch_s: float = 0.2


def _per_op_ns(probe: Callable[[int], float], budget: Budget,
               n0: int) -> float:
    """Best ns/op of ``probe(n)`` (seconds for ``n`` operations)."""
    n = n0
    elapsed = probe(n)
    while elapsed < budget.batch_s / 8 and n < 1 << 22:
        n *= 4
        elapsed = probe(n)
    best = elapsed / n
    n = max(1, int(n * budget.batch_s / max(elapsed, 1e-9)))
    for _ in range(budget.batches - 1):
        gc.collect()
        best = min(best, probe(n) / n)
    return best * 1e9


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _nop() -> None:
    return None


# ---------------------------------------------------------------------------
# sim.scheduler: replay recorded push streams into a bare scheduler
# ---------------------------------------------------------------------------
def record_push_streams(work: Callable[[], object]) -> list[list]:
    """Run ``work()`` and return, per scheduler instance, the stream of
    ``(now, when, prio)`` pushes it received (first ``STREAM_CAP``)."""
    streams: dict[int, list] = {}
    running: list[Engine] = []
    push0 = scheduler_mod.CalendarScheduler.push
    run0 = Engine.run

    def push(self, when, prio, event):
        stream = streams.setdefault(id(self), [])
        if len(stream) < STREAM_CAP:
            stream.append((running[-1].now if running else 0.0, when, prio))
        return push0(self, when, prio, event)

    def run(self, *args, **kwargs):
        running.append(self)
        try:
            return run0(self, *args, **kwargs)
        finally:
            running.pop()

    scheduler_mod.CalendarScheduler.push = push
    Engine.run = run
    try:
        work()
    finally:
        scheduler_mod.CalendarScheduler.push = push0
        Engine.run = run0
    return list(streams.values())


def same_tick_ratio(streams: list[list]) -> float:
    pushes = [p for s in streams for p in s]
    return sum(1 for now, when, _ in pushes if when == now) / len(pushes)


class _Clock:
    """What ``drain`` needs of its engine."""

    now = 0.0
    _crashed = None


class _Replayer:
    """The one event of a replay: when it fires at tick ``t`` it issues
    every push the recorded run issued while its clock stood at ``t``."""

    __slots__ = ("by_tick", "push", "clock")

    def __init__(self, stream, scheduler, clock):
        self.by_tick: dict[float, list] = {}
        for now, when, prio in stream:
            self.by_tick.setdefault(now, []).append((when, prio))
        self.push = scheduler.push
        self.clock = clock

    def _process(self) -> None:
        group = self.by_tick.pop(self.clock.now, None)
        if group:
            push = self.push
            for when, prio in group:
                push(when, prio, self)


def _replay_probe(streams: list[list], name: str) -> Callable[[int], float]:
    pushes = sum(len(s) for s in streams)

    def probe(n: int) -> float:
        replays = max(1, n // pushes)
        total = 0.0
        for _ in range(replays):
            for stream in streams:
                sched = scheduler_mod.make_scheduler(name)
                clock = _Clock()
                event = _Replayer(stream, sched, clock)
                t0 = time.perf_counter()
                event._process()
                sched.drain(clock, None)
                total += time.perf_counter() - t0
        # whole replays only: scale to the ``n`` pushes asked for
        return total * n / (replays * pushes)
    return probe


def scheduler_probes(budget: Budget, seed: int) -> dict[str, float]:
    bursty = record_push_streams(lambda: figures.fig1_stencil_strong(
        nranks_list=(8,), scale=0.05))
    spread = record_push_streams(lambda: figures.svc_kv(
        rates=(1e6, 16e6), reqs_per_client=64, seed=seed))
    out = {"bursty_same_tick_ratio": same_tick_ratio(bursty),
           "spread_same_tick_ratio": same_tick_ratio(spread)}
    for sched in ("calendar", "heap"):
        for label, streams in (("bursty", bursty), ("spread", spread)):
            out[f"{sched}_{label}_ns"] = _per_op_ns(
                _replay_probe(streams, sched), budget,
                sum(len(s) for s in streams))
    return out


# ---------------------------------------------------------------------------
# sim.engine: no-op processes on a bare Engine
# ---------------------------------------------------------------------------
def engine_probes(budget: Budget) -> dict[str, float]:
    def timeout(n):
        eng = Engine()

        def proc():
            for _ in range(n):
                yield eng.timeout(1.0)
        eng.process(proc())
        return _timed(eng.run)

    def call_at(n):
        eng = Engine()

        def work():
            for i in range(n):
                eng.call_at(float(i), _nop)
            eng.run()
        return _timed(work)

    def call_at_batch(n):
        eng = Engine()
        fns = (_nop, _nop, _nop)

        def work():
            for i in range(n // 3 + 1):
                eng.call_at_batch(float(i), fns)
            eng.run()
        return _timed(work)

    def process_spawn(n):
        eng = Engine()

        def child():
            return
            yield

        def work():
            for _ in range(n):
                eng.process(child())
            eng.run()
        return _timed(work)

    def all_of(n):
        eng = Engine()

        def proc():
            for _ in range(n):
                yield eng.all_of([eng.timeout(1.0), eng.timeout(2.0),
                                  eng.timeout(3.0)])
        eng.process(proc())
        return _timed(eng.run)

    return {"timeout_ns": _per_op_ns(timeout, budget, 2000),
            "call_at_ns": _per_op_ns(call_at, budget, 2000),
            "call_at_batch_ns": _per_op_ns(call_at_batch, budget, 3000),
            "process_spawn_ns": _per_op_ns(process_spawn, budget, 1000),
            "all_of_ns": _per_op_ns(all_of, budget, 500)}


# ---------------------------------------------------------------------------
# null rank programs on a Cluster
# ---------------------------------------------------------------------------
def _cluster_run(program, nranks=2, ranks_per_node=1, **cfg) -> float:
    """Seconds ``Cluster.run(program)`` takes (the build is not timed)."""
    cluster = Cluster(ClusterConfig(nranks=nranks,
                                    ranks_per_node=ranks_per_node, **cfg))
    return _timed(lambda: cluster.run(program))


def fabric_probes(budget: Budget) -> dict[str, float]:
    def op_probe(issue, done, size=8, ranks_per_node=1):
        def probe(n):
            addrs = {}

            def program(ctx):
                # analyze: skip
                buf = ctx.alloc(max(size, 64))
                addrs[ctx.rank] = buf.addr
                yield from ctx.barrier()
                if ctx.rank != 0:
                    return
                data = np.zeros(size, dtype=np.uint8)
                for _ in range(n):
                    h = issue(ctx.fabric, addrs[1], data, buf.addr)
                    yield getattr(h, done)
            return _cluster_run(program, ranks_per_node=ranks_per_node)
        return probe

    def put(fabric, addr, data, _local):
        return fabric.put(0, 1, addr, data)

    def get(fabric, addr, data, local):
        return fabric.get(0, 1, addr, data.nbytes, local)

    def amo(fabric, addr, _data, _local):
        return fabric.amo(0, 1, addr, "sum", 1)

    def send_sys(fabric, _addr, _data, _local):
        return fabric.send_sys(0, 1, "ctrl-probe", 64)

    def incast(n):
        addrs = {}
        senders = 16

        def program(ctx):
            # analyze: skip
            buf = ctx.alloc(4096)
            addrs[ctx.rank] = buf.addr
            yield from ctx.barrier()
            if ctx.rank == 0:
                return
            data = np.zeros(4096, dtype=np.uint8)
            for _ in range(n // senders + 1):
                h = ctx.fabric.put(ctx.rank, 0, addrs[0], data)
                yield h.remote_done
        return _cluster_run(program, nranks=senders + 1)

    return {
        "put_fma_ns": _per_op_ns(op_probe(put, "remote_done"), budget, 500),
        "put_bte_ns": _per_op_ns(op_probe(put, "remote_done", size=65536),
                                 budget, 200),
        "put_shm_ns": _per_op_ns(
            op_probe(put, "remote_done", ranks_per_node=2), budget, 500),
        "get_ns": _per_op_ns(op_probe(get, "local_done"), budget, 500),
        "amo_ns": _per_op_ns(op_probe(amo, "remote_done"), budget, 500),
        "send_sys_ns": _per_op_ns(op_probe(send_sys, "remote_done"),
                                  budget, 500),
        "incast16_ns": _per_op_ns(incast, budget, 640),
    }


def cq_probes(budget: Budget) -> dict[str, float]:
    def post_poll(n):
        queue = CompletionQueue(Engine(), "probe")
        entry = CqEntry(kind="put", source=0, target=1, nbytes=8,
                        time=0.0, immediate=7, win_id=1)

        def work():
            for _ in range(n):
                queue.post(entry)
                queue.poll()
        return _timed(work)
    return {"post_poll_ns": _per_op_ns(post_poll, budget, 5000)}


def _na_fixture():
    """A live ``NotifyEngine`` and window, made by a real two-rank run."""
    cluster = Cluster(ClusterConfig(nranks=2))
    got = {}

    def program(ctx):
        # analyze: skip
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            got["ctx"], got["win"] = ctx, win
            got["exact"] = yield from ctx.na.notify_init(
                win, source=1, tag=0xFFFF)
            got["wild"] = yield from ctx.na.notify_init(
                win, source=ANY_SOURCE, tag=ANY_TAG)
        yield from ctx.barrier()

    cluster.run(program)
    return got


def uq_probes(budget: Budget) -> dict[str, float]:
    fix = _na_fixture()
    uq, win_id = fix["ctx"].na.uq, fix["win"].id

    def drain():
        while uq.find_and_remove(fix["wild"]) is not None:
            pass

    def append(n):
        total = 0.0
        left = n
        while left > 0:
            chunk = min(left, UQ_SLOTS)
            t0 = time.perf_counter()
            for i in range(chunk):
                uq.append(win_id, 1, i & 0xFF, 8, 0.0)
            total += time.perf_counter() - t0
            drain()
            left -= chunk
        return total

    def match(depth, req):
        """find_and_remove at ``depth`` plus the re-append that keeps the
        queue at that depth (the wildcard takes the head, the exact
        request the tail: both re-appends land at the tail)."""
        def probe(n):
            drain()
            for i in range(depth - 1):
                uq.append(win_id, 1, i, 8, 0.0)
            uq.append(win_id, 1, 0xFFFF, 8, 0.0)

            def work():
                for _ in range(n):
                    e = uq.find_and_remove(req)
                    uq.append(win_id, e.source, e.tag, 8, 0.0)
            elapsed = _timed(work)
            drain()
            return elapsed
        return probe

    return {
        "append_ns": _per_op_ns(append, budget, 2000),
        "match_depth4_ns": _per_op_ns(match(4, fix["exact"]), budget, 1000),
        "match_depth64_ns": _per_op_ns(match(64, fix["exact"]), budget,
                                       1000),
        "wildcard_depth64_ns": _per_op_ns(match(64, fix["wild"]), budget,
                                          1000),
    }


def na_probes(budget: Budget) -> dict[str, float]:
    data = np.zeros(1, dtype=np.float64)
    credit = np.empty(0, dtype=np.uint8)

    def handoff(n):
        def program(ctx):
            # analyze: skip
            peer = 1 - ctx.rank
            win = yield from ctx.win_allocate(64)
            req = yield from ctx.na.notify_init(win, source=peer, tag=1)
            yield from ctx.barrier()
            for _ in range(n // 2 + 1):
                if ctx.rank == 0:
                    yield from ctx.na.put_notify(win, data, peer, 0, tag=1)
                    yield from win.flush_local(peer)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
                if ctx.rank == 1:
                    yield from ctx.na.put_notify(win, data, peer, 0, tag=1)
                    yield from win.flush_local(peer)
        return _cluster_run(program)

    def count16(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 1:
                req = yield from ctx.na.notify_init(
                    win, source=0, tag=5, expected_count=16)
            else:
                req = yield from ctx.na.notify_init(win, source=1, tag=6)
            yield from ctx.barrier()
            for _ in range(n // 16 + 1):
                yield from ctx.na.start(req)
                if ctx.rank == 0:
                    for _ in range(16):
                        yield from ctx.na.put_notify(win, credit, 1, 0,
                                                     tag=5)
                    yield from win.flush_local(1)
                    yield from ctx.na.wait(req)
                else:
                    yield from ctx.na.wait(req)
                    yield from ctx.na.put_notify(win, credit, 0, 0, tag=6)
                    yield from win.flush_local(0)
        return _cluster_run(program)

    def test_miss(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(win, source=1, tag=9)
                yield from ctx.na.start(req)
                for _ in range(n):
                    yield from ctx.na.test(req)
            yield from ctx.barrier()
        return _cluster_run(program)

    return {"handoff_ns": _per_op_ns(handoff, budget, 400),
            "count16_ns": _per_op_ns(count16, budget, 640),
            "test_miss_ns": _per_op_ns(test_miss, budget, 1000)}


def rma_probes(budget: Budget) -> dict[str, float]:
    data = np.zeros(1, dtype=np.float64)

    def fence(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            for _ in range(n):
                yield from win.fence()
            yield from win.fence_end()
        return _cluster_run(program, nranks=4)

    def pscw(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            for _ in range(n):
                if ctx.rank == 0:
                    yield from win.start([1])
                    yield from win.put(data, 1)
                    yield from win.complete()
                else:
                    yield from win.post([0])
                    yield from win.wait([0])
        return _cluster_run(program)

    def flush(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                yield from win.lock_all()
                for _ in range(n):
                    yield from win.put(data, 1)
                    yield from win.flush(1)
                yield from win.unlock_all()
            yield from ctx.barrier()
        return _cluster_run(program)

    def lock_unlock(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                for _ in range(n):
                    yield from win.lock(1, exclusive=True)
                    yield from win.unlock(1, exclusive=True)
            yield from ctx.barrier()
        return _cluster_run(program)

    return {"fence_ns": _per_op_ns(fence, budget, 200),
            "pscw_ns": _per_op_ns(pscw, budget, 200),
            "flush_ns": _per_op_ns(flush, budget, 300),
            "lock_unlock_ns": _per_op_ns(lock_unlock, budget, 200)}


def mpi_probes(budget: Budget) -> dict[str, float]:
    def pingpong(nbytes):
        def probe(n):
            def program(ctx):
                # analyze: skip
                peer = 1 - ctx.rank
                buf = np.zeros(nbytes, dtype=np.uint8)
                for _ in range(n // 2 + 1):
                    if ctx.rank == 0:
                        yield from ctx.comm.send(buf, peer, 0)
                        yield from ctx.comm.recv(buf, peer, 0)
                    else:
                        yield from ctx.comm.recv(buf, peer, 0)
                        yield from ctx.comm.send(buf, peer, 0)
            return _cluster_run(program)
        return probe

    def barrier(n):
        def program(ctx):
            # analyze: skip
            for _ in range(n):
                yield from ctx.barrier()
        return _cluster_run(program, nranks=64, ranks_per_node=16)

    def allreduce(n):
        def program(ctx):
            # analyze: skip
            send = np.ones(8)
            recv = np.zeros(8)
            for _ in range(n):
                yield from ctx.comm.allreduce(send, recv)
        return _cluster_run(program, nranks=64, ranks_per_node=16)

    return {"eager_ns": _per_op_ns(pingpong(64), budget, 200),
            "rndv_ns": _per_op_ns(pingpong(65536), budget, 100),
            "barrier64_ns": _per_op_ns(barrier, budget, 8),
            "allreduce64_ns": _per_op_ns(allreduce, budget, 4)}


def memory_probes(budget: Budget) -> dict[str, float]:
    space = AddressSpace(0, 1 << 20)
    block = np.zeros(65536, dtype=np.uint8)

    def alloc_free(n):
        def work():
            for _ in range(n):
                space.free(space.alloc(256))
        return _timed(work)

    def cache_touch(n):
        cache = CacheModel()

        def work():
            # 64 KB of lines through a 32 KB cache: hits and evictions
            for i in range(n):
                cache.touch((i * 64) & 0xFFFF, 64)
        return _timed(work)

    def copy_64k(n):
        def work():
            for _ in range(n // 2 + 1):
                space.copy_in(0, block)
                space.copy_out(0, 65536)
        return _timed(work)

    return {"alloc_free_ns": _per_op_ns(alloc_free, budget, 2000),
            "cache_touch_ns": _per_op_ns(cache_touch, budget, 5000),
            "copy_64k_ns": _per_op_ns(copy_64k, budget, 1000)}


def cluster_probes(budget: Budget) -> dict[str, float]:
    def build(**cfg):
        def probe(n):
            def work():
                for _ in range(n):
                    Cluster(ClusterConfig(**cfg))
            return _timed(work)
        return probe
    return {
        "build_p2_us": _per_op_ns(build(nranks=2), budget, 4) / 1e3,
        "build_p512_us": _per_op_ns(
            build(nranks=512, ranks_per_node=16, space_bytes=1 << 20),
            budget, 1) / 1e3,
    }


def shardlink_probes(budget: Budget) -> dict[str, float]:
    packets = [ShardPacket("put", origin=i, target=17, op_id=i,
                           sort_time=float(i), nbytes=8, t_commit=1.5,
                           G=0.0002, L=1.0, target_addr=4096, immediate=5,
                           win_id=1, data=np.zeros(8, dtype=np.uint8))
               for i in range(64)]
    message = ("deliver", packets)

    def roundtrip(n):
        def work():
            for _ in range(n // len(packets) + 1):
                pickle.loads(pickle.dumps(message))
        return _timed(work)
    return {"packet_pickle_ns": _per_op_ns(roundtrip, budget, 640),
            "packet_bytes": len(pickle.dumps(message)) / len(packets)}


def shard_probes(budget: Budget) -> dict[str, float]:
    cfg = dict(nranks=4, ranks_per_node=2, shards=2)
    ticks = 1500

    def idle(ctx):
        # analyze: skip
        return
        yield

    def ticking(ctx):
        # analyze: skip
        for _ in range(ticks):
            yield ctx.timeout(10.0)

    def spawn(n):
        def work():
            for _ in range(n):
                run_ranks(4, idle, config=ClusterConfig(**cfg))
        return _timed(work)

    spawn(1)  # the first fork also imports multiprocessing's machinery
    spawn_ns = _per_op_ns(spawn, budget, 1)
    windows = []

    def windowed(n):
        def work():
            for _ in range(n):
                _, run = run_ranks(4, ticking, config=ClusterConfig(**cfg))
                windows.append(run.windows)
        return _timed(work)

    windowed_ns = _per_op_ns(windowed, budget, 1)
    return {"spawn_ms": spawn_ns / 1e6,
            "empty_window_us":
                max(windowed_ns - spawn_ns, 0.0) / windows[-1] / 1e3}


def load_probes(budget: Budget, seed: int) -> dict[str, float]:
    batch = 4096

    def arrivals(n):
        def work():
            for i in range(n // batch + 1):
                arrival_times(seed, ("probe", i), batch, 1e6)
        return _timed(work)

    def zipf(n):
        keys = ZipfKeys(64, 0.9)
        stream = RngStream(seed, "probe")

        def work():
            for _ in range(n // batch + 1):
                keys.sample(stream, batch)
        return _timed(work)

    def digest_record(n):
        digest = LatencyDigest()

        def work():
            for i in range(n):
                digest.record(1.0 + (i & 1023))
        return _timed(work)

    return {"arrivals_ns": _per_op_ns(arrivals, budget, batch),
            "zipf_ns": _per_op_ns(zipf, budget, batch),
            "digest_record_ns": _per_op_ns(digest_record, budget, 5000)}


def ft_probes(budget: Budget) -> dict[str, float]:
    data = np.zeros(8, dtype=np.float64)
    credit = np.empty(0, dtype=np.uint8)

    def replicated_put(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                # replica chain of primary p: p, p+1, p+2 over ranks 1..3
                rw = ReplicatedWindow(
                    ctx, win,
                    lambda p: [(p - 1 + i) % 3 + 1 for i in range(3)],
                    replication=2)
                acks = yield from ctx.na.notify_init(
                    win, source=ANY_SOURCE, tag=7, expected_count=2)
                for _ in range(n):
                    yield from ctx.na.start(acks)
                    put = yield from rw.put_notify(data, 1, 0, tag=7)
                    yield from rw.wait_acks(acks, put)
                    yield from win.flush_all()
            elif ctx.rank in (1, 2):
                req = yield from ctx.na.notify_init(win, source=0, tag=7)
                for _ in range(n):
                    yield from ctx.na.start(req)
                    yield from ctx.na.wait(req)
                    yield from ctx.na.put_notify(win, credit, 0, 0, tag=7)
                    yield from win.flush_local(0)
            yield from ctx.barrier()
        return _cluster_run(program, nranks=4)

    def take_checkpoint(n):
        def program(ctx):
            # analyze: skip
            win = yield from ctx.win_allocate(65536)
            if ctx.rank == 0:
                for _ in range(n):
                    yield from checkpoint(ctx, [win], collective=False)
            yield from ctx.barrier()
        return _cluster_run(program)

    return {
        "replicated_put_ns": _per_op_ns(replicated_put, budget, 200),
        "checkpoint_us": _per_op_ns(take_checkpoint, budget, 200) / 1e3,
    }


def sanitizer_probes(budget: Budget) -> dict[str, float]:
    def stencil(sanitize):
        def probe(n):
            def work():
                for _ in range(n):
                    run_stencil("na", 4, rows=32, cols=128,
                                config=ClusterConfig(nranks=4,
                                                     sanitize=sanitize))
            return _timed(work)
        return probe
    return {"overhead_ratio": _per_op_ns(stencil(True), budget, 1)
            / _per_op_ns(stencil(False), budget, 1)}


def analysis_probes(budget: Budget, root: str) -> dict[str, float]:
    trees = [os.path.join(root, t) for t in ANALYSIS_TREES]

    def corpus(n):
        def work():
            for _ in range(n):
                analyze_paths(trees)
        return _timed(work)

    def races(n):
        """Only the race checker's share: extraction and instantiation
        happen outside the clock."""
        total = 0.0
        for _ in range(n):
            for path in collect_files(trees):
                for program in extract_file(path):
                    if program.skipped:
                        continue
                    for size in sorted(set(program.sizes)):
                        if not 1 <= size <= 256:
                            continue
                        traces = instantiate(program, size)
                        t0 = time.perf_counter()
                        check_races(program, size, traces)
                        total += time.perf_counter() - t0
        return total

    return {"corpus_s": _per_op_ns(corpus, budget, 1) / 1e9,
            "races_corpus_s": _per_op_ns(races, budget, 1) / 1e9}


def run_probes(budget: Budget, seed: int, root: str) -> dict[str, float]:
    """Every probe metric, keyed ``<layer>.probe.<name>``."""
    groups = {
        "sim.scheduler": lambda: scheduler_probes(budget, seed),
        "sim.engine": lambda: engine_probes(budget),
        "network.fabric": lambda: fabric_probes(budget),
        "network.cq": lambda: cq_probes(budget),
        "core.uq": lambda: uq_probes(budget),
        "core.na": lambda: na_probes(budget),
        "rma": lambda: rma_probes(budget),
        "mpi": lambda: mpi_probes(budget),
        "memory": lambda: memory_probes(budget),
        "cluster": lambda: cluster_probes(budget),
        "network.shardlink": lambda: shardlink_probes(budget),
        "sim.shard": lambda: shard_probes(budget),
        "bench.load": lambda: load_probes(budget, seed),
        "ft": lambda: ft_probes(budget),
        "sanitizer": lambda: sanitizer_probes(budget),
        "analysis": lambda: analysis_probes(budget, root),
    }
    out = {}
    for layer, group in groups.items():
        for name, value in group().items():
            out[f"{layer}.probe.{name}"] = value
    return out
