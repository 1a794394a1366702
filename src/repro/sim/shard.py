"""Sharded conservative-parallel DES core (coordinator + worker protocol).

Ranks are partitioned node-aligned across ``shards`` forked workers, each
running its own :class:`~repro.sim.engine.Engine` + scheduler + fabric
slice, synchronized by a conservative (CMB-style) time-window protocol
(docs/architecture.md §11 has the argument, the message shapes and the
measured 1 / 2 / 4-worker split):

* **Lookahead** ``W = min(L_fma, L_bte)``: every cross-shard effect rides
  a uGNI transfer, so it lands no earlier than issue time plus ``W``.
* **Windows**: the coordinator takes the *global* minimum ``T`` of the
  shards' next-event times and grants every shard ``run(until=T + W)``; a
  packet generated inside the window takes effect at or after the
  boundary where it is delivered.
* **Boundaries**: each worker routes what it shipped — a bucket of
  :class:`~repro.network.shardlink.ShardPacket` records per foreign
  shard, encoded once and forwarded by the coordinator unopened, and the
  bucket for its own shard held back in process — and applies what
  arrives in deterministic ``(sort_time, origin, op_id)`` order;
  responses (acks, get data, fetched AMO values) ship in sub-round
  exchanges at the same boundary until nothing is in flight.

The fabric is not re-stated here: the shard boundary *is* the op
pipeline's hand-off, and :class:`ShardFabric` only links the origin half
in one worker to the same target-half methods in another (§3).  What
differs from a serial run is *when* the target half runs — at the next
boundary instead of at issue time — hence the two documented caveats
(§11): bit-identical issue-time *ties* into one node order by ``(origin,
op id)`` here and by the event counter in serial, and a *get under
contention* plans its response leg at the boundary, not at issue.

Neither ``shards=1``, ``reliable=False`` nor ``sanitize=True`` enters this
module (:func:`repro.cluster.effective_shards`); every fault plan does.
Workers run unsanitized, with the cyclic collector off from fork to
finish (§9), and direct cross-shard object access fails loudly.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import time
import traceback
from collections.abc import Callable, Sequence
from operator import attrgetter
from typing import Any

from repro.cluster import Cluster, ClusterConfig, Rank
from repro.errors import DeadlockError, NetworkError, SimulationError
from repro.memory.address import AddressSpace
from repro.network.fabric import Fabric
from repro.network.shardlink import (
    RankTable,
    ShardPacket,
    ShardRouting,
    decode_bucket,
    encode_bucket,
    partition_summary,
    request_packet,
    wire_args,
)
from repro.network.topology import Machine
from repro.rma.window import WindowRegistry, _SharedWin
from repro.sim.engine import add_external_events, events_scheduled

#: hard cap on boundary sub-round exchanges per run (a runaway-protocol
#: backstop far above anything a real program produces)
MAX_EXCHANGES = 10_000_000


# ---------------------------------------------------------------------------
# Shard-local fabric: cross-shard ops become packets
# ---------------------------------------------------------------------------
#: the deterministic processing order of one boundary batch
_BOUNDARY_ORDER = attrgetter("sort_time", "origin", "op_id")


class ShardFabric(Fabric):
    """A fabric slice owning one shard's NICs and address spaces.

    Defines no verb of its own: every ``put``/``get``/``amo``/``send_sys``
    is the inherited origin half, and every commit / serve / execute /
    deliver the inherited target half.  This class is only the *link*
    between the two — it overrides :meth:`Fabric._hand_off` so that an
    inter-node op, instead of landing at issue time, is parked under an op
    id and shipped as a :class:`ShardPacket`; the target half runs when the
    packet is processed at a window boundary, in deterministic order, and
    its result returns as a response packet that resumes the parked return
    leg.
    """

    def __init__(self, engine, machine, spaces, routing: ShardRouting,
                 shard: int, **kw):
        local = routing.ranks_of(shard)
        super().__init__(engine, machine, spaces, local_ranks=local, **kw)
        self.routing = routing
        self.shard = shard
        #: packets awaiting routing at the next sync
        self._outbox: list[ShardPacket] = []
        #: packets for this same shard, routed at the last sync: they wait
        #: here, live, for the deliver that merges them with inbound ones
        self._held: list[ShardPacket] = []
        #: packets / bytes this worker sent over the link, and packets it
        #: held back because they never had to leave
        self.link_packets = self.link_bytes = self.held_packets = 0
        #: op_id -> what the op's return leg needs, until its response
        self._pending: dict[int, Any] = {}
        self._op_ids = itertools.count(1)
        #: set by ShardCluster (win-reg packets resolve through it)
        self.win_registry = None
        self._handlers: dict[str, Callable[[ShardPacket], None]] = {
            "put": self._recv_send,
            "sys": self._recv_send,
            "get": self._recv_get,
            "amo": self._recv_amo,
            "ack": self._recv_ack,
            "get-resp": self._recv_get_resp,
            "amo-resp": self._recv_amo_resp,
            "win-reg": self._recv_win_reg,
        }

    # -- boundary plumbing ---------------------------------------------
    def route_outbox(self) -> tuple[dict[int, bytes], int]:
        """Route what was shipped since the last sync.

        Returns ``({destination shard: encoded bucket}, held count)``:
        every foreign bucket encoded once, to be forwarded unopened; the
        bucket for this shard stays here as live packets.  A same-shard
        op is therefore never serialised, exactly as in a serial run (a
        put's bytes are already the origin half's private snapshot, so
        nothing aliases the origin's buffer).
        """
        buckets: dict[int, list[ShardPacket]] = {}
        shard_of = self.routing.shard_of
        for pkt in self._outbox:
            dest = pkt.shard if pkt.shard is not None \
                else shard_of(pkt.target)
            buckets.setdefault(dest, []).append(pkt)
        self._outbox = []
        self._held = buckets.pop(self.shard, [])
        self.held_packets += len(self._held)
        wire = {dest: self._encode(bucket)
                for dest, bucket in buckets.items()}
        return wire, len(self._held)

    def _encode(self, bucket: list[ShardPacket]) -> bytes:
        try:
            blob = encode_bucket(bucket)
        except Exception as exc:
            # whatever a payload's pickling raised: name the op it rode
            for pkt in bucket:
                try:
                    encode_bucket([pkt])
                except Exception:
                    raise SimulationError(
                        f"shard {self.shard}: cannot serialise "
                        f"{pkt.ptype} {pkt.origin} -> {pkt.target} "
                        f"(op {pkt.op_id}) for another shard: "
                        f"{exc!r}") from exc
            raise
        self.link_packets += len(bucket)
        self.link_bytes += len(blob)
        return blob

    def process_inbox(self, inbound: list[tuple[int, bytes]]) -> None:
        """Apply one boundary batch in deterministic order.

        ``inbound`` is ``(source shard, encoded bucket)`` in ascending
        source order; the held bucket takes this shard's own place in
        that order before the stable sort, so ties fall exactly where
        they fell when every packet went through the coordinator.
        """
        buckets = {source: decode_bucket(blob) for source, blob in inbound}
        buckets[self.shard], self._held = self._held, []
        packets = [pkt for source in sorted(buckets)
                   for pkt in buckets[source]]
        packets.sort(key=_BOUNDARY_ORDER)
        handlers = self._handlers
        for pkt in packets:
            handlers[pkt.ptype](pkt)

    def _ship(self, pkt: ShardPacket) -> None:
        self._outbox.append(pkt)

    # -- origin half -> packet -----------------------------------------
    def _hand_off(self, verb: str, parked, same: bool, op: tuple, san):
        """Ship an inter-node op instead of landing it at issue time.

        Only same-node (shared-memory) operations land directly: EVERY
        inter-node op takes the packet path, including ones whose target
        lives in this same shard (those wait in ``_held`` and land at the
        next boundary with the inbound ones).  Uniformity is what makes
        sharded runs exact rather than approximate — a target NIC's
        receive-link
        reservations must happen in global issue-time order, and mixing
        issue-time reservations with boundary-time ones at one NIC would
        reorder overlapping incast flows relative to the serial schedule.
        """
        if same:
            return super()._hand_off(verb, parked, same, op, san)
        op_id = next(self._op_ids)
        self._pending[op_id] = parked
        self._ship(request_packet(verb, op_id, self.engine.now, op))
        return None

    # -- packet -> target half -> response packet ----------------------
    def _recv_send(self, pkt: ShardPacket) -> None:
        """A put or sys message lands; its ack returns at once."""
        commit_at, ack_at = self._land[pkt.ptype](False, wire_args(pkt))
        self._ship(ShardPacket(
            ptype="ack", origin=pkt.target, target=pkt.origin,
            op_id=pkt.op_id, sort_time=commit_at, t_commit=commit_at,
            t_exec=ack_at))

    def _recv_get(self, pkt: ShardPacket) -> None:
        """A get request lands; the data returns when it is served."""
        def respond(data) -> None:
            # runs at serve time, long after the response timing is bound
            self._ship(ShardPacket(
                ptype="get-resp", origin=pkt.target, target=pkt.origin,
                op_id=pkt.op_id, sort_time=self.engine.now, t_commit=t_data,
                G=G, data=data))

        t_data, G, _ = self._land_get(False, wire_args(pkt), sink=respond)

    def _recv_amo(self, pkt: ShardPacket) -> None:
        """An atomic lands; the old value returns when it has executed."""
        self._land_amo(False, wire_args(pkt), sink=lambda old: self._ship(
            ShardPacket(ptype="amo-resp", origin=pkt.target,
                        target=pkt.origin, op_id=pkt.op_id,
                        sort_time=self.engine.now, value=old)))

    # -- response packet -> return leg ---------------------------------
    def _recv_ack(self, pkt: ShardPacket) -> None:
        self._finish_send(self._pending.pop(pkt.op_id), pkt.t_commit,
                          pkt.t_exec)

    def _recv_get_resp(self, pkt: ShardPacket) -> None:
        self._finish_get(*self._pending.pop(pkt.op_id), pkt.t_commit, pkt.G,
                         (pkt.data,))

    def _recv_amo_resp(self, pkt: ShardPacket) -> None:
        self._finish_amo(*self._pending.pop(pkt.op_id), (pkt.value,))

    # -- collective window registration --------------------------------
    def broadcast_win_reg(self, call_idx: int, rank: int, header: int,
                          base: int, size: int, disp_unit: int) -> None:
        """Ship this rank's window base to every other shard.

        The collective barrier inside ``win_allocate`` guarantees the
        broadcast lands before any remote access: the barrier's causal
        chain from the registering rank crosses a shard boundary no
        earlier than the boundary that carries this packet.
        """
        for s in range(self.routing.shards):
            if s == self.shard:
                continue
            self._ship(ShardPacket(
                ptype="win-reg", origin=rank, target=-1,
                op_id=next(self._op_ids), sort_time=self.engine.now,
                shard=s,
                payload={"call_idx": call_idx, "header": header,
                         "base": base, "size": size,
                         "disp_unit": disp_unit}))

    def _recv_win_reg(self, pkt: ShardPacket) -> None:
        p = pkt.payload
        self.win_registry.register_remote(
            p["call_idx"], pkt.origin, p["header"], p["base"], p["size"],
            p["disp_unit"])


# ---------------------------------------------------------------------------
# Shard-aware window registry
# ---------------------------------------------------------------------------
class _ShardSharedWin(_SharedWin):
    """A shared-window record that broadcasts local registrations."""

    def __init__(self, win_id: int, nranks: int, call_idx: int,
                 fabric: ShardFabric):
        super().__init__(win_id, nranks)
        self._call_idx = call_idx
        self._fabric = fabric

    def register(self, rank: int, region, disp_unit: int) -> None:
        super().register(rank, region, disp_unit)
        self._fabric.broadcast_win_reg(
            self._call_idx, rank, self.header[rank], self.bases[rank],
            self.sizes[rank], disp_unit)

    def target_addr(self, target: int, disp: int, nbytes: int) -> int:
        try:
            return super().target_addr(target, disp, nbytes)
        except KeyError:
            raise NetworkError(
                f"window {self.win_id}: base address of rank {target} is "
                f"not known in this shard (the win_allocate barrier must "
                f"complete before remote accesses)") from None


class ShardWindowRegistry(WindowRegistry):
    """Positional window identity across shards.

    Window ids stay consistent without coordination: windows are
    allocated collectively in the same positional order on every rank,
    and the allocation barrier of call ``k`` completes before any rank
    reaches call ``k+1``, so every shard first encounters the calls in
    index order and the per-shard id counters agree.
    """

    def __init__(self, nranks: int, fabric: ShardFabric):
        super().__init__(nranks)
        self._fabric = fabric

    def _shared_for(self, idx: int) -> _ShardSharedWin:
        shared = self._shared.get(idx)
        if shared is None:
            shared = _ShardSharedWin(next(self._ids), self.nranks, idx,
                                     self._fabric)
            self._shared[idx] = shared
        return shared

    def attach(self, rank: int) -> _ShardSharedWin:
        idx = self._call_idx[rank]
        self._call_idx[rank] += 1
        return self._shared_for(idx)

    def register_remote(self, call_idx: int, rank: int, header: int,
                        base: int, size: int, disp_unit: int) -> None:
        shared = self._shared_for(call_idx)
        shared.header[rank] = header
        shared.bases[rank] = base
        shared.sizes[rank] = size
        shared.disp_units[rank] = disp_unit


# ---------------------------------------------------------------------------
# Shard-local cluster
# ---------------------------------------------------------------------------
class ShardCluster(Cluster):
    """One worker's view: full topology, shard-local everything else."""

    def __init__(self, config: ClusterConfig, routing: ShardRouting,
                 shard: int):
        self.routing = routing
        self.shard = shard
        self._local = routing.ranks_of(shard)
        super().__init__(config)

    def _build_sanitizer(self):
        # The sanitizer's vector clocks span all ranks in one process;
        # workers run without it, whatever REPRO_SANITIZE says
        # (sanitize=True runs serial).
        return None

    def _build_spaces(self):
        return RankTable(
            {r: AddressSpace(r, self.cfg.space_bytes) for r in self._local},
            self.cfg.nranks, "address space")

    def _build_fabric(self) -> ShardFabric:
        return ShardFabric(self.engine, self.machine, self.spaces,
                           self.routing, self.shard,
                           params=self.cfg.params, tracer=self.tracer,
                           seed=self.cfg.seed,
                           fault_plan=self.cfg.faults)

    def _build_win_registry(self) -> ShardWindowRegistry:
        reg = ShardWindowRegistry(self.cfg.nranks, self.fabric)
        self.fabric.win_registry = reg
        return reg

    def _build_ranks(self):
        return RankTable({r: Rank(self, r) for r in self._local},
                         self.cfg.nranks, "rank context")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _shard_worker(conn, inherited, shard: int, config: ClusterConfig,
                  routing: ShardRouting, programs, args: tuple) -> None:
    """Worker body: build the shard-local cluster and obey the protocol.

    Messages from the coordinator: ``("run", until)`` advances the local
    engine, ``("deliver", [(source shard, bucket bytes), ...])`` applies a
    boundary batch (merged with the packets this worker held back), and
    ``("finish",)`` collects results.  Every run/deliver is answered with
    ``("sync", next_event_time, {dest shard: bucket bytes}, held)``.
    """
    # the fork copied the coordinator's ends of the pipes opened so far,
    # this worker's included: holding them would hide the coordinator's
    # exit (or its closing up after another worker's failure) from every
    # earlier worker, which waits for EOF
    for end in inherited:
        end.close()
    try:
        # the fork inherits the coordinator's whole heap: freeze it so
        # this worker's final collection never traverses inherited
        # objects (and never copy-on-write-faults their pages)
        gc.freeze()
        # a worker only simulates, and dies at finish: in-flight ops are
        # live containers, so automatic collections between here and
        # there would traverse the heap to reclaim nothing
        # (docs/architecture.md §9)
        gc.disable()
        gc_base = gc.get_stats()
        events_base = events_scheduled()
        cpu_base = time.process_time()
        cluster = ShardCluster(config, routing, shard)
        engine, fabric = cluster.engine, cluster.fabric
        procs = {}
        for r in routing.ranks_of(shard):
            prog = programs if callable(programs) else programs[r]
            procs[r] = engine.process(prog(cluster.ranks[r], *args),
                                      name=f"rank{r}")
        while True:
            conn.send(("sync", engine.peek(), *fabric.route_outbox()))
            try:
                msg = conn.recv()
            except EOFError:  # the coordinator gave up on the run
                return
            if msg[0] == "run":
                if msg[1] > engine.now:
                    engine.run(until=msg[1], detect_deadlock=False)
            elif msg[0] == "deliver":
                fabric.process_inbox(msg[1])
            elif msg[0] == "finish":
                break
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown coordinator op {msg[0]!r}")
        results = {r: (p.value if p.triggered else None)
                   for r, p in procs.items()}
        blocked = [p.name or f"rank{r}"
                   for r, p in procs.items() if p.is_alive]
        report = {"link_packets": fabric.link_packets,
                  "link_bytes": fabric.link_bytes,
                  "held_packets": fabric.held_packets,
                  "gc_collections": [
                      b["collections"] - a["collections"]
                      for a, b in zip(gc_base, gc.get_stats())],
                  "gc_unreachable": gc.collect(),
                  "events": events_scheduled() - events_base,
                  "cpu_s": time.process_time() - cpu_base}
        conn.send(("done", results, blocked, cluster.stats(), report))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
class ShardedRun:
    """Summary object returned by :func:`run_sharded` in place of the
    serial :class:`~repro.cluster.Cluster`: the same ``.cfg`` / ``.time``
    / ``.stats()`` surface, and the shard protocol's own counters as
    attributes (``stats()`` equals the serial run's, key for key)."""

    def __init__(self, cfg: ClusterConfig, shards: int, lookahead: float,
                 stats: dict[str, Any], windows: int, exchanges: int,
                 coordinator_cpu_s: float,
                 reports: Sequence[dict[str, Any]]):
        self.cfg = cfg
        self.shards = shards
        self.lookahead = lookahead
        self._stats = stats
        self.windows = windows
        self.exchanges = exchanges
        #: scheduler events simulated, summed over workers
        self.events = sum(w["events"] for w in reports)
        #: per-worker process CPU seconds (build + simulation)
        self.cpu_s = [w["cpu_s"] for w in reports]
        #: max worker CPU + coordinator CPU: projected wall time on one
        #: dedicated core per shard
        self.critical_path_s = max(self.cpu_s) + coordinator_cpu_s
        #: what crossed the shard boundary, summed over workers: packets
        #: and bytes encoded for another shard, and packets a worker held
        #: back for itself (an inter-node op inside one shard)
        self.link_packets = sum(w["link_packets"] for w in reports)
        self.link_bytes = sum(w["link_bytes"] for w in reports)
        self.held_packets = sum(w["held_packets"] for w in reports)
        #: per worker: automatic collections per generation between fork
        #: and finish, and what one explicit collection at finish found
        #: unreachable — all zeros while the event loop orphans no cycle
        self.gc_collections = [w["gc_collections"] for w in reports]
        self.gc_unreachable = [w["gc_unreachable"] for w in reports]

    @property
    def time(self) -> float:
        return self._stats["time_us"]

    def stats(self) -> dict[str, Any]:
        return self._stats


def _merge_stats(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-worker ``Cluster.stats()`` into the serial run's summary.

    One rule: numbers add, maps add key-wise (per-rank maps have
    disjoint keys, so adding is their union; ``faults`` sums each fault
    class), and ``time_us``, the end of the run, takes the max.
    """
    out: dict[str, Any] = {}
    for st in parts:
        for key, val in st.items():
            if key == "time_us":
                out[key] = max(out.get(key, 0.0), val)
            elif isinstance(val, dict):
                acc = out.setdefault(key, {})
                for k, v in val.items():
                    acc[k] = acc.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + val
    return out


def run_sharded(program, args: Sequence[Any], config: ClusterConfig,
                shards: int) -> tuple[list[Any], ShardedRun]:
    """Run one rank program over ``shards`` conservative-parallel workers.

    Mirrors ``Cluster.run`` semantics: returns per-rank results,
    raises :class:`DeadlockError` when processes hang, and re-raises
    worker failures as :class:`SimulationError` carrying the worker
    traceback.
    """
    machine = Machine(config.nranks, config.ranks_per_node,
                      nodes_per_group=config.nodes_per_group)
    routing = ShardRouting(machine, shards)
    lookahead = routing.lookahead(config.params)
    if not callable(program):
        program = list(program)
        if len(program) != config.nranks:
            raise SimulationError(
                f"{len(program)} programs for {config.nranks} ranks")
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        raise SimulationError(
            "sharded execution needs the fork start method (rank "
            "programs are not picklable); run with shards=1")
    coord_cpu0 = time.process_time()
    gc.collect()  # shrink the heap the workers are about to inherit
    conns, workers = [], []
    for s in range(shards):
        parent_conn, child_conn = ctx.Pipe()
        conns.append(parent_conn)
        w = ctx.Process(target=_shard_worker,
                        args=(child_conn, tuple(conns), s, config, routing,
                              program, tuple(args)),
                        daemon=True)
        w.start()
        child_conn.close()
        workers.append(w)

    def _recv(s: int):
        try:
            msg = conns[s].recv()
        except EOFError:
            raise SimulationError(
                f"shard {s} worker died "
                f"({partition_summary(routing)})") from None
        if msg[0] == "error":
            raise SimulationError(
                f"shard {s} worker failed:\n{msg[1]}")
        return msg

    try:
        next_time = [0.0] * shards
        awaiting = set(range(shards))
        windows = exchanges = 0
        while True:
            # shard -> [(source shard, bucket bytes)] in source order; a
            # shard that only holds packets of its own gets an empty list
            inbound: dict[int, list[tuple[int, bytes]]] = {}
            for s in sorted(awaiting):
                _, next_time[s], wire, held = _recv(s)
                for dest, blob in wire.items():
                    inbound.setdefault(dest, []).append((s, blob))
                if held:
                    inbound.setdefault(s, [])
            awaiting.clear()
            if inbound:
                for s, blobs in inbound.items():
                    conns[s].send(("deliver", blobs))
                    awaiting.add(s)
                exchanges += 1
                if exchanges > MAX_EXCHANGES:  # pragma: no cover
                    raise SimulationError(
                        "shard boundary exchange did not quiesce")
                continue
            horizon = min(next_time)
            if horizon == float("inf"):
                break
            until = horizon + lookahead
            for s in range(shards):
                conns[s].send(("run", until))
                awaiting.add(s)
            windows += 1
        for c in conns:
            c.send(("finish",))
        results: list[Any] = [None] * config.nranks
        blocked: list[str] = []
        parts: list[dict[str, Any]] = []
        reports: list[dict[str, Any]] = []
        for s in range(shards):
            _, res, blk, stats, report = _recv(s)
            for r, v in res.items():
                results[r] = v
            blocked.extend(blk)
            parts.append(stats)
            reports.append(report)
        run = ShardedRun(config, shards, lookahead, _merge_stats(parts),
                         windows, exchanges,
                         time.process_time() - coord_cpu0, reports)
        # shard workers simulate in their own processes: fold their event
        # counts into this process's counter so events_scheduled()-based
        # events/sec stays truthful
        add_external_events(run.events)
        if blocked:
            raise DeadlockError(sorted(blocked))
        return results, run
    finally:
        for c in conns:
            try:
                c.close()
            except OSError:  # pragma: no cover
                pass
        for w in workers:
            w.join(timeout=5)
            if w.is_alive():  # pragma: no cover - hung worker
                w.terminate()
