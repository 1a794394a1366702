"""Sharded conservative-parallel DES core (coordinator + worker protocol).

One Python process is the hard wall for O(10k)-rank sweeps: PR 4/PR 6 made
the single engine fast, but rank programs are embarrassingly parallel in
*space* — each rank's NIC, address space, CQ, and matching state is
touched only by local events plus fabric transfers.  This module
partitions ranks node-aligned across ``shards`` forked worker processes,
each running its own :class:`~repro.sim.engine.Engine` + scheduler +
fabric slice, and synchronizes them with a conservative (CMB-style)
time-window protocol:

* **Lookahead** ``W``: every cross-shard effect rides a uGNI transfer, so
  it takes effect no earlier than its issue time plus the engine's wire
  latency; ``W = min(L_fma, L_bte)`` (:meth:`ShardRouting.lookahead`).
* **Windows**: the coordinator collects every shard's next-event time,
  computes the global minimum ``T``, and grants all shards the same
  bound ``T + W``.  Any packet generated inside the window takes effect
  at or after ``T + W`` (its issue time is ``>= T``), i.e. at or after
  the boundary where it is delivered — time never runs backwards.  The
  bound must use the *global* minimum: granting shard ``i``
  ``min_{j!=i}(next_j) + W`` is unsound because a reply chain through a
  third shard with an early event can land below ``i``'s horizon.
* **Boundaries**: shards exchange serializable
  :class:`~repro.network.shardlink.ShardPacket` messages at window
  boundaries, processed in deterministic ``(sort_time, origin, op_id)``
  order; response packets (acks, get data, fetched AMO values) ship in
  sub-round exchanges at the same boundary until no packets remain in
  flight.

``shards=1`` never enters this module (:func:`repro.cluster.run_ranks`
dispatches only for ``shards > 1``), so the serial path stays
byte-identical to the pre-shard engine.  With ``shards > 1`` the
*virtual-time* results are identical to serial — including the arrival
order of overlapping incast flows — because every inter-node operation
takes the packet path (same-shard inter-node ops loop back through the
coordinator), so each target NIC's receive-link reservations are applied
in global issue-time order exactly as the serial fabric interleaves
them.  The one caveat is an exact *tie*: two inter-node operations
aimed at the same node and issued at the bit-identical virtual time
order by ``(origin rank, op id)`` here, while serial orders them by its
global event counter (e.g. whichever producer a barrier happened to
wake first) — both deterministic, possibly different.  Ties require
producers with literally identical timing; any compute skew (the DHT
motif's jitter, real per-rank work) keeps runs exact.  The second
caveat is *gets under contention*: serial ``Fabric.get`` plans ahead,
reserving the target's tx engine and the origin's rx link at issue
time, while here the get only reaches the target at a boundary — so a
cross-shard get whose response leg contends with the target's own
traffic may commit at a different virtual time than serial.  Gets are
exact in uncontended windows (every golden-trace test that issues
them); latency-measuring workloads that need byte-identical sharded
runs should serve reads as notified-put RPC instead (see
``repro.apps.services.kv`` and docs/architecture.md §12).  Unsupported
under sharding: probabilistic fault injection (drop/dup/delay/stall draw
from one stream in serial issue order), lossy fabrics, ``reliable=False``
(rejected by :func:`repro.cluster.effective_shards`), direct cross-shard
object access (notified counters / GASPI registers — fails loudly), and
the sanitizer (workers silently build without it; run serial to
sanitize).  Node-failure-only fault plans (``FaultPlan.shardable``) *are*
supported: the node-down verdict is a pure (rank, time) table lookup with
no RNG draws, the origin-side lost branch mirrors the serial one byte for
byte, and per-worker injector counters are summed at merge — so faulty
sharded runs stay byte-identical with serial.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import time
import traceback
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.cluster import Cluster, ClusterConfig, Rank
from repro.errors import DeadlockError, NetworkError, SimulationError
from repro.memory.address import AddressSpace
from repro.network.fabric import (
    AMO_REQUEST_BYTES,
    AMO_RESPONSE_BYTES,
    GET_REQUEST_BYTES,
    Fabric,
    OpHandle,
    SysPacket,
)
from repro.network.shardlink import (
    RankTable,
    ShardPacket,
    ShardRouting,
    partition_summary,
)
from repro.network.topology import Machine
from repro.rma.window import WindowRegistry, _SharedWin
from repro.sim.engine import Event, add_external_events, events_scheduled

#: hard cap on boundary sub-round exchanges per run (a runaway-protocol
#: backstop far above anything a real program produces)
MAX_EXCHANGES = 10_000_000

#: accumulated critical-path CPU seconds across this process's sharded
#: runs: per run, max over workers of the worker's process CPU time plus
#: the coordinator's own CPU time.  This is the projected wall time of
#: the run on a machine with one dedicated core per shard — the honest
#: parallel-throughput denominator when the host machine has fewer cores
#: than shards (workers timesharing a core inflate wall time without
#: doing any extra work).  Mirrors ``engine.events_scheduled()``.
_cp_seconds_total = 0.0


def critical_path_seconds() -> float:
    """Accumulated sharded critical-path CPU seconds in this process."""
    return _cp_seconds_total


# ---------------------------------------------------------------------------
# Shard-local fabric: cross-shard ops become packets
# ---------------------------------------------------------------------------
class ShardFabric(Fabric):
    """A fabric slice owning one shard's NICs and address spaces.

    Operations between two local ranks take the inherited serial path
    unchanged.  Cross-shard operations split at the one explicit message
    boundary: the origin prices its own legs (injection, CPU busy, ideal
    commit) exactly like the serial fabric, and ships a packet; the
    target applies receive-side state (rx-link reservation, response
    engine planning, payload commit, notification post) when the packet
    is processed at a window boundary, in deterministic order.
    """

    def __init__(self, engine, machine, spaces, routing: ShardRouting,
                 shard: int, **kw):
        local = routing.ranks_of(shard)
        super().__init__(engine, machine, spaces, local_ranks=local, **kw)
        assert self.san is None, "sharded fabrics run unsanitized"
        assert self.faults is None or self.faults.plan.shardable, (
            "sharded fabrics only support node-failure-only fault plans "
            "(FaultPlan.shardable)")
        self.routing = routing
        self.shard = shard
        #: packets awaiting shipment at the next boundary
        self._outbox: list[ShardPacket] = []
        #: op_id -> pending completion state (responses resolve these)
        self._pending: dict[int, tuple] = {}
        self._op_ids = itertools.count(1)
        #: set by ShardCluster (win-reg packets resolve through it)
        self.win_registry = None
        self._handlers: dict[str, Callable[[ShardPacket], None]] = {
            "put": self._recv_put,
            "get": self._recv_get,
            "amo": self._recv_amo,
            "sys": self._recv_sys,
            "ack": self._recv_ack,
            "get-resp": self._recv_get_resp,
            "amo-resp": self._recv_amo_resp,
            "win-reg": self._recv_win_reg,
        }

    # -- boundary plumbing ---------------------------------------------
    def drain_outbox(self) -> list[ShardPacket]:
        out, self._outbox = self._outbox, []
        return out

    def process_inbox(self, packets: list[ShardPacket]) -> None:
        """Apply one boundary batch in deterministic order."""
        packets.sort(key=lambda p: (p.sort_time, p.origin, p.op_id))
        handlers = self._handlers
        for pkt in packets:
            handlers[pkt.ptype](pkt)

    def _ship(self, pkt: ShardPacket) -> None:
        self._outbox.append(pkt)

    def _direct(self, origin: int, target: int) -> bool:
        """True when the op may take the inherited serial path.

        Only same-node (shared-memory) operations run directly: EVERY
        inter-node op goes through the packet path, including ones whose
        target lives in this same shard (the coordinator loops those back
        at the next boundary).  Uniformity is what makes sharded runs
        exact rather than approximate — a target NIC's receive-link
        reservations must happen in global issue-time order, and mixing
        issue-time reservations (serial path) with boundary-time
        reservations (packet path) at one NIC would reorder overlapping
        incast flows relative to the serial schedule.
        """
        return self.machine.same_node(origin, target)

    # -- RDMA put -------------------------------------------------------
    def put(self, origin: int, target: int, target_addr: int,
            data: np.ndarray, *, win_id: int | None = None,
            immediate: int | None = None, accumulate: str | None = None,
            acc_dtype=np.float64,
            scatter: list[tuple[int, int]] | None = None,
            san_track: bool = True) -> OpHandle:
        if self._direct(origin, target):
            return super().put(origin, target, target_addr, data,
                               win_id=win_id, immediate=immediate,
                               accumulate=accumulate, acc_dtype=acc_dtype,
                               scatter=scatter, san_track=san_track)
        raw = np.ascontiguousarray(data).view(np.uint8).ravel().copy()
        nbytes = raw.nbytes
        if scatter is not None:
            if sum(b for _, b in scatter) != nbytes:
                raise NetworkError(
                    "scatter-gather list does not cover the payload")
            target_addr = scatter[0][0] if scatter else target_addr
        nic = self.nics[origin]
        nic.ops_issued += 1
        fate = self._fate(origin, target, nbytes, False)
        if fate is not None and fate.lost:
            # Mirrors the serial lost branch exactly: the origin engine is
            # still reserved (plan without the hop), local_done fires at
            # inject_end, and no packet ships — the payload never commits.
            eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
            plan = eng.plan(nbytes)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             nbytes, op="put", medium="ugni",
                             notified=immediate is not None, lost=True)
            local_done = Event(self.engine, "put.local")
            remote_done = Event(self.engine, "put.remote")
            self._at(plan.inject_end, local_done.succeed)
            self._fail_lost("put", origin, target, fate, remote_done)
            return OpHandle("put", plan.cpu_busy, local_done, remote_done,
                            nbytes=nbytes, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)
        # Origin-side pricing identical to the serial inter-node path
        # byte for byte (plan + hop; drop penalty is zero by gating).
        eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
        plan = eng.plan(nbytes,
                        extra_delay=self._hop_extra(origin, target))
        self.tracer.emit(self.engine.now, "wire", origin, target, nbytes,
                         op="put", medium="ugni",
                         notified=immediate is not None)
        local_done = Event(self.engine, "put.local")
        remote_done = Event(self.engine, "put.remote")
        self._at(plan.inject_end, local_done.succeed)
        op_id = next(self._op_ids)
        self._pending[op_id] = ("put", remote_done)
        self._ship(ShardPacket(
            ptype="put", origin=origin, target=target, op_id=op_id,
            sort_time=self.engine.now, nbytes=nbytes,
            t_commit=plan.commit_at, G=eng.params.G, L=eng.params.L,
            target_addr=target_addr, immediate=immediate, win_id=win_id,
            accumulate=accumulate, acc_dtype=str(np.dtype(acc_dtype)),
            scatter=scatter, data=raw))
        return OpHandle("put", plan.cpu_busy, local_done, remote_done,
                        nbytes=nbytes, target=target,
                        commit_at=plan.commit_at)

    def _recv_put(self, pkt: ShardPacket) -> None:
        """Target-side half of a cross-shard put, at boundary time."""
        commit = self._rx_reserve(pkt.target, pkt.t_commit, pkt.nbytes,
                                  pkt.G)
        space = self.spaces[pkt.target]
        raw = pkt.data
        nbytes, target_addr = pkt.nbytes, pkt.target_addr
        accumulate, scatter = pkt.accumulate, pkt.scatter

        def commit_fn() -> None:
            if not nbytes:
                return
            if scatter is not None:
                pos = 0
                for addr, blen in scatter:
                    space.copy_in(addr, raw[pos:pos + blen])
                    pos += blen
                return
            if accumulate is None or accumulate == "replace":
                space.copy_in(target_addr, raw)
                return
            ufunc = {"sum": np.add, "max": np.maximum,
                     "min": np.minimum}.get(accumulate)
            if ufunc is None:
                raise NetworkError(f"unknown accumulate op {accumulate!r}")
            dt = np.dtype(pkt.acc_dtype)
            dst = space.mem[target_addr:target_addr + nbytes].view(dt)
            ufunc(dst, raw.view(dt), out=dst)

        # Same relative order as the serial fabric: payload commit first,
        # then the notification post, at the same timestamp.
        self._at(commit, commit_fn)
        if pkt.immediate is not None:
            self._post_notification(pkt.origin, pkt.target, "put",
                                    pkt.nbytes, pkt.immediate, pkt.win_id,
                                    pkt.target_addr, commit,
                                    same_node=False)
        self._ship(ShardPacket(
            ptype="ack", origin=pkt.target, target=pkt.origin,
            op_id=pkt.op_id, sort_time=commit, t_exec=commit + pkt.L))

    def _recv_ack(self, pkt: ShardPacket) -> None:
        """Origin-side completion of a put/sys: remote_done at ack time."""
        kind, remote_done = self._pending.pop(pkt.op_id)
        self._at(pkt.t_exec, remote_done.succeed)

    # -- RDMA get -------------------------------------------------------
    def get(self, origin: int, target: int, target_addr: int, nbytes: int,
            local_addr: int, *, win_id: int | None = None,
            immediate: int | None = None,
            gather: list[tuple[int, int]] | None = None,
            scatter: list[tuple[int, int]] | None = None) -> OpHandle:
        if self._direct(origin, target):
            return super().get(origin, target, target_addr, nbytes,
                               local_addr, win_id=win_id,
                               immediate=immediate, gather=gather,
                               scatter=scatter)
        if not self.params.reliable:  # pragma: no cover - gated upstream
            raise NetworkError(
                "cross-shard notified gets require reliable=True")
        for name, sg in (("gather", gather), ("scatter", scatter)):
            if sg is not None and sum(b for _, b in sg) != nbytes:
                raise NetworkError(
                    f"{name} list does not cover the {nbytes}-byte payload")
        if gather is not None and gather:
            target_addr = gather[0][0]
        nic = self.nics[origin]
        nic.ops_issued += 1
        fate = self._fate(origin, target, nbytes, False)
        if fate is not None and fate.lost:
            cpu_busy = nic.fma.plan(GET_REQUEST_BYTES).cpu_busy
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             GET_REQUEST_BYTES, op="get-req",
                             medium="ugni", lost=True)
            local_done = Event(self.engine, "get.local")
            remote_done = Event(self.engine, "get.remote")
            self._fail_lost("get", origin, target, fate,
                            local_done, remote_done)
            return OpHandle("get", cpu_busy, local_done, remote_done,
                            nbytes=nbytes, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)
        hop = self._hop_extra(origin, target)
        req = nic.fma.plan(GET_REQUEST_BYTES, extra_delay=hop)
        self.tracer.emit(self.engine.now, "wire", origin, target,
                         GET_REQUEST_BYTES, op="get-req", medium="ugni")
        self.tracer.emit(self.engine.now, "wire", target, origin, nbytes,
                         op="get-resp", medium="ugni",
                         notified=immediate is not None)
        local_done = Event(self.engine, "get.local")
        remote_done = Event(self.engine, "get.remote")
        op_id = next(self._op_ids)
        # commit_at must end up as the origin-side data-landed time to
        # match the serial fabric; that time is only known once the
        # response leg is planned, so _recv_get_resp patches the handle.
        handle = OpHandle("get", req.cpu_busy, local_done, remote_done,
                          nbytes=nbytes, target=target,
                          commit_at=req.commit_at)
        self._pending[op_id] = ("get", local_done, remote_done, scatter,
                                local_addr, handle)
        self._ship(ShardPacket(
            ptype="get", origin=origin, target=target, op_id=op_id,
            sort_time=self.engine.now, nbytes=nbytes,
            t_exec=req.commit_at, hop=hop, target_addr=target_addr,
            immediate=immediate, win_id=win_id, gather=gather))
        return handle

    def _recv_get(self, pkt: ShardPacket) -> None:
        """Target-side half of a cross-shard get: plan + serve + respond."""
        tnic = self.nics[pkt.target]
        teng = tnic.fma if pkt.nbytes <= self.params.fma_max else tnic.bte
        resp = teng.plan(pkt.nbytes, extra_delay=pkt.hop,
                         not_before=pkt.t_exec)
        serve_at = resp.inject_end
        tspace = self.spaces[pkt.target]
        gather, target_addr, nbytes = pkt.gather, pkt.target_addr, pkt.nbytes

        def serve() -> None:
            if not nbytes:
                snap = np.empty(0, np.uint8)
            elif gather is not None:
                snap = np.concatenate(
                    [tspace.copy_out(a, b) for a, b in gather])
            else:
                snap = tspace.copy_out(target_addr, nbytes)
            self._ship(ShardPacket(
                ptype="get-resp", origin=pkt.target, target=pkt.origin,
                op_id=pkt.op_id, sort_time=serve_at, nbytes=nbytes,
                t_commit=resp.commit_at, G=teng.params.G, data=snap))

        self._at(serve_at, serve)
        if pkt.immediate is not None:
            # reliable=True: the target-side notification fires at serve.
            self._post_notification(pkt.origin, pkt.target, "get", nbytes,
                                    pkt.immediate, pkt.win_id,
                                    pkt.target_addr, serve_at,
                                    same_node=False)

    def _recv_get_resp(self, pkt: ShardPacket) -> None:
        """Origin-side delivery of the get data."""
        kind, local_done, remote_done, scatter, local_addr, handle = \
            self._pending.pop(pkt.op_id)
        data_at = self._rx_reserve(pkt.target, pkt.t_commit, pkt.nbytes,
                                   pkt.G)
        # Serial Fabric.get reports commit_at = data_at (data locally
        # available); mirror it so cross-shard handles read the same.
        handle.commit_at = data_at
        ospace = self.spaces[pkt.target]
        snap = pkt.data
        nbytes = pkt.nbytes

        def deliver() -> None:
            if not nbytes:
                return
            if scatter is not None:
                pos = 0
                for addr, blen in scatter:
                    ospace.copy_in(addr, snap[pos:pos + blen])
                    pos += blen
            else:
                ospace.copy_in(local_addr, snap)

        self._at_batch(data_at, (
            deliver,
            local_done.succeed,
            remote_done.succeed,
        ))

    # -- atomics --------------------------------------------------------
    def amo(self, origin: int, target: int, target_addr: int, op: str,
            operand: int, compare: int | None = None, *,
            dtype=np.int64, win_id: int | None = None,
            immediate: int | None = None) -> OpHandle:
        if self._direct(origin, target):
            return super().amo(origin, target, target_addr, op, operand,
                               compare, dtype=dtype, win_id=win_id,
                               immediate=immediate)
        if op not in ("sum", "replace", "cas", "no_op"):
            raise NetworkError(f"unknown atomic op {op!r}")
        nic = self.nics[origin]
        nic.ops_issued += 1
        itemsize = np.dtype(dtype).itemsize
        fate = self._fate(origin, target, itemsize, False)
        if fate is not None and fate.lost:
            cpu_busy = nic.fma.plan(AMO_REQUEST_BYTES).cpu_busy
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             AMO_REQUEST_BYTES, op=f"amo-{op}",
                             medium="ugni", lost=True)
            local_done = Event(self.engine, "amo.local")
            remote_done = Event(self.engine, "amo.remote")
            self._fail_lost("amo", origin, target, fate,
                            local_done, remote_done)
            return OpHandle("amo", cpu_busy, local_done, remote_done,
                            nbytes=itemsize, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)
        hop = self._hop_extra(origin, target)
        req = nic.fma.plan(AMO_REQUEST_BYTES, extra_delay=hop)
        exec_at = req.commit_at
        done_at = exec_at + self.params.fma.L + hop
        self.tracer.emit(self.engine.now, "wire", origin, target,
                         AMO_REQUEST_BYTES, op=f"amo-{op}", medium="ugni")
        self.tracer.emit(self.engine.now, "wire", target, origin,
                         AMO_RESPONSE_BYTES, op="amo-resp", medium="ugni")
        local_done = Event(self.engine, "amo.local")
        remote_done = Event(self.engine, "amo.remote")
        op_id = next(self._op_ids)
        self._pending[op_id] = ("amo", local_done, remote_done, done_at)
        self._ship(ShardPacket(
            ptype="amo", origin=origin, target=target, op_id=op_id,
            sort_time=self.engine.now, nbytes=itemsize, t_exec=exec_at,
            target_addr=target_addr, amo_op=op, operand=operand,
            compare=compare, acc_dtype=str(np.dtype(dtype)),
            immediate=immediate, win_id=win_id))
        return OpHandle("amo", req.cpu_busy, local_done, remote_done,
                        nbytes=itemsize, target=target, commit_at=exec_at)

    def _recv_amo(self, pkt: ShardPacket) -> None:
        tspace = self.spaces[pkt.target]
        dt = np.dtype(pkt.acc_dtype)
        itemsize = dt.itemsize
        addr, op = pkt.target_addr, pkt.amo_op

        def execute() -> None:
            view = tspace.mem[addr:addr + itemsize].view(dt)
            old = view[0].item()
            if op == "sum":
                view[0] = old + pkt.operand
            elif op == "replace":
                view[0] = pkt.operand
            elif op == "cas":
                if old == pkt.compare:
                    view[0] = pkt.operand
            self._ship(ShardPacket(
                ptype="amo-resp", origin=pkt.target, target=pkt.origin,
                op_id=pkt.op_id, sort_time=pkt.t_exec, value=old))

        self._at(pkt.t_exec, execute)
        if pkt.immediate is not None:
            self._post_notification(pkt.origin, pkt.target, "amo",
                                    itemsize, pkt.immediate, pkt.win_id,
                                    addr, pkt.t_exec, same_node=False)

    def _recv_amo_resp(self, pkt: ShardPacket) -> None:
        kind, local_done, remote_done, done_at = \
            self._pending.pop(pkt.op_id)
        old = pkt.value
        self._at_batch(done_at, (
            local_done.succeed,
            lambda: remote_done.succeed(old),
        ))

    # -- software protocol messages ------------------------------------
    def send_sys(self, origin: int, target: int, ptype: str, nbytes: int,
                 payload: dict | None = None,
                 data: np.ndarray | None = None) -> OpHandle:
        if self._direct(origin, target):
            return super().send_sys(origin, target, ptype, nbytes,
                                    payload=payload, data=data)
        nic = self.nics[origin]
        fate = self._fate(origin, target, nbytes, False)
        if fate is not None and fate.lost:
            eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
            plan = eng.plan(nbytes)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             nbytes, op=f"sys-{ptype}", medium="ugni",
                             lost=True)
            local_done = Event(self.engine, "sys.local")
            remote_done = Event(self.engine, "sys.remote")
            self._at(plan.inject_end, local_done.succeed)
            self._fail_lost(f"sys-{ptype}", origin, target, fate,
                            remote_done)
            return OpHandle(f"sys-{ptype}", plan.cpu_busy, local_done,
                            remote_done, nbytes=nbytes, target=target,
                            failed=True)
        eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
        plan = eng.plan(nbytes,
                        extra_delay=self._hop_extra(origin, target))
        self.tracer.emit(self.engine.now, "wire", origin, target, nbytes,
                         op=f"sys-{ptype}", medium="ugni")
        snapshot = None if data is None else np.ascontiguousarray(
            data).view(np.uint8).ravel().copy()
        local_done = Event(self.engine, "sys.local")
        remote_done = Event(self.engine, "sys.remote")
        self._at(plan.inject_end, local_done.succeed)
        op_id = next(self._op_ids)
        self._pending[op_id] = ("sys", remote_done)
        self._ship(ShardPacket(
            ptype="sys", origin=origin, target=target, op_id=op_id,
            sort_time=self.engine.now, nbytes=nbytes,
            t_commit=plan.commit_at, G=eng.params.G, L=eng.params.L,
            sys_ptype=ptype, payload=dict(payload or {}), data=snapshot))
        return OpHandle(f"sys-{ptype}", plan.cpu_busy, local_done,
                        remote_done, nbytes=nbytes, target=target)

    def _recv_sys(self, pkt: ShardPacket) -> None:
        commit = self._rx_reserve(pkt.target, pkt.t_commit, pkt.nbytes,
                                  pkt.G)
        tnic = self.nics[pkt.target]

        def deliver() -> None:
            sp = SysPacket(ptype=pkt.sys_ptype, source=pkt.origin,
                           target=pkt.target, nbytes=pkt.nbytes,
                           payload=dict(pkt.payload), data=pkt.data,
                           time=self.engine.now)
            tnic.sys_inbox.put(sp)
            tnic.sys_arrival.fire(sp)
            if self.on_sys_arrival is not None:
                self.on_sys_arrival(pkt.target, sp)

        self._at(commit, deliver)
        self._ship(ShardPacket(
            ptype="ack", origin=pkt.target, target=pkt.origin,
            op_id=pkt.op_id, sort_time=commit, t_exec=commit + pkt.L))

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
        # sharded workers run without it (run serial to sanitize).
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

    def _endpoint_table(self):
        return RankTable({c.rank: c.endpoint for c in self.ranks},
                         self.cfg.nranks, "endpoint")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _shard_worker(conn, shard: int, config: ClusterConfig,
                  routing: ShardRouting, programs, args: tuple) -> None:
    """Worker body: build the shard-local cluster and obey the protocol.

    Messages from the coordinator: ``("run", until)`` advances the local
    engine, ``("deliver", packets)`` applies a boundary batch, and
    ``("finish",)`` collects results.  Every run/deliver is answered with
    ``("sync", outbox, next_event_time)``.
    """
    try:
        # the fork inherits the coordinator's whole heap: freeze it so
        # this worker's gc never traverses inherited objects (and never
        # copy-on-write-faults their pages) — a large prior simulation
        # in the parent would otherwise multiply worker CPU
        gc.freeze()
        events_base = events_scheduled()
        cpu_base = time.process_time()
        cluster = ShardCluster(config, routing, shard)
        engine, fabric = cluster.engine, cluster.fabric
        procs = {}
        for r in routing.ranks_of(shard):
            prog = programs if callable(programs) else programs[r]
            procs[r] = engine.process(prog(cluster.ranks[r], *args),
                                      name=f"rank{r}")
        conn.send(("sync", [], engine.peek()))
        while True:
            msg = conn.recv()
            if msg[0] == "run":
                if msg[1] > engine.now:
                    engine.run(until=msg[1], detect_deadlock=False)
                conn.send(("sync", fabric.drain_outbox(), engine.peek()))
            elif msg[0] == "deliver":
                fabric.process_inbox(msg[1])
                conn.send(("sync", fabric.drain_outbox(), engine.peek()))
            elif msg[0] == "finish":
                results = {r: (p.value if p.triggered else None)
                           for r, p in procs.items()}
                blocked = [p.name or f"rank{r}"
                           for r, p in procs.items() if p.is_alive]
                conn.send(("done", results, blocked, cluster.stats(),
                           events_scheduled() - events_base, engine.now,
                           time.process_time() - cpu_base))
                return
            else:  # pragma: no cover - protocol bug guard
                raise SimulationError(f"unknown coordinator op {msg[0]!r}")
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
    serial :class:`~repro.cluster.Cluster` (same ``.cfg`` / ``.time`` /
    ``.stats()`` surface, plus shard-protocol counters)."""

    def __init__(self, cfg: ClusterConfig, shards: int, lookahead: float,
                 time_us: float, stats: dict[str, Any], windows: int,
                 exchanges: int, events: int,
                 cpu_s: list[float] | None = None,
                 critical_path_s: float = 0.0):
        self.cfg = cfg
        self.shards = shards
        self.lookahead = lookahead
        self._time = time_us
        self._stats = stats
        self.windows = windows
        self.exchanges = exchanges
        self.events = events
        #: per-worker process CPU seconds (build + simulation)
        self.cpu_s = cpu_s or []
        #: max worker CPU + coordinator CPU: projected wall time on one
        #: dedicated core per shard
        self.critical_path_s = critical_path_s

    @property
    def time(self) -> float:
        return self._time

    def stats(self) -> dict[str, Any]:
        return self._stats


def _merge_stats(parts: list[dict[str, Any]], run: "ShardedRun") \
        -> dict[str, Any]:
    """Fold per-worker partial stats into one cluster-level summary."""
    out: dict[str, Any] = {}
    for st in parts:
        for key, val in st.items():
            if key == "faults":
                # Every worker carries the same counter keys; ``update``
                # would keep only the last worker's values, so sum them
                # per key to match the serial injector's single ledger.
                acc = out.setdefault(key, {})
                for k, v in val.items():
                    acc[k] = acc.get(k, 0) + v
            elif isinstance(val, dict):
                out.setdefault(key, {}).update(val)
            elif key == "time_us":
                out[key] = max(out.get(key, 0.0), val)
            else:
                out[key] = out.get(key, 0) + val
    out["shards"] = run.shards
    out["shard_windows"] = run.windows
    out["shard_exchanges"] = run.exchanges
    out["shard_cpu_s"] = run.cpu_s
    out["shard_critical_path_s"] = run.critical_path_s
    return out


def run_sharded(program, args: Sequence[Any], config: ClusterConfig,
                shards: int) -> tuple[list[Any], ShardedRun]:
    """Run one rank program over ``shards`` conservative-parallel workers.

    Mirrors ``Cluster.run`` semantics: returns per-rank results,
    raises :class:`DeadlockError` when processes hang (unless
    ``config.detect_deadlock`` is off), and re-raises worker failures as
    :class:`SimulationError` carrying the worker traceback.
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
        w = ctx.Process(target=_shard_worker,
                        args=(child_conn, s, config, routing, program,
                              tuple(args)),
                        daemon=True)
        w.start()
        child_conn.close()
        conns.append(parent_conn)
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
        inflight: list[ShardPacket] = []
        windows = exchanges = 0
        while True:
            for s in sorted(awaiting):
                _, outbox, nxt = _recv(s)
                inflight.extend(outbox)
                next_time[s] = nxt
            awaiting.clear()
            if inflight:
                by_shard: dict[int, list[ShardPacket]] = {}
                for pkt in inflight:
                    dest = (pkt.shard if pkt.shard is not None
                            else routing.shard_of(pkt.target))
                    by_shard.setdefault(dest, []).append(pkt)
                inflight = []
                for s, pkts in by_shard.items():
                    conns[s].send(("deliver", pkts))
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
        cpu_s: list[float] = []
        events = 0
        time_us = 0.0
        for s in range(shards):
            _, res, blk, stats, ev, now, cpu = _recv(s)
            for r, v in res.items():
                results[r] = v
            blocked.extend(blk)
            parts.append(stats)
            cpu_s.append(cpu)
            events += ev
            time_us = max(time_us, now)
        # Satellite fix: shard workers simulate in their own processes;
        # fold their event counts into this process's module counter so
        # events_scheduled()-based events/sec stays truthful.
        add_external_events(events)
        # projected wall time with one dedicated core per shard: the
        # slowest worker's CPU plus the coordinator's own routing CPU
        critical = (max(cpu_s) if cpu_s else 0.0) \
            + (time.process_time() - coord_cpu0)
        global _cp_seconds_total
        _cp_seconds_total += critical
        if blocked and config.detect_deadlock:
            raise DeadlockError(sorted(blocked))
        run = ShardedRun(config, shards, lookahead, time_us, {}, windows,
                         exchanges, events, cpu_s, critical)
        run._stats = _merge_stats(parts, run)
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
