"""The fabric: per-rank NICs and the RDMA operations they execute.

Every remote operation moves real bytes between per-rank
:class:`~repro.memory.address.AddressSpace` objects, priced by the transport
engines.  An operation returns an :class:`OpHandle` whose events fire at

* ``local_done`` — the origin buffer is reusable (put) or the data has
  arrived (get),
* ``remote_done`` — the remote commit has been acknowledged at the origin
  (what ``MPI_Win_flush`` waits for; carries the fetched value for AMOs).

Notified operations additionally post a :class:`~repro.network.cq.CqEntry`
carrying the 32-bit immediate to the **destination completion queue** of the
process whose memory was accessed — for a put that is the target, and for a
get it is *also* the target (the owner of the data that was read), per the
paper's notified-read semantics (§VIII).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetworkError
from repro.faults import FaultInjector, FaultPlan, TransferFate
from repro.network.cq import CompletionQueue, CqEntry
from repro.network.loggp import TransportParams
from repro.network.topology import Machine
from repro.network.transports.shm import ShmTransport
from repro.network.transports.ugni import BteEngine, FmaEngine
from repro.sanitizer.shadow import ATOMIC, READ, WRITE
from repro.sim.engine import Engine, Event
from repro.sim.resources import Signal, Store
from repro.sim.rng import RngStream
from repro.sim.trace import Tracer

#: header sizes charged for control-only wire messages (bytes)
GET_REQUEST_BYTES = 16
AMO_REQUEST_BYTES = 24
AMO_RESPONSE_BYTES = 16


@dataclass(slots=True)
class OpHandle:
    """Events and cost of one issued RDMA operation."""

    kind: str
    cpu_busy: float
    local_done: Event
    remote_done: Event
    nbytes: int = 0
    target: int = -1
    commit_at: float = 0.0    # absolute time the data commits remotely
    failed: bool = False      # abandoned by the fault layer (never commits)
    #: sanitizer clocks (None unless sanitizing): the remote leg (commit /
    #: serve) and, for gets, the local delivery leg
    san_remote: object = None
    san_local: object = None


@dataclass(slots=True)
class SysPacket:
    """A software-handled protocol message (MP eager/rendezvous, RMA ctrl)."""

    ptype: str
    source: int
    target: int
    nbytes: int
    payload: dict = field(default_factory=dict)
    data: np.ndarray | None = None
    time: float = 0.0
    #: sender's released vector clock (sanitizer runs only)
    san_clock: dict | None = None


class Nic:
    """One rank's network interface."""

    def __init__(self, fabric: "Fabric", rank: int):
        self.fabric = fabric
        self.rank = rank
        params = fabric.params
        eng = fabric.engine
        self.fma = FmaEngine(eng, params.fma, name=str(rank))
        self.bte = BteEngine(eng, params.bte, name=str(rank))
        self.shm = ShmTransport(eng, params, name=str(rank))
        #: notifications for Notified Access land here
        self.dest_cq = CompletionQueue(eng, name=f"dest:{rank}")
        #: shared-memory notification ring (bounded, §IV-C)
        self.shm_ring = CompletionQueue(eng, name=f"ring:{rank}",
                                        capacity=params.shm_ring_entries)
        #: software protocol messages (MP, PSCW control)
        self.sys_inbox: Store = Store(eng, name=f"sys:{rank}")
        self.sys_arrival = Signal(eng, name=f"sysarr:{rank}")
        self.ops_issued = 0
        #: receive-side link occupancy horizon (incast serialization)
        self.rx_next_free = 0.0
        self.rx_bytes = 0
        #: transfer sequence numbers already delivered (fault dedup) and
        #: how many duplicate deliveries the NIC filtered out
        self._delivered_seqs: set[int] = set()
        self.dup_suppressed = 0
        if fabric.faults is not None:
            self.fma.faults = fabric.faults
            self.bte.faults = fabric.faults
            self.shm.faults = fabric.faults

    def first_delivery(self, seq: int | None) -> bool:
        """True exactly once per transfer sequence number.

        The completion path calls this before committing payload bytes or
        posting a notification: a retransmitted-then-also-delivered (or
        outright duplicated) transfer must have its side effects applied
        exactly once — accumulates and notification counters are not
        idempotent.
        """
        if seq is None:
            return True
        if seq in self._delivered_seqs:
            self.dup_suppressed += 1
            return False
        self._delivered_seqs.add(seq)
        return True

    def poll_notification(self) -> CqEntry | None:
        """Pop the oldest notification across uGNI CQ and shm ring.

        The foMPI-NA target checks the uGNI destination CQ and the XPMEM
        ring; we merge them oldest-first for deterministic matching order.
        """
        a, b = self.dest_cq, self.shm_ring
        if len(a) and len(b):
            # Compare head timestamps without popping.
            ta = a._entries[0].time
            tb = b._entries[0].time
            return a.poll() if ta <= tb else b.poll()
        if len(a):
            return a.poll()
        if len(b):
            return b.poll()
        return None

    def notification_pending(self) -> bool:
        return len(self.dest_cq) > 0 or len(self.shm_ring) > 0

    def notification_arrival(self) -> Event:
        """Event firing on the next notification post to either queue."""
        return self.fabric.engine.any_of(
            [self.dest_cq.wait_arrival(), self.shm_ring.wait_arrival()])


class Fabric:
    """All NICs plus the machinery to execute operations between them."""

    def __init__(self, engine: Engine, machine: Machine,
                 spaces,
                 params: TransportParams | None = None,
                 tracer: Tracer | None = None, seed: int = 42,
                 fault_plan: FaultPlan | None = None,
                 sanitizer=None,
                 local_ranks: list[int] | None = None):
        if len(spaces) != machine.nranks:
            raise NetworkError("one address space per rank required")
        self.engine = engine
        self._at = engine.call_at
        self._at_batch = engine.call_at_batch
        #: happens-before tracker (None = sanitizer off, zero overhead)
        self.san = sanitizer
        self.machine = machine
        self.spaces = spaces
        self.params = params or TransportParams()
        self.tracer = tracer or Tracer(enabled=False)
        self.rng = RngStream(seed, "fabric")
        #: fault injection (None on a fault-free fabric — the fast path)
        self.faults: FaultInjector | None = None
        if fault_plan is not None and fault_plan.active:
            self.faults = FaultInjector(fault_plan, seed,
                                        tracer=self.tracer)
        self._op_seq = itertools.count(1)
        if local_ranks is None:
            # Serial fabric: a dense NIC list, exactly as before.
            self.nics = [Nic(self, r) for r in range(machine.nranks)]
        else:
            # Shard-local fabric slice: NIC state exists only for the
            # shard's own ranks; any other index is a protocol bug and
            # fails loudly instead of silently simulating remote state.
            from repro.network.shardlink import RankTable
            self.nics = RankTable({r: Nic(self, r) for r in local_ranks},
                                  machine.nranks, "nic")
        #: optional hook invoked at sys-packet arrival (async progress)
        self.on_sys_arrival: Callable[[int, SysPacket], None] | None = None

    # ------------------------------------------------------------------
    def nic(self, rank: int) -> Nic:
        return self.nics[rank]

    # _at is bound directly to Engine.call_at in __init__ ("run fn at
    # absolute time t"): the alias keeps ~100k calls/run frame-free.

    def _hop_extra(self, origin: int, target: int) -> float:
        """Extra latency for inter-group (dragonfly global-link) paths."""
        if (self.params.inter_group_L_extra
                and not self.machine.same_group(origin, target)):
            return self.params.inter_group_L_extra
        return 0.0

    def _rx_reserve(self, target: int, ideal_commit: float, nbytes: int,
                    G: float) -> float:
        """Serialize arrivals at the target NIC's ingest link.

        The byte stream occupies the receive link for ``nbytes * G`` ending
        at the commit: a lone flow commits exactly at ``ideal_commit``
        (LogGP charges G once along the path), while concurrent flows into
        one NIC queue behind each other — the incast behaviour a real
        Aries NIC exhibits.
        """
        nic = self.nics[target]
        occupancy = nbytes * G
        start = max(ideal_commit - occupancy, nic.rx_next_free)
        end = start + occupancy
        nic.rx_next_free = end
        nic.rx_bytes += nbytes
        return end

    def _drop_penalty(self) -> float:
        """Extra delay from retransmissions on a lossy network."""
        p = self.params.drop_rate
        if p <= 0.0:
            return 0.0
        extra = 0.0
        tries = 0
        while tries < 5 and self.rng.random() < p:
            extra += self.params.rto
            tries += 1
        return extra

    def _fate(self, origin: int, target: int, nbytes: int,
              same_node: bool) -> TransferFate | None:
        """Ask the injector (if any) what happens to this transfer."""
        if self.faults is None:
            return None
        return self.faults.transfer_fate(
            origin, target, nbytes, "shm" if same_node else "ugni",
            self.engine.now)

    def _next_seq(self) -> int | None:
        """Sequence number for delivery dedup (None on fault-free runs)."""
        if self.faults is None:
            return None
        return next(self._op_seq)

    def _fail_lost(self, kind: str, origin: int, target: int,
                   fate: TransferFate, *events: Event) -> None:
        """Fail ``events`` once the transport gives up on a lost op."""
        assert self.faults is not None
        err = self.faults.lost_error(kind, origin, target,
                                     now=self.engine.now)
        when = self.engine.now + fate.fail_after
        for ev in events:
            # A lost op's completion events may legitimately never be waited
            # on (e.g. a put whose remote_done the program never flushes);
            # defuse so the engine's unobserved-failure report stays quiet.
            ev.defuse()
            self._at(when, lambda ev=ev: ev.fail(err))

    def _post_notification(self, origin: int, accessed: int, kind: str,
                           nbytes: int, immediate: int, win_id: int | None,
                           target_addr: int | None, when: float,
                           same_node: bool,
                           inline: np.ndarray | None = None,
                           seq: int | None = None,
                           san_op=None) -> None:
        """Post a dest-CQ/ring entry at ``accessed`` rank at time ``when``.

        With ``seq`` set, the post goes through the NIC's exactly-once
        filter — a duplicated delivery of the same transfer is suppressed
        and counted instead of double-notifying.
        """
        nic = self.nics[accessed]
        queue = nic.shm_ring if same_node else nic.dest_cq

        def deliver() -> None:
            if not nic.first_delivery(seq):
                self.faults.suppressed(origin, accessed, kind,
                                       self.engine.now)
                return
            queue.post(CqEntry(kind=kind, source=origin, target=accessed,
                               nbytes=nbytes, time=self.engine.now,
                               immediate=immediate, win_id=win_id,
                               target_addr=target_addr, inline=inline,
                               seq=seq, san=san_op))

        self._at(when, deliver)

    # ------------------------------------------------------------------
    # RDMA put
    # ------------------------------------------------------------------
    def put(self, origin: int, target: int, target_addr: int,
            data: np.ndarray, *, win_id: int | None = None,
            immediate: int | None = None,
            accumulate: str | None = None,
            acc_dtype=np.float64,
            scatter: list[tuple[int, int]] | None = None,
            san_track: bool = True) -> OpHandle:
        """RDMA write of ``data`` into ``target``'s memory.

        If ``immediate`` is set this is a *notified* put: a CQ entry carrying
        the immediate is posted at the target when (and only when) the data
        is committed — the single-transaction guarantee of Figure 2d.

        ``accumulate`` turns the commit into an element-wise update
        (``"sum"``, ``"max"``, ``"min"``, ``"replace"``) on ``acc_dtype``
        elements, the MPI_Accumulate semantics.

        ``scatter`` is an optional list of absolute ``(addr, nbytes)``
        target blocks (an RDMA scatter-gather list): the packed ``data`` is
        split across them in order within the same single transaction.
        ``target_addr`` is ignored when it is given.
        """
        raw = np.ascontiguousarray(data).view(np.uint8).ravel().copy()
        nbytes = raw.nbytes
        if scatter is not None:
            if sum(b for _, b in scatter) != nbytes:
                raise NetworkError(
                    "scatter-gather list does not cover the payload")
            target_addr = scatter[0][0] if scatter else target_addr
        same = self.machine.same_node(origin, target)
        nic = self.nics[origin]
        nic.ops_issued += 1
        fate = (None if self.faults is None
                else self._fate(origin, target, nbytes, same))

        local_done = Event(self.engine, "put.local")
        remote_done = Event(self.engine, "put.remote")

        if fate is not None and fate.lost:
            # Retries exhausted or a dead endpoint: the payload never
            # commits and no notification is posted.  The origin buffer is
            # still snapshotted (local_done fires), but completion waiters
            # get a FaultError once the transport gives up.
            if same:
                plan = nic.shm.plan_put(nbytes)
            else:
                eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
                plan = eng.plan(nbytes)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             nbytes, op="put",
                             medium="shm" if same else "ugni",
                             notified=immediate is not None, lost=True)
            self._at(plan.inject_end, local_done.succeed)
            self._fail_lost("put", origin, target, fate, remote_done)
            return OpHandle("put", plan.cpu_busy, local_done, remote_done,
                            nbytes=nbytes, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)

        if same:
            inline = (immediate is not None
                      and nic.shm.is_inline(nbytes))
            plan = nic.shm.plan_put(nbytes)
        else:
            inline = False
            eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
            extra = fate.extra_delay if fate is not None else 0.0
            plan = eng.plan(nbytes, extra_delay=self._drop_penalty()
                            + self._hop_extra(origin, target) + extra)
            plan.commit_at = commit = self._rx_reserve(
                target, plan.commit_at, nbytes, eng.params.G)
            plan.ack_at = commit + eng.params.L

        self.tracer.emit(self.engine.now, "wire", origin, target, nbytes,
                         op="put", medium="shm" if same else "ugni",
                         notified=immediate is not None)

        space = self.spaces[target]

        san_op = None
        if self.san is not None:
            san_op = self.san.op_begin(origin)
            eng_used = (nic.shm if same
                        else nic.fma if nbytes <= self.params.fma_max
                        else nic.bte)
            san_chan = eng_used.san_channel
            san_blocks = (scatter if scatter is not None
                          else [(target_addr, nbytes)])
            san_kind = WRITE if accumulate is None else ATOMIC

        def commit() -> None:
            if san_op is not None:
                # Runs before the zero-byte early-out: a zero-byte notified
                # put (the flush+notify credit) still carries the in-order
                # channel's clock to its consumer.
                self.san.op_commit(san_op, origin, target, san_blocks,
                                   kind=san_kind, chan=san_chan,
                                   record=san_track)
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
            dst = space.mem[target_addr:target_addr + nbytes].view(acc_dtype)
            ufunc(dst, raw.view(acc_dtype), out=dst)

        seq = None if self.faults is None else next(self._op_seq)
        if seq is None:
            # Fault-free fast path: scheduling identical to the original
            # implementation (commit and notification as separate events).
            self._at(plan.commit_at, commit)
            if immediate is not None:
                self._post_notification(
                    origin, target, "put", nbytes, immediate, win_id,
                    target_addr, plan.commit_at, same,
                    inline=(raw if inline else None), san_op=san_op)
        else:
            # Completion path with exactly-once dedup: payload commit and
            # notification post travel together under one sequence number,
            # so a duplicated delivery re-applies neither (accumulates and
            # notification counters are not idempotent).
            tnic = self.nics[target]
            queue = tnic.shm_ring if same else tnic.dest_cq

            def deliver() -> None:
                if not tnic.first_delivery(seq):
                    self.faults.suppressed(origin, target, "put",
                                           self.engine.now)
                    return
                commit()
                if immediate is not None:
                    queue.post(CqEntry(
                        kind="put", source=origin, target=target,
                        nbytes=nbytes, time=self.engine.now,
                        immediate=immediate, win_id=win_id,
                        target_addr=target_addr,
                        inline=(raw if inline else None), seq=seq,
                        san=san_op))

            self._at(plan.commit_at, deliver)
            if fate is not None and fate.duplicate:
                self._at(plan.commit_at + fate.dup_lag, deliver)
        # Origin buffer reuse: data was snapshotted at injection.
        self._at(plan.inject_end, local_done.succeed)
        self._at(plan.ack_at, remote_done.succeed)
        return OpHandle("put", plan.cpu_busy, local_done, remote_done,
                        nbytes=nbytes, target=target,
                        commit_at=plan.commit_at, san_remote=san_op)

    # ------------------------------------------------------------------
    # RDMA get
    # ------------------------------------------------------------------
    def get(self, origin: int, target: int, target_addr: int, nbytes: int,
            local_addr: int, *, win_id: int | None = None,
            immediate: int | None = None,
            gather: list[tuple[int, int]] | None = None,
            scatter: list[tuple[int, int]] | None = None) -> OpHandle:
        """RDMA read of ``nbytes`` from ``target`` into origin memory.

        A *notified* get (``immediate`` set) notifies the **target** — the
        owner of the read buffer — that its data has been read and the buffer
        may be reused.  On a reliable fabric the notification fires when the
        read is served at the target (§VIII case 1); with ``reliable=False``
        it fires only after the data reached the origin plus a return ack
        (§VIII case 2), one extra round trip later.
        """
        same = self.machine.same_node(origin, target)
        nic = self.nics[origin]
        nic.ops_issued += 1
        p = self.params
        for name, sg in (("gather", gather), ("scatter", scatter)):
            if sg is not None and sum(b for _, b in sg) != nbytes:
                raise NetworkError(
                    f"{name} list does not cover the {nbytes}-byte payload")
        if gather is not None and gather:
            target_addr = gather[0][0]

        local_done = Event(self.engine, "get.local")
        remote_done = Event(self.engine, "get.remote")
        tspace = self.spaces[target]
        ospace = self.spaces[origin]
        fate = (None if self.faults is None
                else self._fate(origin, target, nbytes, same))

        if fate is not None and fate.lost:
            # The read never completes: no data arrives at the origin and
            # the target is never notified.
            cpu_busy = (0.0 if same
                        else nic.fma.plan(GET_REQUEST_BYTES).cpu_busy)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             GET_REQUEST_BYTES, op="get-req",
                             medium="shm" if same else "ugni", lost=True)
            self._fail_lost("get", origin, target, fate,
                            local_done, remote_done)
            return OpHandle("get", cpu_busy, local_done, remote_done,
                            nbytes=nbytes, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)

        if same:
            plan = nic.shm.plan_get(nbytes)
            serve_at = plan.commit_at
            data_at = plan.commit_at
            notify_at = plan.commit_at
            cpu_busy = plan.cpu_busy
            self.tracer.emit(self.engine.now, "wire", origin, target, nbytes,
                             op="get", medium="shm",
                             notified=immediate is not None)
        else:
            # Request leg: small header through the origin FMA engine.
            hop = self._hop_extra(origin, target)
            req = nic.fma.plan(GET_REQUEST_BYTES,
                               extra_delay=self._drop_penalty() + hop)
            cpu_busy = req.cpu_busy
            # Response leg: served by the target NIC's engine of proper
            # size; injected retry/jitter delay rides on this leg.
            extra = fate.extra_delay if fate is not None else 0.0
            tnic = self.nics[target]
            teng = tnic.fma if nbytes <= p.fma_max else tnic.bte
            resp = teng.plan(nbytes,
                             extra_delay=self._drop_penalty() + hop + extra,
                             not_before=req.commit_at)
            serve_at = resp.inject_end
            data_at = self._rx_reserve(origin, resp.commit_at, nbytes,
                                       teng.params.G)
            if p.reliable:
                notify_at = serve_at
            else:
                # Data must reach the origin, then an ack returns (§VIII).
                notify_at = data_at + p.fma.L
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             GET_REQUEST_BYTES, op="get-req", medium="ugni")
            self.tracer.emit(self.engine.now, "wire", target, origin, nbytes,
                             op="get-resp", medium="ugni",
                             notified=immediate is not None)

        # Snapshot at serve time (the value read is the value at serve).
        snapshot: list[np.ndarray | None] = [None]

        san_op = san_del = None
        if self.san is not None:
            # Two legs, two actors: the remote read (serves at the target)
            # and the dependent local delivery (commits at the origin).
            san_op = self.san.op_begin(origin)
            san_del = self.san.op_child(san_op)

        def serve() -> None:
            if san_op is not None:
                blocks = (gather if gather is not None
                          else [(target_addr, nbytes)])
                self.san.op_commit(san_op, origin, target, blocks,
                                   kind=READ)
            if not nbytes:
                return
            if gather is not None:
                parts = [tspace.copy_out(a, b) for a, b in gather]
                snapshot[0] = np.concatenate(parts)
            else:
                snapshot[0] = tspace.copy_out(target_addr, nbytes)

        def deliver() -> None:
            if san_del is not None:
                blocks = (scatter if scatter is not None
                          else [(local_addr, nbytes)])
                self.san.op_commit(san_del, target, origin, blocks,
                                   kind=WRITE)
            if not nbytes:
                return
            if scatter is not None:
                pos = 0
                for addr, blen in scatter:
                    ospace.copy_in(addr, snapshot[0][pos:pos + blen])
                    pos += blen
            else:
                ospace.copy_in(local_addr, snapshot[0])

        self._at(serve_at, serve)
        # One scheduler transaction for the whole same-tick completion
        # burst (same seq consumption and dispatch order as three call_at).
        self._at_batch(data_at, (
            deliver,
            local_done.succeed,
            remote_done.succeed,
        ))
        if immediate is not None:
            # The data legs are idempotent copies; only the notification
            # needs the exactly-once filter under duplication.
            seq = None if self.faults is None else next(self._op_seq)
            self._post_notification(origin, target, "get", nbytes, immediate,
                                    win_id, target_addr, notify_at, same,
                                    seq=seq, san_op=san_op)
            if fate is not None and fate.duplicate:
                self._post_notification(origin, target, "get", nbytes,
                                        immediate, win_id, target_addr,
                                        notify_at + fate.dup_lag, same,
                                        seq=seq, san_op=san_op)
        return OpHandle("get", cpu_busy, local_done, remote_done,
                        nbytes=nbytes, target=target, commit_at=data_at,
                        san_remote=san_del, san_local=san_del)

    # ------------------------------------------------------------------
    # Atomic memory operations
    # ------------------------------------------------------------------
    def amo(self, origin: int, target: int, target_addr: int, op: str,
            operand: int, compare: int | None = None, *,
            dtype=np.int64, win_id: int | None = None,
            immediate: int | None = None) -> OpHandle:
        """Remote atomic: ``op`` in {"sum", "replace", "cas", "no_op"}.

        ``remote_done`` fires at the origin carrying the *old* value
        (fetch-and-op / compare-and-swap semantics).
        """
        if op not in ("sum", "replace", "cas", "no_op"):
            raise NetworkError(f"unknown atomic op {op!r}")
        same = self.machine.same_node(origin, target)
        nic = self.nics[origin]
        nic.ops_issued += 1
        itemsize = np.dtype(dtype).itemsize
        fate = (None if self.faults is None
                else self._fate(origin, target, itemsize, same))

        local_done = Event(self.engine, "amo.local")
        remote_done = Event(self.engine, "amo.remote")

        if fate is not None and fate.lost:
            cpu_busy = (0.0 if same
                        else nic.fma.plan(AMO_REQUEST_BYTES).cpu_busy)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             AMO_REQUEST_BYTES, op=f"amo-{op}",
                             medium="shm" if same else "ugni", lost=True)
            self._fail_lost("amo", origin, target, fate,
                            local_done, remote_done)
            return OpHandle("amo", cpu_busy, local_done, remote_done,
                            nbytes=itemsize, target=target,
                            commit_at=self.engine.now + fate.fail_after,
                            failed=True)

        if same:
            plan = nic.shm.plan_amo()
            exec_at = self.engine.now + self.params.shm.L
            done_at = plan.commit_at
            cpu_busy = plan.cpu_busy
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             itemsize, op=f"amo-{op}", medium="shm")
        else:
            hop = self._hop_extra(origin, target)
            extra = fate.extra_delay if fate is not None else 0.0
            req = nic.fma.plan(AMO_REQUEST_BYTES,
                               extra_delay=self._drop_penalty() + hop
                               + extra)
            cpu_busy = req.cpu_busy
            exec_at = req.commit_at
            done_at = exec_at + self.params.fma.L + hop
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             AMO_REQUEST_BYTES, op=f"amo-{op}", medium="ugni")
            self.tracer.emit(self.engine.now, "wire", target, origin,
                             AMO_RESPONSE_BYTES, op="amo-resp", medium="ugni")

        tspace = self.spaces[target]
        result: list[int] = [0]

        san_op = (self.san.op_begin(origin)
                  if self.san is not None else None)

        def execute() -> None:
            if san_op is not None:
                self.san.amo_commit(san_op, origin, target, target_addr,
                                    itemsize)
            view = tspace.mem[target_addr:target_addr + itemsize].view(dtype)
            old = view[0].item()
            result[0] = old
            if op == "sum":
                view[0] = old + operand
            elif op == "replace":
                view[0] = operand
            elif op == "cas":
                if old == compare:
                    view[0] = operand
            # "no_op" fetches without modifying.

        seq = None if self.faults is None else next(self._op_seq)
        if seq is None:
            self._at(exec_at, execute)
            if immediate is not None:
                self._post_notification(origin, target, "amo", itemsize,
                                        immediate, win_id, target_addr,
                                        exec_at, same, san_op=san_op)
        else:
            # Atomics are the least idempotent op of all: execute and
            # notification share one sequence number so a duplicated
            # delivery applies neither twice.
            tnic = self.nics[target]
            queue = tnic.shm_ring if same else tnic.dest_cq

            def deliver() -> None:
                if not tnic.first_delivery(seq):
                    self.faults.suppressed(origin, target, "amo",
                                           self.engine.now)
                    return
                execute()
                if immediate is not None:
                    queue.post(CqEntry(kind="amo", source=origin,
                                       target=target, nbytes=itemsize,
                                       time=self.engine.now,
                                       immediate=immediate, win_id=win_id,
                                       target_addr=target_addr, seq=seq,
                                       san=san_op))

            self._at(exec_at, deliver)
            if fate is not None and fate.duplicate:
                self._at(exec_at + fate.dup_lag, deliver)
        self._at_batch(done_at, (
            local_done.succeed,
            lambda: remote_done.succeed(result[0]),
        ))
        return OpHandle("amo", cpu_busy, local_done, remote_done,
                        nbytes=itemsize, target=target, commit_at=exec_at,
                        san_remote=san_op)

    # ------------------------------------------------------------------
    # Software protocol messages (message passing, RMA control)
    # ------------------------------------------------------------------
    def send_sys(self, origin: int, target: int, ptype: str, nbytes: int,
                 payload: dict | None = None,
                 data: np.ndarray | None = None) -> OpHandle:
        """Send a protocol message handled in software at the target.

        Carries an optional python ``payload`` (headers) and an optional
        ``data`` snapshot (the eager-protocol bounce-buffer copy).  The wire
        cost is priced like a put of ``nbytes``.
        """
        same = self.machine.same_node(origin, target)
        nic = self.nics[origin]
        fate = (None if self.faults is None
                else self._fate(origin, target, nbytes, same))
        local_done = Event(self.engine, "sys.local")
        remote_done = Event(self.engine, "sys.remote")

        if fate is not None and fate.lost:
            # The protocol message vanishes; the peer that was waiting on
            # it will sit in its blocking call until deadlock detection
            # fires — exactly how a lost control message kills an MPI job.
            if same:
                plan = nic.shm.plan_put(nbytes)
            else:
                eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
                plan = eng.plan(nbytes)
            self.tracer.emit(self.engine.now, "wire", origin, target,
                             nbytes, op=f"sys-{ptype}",
                             medium="shm" if same else "ugni", lost=True)
            self._at(plan.inject_end, local_done.succeed)
            self._fail_lost(f"sys-{ptype}", origin, target, fate,
                            remote_done)
            return OpHandle(f"sys-{ptype}", plan.cpu_busy, local_done,
                            remote_done, nbytes=nbytes, target=target,
                            failed=True)

        if same:
            plan = nic.shm.plan_put(nbytes)
        else:
            eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
            extra = fate.extra_delay if fate is not None else 0.0
            plan = eng.plan(nbytes, extra_delay=self._drop_penalty()
                            + self._hop_extra(origin, target) + extra)
            plan.commit_at = commit = self._rx_reserve(
                target, plan.commit_at, nbytes, eng.params.G)
            plan.ack_at = commit + eng.params.L
        self.tracer.emit(self.engine.now, "wire", origin, target, nbytes,
                         op=f"sys-{ptype}", medium="shm" if same else "ugni")
        snapshot = None if data is None else np.ascontiguousarray(
            data).view(np.uint8).ravel().copy()
        seq = None if self.faults is None else next(self._op_seq)
        san_clock = (self.san.release(origin)
                     if self.san is not None else None)

        def deliver() -> None:
            tnic = self.nics[target]
            if not tnic.first_delivery(seq):
                self.faults.suppressed(origin, target, f"sys-{ptype}",
                                       self.engine.now)
                return
            pkt = SysPacket(ptype=ptype, source=origin, target=target,
                            nbytes=nbytes, payload=dict(payload or {}),
                            data=snapshot, time=self.engine.now,
                            san_clock=san_clock)
            tnic.sys_inbox.put(pkt)
            tnic.sys_arrival.fire(pkt)
            if self.on_sys_arrival is not None:
                self.on_sys_arrival(target, pkt)

        self._at(plan.commit_at, deliver)
        if fate is not None and fate.duplicate:
            self._at(plan.commit_at + fate.dup_lag, deliver)
        self._at(plan.inject_end, local_done.succeed)
        self._at(plan.ack_at, remote_done.succeed)
        return OpHandle(f"sys-{ptype}", plan.cpu_busy, local_done,
                        remote_done, nbytes=nbytes, target=target)
