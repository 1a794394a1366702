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

The four verbs are two op shapes.  A put and a sys message are the *send*
shape: one origin half (``_send``) and one return leg (``_finish_send``).  A
get and an atomic are the *request* shape: one lost branch
(``_lose_request``) and a return leg each (``_finish_get``,
``_finish_amo``).  Each verb keeps its own *target half* (``_land_<verb>``),
joined to its origin half by :meth:`Fabric._hand_off` — an in-process call
here, a packet across a shard boundary in :mod:`repro.sim.shard`
(docs/architecture.md §3).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, FaultPlan, TransferFate
from repro.mpi.constants import ANY_SOURCE
from repro.network.cq import CompletionQueue, CqEntry
from repro.network.loggp import TransportParams
from repro.network.topology import Machine
from repro.network.transports.shm import ShmTransport
from repro.network.transports.ugni import BteEngine, FmaEngine
from repro.sanitizer.shadow import ATOMIC, READ, WRITE
from repro.sim.engine import Engine, Event
from repro.sim.resources import Signal, Store
from repro.sim.trace import Tracer

#: header sizes charged for control-only wire messages (bytes)
GET_REQUEST_BYTES = 16
AMO_REQUEST_BYTES = 24
AMO_RESPONSE_BYTES = 16

#: ``accumulate`` argument of :meth:`Fabric.put` -> element-wise update
#: applied at commit (``None``: plain overwrite)
_ACCUMULATE = {None: None, "replace": None, "sum": np.add,
               "max": np.maximum, "min": np.minimum}


@dataclass(slots=True)
class OpHandle:
    """Events and cost of one issued RDMA operation.

    A sys message builds only the completions its caller asked for
    (:meth:`Fabric.send_sys`); one it did not is ``None``.
    """

    kind: str
    cpu_busy: float
    local_done: Event | None
    remote_done: Event | None
    nbytes: int = 0
    target: int = -1
    #: absolute time the data commits remotely (get: lands locally).  Exact
    #: once the op's return leg has run — at issue on the serial fabric,
    #: when the ack / response packet is back on a sharded one; until then
    #: it holds the origin's own estimate (put, sys: the ideal commit of a
    #: lone flow; get: the request's arrival at the target)
    commit_at: float = 0.0
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


class _Commit:
    """A put's commit at its target: sanitizer commit, then the copy.

    A slotted record, not a closure: from issue to commit it keeps the op
    tuple it was handed, not a cell per field (docs/architecture.md §9).
    """

    __slots__ = ("fabric", "op", "san")

    def __init__(self, fabric: "Fabric", op: tuple, san) -> None:
        self.fabric = fabric
        self.op = op
        self.san = san

    def __call__(self) -> None:
        (origin, target, nbytes, _, _, _, target_addr, raw, _, _,
         accumulate, acc_dtype, _) = self.op
        fab = self.fabric
        san = self.san
        if san is not None:
            # Runs before the zero-byte early-out: a zero-byte notified
            # put (the flush+notify credit) still carries the in-order
            # channel's clock to its consumer.
            san_op, chan, track = san
            fab.san.op_commit(
                san_op, origin, target, target_addr, nbytes,
                kind=WRITE if accumulate is None else ATOMIC,
                chan=chan, record=track)
        if not nbytes:
            return
        space = fab.spaces[target]
        ufunc = _ACCUMULATE[accumulate]
        if ufunc is None:
            space.copy_in(target_addr, raw)
            return
        dst = space.dma_view(target_addr, nbytes, acc_dtype)
        ufunc(dst, raw.view(acc_dtype), out=dst)


class _Deliver:
    """A sys message's delivery to its target's inbox (like _Commit)."""

    __slots__ = ("fabric", "op", "san_clock")

    def __init__(self, fabric: "Fabric", op: tuple,
                 san_clock: dict | None) -> None:
        self.fabric = fabric
        self.op = op
        self.san_clock = san_clock

    def __call__(self) -> None:
        origin, target, nbytes, _, _, _, ptype, payload, data, _ = self.op
        fab = self.fabric
        pkt = SysPacket(ptype=ptype, source=origin, target=target,
                        nbytes=nbytes, payload=dict(payload or {}),
                        data=data, time=fab.engine.now,
                        san_clock=self.san_clock)
        tnic = fab.nics[target]
        tnic.sys_inbox.put(pkt)
        tnic.sys_arrival.fire(pkt)
        if fab.on_sys_arrival is not None:
            fab.on_sys_arrival(target, pkt)


class _Post:
    """Posts a notification's CqEntry, built at issue, at its landing."""

    __slots__ = ("queue", "entry")

    def __init__(self, queue: CompletionQueue, entry: CqEntry) -> None:
        self.queue = queue
        self.entry = entry

    def __call__(self) -> None:
        entry = self.entry
        entry.time = self.queue.engine.now
        self.queue.post(entry)


class Nic:
    """One rank's network interface."""

    __slots__ = ("fabric", "rank", "fma", "bte", "shm", "dest_cq",
                 "shm_ring", "sys_inbox", "sys_arrival", "rx_next_free",
                 "rx_bytes")

    def __init__(self, fabric: "Fabric", rank: int):
        self.fabric = fabric
        self.rank = rank
        params = fabric.params
        eng = fabric.engine
        self.fma = FmaEngine(eng, params.fma)
        self.bte = BteEngine(eng, params.bte)
        self.shm = ShmTransport(eng, params)
        #: notifications for Notified Access land here
        self.dest_cq = CompletionQueue(eng, name=f"dest:{rank}")
        #: shared-memory notification ring (bounded, §IV-C); a post to
        #: either queue fires the one arrival signal
        self.shm_ring = CompletionQueue(eng, name=f"ring:{rank}",
                                        capacity=params.shm_ring_entries,
                                        arrival=self.dest_cq.arrival)
        #: software protocol messages (MP, PSCW control)
        self.sys_inbox: Store = Store(eng)
        self.sys_arrival = Signal(eng)
        #: receive-side link occupancy horizon (incast serialization)
        self.rx_next_free = 0.0
        self.rx_bytes = 0

    def poll_notification(self) -> CqEntry | None:
        """Pop the oldest notification across uGNI CQ and shm ring.

        The foMPI-NA target checks the uGNI destination CQ and the XPMEM
        ring; we merge them oldest-first for deterministic matching order.
        """
        a, b = self.dest_cq, self.shm_ring
        if not len(b):
            return a.poll() if len(a) else None
        if not len(a):
            return b.poll()
        # Both hold entries: compare head timestamps without popping.
        ta = a._entries[a._head].time
        tb = b._entries[b._head].time
        return a.poll() if ta <= tb else b.poll()

    def notification_pending(self) -> bool:
        return len(self.dest_cq) > 0 or len(self.shm_ring) > 0

    def notification_arrival(self) -> Event:
        """Event firing on the next notification post to either queue."""
        return self.dest_cq.arrival.wait()

    def block(self, arrival, sources, verb: str,
              until: float | None = None):
        """What a blocked ``verb`` yields: the one place a rank sleeps.

        ``arrival`` is the event (or tuple of events) that can end the
        wait and ``sources`` the ranks that could fire it.  With no node
        failure planned and no deadline that is ``arrival`` itself.  With
        node failures planned, a wait whose every source is detected dead
        raises :class:`~repro.errors.FaultError` — for ``ANY_SOURCE``,
        every rank but this one; any other wait also wakes at the next
        detection instant among its sources (every planned death for
        ``ANY_SOURCE``), to check again and fail at ``death + detect_us``.
        ``until`` adds a timer to that instant.
        """
        faults = self.fabric.faults
        if until is None and (faults is None
                              or not faults.plan.node_failures):
            return arrival
        eng = self.fabric.engine
        waits = list(arrival) if type(arrival) is tuple else [arrival]
        if faults is not None and faults.plan.node_failures:
            if ANY_SOURCE in sources:
                sources = faults.plan.node_failures
                nranks = self.fabric.machine.nranks
                if len(sources) >= nranks - 1 and all(
                        faults.detected(r, eng.now)
                        for r in range(nranks) if r != self.rank):
                    raise faults.dead_wait_error(verb, self.rank,
                                                 ANY_SOURCE)
            elif all(faults.detected(s, eng.now) for s in sources):
                raise faults.dead_wait_error(verb, self.rank, sources[0])
            times = [at for at in map(faults.detection_time, sources)
                     if at is not None and at > eng.now]
            if times:
                waits.append(eng.timeout(min(times) - eng.now))
        if until is not None:
            waits.append(eng.timeout(until - eng.now))
        return waits[0] if len(waits) == 1 else tuple(waits)


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
        #: fault injection (None on a fault-free fabric — the fast path)
        self.faults: FaultInjector | None = None
        if fault_plan is not None and fault_plan.active:
            last = max(fault_plan.node_failures, default=-1)
            if last >= machine.nranks:
                raise FaultError(f"node_failures names rank {last} of a "
                                 f"{machine.nranks}-rank machine")
            self.faults = FaultInjector(fault_plan, seed,
                                        tracer=self.tracer)
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
        #: latest instant a completion nobody reads would have fired (an
        #: ack landing, a lost op given up on): no event marks it, but the
        #: run lasts until then (``Cluster.time``)
        self.unread_at = 0.0
        #: optional hook invoked at sys-packet arrival (async progress)
        self.on_sys_arrival: Callable[[int, SysPacket], None] | None = None
        #: verb -> target half (what :meth:`_hand_off` hands an op to)
        self._land = {"put": self._land_put, "get": self._land_get,
                      "amo": self._land_amo, "sys": self._land_sys}

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

    def _fate(self, origin: int, target: int, nbytes: int,
              same_node: bool) -> TransferFate:
        """Ask the injector what happens to this transfer."""
        return self.faults.transfer_fate(
            origin, target, nbytes, "shm" if same_node else "ugni",
            self.engine.now)

    def _stall(self, origin: int, kind: str) -> float:
        """Draw the stall of one ``kind`` engine leg of ``origin``'s op."""
        return self.faults.nic_stall(origin, kind, self.engine.now)

    def _fail_lost(self, handle: OpHandle, origin: int, fate: TransferFate,
                   *events: Event) -> OpHandle:
        """Abandon ``handle``: fail ``events`` once the transport gives up.

        Retries exhausted or a dead endpoint — the op never reaches its
        target half, so nothing commits and no notification is posted.
        An event the handle did not build (``None``) is skipped.
        """
        assert self.faults is not None
        err = self.faults.lost_error(handle.kind, origin, handle.target,
                                     now=self.engine.now)
        handle.failed = True
        handle.commit_at = when = self.engine.now + fate.fail_after
        for ev in events:
            if ev is None:
                self.unread_at = max(self.unread_at, when)
                continue
            # A lost op's completion events may legitimately never be waited
            # on (e.g. a put whose remote_done the program never flushes);
            # defuse so the engine's unobserved-failure report stays quiet.
            ev.defuse()
            self._at(when, lambda ev=ev: ev.fail(err))
        return handle

    # ------------------------------------------------------------------
    # The hand-off between an op's origin half and its target half
    # ------------------------------------------------------------------
    def _hand_off(self, verb: str, parked, same: bool, op: tuple, san):
        """Carry one op from its origin half to its target half.

        Every verb below is an *origin half* (validate, snapshot, fate /
        lost branch, price the origin legs, trace, create the handle) that
        ends here, and a *target half* (``_land_<verb>``: rx-link
        reservation, response-engine planning, commit / serve / execute /
        deliver behind the exactly-once filter, sanitizer commit,
        notification post).  This fabric holds every rank, so the hand-off
        is a plain call at issue time: the target half runs now and its
        result is returned, and the verb feeds it straight to its return
        leg (``_finish_send`` for a put / sys message, ``_finish_get``,
        ``_finish_amo``).

        ``op`` is the tuple of values that cross the hand-off (one row per
        verb in ``shardlink.WIRE_ARGS``), the op's fault fate last (``None``
        on a fault-free fabric); ``san`` (sanitizer clocks) reaches a
        target half only in process.  :class:`~repro.sim.shard.ShardFabric`
        overrides this one method: for an inter-node op it parks
        ``parked`` (what the return leg needs) under an op id, ships ``op``
        as a packet and returns ``None``; the same ``_land_<verb>`` runs at
        the next window boundary and the same return leg when the response
        comes back.
        """
        return self._land[verb](same, op, san)

    def _at_target(self, when: float, origin: int, target: int, kind: str,
                   same: bool, apply: Callable[[], None] | None,
                   fate: TransferFate | None,
                   immediate: int | None = None, nbytes: int = 0,
                   win_id: int | None = None,
                   target_addr: int | None = None,
                   inline: np.ndarray | None = None, san_op=None) -> None:
        """Schedule one transfer's side effects at ``target`` for ``when``.

        ``apply`` commits the payload, executes the atomic or delivers the
        sys packet (``None`` for a get, whose data legs are idempotent
        copies).  With ``immediate`` set, a CQ entry carrying it is posted
        to the accessed rank's destination CQ (the shm ring within a node)
        at the same instant — the single-transaction guarantee of Fig. 2d.

        Fault-free, both go out as one batch (one sequence number each, so
        the order is that of two hooks).  On a faulty fabric they travel
        together as one event, behind an exactly-once
        filter: a transfer is delivered at most twice (``fate.duplicate``
        adds one copy), both deliveries run the one closure built here, and
        only the first applies anything — accumulates, atomics and
        notification counters are not idempotent.
        """
        post = None
        if immediate is not None:
            nic = self.nics[target]
            post = _Post(nic.shm_ring if same else nic.dest_cq, CqEntry(
                kind, origin, target, nbytes, 0.0, immediate, win_id,
                target_addr, inline, san_op))
        if self.faults is None:
            if post is None:
                if apply is not None:
                    self._at(when, apply)
                return
            if apply is None:
                self._at(when, post)
            else:
                self._at_batch(when, (apply, post))
            return
        delivered = False

        def once() -> None:
            nonlocal delivered
            if delivered:
                self.faults.suppressed(origin, target, kind,
                                       self.engine.now)
                return
            delivered = True
            if apply is not None:
                apply()
            if post is not None:
                post()

        self._at(when, once)
        if fate is not None and fate.duplicate:
            self._at(when + fate.dup_lag, once)

    # ------------------------------------------------------------------
    # The send shape: RDMA put and software protocol messages
    # ------------------------------------------------------------------
    def _send(self, verb: str, kind: str, origin: int, target: int,
              nbytes: int, args: tuple, local: Event | None,
              remote: Event | None, notified: bool | None = None,
              san_track: bool = True) -> OpHandle:
        """Origin half of a put or a sys message, past validation.

        Draws the fate and the engine's stall, prices the origin engine
        (shm within a node, else FMA or BTE by ``fma_max``, with the hop
        and jitter extras), builds the handle around the completions
        ``local`` and ``remote`` (``None``: not built, nothing scheduled
        for it) and traces the wire transaction (a put's record says
        whether it is ``notified``; a sys message's has no such key).  A
        lost op stops there.  Otherwise it hands the priced prefix plus
        ``args`` (the verb's own tail of the op tuple) to ``_land_<verb>``,
        frees the origin buffer once injection ends and runs the return
        leg, :meth:`_finish_send`.
        """
        same = self.machine.same_node(origin, target)
        nic = self.nics[origin]
        if same:
            eng, G, L = nic.shm, 0.0, 0.0
        else:
            eng = nic.fma if nbytes <= self.params.fma_max else nic.bte
            G, L = eng.params.G, eng.params.L
        if self.faults is None:
            fate, lost, extra, stall = None, False, 0.0, 0.0
        else:
            fate = self._fate(origin, target, nbytes, same)
            lost, extra = fate.lost, fate.extra_delay
            stall = self._stall(origin, eng.kind)
        if same:
            plan = eng.plan_put(nbytes, stall)
        else:
            # a lost transfer still occupies the origin engine, but rides
            # no wire: no hop, retransmission or jitter extras
            plan = eng.plan(nbytes, extra_delay=stall if lost else
                            self._hop_extra(origin, target) + extra + stall)
        handle = OpHandle(kind, plan.cpu_busy, local, remote,
                          nbytes=nbytes, target=target,
                          commit_at=plan.commit_at)
        medium = "shm" if same else "ugni"
        if lost:
            # The origin buffer is still snapshotted (local_done fires),
            # but completion waiters get a FaultError.  The peer waiting
            # on a lost protocol message sits in its blocking call until
            # deadlock detection fires — exactly how a lost control
            # message kills an MPI job.
            self.tracer.wire(self.engine.now, origin, target, nbytes, kind,
                             medium, notified, lost=True)
            if local is not None:
                self._at(plan.inject_end, local.succeed)
            else:
                self.unread_at = max(self.unread_at, plan.inject_end)
            return self._fail_lost(handle, origin, fate, remote)
        self.tracer.wire(self.engine.now, origin, target, nbytes, kind,
                         medium, notified)
        san = None
        if self.san is not None:
            if verb == "put":
                handle.san_remote = self.san.op_begin(origin)
                san = (handle.san_remote, eng.san_channel, san_track)
            else:
                # a protocol message carries its sender's released clock
                san = self.san.release(origin)
        landed = self._hand_off(verb, handle, same, (
            origin, target, nbytes, plan.commit_at, G, L, *args, fate), san)
        # Origin buffer reuse: data was snapshotted at injection.
        if local is not None:
            self._at(plan.inject_end, local.succeed)
        if landed is not None:
            self._finish_send(handle, *landed)
        return handle

    def _finish_send(self, handle: OpHandle, commit_at: float,
                     ack_at: float) -> None:
        """Return leg of a put or sys message: the ack reaches the origin
        at ``ack_at``, carrying the commit the target NIC reserved (an ack
        nobody reads — no ``remote_done`` — schedules nothing)."""
        handle.commit_at = commit_at
        acked = handle.remote_done
        if acked is not None:
            self._at(ack_at, acked.succeed)
        else:
            self.unread_at = max(self.unread_at, ack_at)

    def put(self, origin: int, target: int, target_addr: int,
            data: np.ndarray, *, win_id: int | None = None,
            immediate: int | None = None,
            accumulate: str | None = None,
            acc_dtype=np.float64,
            san_track: bool = True) -> OpHandle:
        """RDMA write of ``data`` into ``target``'s memory.

        If ``immediate`` is set this is a *notified* put: a CQ entry carrying
        the immediate is posted at the target when (and only when) the data
        is committed — the single-transaction guarantee of Figure 2d.

        ``accumulate`` turns the commit into an element-wise update
        (``"sum"``, ``"max"``, ``"min"``, ``"replace"``) on ``acc_dtype``
        elements, the MPI_Accumulate semantics.
        """
        if accumulate not in _ACCUMULATE:
            raise NetworkError(f"unknown accumulate op {accumulate!r}")
        raw = np.ascontiguousarray(data).view(np.uint8).ravel().copy()
        nbytes = raw.nbytes
        if accumulate is not None and nbytes % np.dtype(acc_dtype).itemsize:
            raise NetworkError(
                f"{nbytes}-byte accumulate is not a whole number of "
                f"{np.dtype(acc_dtype)} elements")
        return self._send("put", "put", origin, target, nbytes, (
            target_addr, raw, immediate, win_id, accumulate, acc_dtype),
            Event(self.engine, "put.local"),
            Event(self.engine, "put.remote"), immediate is not None,
            san_track)

    def _land_put(self, same: bool, op: tuple,
                  san=None) -> tuple[float, float]:
        """Target half of a put: reserve the rx link, commit, notify.

        ``op`` carries the origin's ideal commit and the gap ``G`` and
        latency ``L`` of the engine that priced it (zero within a node).
        Returns ``(commit_at, ack_at)`` for the return leg: the reserved
        commit and the arrival of its ack at the origin.
        """
        (origin, target, nbytes, t_commit, G, L, target_addr, raw, immediate,
         win_id, _, _, fate) = op
        commit_at = (t_commit if same
                     else self._rx_reserve(target, t_commit, nbytes, G))
        inline = (raw if same and immediate is not None
                  and self.nics[origin].shm.is_inline(nbytes) else None)
        self._at_target(commit_at, origin, target, "put", same,
                        _Commit(self, op, san), fate, immediate, nbytes,
                        win_id, target_addr, inline,
                        None if san is None else san[0])
        return commit_at, commit_at + L

    def send_sys(self, origin: int, target: int, ptype: str, nbytes: int,
                 payload: dict | None = None,
                 data: np.ndarray | None = None, *,
                 local_done: bool = True,
                 remote_done: bool = True) -> OpHandle:
        """Send a protocol message handled in software at the target.

        Carries an optional python ``payload`` (headers) and an optional
        ``data`` snapshot (the eager-protocol bounce-buffer copy).  The wire
        cost is priced like a put of ``nbytes``.  ``local_done`` /
        ``remote_done`` say which completions to build: a caller that
        never reads one passes ``False``, and the handle's event is
        ``None`` — no event and no hook are scheduled for it.
        """
        snapshot = None if data is None else np.ascontiguousarray(
            data).view(np.uint8).ravel().copy()
        return self._send("sys", f"sys-{ptype}", origin, target, nbytes,
                          (ptype, payload, snapshot),
                          Event(self.engine, "sys.local")
                          if local_done else None,
                          Event(self.engine, "sys.remote")
                          if remote_done else None)

    def _land_sys(self, same: bool, op: tuple,
                  san_clock: dict | None = None) -> tuple[float, float]:
        """Target half of a sys message: reserve the rx link, deliver.

        Returns ``(commit_at, ack_at)`` for the return leg, like a put.
        """
        origin, target, nbytes, t_commit, G, L, ptype, _, _, fate = op
        commit_at = (t_commit if same
                     else self._rx_reserve(target, t_commit, nbytes, G))
        self._at_target(commit_at, origin, target, f"sys-{ptype}", same,
                        _Deliver(self, op, san_clock), fate)
        return commit_at, commit_at + L

    # ------------------------------------------------------------------
    # The request shape: RDMA get and atomic memory operations
    # ------------------------------------------------------------------
    def _lose_request(self, handle: OpHandle, origin: int, same: bool,
                      header: int, wire_op: str,
                      fate: TransferFate) -> OpHandle:
        """Lost branch of a get or an atomic.

        The request header is priced through the origin FMA (nothing within
        a node) but never reaches the target: no data or value comes back,
        the target is never notified, and both completion events fail.
        """
        if not same:
            handle.cpu_busy = self.nics[origin].fma.plan(
                header, extra_delay=self._stall(origin, "fma")).cpu_busy
        self.tracer.wire(self.engine.now, origin, handle.target, header,
                         wire_op, "shm" if same else "ugni", lost=True)
        return self._fail_lost(handle, origin, fate, handle.local_done,
                               handle.remote_done)

    def get(self, origin: int, target: int, target_addr: int, nbytes: int,
            local_addr: int, *, win_id: int | None = None,
            immediate: int | None = None) -> OpHandle:
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
        p = self.params
        fate = (None if self.faults is None
                else self._fate(origin, target, nbytes, same))
        handle = OpHandle("get", 0.0, Event(self.engine, "get.local"),
                          Event(self.engine, "get.remote"), nbytes=nbytes,
                          target=target)
        stall = 0.0
        if fate is not None:
            if fate.lost:
                return self._lose_request(handle, origin, same,
                                          GET_REQUEST_BYTES, "get-req", fate)
            stall = self._stall(origin, "shm" if same else "fma")
            if not same:    # the response leg's, priced by the target half
                fate.stall = self._stall(
                    origin, "fma" if nbytes <= p.fma_max else "bte")
        if same:
            plan = nic.shm.plan_get(nbytes, stall)
            handle.cpu_busy, t_req, hop = plan.cpu_busy, plan.commit_at, 0.0
        else:
            # Request leg: small header through the origin FMA engine.  The
            # response leg is the target half's to plan; injected retry /
            # jitter delay and its engine's stall (``fate``) ride on it.
            hop = self._hop_extra(origin, target)
            req = nic.fma.plan(GET_REQUEST_BYTES, extra_delay=hop + stall)
            handle.cpu_busy, t_req = req.cpu_busy, req.commit_at
        handle.commit_at = t_req
        san_op = None
        if self.san is not None:
            # Two legs, two actors: the remote read (serves at the target)
            # and the dependent local delivery (commits at the origin).
            san_op = self.san.op_begin(origin)
            handle.san_remote = handle.san_local = self.san.op_child(san_op)
        # Who posts a notified get's notification: the target NIC when it
        # serves the read (§VIII case 1) — or the origin once the data has
        # landed, when the wire is unreliable (case 2: data arrival, then
        # an ack returns) or there is no wire (the origin CPU writes the
        # shm ring after its own memcpy).
        at_serve = not same and p.reliable
        parked = (handle, origin, local_addr)
        landed = self._hand_off("get", parked, same, (
            origin, target, nbytes, t_req, hop, target_addr,
            immediate if at_serve else None, win_id, fate), san_op)
        if same:
            self.tracer.wire(self.engine.now, origin, target, nbytes, "get",
                             "shm", immediate is not None)
        else:
            self.tracer.wire(self.engine.now, origin, target,
                             GET_REQUEST_BYTES, "get-req", "ugni")
            self.tracer.wire(self.engine.now, target, origin, nbytes,
                             "get-resp", "ugni", immediate is not None)
        if landed is not None:
            data_at = self._finish_get(*parked, *landed)
            if immediate is not None and not at_serve:
                self._at_target(data_at if same else data_at + p.fma.L,
                                origin, target, "get", same, None, fate,
                                immediate, nbytes, win_id, target_addr,
                                None, san_op)
        return handle

    def _land_get(self, same: bool, op: tuple, san_op=None,
                  sink: Callable[[np.ndarray | None], None] | None = None):
        """Target half of a get: plan the response leg, serve the read.

        The request arrives at ``t_req``; the response is injected by the
        target NIC's engine of proper size.  Returns ``(t_data, G, box)``
        for the return leg (:meth:`_finish_get`): the ideal arrival of the
        data at the origin, the responding engine's per-byte gap (``None``
        within a node — no wire) and the box the bytes read at serve time
        are put in (the value read is the value at serve).  An origin in
        another process passes ``sink`` to receive them instead.
        ``immediate`` set means notify at serve time.
        """
        (origin, target, nbytes, t_req, hop, target_addr, immediate, win_id,
         fate) = op
        if same:
            serve_at = t_data = t_req
            G = None
        else:
            tnic = self.nics[target]
            teng = tnic.fma if nbytes <= self.params.fma_max else tnic.bte
            resp = teng.plan(nbytes, extra_delay=hop if fate is None else
                             hop + fate.extra_delay + fate.stall,
                             not_before=t_req)
            serve_at, t_data, G = (resp.inject_end, resp.commit_at,
                                   teng.params.G)
        tspace = self.spaces[target]
        box: list[np.ndarray | None] = []
        if sink is None:
            sink = box.append

        def serve() -> None:
            if san_op is not None:
                self.san.op_commit(san_op, origin, target, target_addr,
                                   nbytes, kind=READ)
            sink(tspace.copy_out(target_addr, nbytes) if nbytes else None)

        self._at(serve_at, serve)
        if immediate is not None:
            self._at_target(serve_at, origin, target, "get", same, None,
                            fate, immediate, nbytes, win_id, target_addr,
                            None, san_op)
        return t_data, G, box

    def _finish_get(self, handle: OpHandle, origin: int, local_addr: int,
                    t_data: float, G: float | None, box) -> float:
        """Return leg of a get: the response lands in origin memory.

        Reserves the origin NIC's rx link for the response stream, patches
        ``handle.commit_at`` to the time the data is locally available
        (until then it holds the request's arrival at the target) and
        schedules delivery; returns that time.
        """
        nbytes = handle.nbytes
        data_at = (t_data if G is None
                   else self._rx_reserve(origin, t_data, nbytes, G))
        handle.commit_at = data_at
        ospace = self.spaces[origin]
        san_del = handle.san_local

        def deliver() -> None:
            if san_del is not None:
                self.san.op_commit(san_del, handle.target, origin,
                                   local_addr, nbytes, kind=WRITE)
            if nbytes:
                ospace.copy_in(local_addr, box[0])

        # One scheduler transaction for the whole same-tick completion
        # burst (same seq consumption and dispatch order as three call_at).
        self._at_batch(data_at, (
            deliver,
            handle.local_done.succeed,
            handle.remote_done.succeed,
        ))
        return data_at

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
        itemsize = np.dtype(dtype).itemsize
        fate = (None if self.faults is None
                else self._fate(origin, target, itemsize, same))
        handle = OpHandle("amo", 0.0, Event(self.engine, "amo.local"),
                          Event(self.engine, "amo.remote"), nbytes=itemsize,
                          target=target)
        stall = 0.0
        if fate is not None:
            if fate.lost:
                return self._lose_request(handle, origin, same,
                                          AMO_REQUEST_BYTES, f"amo-{op}", fate)
            stall = self._stall(origin, "shm" if same else "fma")
        if same:
            plan = nic.shm.plan_amo(stall)
            handle.cpu_busy = plan.cpu_busy
            t_exec = self.engine.now + self.params.shm.L
            done_at = plan.commit_at
            self.tracer.wire(self.engine.now, origin, target, itemsize,
                             f"amo-{op}", "shm")
        else:
            hop = self._hop_extra(origin, target)
            extra = fate.extra_delay if fate is not None else 0.0
            req = nic.fma.plan(AMO_REQUEST_BYTES,
                               extra_delay=hop + extra + stall)
            handle.cpu_busy = req.cpu_busy
            t_exec = req.commit_at
            done_at = t_exec + self.params.fma.L + hop
            self.tracer.wire(self.engine.now, origin, target,
                             AMO_REQUEST_BYTES, f"amo-{op}", "ugni")
            self.tracer.wire(self.engine.now, target, origin,
                             AMO_RESPONSE_BYTES, "amo-resp", "ugni")
        handle.commit_at = t_exec
        if self.san is not None:
            handle.san_remote = self.san.op_begin(origin)
        box = self._hand_off("amo", (handle, done_at), same, (
            origin, target, itemsize, t_exec, target_addr, op, operand,
            compare, dtype, immediate, win_id, fate), handle.san_remote)
        if box is not None:
            self._finish_amo(handle, done_at, box)
        return handle

    def _land_amo(self, same: bool, op: tuple, san_op=None,
                  sink: Callable[[int], None] | None = None) -> list:
        """Target half of an atomic: execute at ``t_exec``, notify.

        Returns the box the fetched (old) value is put in at execute time,
        for the return leg (:meth:`_finish_amo`); an origin in another
        process passes ``sink`` to receive it instead.
        """
        (origin, target, itemsize, t_exec, target_addr, kind, operand,
         compare, dtype, immediate, win_id, fate) = op
        tspace = self.spaces[target]
        box: list[int] = []
        if sink is None:
            sink = box.append

        def execute() -> None:
            if san_op is not None:
                self.san.amo_commit(san_op, origin, target, target_addr,
                                    itemsize)
            view = tspace.dma_view(target_addr, itemsize, dtype)
            old = view[0].item()
            if kind == "sum":
                view[0] = old + operand
            elif kind == "replace":
                view[0] = operand
            elif kind == "cas":
                if old == compare:
                    view[0] = operand
            # "no_op" fetches without modifying.
            sink(old)

        self._at_target(t_exec, origin, target, "amo", same, execute, fate,
                        immediate, itemsize, win_id, target_addr, None,
                        san_op)
        return box

    def _finish_amo(self, handle: OpHandle, done_at: float, box) -> None:
        """Return leg of an atomic: the fetched value reaches the origin."""
        self._at_batch(done_at, (
            handle.local_done.succeed,
            lambda: handle.remote_done.succeed(box[0]),
        ))
