"""Cluster assembly: ranks, programs, and the top-level run loop.

A :class:`Cluster` wires together the DES engine, the machine topology, one
address space + NIC + cache model + MPI endpoint + Notified Access engine
per rank, and runs *rank programs* — generator functions of one
:class:`Rank` argument that use the blocking-style APIs::

    def program(ctx):
        win = yield from ctx.win_allocate(4096)
        if ctx.rank == 0:
            yield from ctx.na.put_notify(win, data, target=1, tag=7)
        else:
            req = yield from ctx.na.notify_init(win, source=0, tag=7)
            yield from ctx.na.start(req)
            status = yield from ctx.na.wait(req)
        return ctx.now

    results, cluster = run_ranks(2, program)
"""

from __future__ import annotations

import os
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.counters import CounterEngine
from repro.core.engine import NotifyEngine
from repro.core.overwriting import OverwriteEngine
from repro.errors import RaceError, SimulationError
from repro.faults import FaultPlan
from repro.memory.address import DEFAULT_SPACE, AddressSpace
from repro.memory.cache import CacheModel
from repro.mpi.comm import Communicator
from repro.mpi.endpoint import MpiEndpoint
from repro.network.fabric import Fabric, SysPacket
from repro.network.loggp import TransportParams
from repro.network.topology import Machine
from repro.rma.window import WindowRegistry, win_allocate
from repro.sim.engine import Engine
from repro.sim.rng import RngStream
from repro.sim.trace import Tracer


@dataclass
class ClusterConfig:
    """Tunables of a simulated cluster run."""

    nranks: int = 2
    ranks_per_node: int = 1
    #: dragonfly grouping of nodes (None = flat network)
    nodes_per_group: int | None = None
    params: TransportParams = field(default_factory=TransportParams)
    seed: int = 42
    trace: bool = False
    space_bytes: int = DEFAULT_SPACE
    #: Cray-like helper agent answering rendezvous CTS without the sender CPU
    async_progress: bool = True
    #: CPU compute throughput used by ``Rank.compute_flops`` (flops per µs)
    flops_per_us: float = 8000.0
    #: optional fault-injection plan (None = perfectly reliable fabric)
    faults: FaultPlan | None = None
    #: happens-before race detection (see ``repro.sanitizer``).  Off by
    #: default: the tracker adds no events, so schedules and golden values
    #: are identical either way, but shadow bookkeeping costs CPU time.
    #: The ``REPRO_SANITIZE=1`` environment variable (set by
    #: ``pytest --sanitize``) force-enables it.
    sanitize: bool = False
    #: sharded conservative-parallel execution (see ``repro.sim.shard``):
    #: ``N > 1`` partitions the ranks node-aligned over N worker processes,
    #: ``1`` pins the serial core, and ``0`` (the default) resolves from
    #: the ``REPRO_SHARDS`` environment variable (falling back to serial).
    #: Only :func:`run_ranks` dispatches to the sharded core; driving a
    #: :class:`Cluster` directly always runs serial.
    shards: int = 0


class Rank:
    """Everything one simulated process can see."""

    __slots__ = ("cluster", "rank", "engine", "machine", "fabric", "params",
                 "space", "cache", "nic", "rng", "endpoint", "comm", "na",
                 "counters", "gaspi")

    def __init__(self, cluster: "Cluster", rank: int):
        self.cluster = cluster
        self.rank = rank
        self.engine = cluster.engine
        self.machine = cluster.machine
        self.fabric = cluster.fabric
        self.params = cluster.cfg.params
        self.space: AddressSpace = cluster.spaces[rank]
        self.cache = CacheModel()
        self.nic = cluster.fabric.nic(rank)
        self.rng = RngStream(cluster.cfg.seed, "rank", rank)
        # Wired in a second phase (endpoint needs this context object):
        self.endpoint: MpiEndpoint = None  # type: ignore[assignment]
        self.comm: Communicator = None     # type: ignore[assignment]
        self.na: NotifyEngine = None       # type: ignore[assignment]
        self.counters: CounterEngine = None  # type: ignore[assignment]
        self.gaspi: OverwriteEngine = None   # type: ignore[assignment]

    @property
    def size(self) -> int:
        return self.cluster.cfg.nranks

    @property
    def now(self) -> float:
        return self.engine.now

    def timeout(self, dt: float):
        return self.engine.timeout(dt)

    def compute(self, dt_us: float) -> Generator[object, object, None]:
        """Occupy this rank's CPU for ``dt_us`` microseconds."""
        if dt_us > 0:
            yield float(dt_us)

    def compute_flops(self, flops: float) -> Generator[object, object, None]:
        """Occupy the CPU for the time ``flops`` take at the modeled rate."""
        yield from self.compute(flops / self.cluster.cfg.flops_per_us)

    def alloc(self, nbytes: int, align: int = 64):
        return self.space.alloc(nbytes, align=align)

    def win_allocate(self, nbytes: int, disp_unit: int = 1):
        """Collective window allocation (:func:`repro.rma.win_allocate`)."""
        win = yield from win_allocate(self, nbytes, disp_unit)
        return win

    def barrier(self):
        yield from self.comm.barrier()

    # -- sanitizer annotations (no-ops when sanitize is off) ------------
    def san_acquire(self, handle) -> None:
        """Declare this rank ordered after ``handle``'s completed op.

        For code that synchronizes out-of-band (e.g. the raw ping-pong
        that sleeps until a put's known commit time) where no
        notification/flush edge exists for the sanitizer to see.
        """
        san = self.cluster.sanitizer
        if san is not None:
            san.acquire_op(self.rank, getattr(handle, "san_remote", None))
            san.acquire_op(self.rank, getattr(handle, "san_local", None))

    def san_acquire_at(self, win, offset: int = 0) -> None:
        """Declare this rank ordered after the last op committed at a
        polled local address (ring/flag protocols: call right after the
        poll observes the value).  ``win`` is a Window (``offset`` is then
        window-relative, past the header) or a raw Region."""
        san = self.cluster.sanitizer
        if san is not None:
            shared = getattr(win, "shared", None)
            if shared is not None:
                addr = shared.bases[self.rank] + offset
            else:
                addr = win.addr + offset
            san.acquire_loc(self.rank, self.rank, addr)


class Cluster:
    """A simulated machine plus the full communication stack."""

    def __init__(self, config: ClusterConfig | None = None, **kw):
        if config is None:
            config = ClusterConfig(**kw)
        elif kw:
            raise SimulationError("pass either a config or kwargs, not both")
        self.cfg = config
        self.engine = Engine()
        self.machine = Machine(config.nranks, config.ranks_per_node,
                               nodes_per_group=config.nodes_per_group)
        self.tracer = Tracer(enabled=config.trace)
        self.sanitizer = self._build_sanitizer()
        self.spaces = self._build_spaces()
        if self.sanitizer is not None:
            for sp in self.spaces:
                sp.san = self.sanitizer
                sp.poison_on_free = True
        self.fabric = self._build_fabric()
        self.win_registry = self._build_win_registry()
        self.ranks = self._build_ranks()
        self._wire_ranks()
        if config.async_progress:
            self.fabric.on_sys_arrival = self._async_progress_hook
        self._ran = False
        self._until: float | None = None

    # -- build hooks (overridden by the sharded core) -------------------
    def _build_sanitizer(self):
        if self.cfg.sanitize or os.environ.get("REPRO_SANITIZE") == "1":
            from repro.sanitizer import Sanitizer
            return Sanitizer(self.engine, self.cfg.nranks,
                             tracer=self.tracer)
        return None

    def _build_spaces(self):
        return [AddressSpace(r, self.cfg.space_bytes)
                for r in range(self.cfg.nranks)]

    def _build_fabric(self) -> Fabric:
        return Fabric(self.engine, self.machine, self.spaces,
                      params=self.cfg.params, tracer=self.tracer,
                      seed=self.cfg.seed, fault_plan=self.cfg.faults,
                      sanitizer=self.sanitizer)

    def _build_win_registry(self) -> WindowRegistry:
        return WindowRegistry(self.cfg.nranks)

    def _build_ranks(self):
        return [Rank(self, r) for r in range(self.cfg.nranks)]

    def _wire_ranks(self) -> None:
        for ctx in self.ranks:
            ctx.endpoint = MpiEndpoint(ctx)
            ctx.comm = Communicator(ctx.endpoint)
            ctx.na = NotifyEngine(ctx)
            ctx.counters = CounterEngine(ctx)
            ctx.gaspi = OverwriteEngine(ctx)

    # ------------------------------------------------------------------
    def _async_progress_hook(self, target: int, pkt: SysPacket) -> None:
        """Answer rendezvous CTS messages like Cray's helper agent: off the
        main CPU, after a small reaction delay."""
        if pkt.ptype != "cts":
            return
        pkt.payload["async_handled"] = True
        endpoint = self.ranks[target].endpoint
        self.fabric._at(
            self.engine.now + self.cfg.params.async_progress_delay,
            lambda: endpoint._on_cts(pkt))

    # ------------------------------------------------------------------
    def run(self,
            program: Callable[[Rank], Generator] | Sequence[Callable],
            args: Sequence[Any] = (),
            until: float | None = None) -> list[Any]:
        """Run one program on every rank (or one program per rank).

        Returns the per-rank return values.  A cluster is single-use: build
        a fresh one per experiment so engines and statistics stay clean.
        """
        if self._ran:
            raise SimulationError("cluster already ran; build a new one")
        self._ran = True
        self._until = until
        if callable(program):
            programs = [program] * self.cfg.nranks
        else:
            programs = list(program)
            if len(programs) != self.cfg.nranks:
                raise SimulationError(
                    f"{len(programs)} programs for {self.cfg.nranks} ranks")
        procs = []
        for ctx, prog in zip(self.ranks, programs):
            procs.append(self.engine.process(prog(ctx, *args),
                                             name=f"rank{ctx.rank}"))
        try:
            self.engine.run(until=until)
        except SimulationError as exc:
            # A race detected inside a rank program surfaces as a process
            # crash; re-raise the RaceError itself so callers (and pytest
            # ``raises`` blocks) see the diagnosis, not the wrapper.
            if isinstance(exc.__cause__, RaceError):
                raise exc.__cause__
            raise
        return [p.value if p.triggered else None for p in procs]

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Final virtual time (µs): the last event, or the last
        completion nobody reads (``Fabric.unread_at``) if that is later —
        capped at a bounded run's ``until``, where the engine stops."""
        end = max(self.engine.now, self.fabric.unread_at)
        return end if self._until is None else min(end, self._until)

    def stats(self) -> dict[str, Any]:
        """Summary counters for tests and reports.

        Counts are summed over ranks, maps are keyed by rank, ``time_us``
        is the clock, and ``faults`` (present when a plan injects
        anything) is the tracer's count per fault class — so a sharded
        run merges its workers' stats by one rule.
        """
        out: dict[str, Any] = {
            "time_us": self.time,
            "wire_transactions": self.tracer.wire_transactions(),
            "bytes_on_wire": self.tracer.bytes_by_kind.get("wire", 0),
            "eager_copies": sum(c.endpoint.eager_copies for c in self.ranks),
            "bounce_copies": sum(c.endpoint.bounce_copies
                                 for c in self.ranks),
            "rndv_sends": sum(c.endpoint.rndv_sends for c in self.ranks),
            "notified_ops": sum(c.na.notified_ops for c in self.ranks),
            "cache_misses": {c.rank: c.cache.stats.misses
                             for c in self.ranks},
            "rx_bytes": {c.rank: c.nic.rx_bytes for c in self.ranks},
            "shm_inline_puts": sum(c.nic.shm.inline_puts
                                   for c in self.ranks),
            "live_na_requests": sum(c.na.live_requests
                                    for c in self.ranks),
        }
        if self.fabric.faults is not None:
            out["faults"] = dict(self.tracer.faults)
        return out


def effective_shards(config: ClusterConfig) -> int:
    """Resolve the shard count for one run (1 = serial).

    ``config.shards`` wins when set (>= 1); ``0`` consults the
    ``REPRO_SHARDS`` environment variable (unset or empty means serial;
    a value that is not an integer raises).  Two features the sharded
    core does not model raise when sharding was requested explicitly and
    quietly fall back to serial when it came from the environment — so
    exporting ``REPRO_SHARDS`` never changes what such a run computes:
    ``reliable=False`` (an unreliable get's notification is posted by the
    origin into the target's queue) and ``sanitize=True`` (the
    sanitizer's vector clocks do not cross shards).  The count is
    clamped to the node count (shards are node-aligned).
    """
    n = config.shards
    explicit = n > 1
    if n == 0:
        env = os.environ.get("REPRO_SHARDS") or "1"
        try:
            n = int(env)
        except ValueError:
            raise SimulationError(
                f"REPRO_SHARDS={env!r} is not a shard count (an integer; "
                f"unset, 0 or 1 run serial)") from None
    if n <= 1:
        return 1
    reasons = []
    if not config.params.reliable:
        reasons.append("reliable=False (an unreliable get's notification "
                       "is posted by its origin, in process)")
    if config.sanitize:
        reasons.append("sanitize=True (vector clocks do not cross shards)")
    if reasons:
        if explicit:
            raise SimulationError(
                f"shards={config.shards} is incompatible with "
                f"{' and '.join(reasons)}; run serial")
        return 1
    nnodes = (config.nranks + config.ranks_per_node - 1) \
        // config.ranks_per_node
    return max(1, min(n, nnodes))


def run_ranks(nranks: int,
              program: Callable[[Rank], Generator] | Sequence[Callable],
              args: Sequence[Any] = (),
              config: ClusterConfig | None = None,
              **kw) -> tuple[list[Any], Any]:
    """Convenience: build a cluster, run ``program`` on ``nranks`` ranks.

    Returns ``(per_rank_results, cluster)``.  With sharding in effect
    (``config.shards > 1`` or ``REPRO_SHARDS``, see
    :func:`effective_shards`) the run is executed by the conservative-
    parallel core in :mod:`repro.sim.shard` and the second element is a
    :class:`~repro.sim.shard.ShardedRun` summary instead of a
    :class:`Cluster` (same ``.time`` / ``.stats()`` / ``.cfg`` surface).
    """
    if config is None:
        config = ClusterConfig(nranks=nranks, **kw)
    shards = effective_shards(config)
    if shards > 1:
        from repro.sim.shard import run_sharded
        return run_sharded(program, args, config, shards)
    cluster = Cluster(config)
    results = cluster.run(program, args=args)
    return results, cluster
