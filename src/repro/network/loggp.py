"""LogGP cost parameters.

The LogGP model (L, o, g, G, P) prices a message of ``s`` bytes at
``o_send + L + (s-1)*G + o_recv`` on the critical path, with ``g`` bounding
the per-message injection rate.  The paper reports (Table I):

===============  ========  =========
transport        L (µs)    G (ns/B)
===============  ========  =========
shared memory    0.25      0.080
uGNI FMA         1.02      0.105
uGNI BTE         1.32      0.101
===============  ========  =========

plus software overheads: ``o_s = t_na = 0.29 µs`` (issuing a notified
access), ``o_r = 0.07 µs`` (receive-side matching with a single queued
request), ``t_init = 0.07``, ``t_free = 0.04``, ``t_start = 0.008 µs``.
These are the library defaults, so the simulator's absolute microbenchmark
numbers land in the paper's regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

#: one nanosecond in engine units (microseconds)
NS = 1e-3
#: one microsecond in engine units
US = 1.0


def _floats(params) -> None:
    """Store every ``float`` field as a float: the costs built from them
    are yielded as delays, and a process takes only a float as one, so
    ``o_send=1`` must mean ``1.0``."""
    for f in fields(params):
        if f.type == "float":
            object.__setattr__(params, f.name,
                               float(getattr(params, f.name)))


@dataclass(frozen=True)
class LogGPParams:
    """Parameters of a single transport path."""

    L: float            # wire latency, µs
    G: float            # per-byte gap, µs/byte
    g: float = 0.04     # per-message gap at the injecting engine, µs
    o_post: float = 0.0  # CPU time to post a descriptor to this engine, µs

    def __post_init__(self) -> None:
        _floats(self)

    def serialization(self, nbytes: int) -> float:
        """Engine occupancy per message: g + s*G."""
        return self.g + nbytes * self.G


@dataclass(frozen=True)
class TransportParams:
    """All tunables of the simulated fabric.

    The thresholds are the design knobs DESIGN.md calls out for ablation:
    ``fma_max`` (FMA↔BTE crossover), ``eager_max`` (MP eager↔rendezvous),
    ``inline_max`` (shared-memory inline-transfer cutoff).
    """

    fma: LogGPParams = field(
        default_factory=lambda: LogGPParams(L=1.02, G=0.105 * NS, g=0.04,
                                            o_post=0.0))
    bte: LogGPParams = field(
        default_factory=lambda: LogGPParams(L=1.32, G=0.101 * NS, g=0.06,
                                            o_post=0.30))
    shm: LogGPParams = field(
        default_factory=lambda: LogGPParams(L=0.25, G=0.080 * NS, g=0.02,
                                            o_post=0.0))

    #: CPU overhead of issuing one RMA/NA operation (t_na in the paper)
    o_send: float = 0.29
    #: receive-side matching overhead with one queued request (o_r)
    o_recv: float = 0.07
    #: memcpy cost per byte at the CPU (eager copy, shm data path), µs/B
    copy_G: float = 0.10 * NS
    #: fixed memcpy startup, µs
    copy_o: float = 0.05
    #: MPI send/recv software overhead beyond the bare injection (tag
    #: matching, request bookkeeping), charged at the sender per send and at
    #: the receiver per match — the generic message-passing path the paper's
    #: eager-copy argument targets
    mpi_overhead: float = 0.30
    #: time for the async-progress agent to react to a rendezvous control
    #: message (Cray-like helper thread), µs
    async_progress_delay: float = 0.20

    #: largest transfer the FMA engine handles; larger go to BTE
    fma_max: int = 4096
    #: largest MP message sent eagerly; larger use rendezvous
    eager_max: int = 8192
    #: largest shm put carried inline inside the notification line
    inline_max: int = 48
    #: capacity of the per-process shm notification ring (entries)
    shm_ring_entries: int = 4096

    #: notification request structure size (bytes) — §IV-B of the paper
    request_bytes: int = 32

    #: API call costs measured in §V-A of the paper (µs)
    t_init: float = 0.07
    t_free: float = 0.04
    t_start: float = 0.008

    #: extra one-way latency for traffic crossing dragonfly groups, µs
    #: (Aries routes inter-group packets over global links)
    inter_group_L_extra: float = 0.0

    #: network reliability mode (§VIII): if False, a notified get needs an
    #: extra round trip before the target-side notification may fire
    reliable: bool = True

    def __post_init__(self) -> None:
        _floats(self)

    def engine_for(self, nbytes: int, same_node: bool) -> LogGPParams:
        if same_node:
            return self.shm
        return self.fma if nbytes <= self.fma_max else self.bte

    def with_(self, **kw) -> "TransportParams":
        """Return a copy with fields replaced (ablation helper)."""
        return replace(self, **kw)


def noc_params() -> TransportParams:
    """Parameters for a future large-scale **on-chip** network (§III-A).

    The paper argues Notified Access is also a viable interface for on-chip
    networks, where transfer pipelining is mandatory and synchronization has
    a higher *relative* cost: latencies are nanoseconds, so software
    overheads dominate even more than across a datacenter.  These values
    model a mesh NoC: ~50 ns hop-to-hop latency, ~50 GB/s per link, and
    software costs scaled down (on-chip runtimes are leaner) but much less
    than the 20x latency reduction.
    """
    return TransportParams(
        fma=LogGPParams(L=0.05, G=0.02 * NS, g=0.002, o_post=0.0),
        bte=LogGPParams(L=0.06, G=0.018 * NS, g=0.003, o_post=0.02),
        shm=LogGPParams(L=0.01, G=0.01 * NS, g=0.001, o_post=0.0),
        o_send=0.03, o_recv=0.01, copy_G=0.02 * NS, copy_o=0.005,
        mpi_overhead=0.03, async_progress_delay=0.02,
        t_init=0.01, t_free=0.005, t_start=0.001,
    )
