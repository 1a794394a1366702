"""Deterministic fault injection for the simulated fabric.

The paper's single-transaction handoff argument (§III) assumes puts and
notifications arrive; this layer lets experiments ask what Notified Access
costs when they do not.  A :class:`FaultPlan` describes *what* can go wrong
— packet drop, duplication, delayed (hence reordered) delivery, transient
NIC stalls, and whole-node failure — and a :class:`FaultInjector` turns the
plan into per-operation :class:`TransferFate` decisions drawn from one
labelled :class:`~repro.sim.rng.RngStream` per origin rank, so a fixed seed
reproduces the exact same fault schedule bit-for-bit — serial or sharded.

Recovery is modelled the way a reliable transport layers it over a lossy
link:

* every dropped attempt costs one retransmission timeout, growing by an
  exponential ``backoff`` factor per retry (``rto``, ``rto*b``, ``rto*b²``,
  ...);
* a delivery may be *duplicated*; both copies run the transfer's one
  guarded completion closure, which applies only the first, so payload
  commit, accumulate updates, and notification posts stay exactly-once;
* after ``max_retries`` consecutive drops — or when either endpoint's node
  has failed — the operation is abandoned and its ``remote_done`` event
  fails with :class:`~repro.errors.FaultError` after ``detect_us``.

Only inter-node (uGNI) paths see drop/duplication/delay: the shared-memory
path is a CPU memcpy with no packets to lose.  Transient NIC stalls apply
to every engine (FMA, BTE, and the shm ring; the fabric draws one per
engine leg it prices), and node failure applies to both media.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

from repro.errors import FaultError
from repro.mpi.constants import ANY_SOURCE
from repro.sim.rng import RngStream
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven description of the faults a run should inject.

    All probabilities are per *decision*: ``drop_prob`` per delivery
    attempt, ``dup_prob``/``delay_prob`` per transfer, ``stall_prob`` per
    engine leg.  ``node_failures`` maps a rank to the virtual time
    (µs) its node dies; operations touching a dead rank fail after
    ``detect_us``.  ``seed=None`` derives the fault stream from the fabric
    seed (see docs/calibration.md for the seeding rules).
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    delay_max: float = 5.0          # µs, uniform extra delivery delay
    stall_prob: float = 0.0
    stall_us: float = 2.0           # µs, transient NIC stall duration
    node_failures: Mapping[int, float] = field(default_factory=dict)
    max_retries: int = 8
    rto: float = 10.0               # µs, base retransmission timeout
    backoff: float = 2.0            # exponential backoff factor
    dup_lag: float = 1.0            # µs, lag of the duplicate delivery
    detect_us: float = 50.0         # µs until an abandoned op is failed
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob", "stall_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name}={p} outside [0, 1]")
        if not (isinstance(self.max_retries, Integral)
                and self.max_retries >= 0):
            raise FaultError(f"max_retries must be an integer >= 0, got "
                             f"{self.max_retries!r}")
        # NaN fails every comparison, so ``not lo <= x < inf`` rejects it
        if not (0 < self.rto < math.inf and 1 <= self.backoff < math.inf):
            raise FaultError(f"rto={self.rto} must be finite and > 0, "
                             f"backoff={self.backoff} finite and >= 1")
        for knob in ("delay_max", "stall_us", "dup_lag", "detect_us"):
            if not 0 <= getattr(self, knob) < math.inf:
                raise FaultError(f"{knob}={getattr(self, knob)} must be "
                                 f"finite and >= 0")
        for rank, when in self.node_failures.items():
            if not (isinstance(rank, Integral) and rank >= 0):
                raise FaultError(f"node_failures names {rank!r}, not a "
                                 f"rank (an integer >= 0)")
            if not 0 <= when < math.inf:
                raise FaultError(f"node failure time for rank {rank} is "
                                 f"{when}: must be finite and >= 0")

    @property
    def active(self) -> bool:
        """True if the plan can inject anything at all."""
        return bool(self.drop_prob or self.dup_prob or self.delay_prob
                    or self.stall_prob or self.node_failures)

    @property
    def node_failures_only(self) -> bool:
        """True if no probabilistic fault class is enabled."""
        return not (self.drop_prob or self.dup_prob or self.delay_prob
                    or self.stall_prob)


@dataclass
class TransferFate:
    """The injector's verdict for one transfer."""

    retries: int = 0          # retransmissions before success
    retry_delay: float = 0.0  # summed backoff delay of those retries, µs
    jitter: float = 0.0       # extra delivery delay (reordering), µs
    duplicate: bool = False   # delivery arrives twice
    dup_lag: float = 0.0      # lag of the duplicate, µs
    lost: bool = False        # abandoned (retry exhaustion / dead node)
    fail_after: float = 0.0   # when to fail the op, µs from issue
    stall: float = 0.0        # engine stall the target half prices, µs

    @property
    def extra_delay(self) -> float:
        """Total successful-path delay the fate adds to the transfer."""
        return self.retry_delay + self.jitter


#: fates never touched by the injector (fault-free fast path)
CLEAN_FATE = TransferFate()


class FaultInjector:
    """Draws per-operation fates from a plan.

    One injector serves a whole fabric, and every decision about an op —
    its drop attempts, delay, duplication and the stall of each engine leg
    it prices, in that order — is drawn at issue from the stream of the
    op's *origin* rank, ``RngStream(seed, "faults", origin)``, built at
    that origin's first draw.  ``seed`` is ``plan.seed``, or the fabric
    root seed when that is ``None``.  A rank issues its ops in the same
    order in the serial and the sharded core, so the schedule is a pure
    function of (plan, seed, program) in both.  Every decision is emitted
    once to the tracer under its fault class: ``tracer.faults`` is the
    recovery ledger (``Cluster.stats()["faults"]``), and the
    retransmissions performed are ``drop - lost`` (an abandoned op
    retried ``max_retries`` times before giving up).
    """

    def __init__(self, plan: FaultPlan, root_seed: int,
                 tracer: Tracer | None = None):
        self.plan = plan
        self.seed = plan.seed if plan.seed is not None else root_seed
        #: origin rank -> its fault stream
        self.streams: dict[int, RngStream] = {}
        self.tracer = tracer or Tracer(enabled=False)

    def rng(self, origin: int) -> RngStream:
        """The stream every fault decision about ``origin``'s ops uses."""
        if origin not in self.streams:
            self.streams[origin] = RngStream(self.seed, "faults", origin)
        return self.streams[origin]

    # ------------------------------------------------------------------
    def rank_down(self, rank: int, now: float) -> bool:
        """Has ``rank``'s node failed at virtual time ``now``?"""
        when = self.plan.node_failures.get(rank)
        return when is not None and now >= when

    def death_time(self, rank: int) -> float | None:
        """When ``rank``'s node dies (µs), or None if it never does."""
        return self.plan.node_failures.get(rank)

    def detection_time(self, rank: int) -> float | None:
        """When ``rank``'s failure becomes *visible* to waiters (µs).

        Failure detection is not instantaneous: a death at ``t`` is only
        reported at ``t + detect_us`` — the same latency after which an
        in-flight operation against the dead node is failed.  A blocked
        wait on ``rank`` wakes and fails at this instant
        (:meth:`~repro.network.fabric.Nic.block`).
        """
        when = self.death_time(rank)
        return None if when is None else when + self.plan.detect_us

    def detected(self, rank: int, now: float) -> bool:
        """Has ``rank``'s failure been detected by virtual time ``now``?"""
        at = self.detection_time(rank)
        return at is not None and now >= at

    def transfer_fate(self, origin: int, target: int, nbytes: int,
                      medium: str, now: float) -> TransferFate:
        """Decide the fate of one transfer issued at ``now``.

        Draws happen in a fixed order (attempts, delay, duplication) and
        only for knobs that are enabled, so disabling one fault class does
        not perturb another's schedule.
        """
        plan = self.plan
        if self.rank_down(origin, now) or self.rank_down(target, now):
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="node-down", medium=medium)
            return TransferFate(lost=True, fail_after=plan.detect_us)
        if medium == "shm":
            # Intra-node data moves by memcpy: nothing on the wire to
            # drop or duplicate (the fabric draws the copy's stall).
            return CLEAN_FATE
        fate = TransferFate()
        if plan.drop_prob > 0.0:
            for attempt in range(plan.max_retries + 1):
                if self.rng(origin).random() >= plan.drop_prob:
                    break
                fate.retries += 1
                fate.retry_delay += plan.rto * plan.backoff ** attempt
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="drop", attempt=attempt,
                                 medium=medium)
            else:
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="lost", medium=medium)
                return TransferFate(retries=plan.max_retries,
                                    lost=True,
                                    fail_after=plan.detect_us)
            if fate.retries:
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="retry-ok", retries=fate.retries,
                                 medium=medium)
        if (plan.delay_prob > 0.0
                and self.rng(origin).random() < plan.delay_prob):
            fate.jitter = self.rng(origin).uniform(0.0, plan.delay_max)
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="delay", extra=fate.jitter,
                             medium=medium)
        if plan.dup_prob > 0.0 and self.rng(origin).random() < plan.dup_prob:
            fate.duplicate = True
            fate.dup_lag = plan.dup_lag
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="dup", medium=medium)
        return fate

    def nic_stall(self, origin: int, engine_kind: str, now: float) -> float:
        """Extra delay from a transient stall of the engine pricing one
        leg of an op ``origin`` issued."""
        if self.plan.stall_prob <= 0.0:
            return 0.0
        if self.rng(origin).random() >= self.plan.stall_prob:
            return 0.0
        self.tracer.emit(now, "fault", -1, -1, 0, fault="stall",
                         engine=engine_kind, extra=self.plan.stall_us)
        return self.plan.stall_us

    def suppressed(self, origin: int, target: int, kind: str,
                   now: float) -> None:
        """Record a duplicate delivery filtered by the dedup path."""
        self.tracer.emit(now, "fault", origin, target, 0,
                         fault="dup-suppressed", op=kind)

    def lost_error(self, kind: str, origin: int, target: int,
                   now: float | None = None) -> FaultError:
        """The exception an abandoned operation fails with.

        Names the dead endpoint (and its death time) when the loss is a
        node failure, so a waiter's traceback identifies *which* rank to
        fail over from; plain retry exhaustion keeps the generic message.
        """
        dead = [r for r in (origin, target)
                if (self.rank_down(r, now) if now is not None
                    else r in self.plan.node_failures)]
        if dead:
            causes = ", ".join(
                f"rank {r} down since t={self.plan.node_failures[r]:g}us"
                for r in dead)
            return FaultError(
                f"{kind} {origin}->{target} abandoned: {causes} "
                f"(detected after {self.plan.detect_us:g}us)")
        return FaultError(
            f"{kind} {origin}->{target} abandoned: "
            f"retries exhausted or node down")

    def dead_wait_error(self, kind: str, waiter: int,
                        source: int) -> FaultError:
        """The exception a wait against a detected-dead peer fails with
        (``source`` is ``ANY_SOURCE`` when every peer is dead)."""
        if source == ANY_SOURCE:
            return FaultError(
                f"{kind} wait on rank {waiter}: every peer rank is down "
                f"(detected after {self.plan.detect_us:g}us)")
        when = self.plan.node_failures.get(source)
        since = f" since t={when:g}us" if when is not None else ""
        return FaultError(
            f"{kind} wait on rank {waiter}: peer rank {source} is "
            f"down{since} (detected after {self.plan.detect_us:g}us)")
