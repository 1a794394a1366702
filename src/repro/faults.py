"""Deterministic fault injection for the simulated fabric.

The paper's single-transaction handoff argument (§III) assumes puts and
notifications arrive; this layer lets experiments ask what Notified Access
costs when they do not.  A :class:`FaultPlan` describes *what* can go wrong
— packet drop, duplication, delayed (hence reordered) delivery, transient
NIC stalls, and whole-node failure — and a :class:`FaultInjector` turns the
plan into per-operation :class:`TransferFate` decisions drawn from one
labelled :class:`~repro.sim.rng.RngStream`, so a fixed seed reproduces the
exact same fault schedule bit-for-bit.

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
to every engine (FMA, BTE, and the shm ring), and node failure applies to
both media.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FaultError
from repro.sim.rng import RngStream
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven description of the faults a run should inject.

    All probabilities are per *decision*: ``drop_prob`` per delivery
    attempt, ``dup_prob``/``delay_prob`` per transfer, ``stall_prob`` per
    engine reservation.  ``node_failures`` maps a rank to the virtual time
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
        if self.max_retries < 0:
            raise FaultError(f"max_retries must be >= 0, got "
                             f"{self.max_retries}")
        if self.rto <= 0 or self.backoff < 1.0:
            raise FaultError("rto must be > 0 and backoff >= 1")
        for knob in ("delay_max", "stall_us", "dup_lag", "detect_us"):
            if getattr(self, knob) < 0:
                raise FaultError(f"{knob} must be >= 0")
        for rank, when in self.node_failures.items():
            if when < 0:
                raise FaultError(
                    f"node failure time for rank {rank} is negative")

    @property
    def active(self) -> bool:
        """True if the plan can inject anything at all."""
        return bool(self.drop_prob or self.dup_prob or self.delay_prob
                    or self.stall_prob or self.node_failures)

    @property
    def shardable(self) -> bool:
        """True if the plan's schedule is independent of operation order.

        Probabilistic fault classes draw from one stream in operation
        *issue* order, which differs between the serial core and the
        sharded core's per-worker issue streams — so they are serial-only.
        A plan that injects nothing but node failures makes no draws at
        all (the node-down check is a pure table lookup), so its fault
        schedule is a function of (rank, time) alone and sharded runs
        stay byte-identical with serial ones.
        """
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

    @property
    def extra_delay(self) -> float:
        """Total successful-path delay the fate adds to the transfer."""
        return self.retry_delay + self.jitter


#: fates never touched by the injector (fault-free fast path)
CLEAN_FATE = TransferFate()


class FaultInjector:
    """Draws per-operation fates from a plan; keeps recovery counters.

    One injector serves a whole fabric.  Decisions are drawn in operation
    issue order from a single stream seeded by ``plan.seed`` (or, when that
    is ``None``, derived from the fabric root seed under the ``"faults"``
    label) — the schedule is a pure function of (plan, seed, program).
    """

    def __init__(self, plan: FaultPlan, root_seed: int,
                 tracer: Tracer | None = None):
        self.plan = plan
        seed = plan.seed if plan.seed is not None else root_seed
        self.rng = RngStream(seed, "faults")
        self.tracer = tracer or Tracer(enabled=False)
        self.drops = 0            # dropped delivery attempts
        self.retries = 0          # retransmissions performed
        self.duplicates = 0       # duplicated deliveries injected
        self.dup_suppressed = 0   # duplicates filtered by the dedup path
        self.delays = 0           # delayed (reorderable) deliveries
        self.stalls = 0           # transient NIC stalls
        self.lost_ops = 0         # ops abandoned after retry exhaustion
        self.node_drops = 0       # ops refused because a node is down

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
        in-flight operation against the dead node is failed.
        """
        when = self.plan.node_failures.get(rank)
        return None if when is None else when + self.plan.detect_us

    def detected(self, rank: int, now: float) -> bool:
        """Has ``rank``'s failure been detected by virtual time ``now``?"""
        at = self.detection_time(rank)
        return at is not None and now >= at

    def next_detection(self, now: float) -> float | None:
        """The earliest future failure-detection instant after ``now``.

        Blocking wait primitives race their wakeup event against a timer
        to this instant so a wait on a dying peer fails promptly at
        ``detect_us`` instead of stalling to deadlock detection.
        """
        times = [when + self.plan.detect_us
                 for when in self.plan.node_failures.values()
                 if when + self.plan.detect_us > now]
        return min(times, default=None)

    def transfer_fate(self, origin: int, target: int, nbytes: int,
                      medium: str, now: float) -> TransferFate:
        """Decide the fate of one transfer issued at ``now``.

        Draws happen in a fixed order (attempts, delay, duplication) and
        only for knobs that are enabled, so disabling one fault class does
        not perturb another's schedule.
        """
        plan = self.plan
        if self.rank_down(origin, now) or self.rank_down(target, now):
            self.node_drops += 1
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="node-down", medium=medium)
            return TransferFate(lost=True, fail_after=plan.detect_us)
        if medium == "shm":
            # Intra-node data moves by memcpy: nothing on the wire to
            # drop or duplicate (stalls are charged by the transport).
            return CLEAN_FATE
        fate = TransferFate()
        if plan.drop_prob > 0.0:
            for attempt in range(plan.max_retries + 1):
                if self.rng.random() >= plan.drop_prob:
                    break
                self.drops += 1
                fate.retries += 1
                fate.retry_delay += plan.rto * plan.backoff ** attempt
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="drop", attempt=attempt,
                                 medium=medium)
            else:
                self.lost_ops += 1
                # The max_retries retransmissions were still performed
                # (and charged) before the op was abandoned, so they
                # count toward the retries ledger like successful ones.
                self.retries += plan.max_retries
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="lost", medium=medium)
                return TransferFate(retries=plan.max_retries,
                                    lost=True,
                                    fail_after=plan.detect_us)
            self.retries += fate.retries
            if fate.retries:
                self.tracer.emit(now, "fault", origin, target, nbytes,
                                 fault="retry-ok", retries=fate.retries,
                                 medium=medium)
        if plan.delay_prob > 0.0 and self.rng.random() < plan.delay_prob:
            fate.jitter = self.rng.uniform(0.0, plan.delay_max)
            self.delays += 1
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="delay", extra=fate.jitter,
                             medium=medium)
        if plan.dup_prob > 0.0 and self.rng.random() < plan.dup_prob:
            fate.duplicate = True
            fate.dup_lag = plan.dup_lag
            self.duplicates += 1
            self.tracer.emit(now, "fault", origin, target, nbytes,
                             fault="dup", medium=medium)
        return fate

    def nic_stall(self, engine_kind: str, now: float) -> float:
        """Extra delay from a transient stall of one NIC engine."""
        if self.plan.stall_prob <= 0.0:
            return 0.0
        if self.rng.random() >= self.plan.stall_prob:
            return 0.0
        self.stalls += 1
        self.tracer.emit(now, "fault", -1, -1, 0, fault="stall",
                         engine=engine_kind, extra=self.plan.stall_us)
        return self.plan.stall_us

    def suppressed(self, origin: int, target: int, kind: str,
                   now: float) -> None:
        """Record a duplicate delivery filtered by the dedup path."""
        self.dup_suppressed += 1
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
        """The exception a wait against a detected-dead peer fails with."""
        when = self.plan.node_failures.get(source)
        since = f" since t={when:g}us" if when is not None else ""
        return FaultError(
            f"{kind} wait on rank {waiter}: peer rank {source} is "
            f"down{since} (detected after {self.plan.detect_us:g}us)")

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Recovery counters (surfaced through ``Cluster.stats()``)."""
        return {
            "drops": self.drops,
            "retries": self.retries,
            "duplicates": self.duplicates,
            "dup_suppressed": self.dup_suppressed,
            "delays": self.delays,
            "stalls": self.stalls,
            "lost_ops": self.lost_ops,
            "node_drops": self.node_drops,
        }
