"""The one abstract replay of concrete rank traces (paper §IV matching).

The traces run under a maximal-progress scheduler: posts and sends
complete eagerly (they never block in the simulator), a blocking wait or
receive consumes the first ``expected`` compatible deliveries in arrival
order (the engine's own ``<window, source, tag>`` matching order), and a
collective — ``barrier``, ``win_allocate``, ``win_free`` — releases when
every unfinished rank has reached one.  The result is what every
cross-rank checker needs: the linearization, which posts each wait
consumed, and the state each rank stopped in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.instantiate import COp, Trace
from repro.mpi.constants import wildcard_match

OpId = tuple[int, int]          # (rank, index into trace.ops)

#: ops every unfinished rank must reach before any of them returns,
#: by the name of the runtime call
COLLECTIVES = {"barrier": "barrier", "walloc": "win_allocate",
               "wfree": "win_free"}

#: which delivery kind satisfies which blocking kind
_CONSUMER = {"post": "wait", "send": "recv"}


def compatible(post: COp, wait: COp) -> bool:
    """The wildcard lattice: can ``post`` (a notification or message
    delivered at the waiting rank) satisfy ``wait``?"""
    return (_CONSUMER.get(post.kind) == wait.kind
            and post.mech == wait.mech and post.win == wait.win
            and wildcard_match(wait.source, wait.tag, post.source,
                               post.tag))


@dataclass
class _RankState:
    trace: Trace
    index: int = 0
    #: posts and sends delivered here and not yet consumed, arrival order
    inbox: list[OpId] = field(default_factory=list)

    @property
    def current(self) -> COp | None:
        """The op this rank is at (``None`` once the trace is done)."""
        if self.index >= len(self.trace.ops):
            return None
        return self.trace.ops[self.index]


@dataclass
class Replay:
    """Where a replay ended and how it got there."""

    states: list[_RankState]
    #: the linearization: one op id per step, or the group of op ids
    #: that left a collective together
    schedule: list[OpId | list[OpId]]
    #: wait/recv id -> the delivery ids it consumed, in arrival order
    matching: dict[OpId, list[OpId]]

    def op(self, oid: OpId) -> COp:
        return self.states[oid[0]].trace.ops[oid[1]]

    @property
    def stuck(self) -> dict[int, COp]:
        """Ranks that can never advance again, with the op each is at."""
        return {rank: op for rank, state in enumerate(self.states)
                if (op := state.current) is not None}


def replay(traces: list[Trace]) -> Replay | None:
    """Replay ``traces`` to completion or to the stuck state; ``None``
    when they are outside the replayable fragment (an inexact trace,
    polling consumption, PSCW epochs)."""
    if any(not t.exact or t.has_poll or t.has_pscw for t in traces):
        return None
    states = [_RankState(trace=t) for t in traces]
    run = Replay(states, [], {})
    while True:
        progressed = False
        for rank, state in enumerate(states):
            while (op := state.current) is not None:
                oid = (rank, state.index)
                if op.kind in _CONSUMER:
                    assert op.target is not None
                    states[op.target].inbox.append(oid)
                elif op.kind in ("wait", "recv"):
                    hits = [pid for pid in state.inbox
                            if compatible(run.op(pid), op)]
                    if len(hits) < op.expected:
                        break
                    run.matching[oid] = hits[:op.expected]
                    for pid in run.matching[oid]:
                        state.inbox.remove(pid)
                elif op.kind in COLLECTIVES:
                    break
                run.schedule.append(oid)
                state.index += 1
                progressed = True
        group = [(rank, state.index) for rank, state in enumerate(states)
                 if state.current is not None]
        if group and all(run.op(oid).kind in COLLECTIVES
                         for oid in group):
            run.schedule.append(group)
            for rank, _index in group:
                states[rank].index += 1
            progressed = True
        if not progressed:
            return run
