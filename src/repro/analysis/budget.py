"""Notification-budget balance under the wildcard matching lattice.

Posts and waits are matched as a bipartite flow problem: each posted
notification is one unit of supply at its target rank; each blocking
wait demands ``expected_count`` units compatible with its request's
``<window, source, tag>`` pattern (``ANY_SOURCE``/``ANY_TAG`` widen the
pattern).  Maximum matching then distinguishes three defects:

* ``budget.starved-wait`` — a wait with *no* compatible supply at all;
* ``budget.threshold-overcount`` — compatible supply exists but the
  program cannot cover the demanded threshold;
* ``budget.dropped-notification`` — posted notifications that no wait
  can ever consume (silently discarded at window free).

The check runs only on programs whose every rank trace is exact and
free of polling/waitany consumption; the GASPI overwriting mechanism is
exempt because losing superseded notification values is its documented
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.instantiate import COp, Trace
from repro.analysis.ir import Program
from repro.analysis.replay import compatible
from repro.analysis.report import Finding
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

#: mechanisms with counting (non-overwriting) notification semantics
_COUNTED_MECHS = ("na", "counter")


@dataclass
class _Supply:
    op: COp              # the post; ``op.target`` holds the notification
    taken_by: int = -1   # demand index, -1 = free


@dataclass
class _Demand:
    rank: int
    op: COp              # the wait
    matched: int = 0


def _feeds(supply: _Supply, demand: _Demand) -> bool:
    return supply.op.target == demand.rank and \
        compatible(supply.op, demand.op)


def _max_flow(supplies: list[_Supply], demands: list[_Demand]) -> None:
    """Kuhn-style augmenting matching; unit supplies, capacitated
    demands."""
    adjacency: list[list[int]] = [
        [d for d, demand in enumerate(demands)
         if _feeds(supply, demand)]
        for supply in supplies
    ]

    def try_assign(s: int, visited: set[int]) -> bool:
        for d in adjacency[s]:
            if d in visited:
                continue
            visited.add(d)
            demand = demands[d]
            if demand.matched < demand.op.expected:
                _take(s, d)
                return True
            # try to re-route one of this demand's suppliers elsewhere
            for other, supply in enumerate(supplies):
                if supply.taken_by == d and \
                        try_assign_excluding(other, d, visited):
                    _take(s, d)
                    return True
        return False

    def try_assign_excluding(s: int, exclude: int,
                             visited: set[int]) -> bool:
        supplies[s].taken_by = -1
        demands[exclude].matched -= 1
        if try_assign(s, visited):
            return True
        supplies[s].taken_by = exclude
        demands[exclude].matched += 1
        return False

    def _take(s: int, d: int) -> None:
        supplies[s].taken_by = d
        demands[d].matched += 1

    for index in range(len(supplies)):
        try_assign(index, set())


def check_budget(program: Program, size: int,
                 traces: list[Trace]) -> list[Finding]:
    if any(not t.exact for t in traces) or \
            any(t.has_poll for t in traces):
        return []

    supplies: list[_Supply] = []
    demands: list[_Demand] = []
    for trace in traces:
        for op in trace.ops:
            if op.mech not in _COUNTED_MECHS:
                continue
            if op.kind == "post":
                supplies.append(_Supply(op))
            elif op.kind == "wait":
                demands.append(_Demand(trace.rank, op))

    if not supplies and not demands:
        return []
    _max_flow(supplies, demands)

    findings: list[Finding] = []
    for demand in demands:
        wait = demand.op
        if demand.matched >= wait.expected:
            continue
        pattern = _pattern(wait.source, wait.tag)
        if not any(_feeds(s, demand) for s in supplies):
            ranks = (demand.rank,) if wait.source == ANY_SOURCE \
                else tuple(sorted({demand.rank, wait.source}))
            findings.append(Finding(
                check="budget.starved-wait", path=program.path,
                line=wait.line, program=program.qualname,
                message=(f"rank {demand.rank} waits for "
                         f"{wait.expected} notification(s) matching "
                         f"{pattern} but no rank ever posts one"),
                ranks=ranks, size=size))
        else:
            findings.append(Finding(
                check="budget.threshold-overcount", path=program.path,
                line=wait.line, program=program.qualname,
                message=(f"rank {demand.rank} waits for "
                         f"{wait.expected} notification(s) matching "
                         f"{pattern} but only {demand.matched} can "
                         f"ever arrive"),
                ranks=(demand.rank,), size=size))

    # leftover supply that no wait can consume
    leftovers: dict[tuple[int | None, int, object, int, int], int] = {}
    for supply in supplies:
        if supply.taken_by == -1:
            post = supply.op
            key = (post.target, post.source, post.win, post.tag,
                   post.line)
            leftovers[key] = leftovers.get(key, 0) + 1
    for (rank, post_rank, _win, tag, line), count in leftovers.items():
        assert rank is not None
        findings.append(Finding(
            check="budget.dropped-notification", path=program.path,
            line=line, program=program.qualname,
            message=(f"{count} notification(s) posted by rank "
                     f"{post_rank} to rank {rank} with tag {tag} are "
                     f"never consumed by any wait"),
            ranks=tuple(sorted({post_rank, rank})), size=size))
    return findings


def _pattern(source: int, tag: int) -> str:
    src = "ANY_SOURCE" if source == ANY_SOURCE else f"source={source}"
    tg = "ANY_TAG" if tag == ANY_TAG else f"tag={tag}"
    return f"<{src}, {tg}>"
