"""Static deadlock detection over the symbolic wait-for graph.

The concrete rank traces are replayed by :mod:`repro.analysis.replay`.
When the replay reaches a state where no rank can advance, the blocked
ranks' wait-for edges are examined; a cycle is a definite deadlock and
is reported with the full blocking chain.  Rank starvation *without* a
cycle (a wait whose poster already terminated) is left to the budget
checker, so each defect gets exactly one diagnostic.
"""

from __future__ import annotations

from repro.analysis.instantiate import COp, Trace
from repro.analysis.ir import Program
from repro.analysis.replay import COLLECTIVES, Replay, compatible, replay
from repro.analysis.report import Finding
from repro.mpi.constants import ANY_SOURCE, ANY_TAG


def _has_supply(run: Replay, rank: int, op: COp) -> bool:
    """Whether what is still to come — deliveries sitting unconsumed at
    ``rank`` plus everything the stuck ranks have yet to execute — could
    satisfy the ``op`` that ``rank`` is blocked on.

    A wait that no unblocking of its peers can complete is *starvation*
    — that is the budget checker's finding, and counting it into a cycle
    would double-report the same defect as a deadlock.
    """
    if op.kind in COLLECTIVES:
        return True
    to_come = [run.op(pid) for pid in run.states[rank].inbox]
    for state in run.states:
        to_come += state.trace.ops[state.index:]
    return sum(other.target == rank and compatible(other, op)
               for other in to_come) >= op.expected


def _wait_edges(stuck: dict[int, COp], rank: int) -> list[int]:
    """Stuck ranks that could still unblock ``rank``."""
    op = stuck[rank]
    if op.kind in COLLECTIVES:
        return [i for i, other in stuck.items()
                if other.kind not in COLLECTIVES]
    if op.source == ANY_SOURCE:
        return [i for i in stuck if i != rank]
    return [op.source] if op.source in stuck and op.source != rank else []


def _find_cycle(edges: dict[int, list[int]]) -> list[int] | None:
    color: dict[int, int] = {}
    stack: list[int] = []

    def dfs(node: int) -> list[int] | None:
        color[node] = 1
        stack.append(node)
        for peer in edges.get(node, []):
            if color.get(peer, 0) == 1:
                return stack[stack.index(peer):]
            if color.get(peer, 0) == 0:
                cycle = dfs(peer)
                if cycle is not None:
                    return cycle
        color[node] = 2
        stack.pop()
        return None

    for node in edges:
        if color.get(node, 0) == 0:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


def check_deadlock(program: Program, size: int, traces: list[Trace],
                   replayed: Replay | None = None) -> list[Finding]:
    run = replayed or replay(traces)
    if run is None:
        return []
    stuck = {rank: op for rank, op in run.stuck.items()
             if _has_supply(run, rank, op)}
    edges = {rank: _wait_edges(stuck, rank) for rank in stuck}
    cycle = _find_cycle(edges)
    if cycle is None:
        return []                 # pure starvation: budget's domain
    chain = " -> ".join(
        f"rank {rank} blocked at line {stuck[rank].line} "
        f"({_describe(stuck[rank])})" for rank in cycle)
    return [Finding(
        check="deadlock.wait-cycle", path=program.path,
        line=stuck[cycle[0]].line, program=program.qualname,
        message=f"wait-for cycle: {chain} -> rank {cycle[0]}",
        ranks=tuple(sorted(cycle)), size=size)]


def _describe(op: COp) -> str:
    if op.kind in COLLECTIVES:
        return COLLECTIVES[op.kind]
    src = "ANY_SOURCE" if op.source == ANY_SOURCE else str(op.source)
    tag = "ANY_TAG" if op.tag == ANY_TAG else str(op.tag)
    verb = "recv" if op.kind == "recv" else f"{op.mech} wait"
    return f"{verb} source={src} tag={tag}"
