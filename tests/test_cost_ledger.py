"""The per-op cost ledger: host cost in counts that have no noise.

Wall-clock moves under ~15 % cannot be resolved on the reference box
(ROADMAP item 1), so the cost of the op paths is pinned here in two
exact counts per operation kind, inter-node (uGNI) and intra-node
(shared memory):

* **bytecodes** — ``sys.settrace`` ``opcode`` events in frames whose
  code lives under ``src/repro`` only, so the installed NumPy / stdlib
  cannot move the number;
* **events** — simulator events scheduled (``events_scheduled()``);
* **retained** — ``OpHandle`` and ``Event`` instances still alive once
  every ack has landed, before the closing ``flush_all``: what a
  completed op leaves behind (``gc.get_objects()`` after a fixed settle
  time, in a separate untraced run of the same program).

Each is the difference between a run of N = 200 and a run of N = 100
operations of one fixed 2-rank program (allocate, ``lock_all``, N ops,
``flush_all``), i.e. the marginal cost of 100 operations from issue to
completion with every fixed cost cancelled.  The numbers are compared
**exactly** to ``benchmarks/cost_ledger.json``, keyed by interpreter
``major.minor`` (bytecode is a property of the interpreter): a 5 % win
or loss on an op path is a one-line diff in git history.  After an
intended move, regenerate and say why::

    PYTHONPATH=src python tests/test_cost_ledger.py --write
"""

from __future__ import annotations

import gc
import json
import os
import sys

import numpy as np
import pytest

import repro
from repro.cluster import Cluster, ClusterConfig
from repro.network.fabric import OpHandle
from repro.sim.engine import Event, events_scheduled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(ROOT, "benchmarks", "cost_ledger.json")
REGENERATE = "PYTHONPATH=src python tests/test_cost_ledger.py --write"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PAYLOAD = 64                      # bytes per op: FMA / eager territory
_SETTLE = 1000.0                   # µs after the last op: every ack is in


def _put(ctx, win, n):
    data = np.zeros(_PAYLOAD // 8)
    for _ in range(n):
        yield from win.put(data, 1)


def _put_notify(ctx, win, n):
    data = np.zeros(_PAYLOAD // 8)
    for _ in range(n):
        yield from ctx.na.put_notify(win, data, target=1, tag=1)


def _get(ctx, win, n):
    region = ctx.alloc(_PAYLOAD)
    for _ in range(n):
        yield from win.get(region, 1)


def _fetch_and_op(ctx, win, n):
    for _ in range(n):
        yield from win.fetch_and_op(1, 1)


def _send(ctx, win, n):
    data = np.zeros(_PAYLOAD // 8)
    for _ in range(n):
        yield from ctx.comm.send(data, 1, tag=1)


def _consume_notifications(ctx, win, n):
    req = yield from ctx.na.notify_init(win, source=0, tag=1)
    for _ in range(n):
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)
    yield from ctx.na.request_free(req)


def _recv(ctx, win, n):
    buf = np.zeros(_PAYLOAD // 8)
    for _ in range(n):
        yield from ctx.comm.recv(buf, source=0, tag=1)


#: row -> (rank 0's op loop, rank 1's matching loop or None)
OPS = {
    "put": (_put, None),
    "put_notify": (_put_notify, _consume_notifications),
    "get": (_get, None),
    "fetch_and_op": (_fetch_and_op, None),
    "send_recv": (_send, _recv),
}
PLACEMENTS = {"inter": 1, "intra": 2}      # ranks per node


def _run(op: str, ranks_per_node: int, n: int, settled=None) -> None:
    origin, target = OPS[op]

    def program(ctx):
        win = yield from ctx.win_allocate(_PAYLOAD)
        yield from win.lock_all()
        side = origin if ctx.rank == 0 else target
        if side is not None:
            yield from side(ctx, win, n)
        if settled is not None:
            yield from ctx.compute(_SETTLE)
            settled(ctx)
        yield from win.flush_all()
        yield from win.unlock_all()

    # a Cluster driven directly is always the serial core
    Cluster(ClusterConfig(nranks=2, ranks_per_node=ranks_per_node,
                          sanitize=False)).run(program)


def _traced(fn) -> tuple[int, int]:
    """(bytecodes under src/repro, events scheduled) of ``fn()``."""
    bytecodes = 0

    def local(frame, event, arg):
        nonlocal bytecodes
        if event == "opcode":
            bytecodes += 1
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_SRC):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    events = events_scheduled()
    outer = sys.gettrace()          # a coverage run's tracer, if any
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(outer)
    return bytecodes, events_scheduled() - events


def _count(op: str, ranks_per_node: int, n: int) -> tuple[int, int]:
    """(bytecodes under src/repro, events scheduled) of one run."""
    return _traced(lambda: _run(op, ranks_per_node, n))


def _retained(op: str, ranks_per_node: int, n: int) -> int:
    """``OpHandle`` + ``Event`` instances alive on the settled cluster."""
    alive = []

    def settled(ctx):
        if ctx.rank == 0:
            alive.append(sum(isinstance(obj, (OpHandle, Event))
                             for obj in gc.get_objects()))

    gc.collect()                    # earlier runs' clusters are not counted
    _run(op, ranks_per_node, n, settled)
    return alive[0]


def measure() -> dict[str, dict[str, int]]:
    """``row -> {bytecodes, events, retained}`` per 100 operations."""
    rows: dict[str, dict[str, int]] = {}
    for op in OPS:
        for placement, ranks_per_node in PLACEMENTS.items():
            _run(op, ranks_per_node, 100)           # warm caches/imports
            low = _count(op, ranks_per_node, 100)
            high = _count(op, ranks_per_node, 200)
            rows[f"{op}.{placement}"] = {
                "bytecodes": high[0] - low[0],
                "events": high[1] - low[1],
                "retained": _retained(op, ranks_per_node, 200)
                - _retained(op, ranks_per_node, 100)}
    return rows


def table(rows: dict[str, dict[str, int]]) -> str:
    lines = [f"cost ledger, Python {PYTHON}: marginal cost of 100 ops",
             f"{'row':<22}{'bytecodes':>12}{'events':>9}{'retained':>10}"]
    lines += [f"{name:<22}{row['bytecodes']:>12}{row['events']:>9}"
              f"{row['retained']:>10}" for name, row in rows.items()]
    return "\n".join(lines)


def _load() -> dict[str, dict[str, dict[str, int]]]:
    with open(LEDGER, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.skipif(bool(os.environ.get("REPRO_SANITIZE")),
                    reason="the ledger prices the unsanitized op path; "
                           "REPRO_SANITIZE force-enables the tracker")
def test_per_op_costs_match_the_committed_ledger():
    rows = measure()
    print(table(rows))
    committed = _load().get(PYTHON)
    if committed is None:
        pytest.skip(f"no ledger entry for Python {PYTHON}; add one with "
                    f"`{REGENERATE}`")
    moved = [f"{name}.{metric}: committed "
             f"{committed.get(name, {}).get(metric)}, now {row[metric]}"
             for name, row in rows.items() for metric in row
             if committed.get(name, {}).get(metric) != row[metric]]
    assert not moved and set(committed) == set(rows), (
        "per-op cost moved against benchmarks/cost_ledger.json "
        f"(Python {PYTHON}):\n  " + "\n  ".join(moved) + "\nIf the move "
        f"is intended, regenerate with `{REGENERATE}` and state the "
        "reason in CHANGES.md.")


def _record_to_distinct_targets(n: int, completed: bool) -> int:
    """Bytecodes of recording one op to each of ``n`` targets."""
    cluster = Cluster(ClusterConfig(nranks=2))

    def program(ctx):
        win = yield from ctx.win_allocate(_PAYLOAD)
        return win

    win = cluster.run(program)[0]
    done = cluster.engine.event()
    if completed:
        done.succeed()
        cluster.engine.run()
    handles = [OpHandle("put", 0.0, done, done, nbytes=_PAYLOAD, target=t)
               for t in range(n)]

    def record():
        for target, handle in enumerate(handles):
            win.record_pending(target, handle)

    return _traced(record)[0]


@pytest.mark.parametrize("completed", [True, False],
                         ids=["completed", "in_flight"])
def test_recording_to_distinct_targets_is_linear(completed):
    """A window that forgets completed ops must not walk every target it
    has seen, nor every op still in flight, per op: the cost per op stays
    flat in the target count."""
    assert (_record_to_distinct_targets(2000, completed)
            <= 2.2 * _record_to_distinct_targets(1000, completed))


if __name__ == "__main__":
    measured = measure()
    print(table(measured))
    if sys.argv[1:] == ["--write"]:
        ledger = _load() if os.path.exists(LEDGER) else {}
        ledger[PYTHON] = measured
        with open(LEDGER, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(LEDGER, ROOT)} [{PYTHON}]")
    elif sys.argv[1:]:
        sys.exit(f"usage: {REGENERATE}")
