"""The per-op cost ledger: host cost in counts that have no noise.

Wall-clock moves under ~15 % cannot be resolved on the reference box
(ROADMAP item 1), so the cost of the op paths is pinned here in two
exact counts per operation kind, inter-node (uGNI) and intra-node
(shared memory):

* **bytecodes** — ``sys.settrace`` ``opcode`` events in frames whose
  code lives under ``src/repro`` only, so the installed NumPy / stdlib
  cannot move the number;
* **per layer** — ``bytecodes`` split by the top-level package of the
  frame that ran them: ``kernel`` (``src/repro/sim``: scheduler, engine,
  processes, conditions), ``network``, ``core``, ``mpi``, ``rma``,
  ``memory``, and ``rest`` (the top-level modules, ``ft``, the
  sanitizer, ...), so a change to one layer shows its own move beside
  the total;
* **events** — simulator events scheduled (``events_scheduled()``);
* **retained** — ``OpHandle`` and ``Event`` instances still alive once
  every ack has landed, before the closing ``flush_all``: what a
  completed op leaves behind (``gc.get_objects()`` after a fixed settle
  time, in a separate untraced run of the same program).

Each is the difference between a run of N = 200 and a run of N = 100
operations of one fixed 2-rank program (allocate, ``lock_all``, N ops,
``flush_all``), i.e. the marginal cost of 100 operations from issue to
completion with every fixed cost cancelled.  A collective row runs the
same program on every rank of a 16-rank cluster, one rank per node: the
``barrier`` row prices dissemination barriers (4 rounds of ``sendrecv``
per rank), the op that fence epochs and the DHT spend their messages
in.  A barrier is 64 messages, so that row is a run of 20 minus a run
of 10, scaled by 10, at a tenth of the tracing: its events and every
layer but ``memory`` equal what 200 - 100 measures, and its bytecodes
are 832 (0.005 %) above it, all in ``memory``.  The numbers are
compared **exactly** to ``benchmarks/cost_ledger.json``, keyed by
interpreter ``major.minor`` (bytecode is a property of the
interpreter): a 5 % win or loss on an op path is a one-line diff in git
history.  Run without arguments, this file prints committed -> measured
for every row and column, with the change in percent; after an
intended move, regenerate and say why::

    PYTHONPATH=src python tests/test_cost_ledger.py --write

``--functions ROW`` (e.g. ``put.intra``) prints that row's bytecodes per
op by function instead: which frames an op-path change made cheaper.
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
#: top-level package under src/repro -> its ledger column; every other
#: frame under src/repro counts as ``rest``
_COLUMN_OF = {"sim": "kernel", "network": "network", "core": "core",
              "mpi": "mpi", "rma": "rma", "memory": "memory"}
LAYERS = (*_COLUMN_OF.values(), "rest")
METRICS = ("bytecodes", *LAYERS, "events", "retained")
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


def _barrier(ctx, win, n):
    for _ in range(n):
        yield from ctx.comm.barrier()


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
#: collective row -> (every rank's loop, ranks, ops in the shorter run),
#: one rank per node; the row is scaled to 100 ops
COLLECTIVES = {"barrier": (_barrier, 16, 10)}


def _run(op: str, ranks_per_node: int, n: int, settled=None) -> None:
    if op in COLLECTIVES:
        origin, nranks, _ = COLLECTIVES[op]
        target = origin
    else:
        (origin, target), nranks = OPS[op], 2

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
    Cluster(ClusterConfig(nranks=nranks, ranks_per_node=ranks_per_node,
                          sanitize=False)).run(program)


def _layer(code) -> str:
    """The ledger column of a frame running ``code``."""
    top = code.co_filename[len(_SRC):].split(os.sep, 1)[0]
    return _COLUMN_OF.get(top, "rest")


def _function(code) -> str:
    """``path:function`` of ``code``, relative to src/repro."""
    return f"{code.co_filename[len(_SRC):]}:{code.co_qualname}"


def _traced(fn, label=_layer) -> tuple[dict[str, int], int]:
    """Bytecodes of ``fn()`` run in frames under src/repro, summed by
    ``label(code)`` of each frame's code object, and the events it
    scheduled."""
    cells: dict[str, list[int]] = {}    # label -> [bytecodes]
    tracers: dict = {}      # code object -> its opcode counter, or None

    def counter(key):
        cell = cells.setdefault(key, [0])

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code, tracer)       # one lookup per entry
        if local is tracer:
            local = tracers[code] = (
                counter(label(code))
                if code.co_filename.startswith(_SRC) else None)
        if local is not None:
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
    return ({key: cell[0] for key, cell in cells.items()},
            events_scheduled() - events)


def _count(op: str, ranks_per_node: int, n: int,
           label=_layer) -> tuple[dict[str, int], int]:
    """(bytecodes by ``label``, events scheduled) of one run."""
    return _traced(lambda: _run(op, ranks_per_node, n), label)


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


def _marginal(op: str, ranks_per_node: int, n: int,
              label=_layer) -> tuple[dict[str, int], int]:
    """(bytecodes by ``label``, events) of a run of ``2 * n`` ops minus a
    run of ``n``, scaled to 100 ops."""
    scale = 100 // n
    _run(op, ranks_per_node, n)                     # warm caches/imports
    low, low_events = _count(op, ranks_per_node, n, label)
    high, high_events = _count(op, ranks_per_node, 2 * n, label)
    return ({key: scale * (high.get(key, 0) - low.get(key, 0))
             for key in high.keys() | low.keys()},
            scale * (high_events - low_events))


def _row(op: str, ranks_per_node: int, n: int = 100) -> dict[str, int]:
    """Every :data:`METRICS` column of one row, per 100 ops."""
    by_layer, events = _marginal(op, ranks_per_node, n)
    scale = 100 // n
    return {"bytecodes": sum(by_layer.values()),
            **{layer: by_layer.get(layer, 0) for layer in LAYERS},
            "events": events,
            "retained": scale * (_retained(op, ranks_per_node, 2 * n)
                                 - _retained(op, ranks_per_node, n))}


def _placement(row: str) -> tuple[str, int, int]:
    """(op, ranks per node, ops in the shorter run) of ``row``."""
    op, placement = row.split(".")
    if op in COLLECTIVES:
        return op, 1, COLLECTIVES[op][2]
    return op, PLACEMENTS[placement], 100


def measure() -> dict[str, dict[str, int]]:
    """``row -> {metric: count}`` per 100 operations."""
    rows = [f"{op}.{placement}" for op in OPS for placement in PLACEMENTS]
    rows += [f"{op}.inter" for op in COLLECTIVES]
    return {row: _row(*_placement(row)) for row in rows}


def functions(row: str, top: int = 30) -> str:
    """``row``'s bytecodes per op by function, the ``top`` costliest."""
    by_function, _ = _marginal(*_placement(row), label=_function)
    ranked = sorted(by_function.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = [f"{row}, Python {PYTHON}: bytecodes per op by function"]
    lines += [f"{count / 100:>10.2f}  {name}"
              for name, count in ranked[:top] if count]
    lines.append(f"{sum(by_function.values()) / 100:>10.2f}  (all)")
    return "\n".join(lines)


def table(rows: dict[str, dict[str, int]]) -> str:
    lines = [f"cost ledger, Python {PYTHON}: marginal cost of 100 ops",
             f"{'row':<20}" + "".join(f"{m:>10}" for m in METRICS)]
    lines += [f"{name:<20}" + "".join(f"{row[m]:>10}" for m in METRICS)
              for name, row in rows.items()]
    return "\n".join(lines)


def moves(committed: dict[str, dict[str, int]],
          rows: dict[str, dict[str, int]]) -> str:
    """Markdown table of committed -> measured for every row and column,
    with the change in percent (the old -> new table an op-path change
    states)."""

    def cell(old, new) -> str:
        if old is None:
            return f"new: {new:,}"
        if old == new:
            return f"{new:,} (=)"
        pct = f" ({(new - old) / old:+.2%})" if old else ""
        return f"{old:,} → {new:,}{pct}"

    lines = [f"cost ledger, Python {PYTHON}: committed → measured, "
             "per 100 ops", "",
             "| row | " + " | ".join(METRICS) + " |",
             "|---" * (len(METRICS) + 1) + "|"]
    lines += [f"| {name} | " + " | ".join(
                  cell(committed.get(name, {}).get(m), row[m])
                  for m in METRICS) + " |"
              for name, row in rows.items()]
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

    return sum(_traced(record)[0].values())


@pytest.mark.parametrize("completed", [True, False],
                         ids=["completed", "in_flight"])
def test_recording_to_distinct_targets_is_linear(completed):
    """A window that forgets completed ops must not walk every target it
    has seen, nor every op still in flight, per op: the cost per op stays
    flat in the target count."""
    assert (_record_to_distinct_targets(2000, completed)
            <= 2.2 * _record_to_distinct_targets(1000, completed))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--functions"] and len(sys.argv) == 3:
        print(functions(sys.argv[2]))
        sys.exit()
    measured = measure()
    committed = None if sys.argv[1:] else _load().get(PYTHON)
    print(table(measured) if committed is None
          else moves(committed, measured))
    if sys.argv[1:] == ["--write"]:
        ledger = _load() if os.path.exists(LEDGER) else {}
        ledger[PYTHON] = measured
        with open(LEDGER, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(LEDGER, ROOT)} [{PYTHON}]")
    elif sys.argv[1:]:
        sys.exit(f"usage: {REGENERATE}, or --functions ROW")
