"""Outside-in span recorder: per-layer self time without touching ``src/``.

:class:`Recorder` replaces, at run time, the public callables of each
simulator layer (:data:`SPEC`) with thin wrappers that open a span on
entry and close it on exit.  Plain functions get an enter/exit wrapper;
generator functions return a proxy generator that opens a span around
every ``send``/``throw`` it forwards — which is all ``yield from`` and
the engine's ``Process`` ever call — so a blocking-style call such as
``yield from na.wait(req)`` is charged only for the host time it actually
runs, never for the virtual time it sleeps.  Rank programs handed to
``Cluster.run`` are proxied the same way (layer ``apps`` or
``apps.services`` by defining module).

A layer's *self time* is its spans' duration minus the part covered by
child spans.  Spans are strictly nested (one host thread), so one stack
suffices.  The recorder keeps one aggregate row per wrapped callable plus
the first :data:`RAW_CAP` raw spans ``(name, parent, start_ns, end_ns)``;
everything stays in memory until :meth:`Recorder.summary`.

The wrappers never schedule, reorder or swallow anything, so a traced run
produces bit-identical simulated results (checked by the benchmark on
every traced repetition and by ``test_perf.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import types
from collections.abc import Callable
from typing import NamedTuple

#: layer names, in reporting order (module names under ``repro``;
#: ``sim.kernel`` is ``Engine.run`` minus everything attributed below it)
LAYERS = (
    "cluster", "sim.kernel", "sim.scheduler", "sim.engine",
    "network.fabric", "network.transports", "network.cq", "memory",
    "core.na", "core.uq", "rma", "mpi", "ft", "apps", "apps.services",
    "sim.shard",
)

#: (layer, module, owner class or None, names or None).  ``None`` names
#: means every public function the owner itself defines.
SPEC = (
    ("cluster", "repro.cluster", "Cluster", ("__init__", "run", "stats")),
    ("cluster", "repro.cluster", None, ("run_ranks",)),
    ("sim.kernel", "repro.sim.engine", "Engine", ("run", "step")),
    ("sim.scheduler", "repro.sim.scheduler", "CalendarScheduler",
     ("push",)),
    ("sim.scheduler", "repro.sim.scheduler", "HeapScheduler", ("push",)),
    ("sim.engine", "repro.sim.engine", "Engine",
     ("timeout", "call_at", "call_at_batch", "process", "all_of",
      "any_of", "event")),
    ("network.fabric", "repro.network.fabric", "Fabric",
     ("put", "get", "amo", "send_sys")),
    ("network.fabric", "repro.network.fabric", "Nic",
     ("poll_notification", "notification_arrival")),
    ("network.transports", "repro.network.transports.ugni", "FmaEngine",
     ("plan",)),
    ("network.transports", "repro.network.transports.ugni", "BteEngine",
     ("plan",)),
    ("network.transports", "repro.network.transports.shm", "ShmTransport",
     ("plan_put", "plan_get", "plan_amo")),
    ("network.cq", "repro.network.cq", "CompletionQueue",
     ("post", "poll", "wait_arrival", "drain")),
    ("memory", "repro.memory.cache", "CacheModel",
     ("touch", "flush_range", "flush_all")),
    ("memory", "repro.memory.address", "AddressSpace",
     ("alloc", "free", "copy_in", "copy_out")),
    ("memory", "repro.memory.address", "Region",
     ("ndarray", "read", "write", "fill", "free")),
    ("core.na", "repro.core.engine", "NotifyEngine", None),
    ("core.uq", "repro.core.matching", "UnexpectedQueue",
     ("append", "find_and_remove", "peek_match")),
    ("rma", "repro.rma.window", "Window", None),
    ("rma", "repro.rma.window", None, ("win_allocate", "win_create")),
    ("mpi", "repro.mpi.endpoint", "MpiEndpoint", None),
    ("mpi", "repro.mpi.comm", "Communicator", None),
    ("mpi", "repro.mpi.collectives", None, None),
    ("ft", "repro.ft.replicate", "ReplicatedWindow", None),
    ("ft", "repro.ft.checkpoint", None,
     ("checkpoint", "restore", "pack", "unpack_windows")),
    ("apps", "repro.apps.stencil", None, ("run_stencil",)),
    ("apps", "repro.apps.pingpong", None, ("run_pingpong",)),
    ("apps", "repro.apps.overlap", None, ("run_overlap",)),
    ("apps", "repro.apps.dht", None, ("run_dht",)),
    ("apps.services", "repro.apps.services.kv", None,
     ("run_kv", "build_kv_workload")),
    ("apps.services", "repro.apps.services.kv_ft", None, ("run_kv_ft",)),
    ("apps.services", "repro.apps.services.pubsub", None,
     ("run_pubsub", "build_pubsub_workload")),
    ("sim.shard", "repro.sim.shard", None, ("run_sharded",)),
)

#: raw spans kept verbatim (the rest only feed the aggregates)
RAW_CAP = 4096

_PLAIN, _GEN = 0, 1

#: the recorder whose wrappers are installed (at most one); the at-fork
#: hook restores the originals in forked shard workers so they run
#: untraced — their spans could never be collected anyway
_active: "Recorder | None" = None
_fork_hook_registered = False


def installed() -> bool:
    """Is any recorder's set of wrappers currently in place?"""
    return _active is not None


def _uninstall_in_child() -> None:
    if _active is not None:
        _active.uninstall()


class Recorder:
    """Span stack, per-callable aggregates and the patch list."""

    def __init__(self, raw_cap: int = RAW_CAP):
        # row 0 is the root: time outside every span is "unattributed"
        self.names = ["<root>"]
        self.layers = [""]
        self.kinds = [_PLAIN]
        self.calls = [0]      # invocations of the wrapped callable
        self.spans = [0]      # spans opened (a generator: one per resume)
        self.incl = [0]       # ns, inclusive
        self.self_ns = [0]    # ns, exclusive of child spans
        self.nchild = [0]     # plain child spans opened directly below
        self.gchild = [0]     # generator-resume child spans, likewise
        self.raw: list[tuple[int, int, int, int]] = []
        self.raw_cap = raw_cap
        self._stack = [0]     # child-time accumulators, root at bottom
        self._kstack = [0]    # callable index of each open span
        self._rows: dict[tuple[str, str, int], int] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: exact simulated counts folded in after every cluster run
        self.counts: dict[str, float] = {}
        self.sharded_runs: list = []
        self._make_wrappers()

    # -- rows -----------------------------------------------------------
    def _row(self, layer: str, name: str, kind: int) -> int:
        """Aggregate row for ``(layer, name)``; re-used when a callable of
        the same name is wrapped again (each ``run_stencil`` call makes a
        fresh rank-program lambda)."""
        key = (layer, name, kind)
        k = self._rows.get(key)
        if k is None:
            k = self._rows[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.kinds.append(kind)
            for col in (self.calls, self.spans, self.incl, self.self_ns,
                        self.nchild, self.gchild):
                col.append(0)
        return k

    # -- the hot path -----------------------------------------------------
    def _make_wrappers(self) -> None:
        """Build the wrapper factories as closures over the aggregate
        lists (cell loads are cheaper than attribute loads, and this code
        runs a few million times per traced repetition)."""
        stack, kstack = self._stack, self._kstack
        calls, spans = self.calls, self.spans
        incl, self_ns = self.incl, self.self_ns
        nchild, gchild = self.nchild, self.gchild
        raw, raw_cap = self.raw, self.raw_cap
        now = time.perf_counter_ns

        def wrap_plain(fn, k):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0)
                kstack.append(k)
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = now()
                    dt = t1 - t0
                    child = stack.pop()
                    kstack.pop()
                    parent = kstack[-1]
                    calls[k] += 1
                    spans[k] += 1
                    incl[k] += dt
                    self_ns[k] += dt - child
                    stack[-1] += dt
                    nchild[parent] += 1
                    if len(raw) < raw_cap:
                        raw.append((k, parent, t0, t1))
            return wrapper

        def proxy(gen, k):
            """Generator stand-in: one span per resume of the real one.
            (The span-closing block is wrap_plain's, repeated: a shared
            helper would cost a call per span on the hottest path here.)

            A real generator (the PEP 380 ``yield from`` expansion with
            a span around each delegation step), so callers that
            ``yield from`` it keep CPython's native delegation path.
            """
            send, throw = gen.send, gen.throw
            value = exc = None
            while True:
                stack.append(0)
                kstack.append(k)
                t0 = now()
                try:
                    item = send(value) if exc is None else throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = now()
                    dt = t1 - t0
                    child = stack.pop()
                    kstack.pop()
                    parent = kstack[-1]
                    spans[k] += 1
                    incl[k] += dt
                    self_ns[k] += dt - child
                    stack[-1] += dt
                    gchild[parent] += 1
                    if len(raw) < raw_cap:
                        raw.append((k, parent, t0, t1))
                exc = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:
                    value, exc = None, thrown

        def wrap_gen(fn, k):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[k] += 1
                gen = fn(*args, **kwargs)
                stand_in = proxy(gen, k)
                stand_in.__name__ = getattr(gen, "__name__", "proxy")
                return stand_in
            return wrapper

        self._wrap_plain = wrap_plain
        self._wrap_gen = wrap_gen

    def wrap(self, fn: Callable, layer: str,
             name: str | None = None) -> Callable:
        """Span-recording stand-in for ``fn`` charged to ``layer``."""
        name = name or getattr(fn, "__qualname__", repr(fn))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, self._row(layer, name, _GEN))
        return self._wrap_plain(fn, self._row(layer, name, _PLAIN))

    # -- install / uninstall ------------------------------------------------
    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every callable named by :data:`SPEC`."""
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("a span recorder is already installed")
        # import everything first: _patch_everywhere must see each module
        # that holds a by-name reference to a wrapped function
        modules = {entry[1]: importlib.import_module(entry[1])
                   for entry in SPEC}
        Cluster = modules["repro.cluster"].Cluster
        plain_stats = Cluster.stats
        for layer, modname, owner_name, names in SPEC:
            module = modules[modname]
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            for attr in names or _public_functions(owner, modname):
                fn = vars(owner)[attr]
                label = f"{modname[len('repro.'):]}." \
                        f"{owner_name + '.' if owner_name else ''}{attr}"
                wrapper = self.wrap(fn, layer, label)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_everywhere(fn, wrapper)
        self._install_cluster_hooks(Cluster, plain_stats,
                                    modules["repro.sim.shard"])
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_uninstall_in_child)
            _fork_hook_registered = True

    def _patch_everywhere(self, fn: object, wrapper: object) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name (``from repro.cluster import run_ranks``)."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _install_cluster_hooks(self, Cluster, plain_stats,
                               shard_mod) -> None:
        """Proxy rank programs and fold each finished run's counters.

        Layered *over* whatever :meth:`install` put on ``Cluster`` and
        ``run_sharded``, so the hook bodies run outside those spans.
        """
        traced_init = Cluster.__init__
        traced_run = Cluster.run
        rec = self

        def __init__(self, config=None, **kw):
            traced_init(self, config, **kw)
            rec._count("cluster.clusters_built", 1)
            rec._count("cluster.ranks_built", self.cfg.nranks)

        def run(self, program, args=(), until=None):
            if callable(program):
                program = rec._proxy_program(program)
            else:
                program = [rec._proxy_program(p) for p in program]
            results = traced_run(self, program, args, until)
            rec._fold_stats(plain_stats(self))
            return results

        self._patch(Cluster, "__init__", __init__)
        self._patch(Cluster, "run", run)

        traced_sharded = shard_mod.run_sharded

        def run_sharded(program, args, config, shards):
            results, run = traced_sharded(program, args, config, shards)
            rec.sharded_runs.append(run)
            rec._count("cluster.clusters_built", run.shards)
            rec._count("cluster.ranks_built", config.nranks)
            rec._fold_stats(run.stats())
            return results, run

        self._patch(shard_mod, "run_sharded", run_sharded)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        global _active
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        if _active is self:
            _active = None

    # -- rank programs ----------------------------------------------------
    def _proxy_program(self, program: Callable) -> Callable:
        """Rank programs are generator functions or, as often, lambdas
        *returning* a generator: either way proxy what the call returns."""
        module = getattr(program, "__module__", "") or ""
        layer = "apps.services" \
            if module.startswith("repro.apps.services") else "apps"
        name = f"{module.removeprefix('repro.')}." \
               f"{getattr(program, '__qualname__', 'program')}"
        return self._wrap_gen(program, self._row(layer, name, _GEN))

    # -- exact counts -----------------------------------------------------
    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _fold_stats(self, stats: dict) -> None:
        self._count("network.fabric.wire_transactions",
                    stats["wire_transactions"])
        self._count("network.fabric.bytes_on_wire", stats["bytes_on_wire"])
        self._count("core.na.notified_ops", stats["notified_ops"])
        self._count("mpi.eager_copies", stats["eager_copies"])
        self._count("mpi.rndv_sends", stats["rndv_sends"])
        self._count("memory.cache_misses",
                    sum(stats["cache_misses"].values()))
        self._count("model.virt_time_us", stats["time_us"])

    # -- reporting --------------------------------------------------------
    def summary(self, wall_ns: int, cost: "SpanCost | None" = None) -> dict:
        """Per-layer and per-callable totals for a traced region that
        took ``wall_ns`` of host time; ``cost`` (from :func:`calibrate`)
        removes the recorder's own time from every self time."""
        cost = cost or SpanCost(0.0, 0.0, 0.0, 0.0)
        inner = (cost.plain_inner_ns, cost.gen_inner_ns)
        outer = (cost.plain_total_ns - cost.plain_inner_ns,
                 cost.gen_total_ns - cost.gen_inner_ns)
        def empty_row():
            return {"self_s": 0.0, "raw_self_s": 0.0, "calls": 0, "spans": 0}
        layers = {name: empty_row() for name in LAYERS}
        callables = []
        overhead_ns = 0.0
        for k in range(1, len(self.names)):
            own = (self.spans[k] * inner[self.kinds[k]]
                   + self.nchild[k] * outer[_PLAIN]
                   + self.gchild[k] * outer[_GEN])
            own = min(own, self.self_ns[k])
            overhead_ns += own
            row = layers.setdefault(self.layers[k], empty_row())
            row["self_s"] += (self.self_ns[k] - own) / 1e9
            row["raw_self_s"] += self.self_ns[k] / 1e9
            row["calls"] += self.calls[k]
            row["spans"] += self.spans[k]
            if self.spans[k]:
                callables.append({
                    "name": self.names[k], "layer": self.layers[k],
                    "calls": self.calls[k], "spans": self.spans[k],
                    "self_s": (self.self_ns[k] - own) / 1e9,
                    "incl_s": self.incl[k] / 1e9})
        callables.sort(key=lambda c: -c["self_s"])
        root_children = (self.nchild[0] * outer[_PLAIN]
                         + self.gchild[0] * outer[_GEN])
        unattributed_ns = max(wall_ns - self._stack[0] - root_children, 0)
        overhead_ns += min(root_children, wall_ns - self._stack[0])
        t_first = min((t0 for _, _, t0, _ in self.raw), default=0)
        return {
            "wall_s": wall_ns / 1e9,
            "layers": layers,
            "callables": callables[:40],
            "unattributed_s": unattributed_ns / 1e9,
            "overhead_s": overhead_ns / 1e9,
            "spans_total": sum(self.spans),
            "raw_spans": [
                {"name": self.names[k], "parent": self.names[p],
                 "start_ns": t0 - t_first, "end_ns": t1 - t_first}
                for k, p, t0, t1 in self.raw],
        }


def _public_functions(owner: object, modname: str) -> list[str]:
    """Public plain functions ``owner`` itself defines (properties,
    static/class methods and re-exports are left alone)."""
    out = []
    for attr, value in vars(owner).items():
        if attr.startswith("_") or not isinstance(value,
                                                  types.FunctionType):
            continue
        if value.__module__ == modname:
            out.append(attr)
    return out


class SpanCost(NamedTuple):
    """Calibrated host cost of one empty span (ns).

    ``*_inner_ns`` is the part that lands inside the span's own measured
    duration, ``*_total_ns`` the whole slowdown of one wrapped call; the
    difference is paid by the parent span.
    """

    plain_inner_ns: float
    plain_total_ns: float
    gen_inner_ns: float
    gen_total_ns: float


def calibrate(n: int = 100_000, rounds: int = 3) -> SpanCost:
    """Time ``n`` empty spans of each kind against the bare calls.

    The generator kind is measured the way the simulator resumes one:
    through a ``yield from`` in an enclosing native generator.
    """
    def nop(a, b, c=None):
        return None

    def forever():
        while True:
            yield None

    def delegating(inner):
        yield from inner()

    def loop_call(fn):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn(1, 2, c=3)
        return time.perf_counter_ns() - t0

    def loop_send(gen):
        send = gen.send
        send(None)
        t0 = time.perf_counter_ns()
        for _ in range(n):
            send(None)
        return time.perf_counter_ns() - t0

    best = [float("inf")] * 4
    for _ in range(rounds):
        rec = Recorder(raw_cap=0)
        traced_nop = rec.wrap(nop, "cal", "nop")
        traced_forever = rec.wrap(forever, "cal", "forever")
        bare = (loop_call(nop), loop_send(delegating(forever)))
        traced = (loop_call(traced_nop),
                  loop_send(delegating(traced_forever)))
        sample = (rec.incl[1] / n, (traced[0] - bare[0]) / n,
                  rec.incl[2] / (n + 1), (traced[1] - bare[1]) / n)
        best = [min(b, s) for b, s in zip(best, sample)]
    plain_inner, plain_total, gen_inner, gen_total = best
    return SpanCost(plain_inner, max(plain_total, plain_inner),
                    gen_inner, max(gen_total, gen_inner))
