"""Unit tests for the static protocol verifier.

Programs are given as inline source and analyzed through the public
entry point; nothing here ever executes a rank program.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.analysis import analyze_file, extract
from repro.analysis.extract import extract_file
from repro.analysis.instantiate import instantiate
from repro.analysis.symbols import DTypeVal
from repro.core.engine import NotifyEngine


def _analyze(source: str):
    return analyze_file("<mem>", textwrap.dedent(source))


def _extract(source: str):
    return extract_file("<mem>", textwrap.dedent(source))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_size_discovery_from_run_ranks():
    programs = _extract("""
        from repro.cluster import run_ranks

        def program(ctx):
            yield from ctx.barrier()

        if __name__ == "__main__":
            run_ranks(3, program)
            run_ranks(5, program)
    """)
    assert [p.sizes for p in programs] == [[3, 5]]


def test_size_discovery_folds_module_constants():
    programs = _extract("""
        NPRODUCERS = 6

        def program(ctx):
            yield from ctx.barrier()

        def main():
            run_ranks(NPRODUCERS + 1, program)
    """)
    assert programs[0].sizes == [7]


def test_skip_annotation_silences_program():
    findings = _analyze("""
        def program(ctx):
            # analyze: skip
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 1:
                req = yield from ctx.na.notify_init(win, source=0)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
    """)
    assert findings == []


def test_nested_programs_are_extracted():
    programs = _extract("""
        def make():
            def worker(ctx):
                yield from ctx.barrier()
            return worker
    """)
    assert [p.qualname for p in programs] == ["make.<locals>.worker"]


# ---------------------------------------------------------------------------
# argument positions and keywords are the runtime's own
# ---------------------------------------------------------------------------

def test_positional_target_follows_the_runtime_signature():
    # Window.get(buf_region, target, target_disp, ...)
    (program,) = _extract("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            region = ctx.alloc(64)
            yield from win.get(region, 1, 0)
    """)
    (op,) = [op for op in program.walk_ops() if op.kind == "win_get"]
    assert ast.unparse(op.args["target"]) == "1"


def test_fompi_keywords_resolve_window_size_and_payload_bytes():
    (program,) = _extract("""
        import numpy as np
        from repro import fompi

        def program(ctx):
            # analyze: nranks=2
            win = yield from fompi.Win_allocate(ctx, size_bytes=64)
            if ctx.rank == 0:
                yield from fompi.Put_notify(
                    ctx, np.zeros(2), 2, np.float64, target_rank=1,
                    target_disp=0, target_count=2,
                    target_dtype=np.float64, win=win, tag=0)
                yield from fompi.Win_flush(ctx, target_rank=1, win=win)
            else:
                req = yield from fompi.Notify_init(
                    ctx, win, source_rank=0, tag=0, expected_count=1)
                yield from fompi.Start(ctx, request=req)
                yield from fompi.Wait(ctx, request=req)
            yield from fompi.Win_free(ctx, win)
    """)
    traces = instantiate(program, 2)
    assert all(t.exact and t.race_exact for t in traces), \
        [(t.reason, t.race_reason) for t in traces]
    assert traces[0].win_meta[0] == (64, 1)
    (post,) = [op for op in traces[0].ops if op.kind == "post"]
    assert (post.target, post.nbytes) == (1, 16)
    (wait,) = [op for op in traces[1].ops if op.kind == "wait"]
    assert (wait.source, wait.tag, wait.expected) == (0, 0, 1)


def test_role_bound_to_a_missing_parameter_raises_when_tables_build():
    # the tables are built by exactly this call at import
    with pytest.raises(TypeError, match=r"NotifyEngine\.put_notify\(\) "
                                        r"has no parameter 'window'"):
        extract._bind(NotifyEngine, {
            "put_notify": ("put_notify", {"win": "window"})})


def test_role_defaults_are_the_runtime_signatures():
    # omitted arguments take the declared default of the parameter the
    # role is bound to — read at import, never re-typed in the analyzer
    (program,) = _extract("""
        def program(ctx):
            win = yield from ctx.win_allocate(64)
            req = yield from ctx.na.notify_init(win)
            yield from ctx.na.put_notify(win, data, 1)
            view = win.local()
    """)
    ops = {op.kind: op for op in program.walk_ops()}
    declared = inspect.signature(NotifyEngine.notify_init).parameters
    assert {role: ast.literal_eval(ops["notify_init"].args[role])
            for role in ("source", "tag", "expected")} == {
        "source": declared["source"].default,
        "tag": declared["tag"].default,
        "expected": declared["expected_count"].default}
    assert ast.unparse(ops["put_notify"].args["tag"]) == "0"
    assert ops["win_allocate"].args["disp_unit"].value == 1
    # a numpy scalar type is the one non-literal default the evaluator
    # has a value for
    assert ops["win_view"].args["dtype"].value == DTypeVal(1)

    class Owner:
        def call(self, peers=()):
            raise NotImplementedError

    with pytest.raises(TypeError, match=r"Owner\.call\(\): default of "
                                        r"'peers' is not a constant"):
        extract._bind(Owner, {"call": ("send", {"target": "peers"})})


# ---------------------------------------------------------------------------
# symbolic rank arithmetic
# ---------------------------------------------------------------------------

RING = """
    def program(ctx):
        # analyze: nranks=4
        win = yield from ctx.win_allocate(64)
        left = (ctx.rank - 1) % ctx.size
        right = (ctx.rank + 1) % ctx.size
        req = yield from ctx.na.notify_init(win, source=left, tag=5)
        yield from ctx.na.put_notify(win, None, right, 0, tag=5)
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)
"""


def test_ring_with_modular_arithmetic_is_clean():
    assert _analyze(RING) == []


def test_ring_tag_mismatch_starves_every_rank():
    findings = _analyze(RING.replace("tag=5)", "tag=6)", 1))
    assert {f.check for f in findings} == {"budget.starved-wait",
                                           "budget.dropped-notification"}
    starved = [f for f in findings if f.check == "budget.starved-wait"]
    assert len(starved) == 4                    # one per rank


def test_wait_before_post_ring_deadlocks():
    source = RING.replace(
        "        yield from ctx.na.put_notify(win, None, right, 0, "
        "tag=5)\n        yield from ctx.na.start(req)\n",
        "        yield from ctx.na.start(req)\n")
    source += ("        yield from ctx.na.put_notify"
               "(win, None, right, 0, tag=5)\n")
    findings = _analyze(source)
    assert [f.check for f in findings] == ["deadlock.wait-cycle"]
    assert findings[0].ranks == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# wildcard lattice
# ---------------------------------------------------------------------------

def test_wildcard_wait_consumes_any_source_any_tag():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=3
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(win)
                for _ in range(2):
                    yield from ctx.na.start(req)
                    yield from ctx.na.wait(req)
            else:
                yield from ctx.na.put_notify(win, None, 0, 0,
                                             tag=ctx.rank)
    """)
    assert findings == []


def test_dropped_notification_is_reported():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(win, source=1,
                                                    tag=0)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
            else:
                yield from ctx.na.put_notify(win, None, 0, 0, tag=0)
                yield from ctx.na.put_notify(win, None, 0, 0, tag=0)
    """)
    assert [f.check for f in findings] == ["budget.dropped-notification"]
    assert findings[0].ranks == (0, 1)


def test_source_specific_supply_not_stolen_by_wildcard():
    # the wildcard wait must route around the source-specific demand
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=3
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                specific = yield from ctx.na.notify_init(win, source=1,
                                                         tag=0)
                anyone = yield from ctx.na.notify_init(win)
                yield from ctx.na.start(anyone)
                yield from ctx.na.wait(anyone)
                yield from ctx.na.start(specific)
                yield from ctx.na.wait(specific)
            else:
                yield from ctx.na.put_notify(win, None, 0, 0, tag=0)
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# conservatism: unknowns silence the cross-rank checks
# ---------------------------------------------------------------------------

def test_unknown_call_disables_budget():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            yield from helper(ctx, win)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(win, source=1)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
    """)
    assert findings == []


def test_polling_disables_budget_and_deadlock():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(win, source=1)
                yield from ctx.na.start(req)
                done = yield from ctx.na.test(req)
                yield from ctx.na.wait(req)
    """)
    assert findings == []


def test_splatted_operands_are_unknown_not_dropped():
    # `zip(*pairs)` used to evaluate as `zip()` — an empty loop and an
    # "exact" trace with its posts missing; an unhashable dict key used
    # to crash the evaluator.  Both are simply unresolved.
    (program,) = _extract("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            pairs = [(0, 1), (1, 0)]
            table = {[0]: 1}
            for src, dst in zip(*pairs):
                yield from ctx.na.put_notify(win, data, dst)
    """)
    for trace in instantiate(program, 2):
        assert not trace.exact and "loop bounds" in trace.reason


def test_unsized_program_gets_epoch_lint_only():
    findings = _analyze("""
        def program(ctx):
            win = yield from ctx.win_allocate(64)
            req = yield from ctx.na.notify_init(win, source=0)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            yield 42
    """)
    assert [f.check for f in findings] == ["epoch.non-event-yield"]


def test_a_float_literal_yield_is_a_charge_not_a_finding():
    findings = _analyze("""
        def program(ctx):
            yield 0.5
            yield 2 * 0.25
            yield 2 + 3
    """)
    assert [(f.check, f.line) for f in findings] == [
        ("epoch.non-event-yield", 5)]


# ---------------------------------------------------------------------------
# epoch lint
# ---------------------------------------------------------------------------

def test_plain_put_outside_epoch():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            yield from win.put(None, 1 - ctx.rank)
            yield from win.flush(1 - ctx.rank)
    """)
    assert [f.check for f in findings] == ["epoch.no-epoch"]


def test_put_inside_lock_epoch_is_clean():
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            yield from win.lock(1 - ctx.rank)
            yield from win.put(None, 1 - ctx.rank)
            yield from win.unlock(1 - ctx.rank)
    """)
    assert findings == []


def test_branchy_epoch_state_degrades_to_maybe():
    # the epoch is open on only one path: no definite bug, no finding
    findings = _analyze("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                yield from win.lock_all()
            yield from win.put(None, 1 - ctx.rank)
            if ctx.rank == 0:
                yield from win.unlock_all()
    """)
    assert [f.check for f in findings] == []


def test_raw_view_blessed_by_san_acquire_is_clean():
    findings = _analyze("""
        import numpy as np

        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            flags = win.local(np.int64, mode="raw")
            ctx.san_acquire(win)
            yield from ctx.barrier()
    """)
    assert findings == []


def test_flush_clears_missing_flush_dirty_state():
    findings = _analyze("""
        import numpy as np

        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            buf = ctx.alloc(64)
            yield from ctx.na.get_notify(win, buf, 1 - ctx.rank, 0,
                                         nbytes=64, tag=0)
            yield from win.flush(1 - ctx.rank)
            total = float(buf.ndarray(np.float64).sum())
            req = yield from ctx.na.notify_init(win, tag=0)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# instantiation details
# ---------------------------------------------------------------------------

def test_window_identity_is_positional():
    programs = _extract("""
        def program(ctx):
            # analyze: nranks=2
            first = yield from ctx.win_allocate(64)
            second = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                req = yield from ctx.na.notify_init(second, source=1)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
            else:
                yield from ctx.na.put_notify(second, None, 0, 0)
    """)
    traces = instantiate(programs[0], 2)
    assert all(t.exact for t in traces)
    wait = next(op for op in traces[0].ops if op.kind == "wait")
    post = next(op for op in traces[1].ops if op.kind == "post")
    assert wait.win == post.win
    assert wait.win.index == 1


def test_out_of_range_peer_makes_trace_inexact():
    programs = _extract("""
        def program(ctx):
            # analyze: nranks=2
            win = yield from ctx.win_allocate(64)
            yield from ctx.na.put_notify(win, None, ctx.rank + 1, 0)
    """)
    traces = instantiate(programs[0], 2)
    assert not traces[1].exact          # rank 1 targets rank 2
