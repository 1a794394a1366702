"""Overwriting (GASPI-style) notifications and their §VII hazards."""

import numpy as np
import pytest

from repro.bench.figures import sec7_mechanisms
from repro.errors import MatchingError
from tests.conftest import run_cluster


def test_write_notify_roundtrip():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            space = yield from ctx.gaspi.notification_init(win, num=8)
            yield from ctx.barrier()
            slot, value = yield from ctx.gaspi.waitsome(space)
            assert (slot, value) == (3, 42)
            assert np.allclose(win.local(np.float64, count=4),
                               np.arange(4.0))
            return "got"
        yield from ctx.barrier()
        yield from ctx.gaspi.write_notify(win, np.arange(4.0), 1, 0,
                                          slot=3, value=42)
        return "sent"

    results, _ = run_cluster(2, prog)
    assert results == ["sent", "got"]


def test_register_resets_after_consumption():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 1:
            space = yield from ctx.gaspi.notification_init(win, num=2)
            yield from ctx.barrier()
            for expect in (7, 8):
                slot, value = yield from ctx.gaspi.waitsome(space)
                assert (slot, value) == (0, expect)
                yield from ctx.barrier()
            return None
        yield from ctx.barrier()
        yield from ctx.gaspi.write_notify(win, np.zeros(1), 1, 0, slot=0,
                                          value=7)
        yield from win.flush(1)
        yield from ctx.barrier()
        yield from ctx.gaspi.write_notify(win, np.zeros(1), 1, 0, slot=0,
                                          value=8)
        yield from ctx.barrier()
        return None

    run_cluster(2, prog)


def test_lost_update_hazard():
    """Two producers racing into one register: exactly one value survives —
    the hazard the paper's queueing design removes (§VII)."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            space = yield from ctx.gaspi.notification_init(win, num=1)
            yield from ctx.barrier()
            yield ctx.timeout(50.0)          # let both writes land
            slot, value = yield from ctx.gaspi.waitsome(space)
            return (value, space.overwrites)
        yield from ctx.barrier()
        # Distinct data offsets: the racing resource is the *register*,
        # not the payload bytes (which would be a real data race).
        yield from ctx.gaspi.write_notify(win, np.zeros(1), 0,
                                          (ctx.rank - 1) * 8, slot=0,
                                          value=ctx.rank * 100)
        return None

    results, _ = run_cluster(3, prog)
    value, overwrites = results[0]
    assert value in (100, 200)
    assert overwrites == 1               # one notification was lost


def test_scan_cost_grows_with_register_count():
    """waitsome over a large register space costs more CPU than over a
    small one — the storage/scan overhead of overwriting interfaces."""
    def timing(num_regs):
        def prog(ctx):
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 0:
                space = yield from ctx.gaspi.notification_init(
                    win, num=num_regs)
                yield from ctx.barrier()
                yield ctx.timeout(20.0)
                t0 = ctx.now
                # The fired register is the LAST one: full scan.
                yield from ctx.gaspi.waitsome(space)
                return ctx.now - t0
            yield from ctx.barrier()
            yield from ctx.gaspi.write_notify(win, np.zeros(1), 0, 0,
                                              slot=num_regs - 1, value=1)
            return None

        results, _ = run_cluster(2, prog)
        return results[0]

    assert timing(256) > timing(4) + 1.0


def test_validation_errors():
    def no_space(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.gaspi.write_notify(win, np.zeros(1), 1 - ctx.rank,
                                          0, slot=0)

    with pytest.raises(Exception) as ei:
        run_cluster(2, no_space)
    assert isinstance(ei.value.__cause__, MatchingError)

    def zero_value(ctx):
        win = yield from ctx.win_allocate(64)
        space = yield from ctx.gaspi.notification_init(win, num=2)
        yield from ctx.barrier()
        yield from ctx.gaspi.write_notify(win, np.zeros(1),
                                          (ctx.rank + 1) % 2, 0,
                                          slot=0, value=0)

    with pytest.raises(Exception):
        run_cluster(2, zero_value)

    def bad_slot(ctx):
        win = yield from ctx.win_allocate(64)
        space = yield from ctx.gaspi.notification_init(win, num=2)
        yield from ctx.barrier()
        yield from ctx.gaspi.write_notify(win, np.zeros(1),
                                          (ctx.rank + 1) % 2, 0, slot=5)

    with pytest.raises(Exception):
        run_cluster(2, bad_slot)


def test_ordering_across_registers_is_lost():
    """Unlike the NA queue, register scans do not preserve arrival order:
    waitsome returns the lowest fired register, not the oldest."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            space = yield from ctx.gaspi.notification_init(win, num=4)
            yield from ctx.barrier()
            yield ctx.timeout(50.0)      # both notifications landed
            first, _ = yield from ctx.gaspi.waitsome(space)
            second, _ = yield from ctx.gaspi.waitsome(space)
            # Register 1 fired LAST in time but is returned FIRST.
            return (first, second)
        yield from ctx.barrier()
        if ctx.rank == 1:
            yield from ctx.gaspi.write_notify(win, np.zeros(1), 0, 0,
                                              slot=3, value=1)
            yield from win.flush(0)
            yield from ctx.gaspi.write_notify(win, np.zeros(1), 0, 0,
                                              slot=1, value=1)
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] == (1, 3)          # scan order, not arrival order


def test_sec7_queueing_near_counting_overwriting_pays_its_scan():
    """§VII: queueing stays within a small factor of the bare counter
    while carrying value and order; overwriting pays a register scan per
    notification, so it costs more than counting."""
    queueing, overwriting, counting = sec7_mechanisms().column(
        "us_per_notification")
    assert queueing < 3 * counting + 0.2
    assert overwriting > counting
