"""win_create: a window over a caller-owned region."""

import numpy as np
import pytest

from repro.errors import RmaEpochError
from repro.rma.window import WIN_HEADER, win_create
from tests.conftest import run_cluster


# -- win_create --------------------------------------------------------------
def test_win_create_over_existing_region():
    def prog(ctx):
        region = ctx.alloc(WIN_HEADER + 256)
        win = yield from win_create(ctx, region)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.full(4, 3.0), 1, 0)
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.barrier()
        if ctx.rank == 1:
            # Data landed inside the caller-owned region, past the header.
            assert np.allclose(
                region.ndarray(np.float64, offset=WIN_HEADER, count=4),
                3.0)
        return None

    run_cluster(2, prog)


def test_win_create_too_small_rejected():
    def prog(ctx):
        region = ctx.alloc(WIN_HEADER)
        yield from win_create(ctx, region)

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, RmaEpochError)


def test_win_create_supports_notified_access():
    def prog(ctx):
        region = ctx.alloc(WIN_HEADER + 128)
        win = yield from win_create(ctx, region)
        if ctx.rank == 0:
            yield from ctx.na.put_notify(win, np.arange(4.0), 1, 0, tag=2)
        else:
            req = yield from ctx.na.notify_init(win, source=0, tag=2)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            assert np.allclose(win.local(np.float64, count=4),
                               np.arange(4.0))
        return None

    run_cluster(2, prog)

