"""Wait-for cycle through a collective: rank 0 waits for a notification
that rank 1 posts only *after* a late collective ``ctx.win_allocate`` —
which cannot return until rank 0 reaches its own.

Expected diagnostic: ``deadlock.wait-cycle`` anchored at the
``ctx.na.wait`` line, ranks (0, 1), nranks=2, the chain naming
``win_allocate`` — and nothing else.
"""

import numpy as np


def program(ctx):
    # analyze: nranks=2
    win = yield from ctx.win_allocate(64)
    if ctx.rank == 0:
        req = yield from ctx.na.notify_init(win, source=1, tag=0)
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)  # posted only after the peer's allocate
        yield from ctx.na.request_free(req)
        win2 = yield from ctx.win_allocate(64)
    else:
        win2 = yield from ctx.win_allocate(64)
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=0)
        yield from win.flush(0)
    yield from win2.free()
    yield from win.free()
