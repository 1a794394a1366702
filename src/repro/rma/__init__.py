"""MPI-3 One Sided: windows, data movement, and synchronization.

This is the foMPI-equivalent substrate the paper extends.  It provides every
synchronization mode the paper benchmarks against:

* **fence** — bulk active-target (a barrier plus remote completion),
* **PSCW** — general active target (post/start/complete/wait),
* **passive target** — lock/lock_all with ``flush``,

plus put/get/accumulate/fetch&op/compare&swap, all with epoch checking (an
access outside a legal epoch raises :class:`~repro.errors.RmaEpochError`).
"""

from repro.rma.window import Window, WindowRegistry, win_allocate, win_create

__all__ = [
    "Window",
    "WindowRegistry",
    "win_allocate",
    "win_create",
]
