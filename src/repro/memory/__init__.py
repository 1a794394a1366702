"""Memory subsystem: per-rank address spaces, allocation, and a cache model.

Each simulated rank owns an :class:`~repro.memory.address.AddressSpace` — a
NumPy byte array plus a free-list allocator.  RMA windows and message buffers
are :class:`~repro.memory.address.Region` views into it, so every protocol in
the stack moves *real bytes* and data correctness is testable.

The :class:`~repro.memory.cache.CacheModel` is an LRU cache-line simulator
used to account the target-side cost of notification matching (§V of the
paper: two compulsory misses per matched notification).
"""

from repro.memory.address import AddressSpace, Region
from repro.memory.cache import CACHE_LINE, CacheModel, CacheStats

__all__ = [
    "AddressSpace",
    "Region",
    "CacheModel",
    "CacheStats",
    "CACHE_LINE",
]
