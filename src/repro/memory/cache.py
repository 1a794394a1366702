"""An LRU cache-line model for accounting matching-path memory traffic.

Section V of the paper argues the Notified Access matching path costs at most
**two compulsory cache misses** when fewer than four notifications are active:
one for the 32-byte request structure, one for the unexpected-queue head
(arranged to share a line with its first elements).  Rather than assert this,
we *measure* it: the matching engine funnels every structure access through a
:class:`CacheModel` and the ``sec5`` experiment (``python -m repro.bench
sec5``) reports observed misses.

The model is a set-associative LRU cache with 64-byte lines, sized like a
per-core L1 (32 KiB, 8-way) by default.  It models presence only — hit/miss
accounting, not latency — because the paper's claim is a miss *count*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cache line size in bytes (x86-typical; also the notification entry size
#: in the shared-memory ring buffer, §IV-C).
CACHE_LINE = 64


@dataclass(slots=True)
class CacheStats:
    """Counters accumulated by :class:`CacheModel`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    by_label: dict[str, int] = field(default_factory=dict)

    def miss_for(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions,
                          dict(self.by_label))

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        by = {k: v - earlier.by_label.get(k, 0)
              for k, v in self.by_label.items()}
        by = {k: v for k, v in by.items() if v}
        return CacheStats(self.hits - earlier.hits,
                          self.misses - earlier.misses,
                          self.evictions - earlier.evictions, by)


class CacheModel:
    """Set-associative LRU cache over (space-id, line-address) keys."""

    __slots__ = ("line", "ways", "nsets", "_sets", "stats")

    def __init__(self, size_bytes: int = 32 * 1024, ways: int = 8,
                 line: int = CACHE_LINE):
        if size_bytes <= 0 or ways <= 0 or line <= 0:
            raise ValueError(
                f"cache size, ways and line must be positive, got "
                f"size_bytes={size_bytes}, ways={ways}, line={line}")
        if size_bytes % (ways * line):
            raise ValueError("cache size must be a multiple of ways*line")
        self.line = line
        self.ways = ways
        self.nsets = size_bytes // (ways * line)
        # Per set, the resident lines in LRU order (oldest first); a set
        # gets its list when first touched.  A line of space 0 — all the
        # matching path ever touches — is keyed by its bare number.
        self._sets: list[list | None] = [None] * self.nsets
        self.stats = CacheStats()

    def _lines(self, addr: int, nbytes: int):
        first = addr // self.line
        last = (addr + max(nbytes, 1) - 1) // self.line
        return range(first, last + 1)

    def touch(self, addr: int, nbytes: int, space: int = 0,
              label: str = "") -> int:
        """Access ``[addr, addr+nbytes)``; returns the line-miss count."""
        line = self.line
        first = addr // line
        last = (addr + nbytes - 1) // line if nbytes > 1 else first
        sets = self._sets
        nsets = self.nsets
        stats = self.stats
        if first == last:
            # One line — a request, a UQ slot, a counter: nearly every
            # call.  The loop below, for one line, without the loop.
            key = (space, first) if space else first
            st = sets[first % nsets]
            if st is None:
                sets[first % nsets] = [key]
            elif key in st:
                if st[-1] != key:
                    st.remove(key)
                    st.append(key)
                stats.hits += 1
                return 0
            else:
                st.append(key)
                if len(st) > self.ways:
                    del st[0]
                    stats.evictions += 1
            stats.misses += 1
            if label:
                stats.by_label[label] = stats.by_label.get(label, 0) + 1
            return 1
        ways = self.ways
        hits = misses = evictions = 0
        for lineno in range(first, last + 1):
            key = (space, lineno) if space else lineno
            st = sets[lineno % nsets]
            if st is None:
                sets[lineno % nsets] = [key]
                misses += 1
            elif key in st:
                if st[-1] != key:
                    st.remove(key)
                    st.append(key)
                hits += 1
            else:
                st.append(key)
                misses += 1
                if len(st) > ways:
                    del st[0]
                    evictions += 1
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        if label and misses:
            stats.by_label[label] = stats.by_label.get(label, 0) + misses
        return misses

    def touch_each(self, addrs, nbytes: int, label: str = "") -> int:
        """:meth:`touch` ``[addr, addr+nbytes)`` of space 0 for each of
        ``addrs`` in order, in one call: the same per-line LRU order,
        hits, misses, evictions and ``by_label``.  Returns the line-miss
        count."""
        line = self.line
        span = nbytes - 1 if nbytes > 1 else 0
        sets = self._sets
        nsets = self.nsets
        ways = self.ways
        hits = misses = evictions = 0
        for addr in addrs:
            for key in range(addr // line, (addr + span) // line + 1):
                st = sets[key % nsets]
                if st is None:
                    sets[key % nsets] = [key]
                    misses += 1
                elif key in st:
                    if st[-1] != key:
                        st.remove(key)
                        st.append(key)
                    hits += 1
                else:
                    st.append(key)
                    misses += 1
                    if len(st) > ways:
                        del st[0]
                        evictions += 1
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        if label and misses:
            stats.by_label[label] = stats.by_label.get(label, 0) + misses
        return misses

    def flush_range(self, addr: int, nbytes: int, space: int = 0) -> None:
        """Invalidate lines (models DMA writing to memory, not cache)."""
        for lineno in self._lines(addr, nbytes):
            st = self._sets[lineno % self.nsets]
            key = (space, lineno) if space else lineno
            if st is not None and key in st:
                st.remove(key)

    def flush_all(self) -> None:
        self._sets = [None] * self.nsets

    def resident(self, addr: int, space: int = 0) -> bool:
        lineno = addr // self.line
        st = self._sets[lineno % self.nsets]
        key = (space, lineno) if space else lineno
        return st is not None and key in st
