"""Per-rank address spaces and regions.

An :class:`AddressSpace` is a flat byte array (NumPy ``uint8``) with a
first-fit free-list allocator.  Addresses are plain integers (offsets), which
lets the network layer address remote memory exactly like RDMA does: (rank,
address, nbytes).  The bytes live in a private anonymous mapping, so a
space's size is *virtual*: the kernel hands over a zero page when one is
first touched and takes every page back when the space is collected.

A :class:`Region` is a typed view of an allocation — the unit user code works
with.  ``region.ndarray(dtype)`` exposes the bytes as a NumPy array so
simulated applications compute on real data.
"""

from __future__ import annotations

import bisect
import mmap

import numpy as np

from repro.errors import AllocationError, BufferError_

#: Default per-rank address-space size (bytes). Large enough for every
#: experiment in the paper at reproduction scale; growable per cluster config.
DEFAULT_SPACE = 64 * 1024 * 1024


class Region:
    """A typed window into an :class:`AddressSpace` allocation."""

    __slots__ = ("space", "addr", "nbytes", "_freed", "san_ignore")

    def __init__(self, space: "AddressSpace", addr: int, nbytes: int):
        self.space = space
        self.addr = addr
        self.nbytes = nbytes
        self._freed = False
        #: Regions that *are* synchronization primitives (overwriting
        #: notification registers) are polled by design; the sanitizer
        #: skips their CPU-side accesses and tracks per-slot clocks instead.
        self.san_ignore = False

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def _check(self, offset: int, nbytes: int) -> None:
        if self._freed:
            raise BufferError_("use of freed region")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise BufferError_(
                f"access [{offset}, {offset + nbytes}) outside region of "
                f"{self.nbytes} bytes")

    def _record(self, offset: int, nbytes: int, write: bool) -> None:
        san = self.space.san
        if san is not None and not self.san_ignore:
            from repro.sanitizer.shadow import READ, WRITE
            san.cpu_access(self.space.rank, self.addr + offset, nbytes,
                           WRITE if write else READ)

    def ndarray(self, dtype=np.uint8, offset: int = 0,
                count: int | None = None,
                mode: str = "rw") -> np.ndarray:
        """A NumPy view of (part of) the region — writes are visible to RMA.

        ``mode`` is a sanitizer annotation: ``"rw"`` (default) records the
        view as a write, ``"r"`` as a read, ``"raw"`` not at all (for
        deliberately-polled bytes blessed via ``Rank.san_acquire_at``).
        """
        if mode not in ("rw", "r", "raw"):
            raise ValueError(f"mode must be 'rw', 'r', or 'raw', "
                             f"got {mode!r}")
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            count = (self.nbytes - offset) // itemsize
        self._check(offset, count * itemsize)
        if mode != "raw":
            self._record(offset, count * itemsize, write=(mode != "r"))
        start = self.addr + offset
        return self.space.mem[start:start + count * itemsize].view(dtype)

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        self._record(offset, nbytes, write=False)
        start = self.addr + offset
        return self.space.mem[start:start + nbytes].tobytes()

    def write(self, offset: int, data: bytes | np.ndarray) -> None:
        raw = (np.frombuffer(data, dtype=np.uint8)
               if isinstance(data, (bytes, bytearray, memoryview))
               else data.view(np.uint8).ravel())
        self._check(offset, raw.nbytes)
        self._record(offset, raw.nbytes, write=True)
        start = self.addr + offset
        self.space.mem[start:start + raw.nbytes] = raw

    def fill(self, value: int) -> None:
        self._check(0, self.nbytes)
        self._record(0, self.nbytes, write=True)
        self.space.mem[self.addr:self.end] = value

    def free(self) -> None:
        if not self._freed:
            self.space.free(self)
            self._freed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Region rank={self.space.rank} addr={self.addr:#x} "
                f"nbytes={self.nbytes}>")


class AddressSpace:
    """Flat byte memory of one simulated rank, with a first-fit allocator.

    The allocator keeps a sorted list of free ``(addr, size)`` holes and
    coalesces on free.  Allocations are aligned to ``align`` (default 64, a
    cache line) because the paper's request structures are assumed aligned.
    """

    #: Byte written over freed allocations when ``poison_on_free`` is set,
    #: so stale live views read garbage instead of plausible old values.
    POISON = 0xDB

    __slots__ = ("rank", "size", "mem", "_holes", "allocated_bytes",
                 "peak_bytes", "san", "poison_on_free")

    def __init__(self, rank: int, size: int = DEFAULT_SPACE):
        if size <= 0:
            raise AllocationError(
                f"rank {rank}: address-space size must be positive, "
                f"got {size}")
        self.rank = rank
        self.size = size
        # Not ``np.zeros``: whether that is lazily zero-filled depends on
        # glibc's (moving) mmap threshold and NumPy's hugepage policy; a
        # mapping of our own is demand-zeroed always.  Private, so a
        # forked shard worker's writes stay its own.  The array keeps the
        # mapping alive — it is never closed by hand.
        pages = mmap.mmap(-1, size,
                          flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
        self.mem = np.frombuffer(pages, dtype=np.uint8)
        self._holes: list[tuple[int, int]] = [(0, size)]  # sorted by addr
        self.allocated_bytes = 0
        self.peak_bytes = 0
        #: Sanitizer hook; wired by :class:`repro.cluster.Cluster` when
        #: ``ClusterConfig.sanitize`` is on, else None (zero overhead).
        self.san = None
        self.poison_on_free = False

    def alloc(self, nbytes: int, align: int = 64) -> Region:
        """Allocate ``nbytes`` aligned to ``align``; raises AllocationError."""
        if nbytes <= 0:
            raise AllocationError(
                f"allocation size must be positive, got {nbytes}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise AllocationError(
                f"alignment must be a power of two, got {align}")
        for i, (addr, size) in enumerate(self._holes):
            start = (addr + align - 1) & ~(align - 1)
            pad = start - addr
            if size >= pad + nbytes:
                # Carve [start, start+nbytes) out of the hole.
                new_holes = []
                if pad:
                    new_holes.append((addr, pad))
                tail = size - pad - nbytes
                if tail:
                    new_holes.append((start + nbytes, tail))
                self._holes[i:i + 1] = new_holes
                self.allocated_bytes += nbytes
                self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
                return Region(self, start, nbytes)
        raise AllocationError(
            f"rank {self.rank}: cannot allocate {nbytes} bytes "
            f"(allocated {self.allocated_bytes}/{self.size})")

    def free(self, region: Region) -> None:
        """Return a region's bytes to the free list, coalescing neighbours."""
        if region.space is not self:
            raise AllocationError(
                "region belongs to a different address space")
        addr, size = region.addr, region.nbytes
        i = bisect.bisect_left(self._holes, (addr, 0))
        # Guard against double-free / overlap corruption.
        if i < len(self._holes):
            naddr, _ = self._holes[i]
            if naddr < addr + size and naddr >= addr:
                raise AllocationError("double free or overlapping free")
        if i > 0:
            paddr, psize = self._holes[i - 1]
            if paddr + psize > addr:
                raise AllocationError("double free or overlapping free")
        self._holes.insert(i, (addr, size))
        self.allocated_bytes -= size
        if self.poison_on_free:
            self.mem[addr:addr + size] = self.POISON
        if self.san is not None and not region.san_ignore:
            from repro.sanitizer.shadow import WRITE
            self.san.cpu_access(self.rank, addr, size, WRITE)
        # Coalesce with successor then predecessor.
        if i + 1 < len(self._holes):
            naddr, nsize = self._holes[i + 1]
            if addr + size == naddr:
                self._holes[i:i + 2] = [(addr, size + nsize)]
                size += nsize
        if i > 0:
            paddr, psize = self._holes[i - 1]
            if paddr + psize == addr:
                self._holes[i - 1:i + 1] = [(paddr, psize + size)]

    def copy_in(self, addr: int, data: np.ndarray) -> None:
        """Raw write used by the NIC DMA path (bounds-checked)."""
        raw = data.view(np.uint8).ravel()
        if addr < 0 or addr + raw.nbytes > self.size:
            raise BufferError_(
                f"DMA write [{addr}, {addr + raw.nbytes}) outside "
                "address space")
        self.mem[addr:addr + raw.nbytes] = raw

    def copy_out(self, addr: int, nbytes: int) -> np.ndarray:
        """Raw read used by the NIC DMA path (returns a copy)."""
        if addr < 0 or addr + nbytes > self.size:
            raise BufferError_(
                f"DMA read [{addr}, {addr + nbytes}) outside address space")
        return self.mem[addr:addr + nbytes].copy()

    def dma_view(self, addr: int, nbytes: int, dtype) -> np.ndarray:
        """Live ``dtype`` view updated in place by the NIC's accumulate and
        atomic paths (bounds-checked like :meth:`copy_in`)."""
        if addr < 0 or addr + nbytes > self.size:
            raise BufferError_(
                f"DMA update [{addr}, {addr + nbytes}) outside address "
                "space")
        return self.mem[addr:addr + nbytes].view(dtype)

    def free_bytes(self) -> int:
        return sum(size for _, size in self._holes)
