"""Address spaces, the allocator, and regions — including property tests."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, BufferError_
from repro.memory.address import AddressSpace, Region


def test_fresh_space_is_zero_and_size_is_checked():
    space = AddressSpace(3, 1 << 16)
    assert space.mem.shape == (1 << 16,) and not space.mem.any()
    for size in (0, -4096):
        with pytest.raises(AllocationError, match=f"rank 3.*got {size}"):
            AddressSpace(3, size)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_writes_stay_its_own():
    """The mapping behind a space is private: a forked shard worker sees
    the bytes written before the fork and keeps its own writes."""
    space = AddressSpace(0, 1 << 16)
    written, untouched = space.alloc(64), space.alloc(8192)
    written.fill(1)
    pid = os.fork()
    if pid == 0:
        inherited = bool((written.ndarray(mode="r") == 1).all())
        written.fill(7)
        untouched.fill(7)
        os._exit(0 if inherited and space.mem[written.addr] == 7 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert (written.ndarray(mode="r") == 1).all()
    assert not untouched.ndarray(mode="r").any()


def test_alloc_returns_aligned_region():
    space = AddressSpace(0, 4096)
    r = space.alloc(100, align=64)
    assert r.addr % 64 == 0
    assert r.nbytes == 100


def test_alloc_zero_rejected():
    space = AddressSpace(0, 4096)
    with pytest.raises(AllocationError):
        space.alloc(0)


def test_alloc_bad_alignment_rejected():
    space = AddressSpace(0, 4096)
    with pytest.raises(AllocationError):
        space.alloc(16, align=3)


def test_exhaustion_raises():
    space = AddressSpace(0, 1024)
    space.alloc(512)
    with pytest.raises(AllocationError):
        space.alloc(1024)


def test_free_allows_reuse():
    space = AddressSpace(0, 1024)
    r = space.alloc(1024, align=1)
    r.free()
    r2 = space.alloc(1024, align=1)
    assert r2.addr == 0


def test_double_free_detected():
    space = AddressSpace(0, 4096)
    r = space.alloc(64)
    space.free(r)
    with pytest.raises(AllocationError):
        space.free(r)


def test_region_free_idempotent_via_method():
    space = AddressSpace(0, 4096)
    r = space.alloc(64)
    r.free()
    r.free()    # second call is a no-op through the Region API


def test_coalescing_recovers_full_space():
    space = AddressSpace(0, 4096)
    regions = [space.alloc(256, align=1) for _ in range(16)]
    for r in regions[::2]:
        r.free()
    for r in regions[1::2]:
        r.free()
    assert space.free_bytes() == 4096
    big = space.alloc(4096, align=1)
    assert big.nbytes == 4096


def test_region_ndarray_roundtrip():
    space = AddressSpace(0, 4096)
    r = space.alloc(64)
    view = r.ndarray(np.float64)
    view[:] = np.arange(8)
    assert np.allclose(r.ndarray(np.float64), np.arange(8))
    # Writes through the view are visible in raw memory.
    assert space.copy_out(r.addr, 8).view(np.float64)[0] == 0.0


def test_region_read_write_bytes():
    space = AddressSpace(0, 4096)
    r = space.alloc(16)
    r.write(4, b"\x01\x02\x03")
    assert r.read(4, 3) == b"\x01\x02\x03"


def test_region_out_of_bounds_rejected():
    space = AddressSpace(0, 4096)
    r = space.alloc(16)
    with pytest.raises(BufferError_):
        r.read(10, 10)
    with pytest.raises(BufferError_):
        r.write(-1, b"x")
    with pytest.raises(BufferError_):
        r.ndarray(np.float64, offset=8, count=2)


def test_use_after_free_rejected():
    space = AddressSpace(0, 4096)
    r = space.alloc(16)
    r.free()
    with pytest.raises(BufferError_):
        r.read(0, 4)


def test_dma_bounds_checked():
    space = AddressSpace(0, 128)
    with pytest.raises(BufferError_):
        space.copy_in(120, np.zeros(16, np.uint8))
    with pytest.raises(BufferError_):
        space.copy_out(120, 16)


def test_foreign_region_free_rejected():
    a, b = AddressSpace(0, 1024), AddressSpace(1, 1024)
    r = a.alloc(64)
    with pytest.raises(AllocationError):
        b.free(r)


def test_peak_accounting():
    space = AddressSpace(0, 4096)
    r1 = space.alloc(1000, align=1)
    r2 = space.alloc(1000, align=1)
    r1.free()
    assert space.allocated_bytes == 1000
    assert space.peak_bytes == 2000


# -- property-based: allocator never hands out overlapping live regions ------
@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["alloc", "free"]),
              st.integers(min_value=1, max_value=512)),
    min_size=1, max_size=60))
def test_allocator_no_overlap_property(ops):
    space = AddressSpace(0, 8192)
    live: list[Region] = []
    for op, size in ops:
        if op == "alloc":
            try:
                live.append(space.alloc(size, align=8))
            except AllocationError:
                pass
        elif live:
            live.pop(size % len(live)).free()
        # Invariant: live regions are pairwise disjoint and in-bounds.
        spans = sorted((r.addr, r.end) for r in live)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0, "overlapping allocations"
        for a0, a1 in spans:
            assert 0 <= a0 and a1 <= space.size
    # Accounting matches the live set.
    assert space.allocated_bytes == sum(r.nbytes for r in live)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=256), min_size=1,
                max_size=30))
def test_alloc_free_all_restores_space(sizes):
    space = AddressSpace(0, 32768)
    regions = [space.alloc(s) for s in sizes]
    for r in regions:
        r.free()
    assert space.free_bytes() == 32768
    assert space.allocated_bytes == 0
