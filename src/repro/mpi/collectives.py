"""Collective operations built on point-to-point messages.

* ``barrier`` — dissemination algorithm, ⌈log2 P⌉ rounds.
* ``bcast`` — binomial tree.
* ``reduce`` — k-ary tree reduction (k=2 binomial by default).
* ``vendor_reduce`` — the same tree shape with reduced per-message software
  overhead, standing in for the vendor-optimized ``MPI_Reduce`` the paper
  compares against in Figure 4c (tuned implementations avoid the generic
  request path).
* ``allreduce`` — ``reduce`` to rank 0, then ``bcast``.

All collectives use the reserved tag space ``COLL_TAG_BASE+``; user code
should stay below it.
"""

from __future__ import annotations


import numpy as np

COLL_TAG_BASE = 1 << 20
_BARRIER_TAG = COLL_TAG_BASE + 1
_BCAST_TAG = COLL_TAG_BASE + 2
_REDUCE_TAG = COLL_TAG_BASE + 3


def barrier(comm):
    """Dissemination barrier: round r exchanges with rank ± 2^r."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    token = np.zeros(1, dtype=np.uint8)
    rbuf = np.zeros(1, dtype=np.uint8)
    step = 1
    round_no = 0
    while step < size:
        dest = (rank + step) % size
        source = (rank - step) % size
        yield from comm.sendrecv(token, dest, _BARRIER_TAG + round_no,
                                 rbuf, source, _BARRIER_TAG + round_no)
        step <<= 1
        round_no += 1


def bcast(comm, buf: np.ndarray, root: int = 0):
    """Binomial-tree broadcast of ``buf`` from ``root`` (in place)."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    vrank = (rank - root) % size        # root becomes virtual rank 0
    # Find this rank's lowest set bit: its parent is vrank - lowbit, and it
    # forwards to vrank + m for every m below lowbit that stays in range.
    mask = 1
    while mask < size and not (vrank & mask):
        mask <<= 1
    if vrank != 0:
        parent = (vrank - mask + root) % size
        yield from comm.recv(buf, parent, _BCAST_TAG)
    mask = (mask >> 1) if vrank != 0 else _highest_pow2_below(size)
    while mask > 0:
        if vrank + mask < size:
            child = (vrank + mask + root) % size
            yield from comm.send(buf, child, _BCAST_TAG)
        mask >>= 1


def _highest_pow2_below(n: int) -> int:
    """Largest power of two strictly containing the tree of ``n`` ranks."""
    m = 1
    while m < n:
        m <<= 1
    return m >> 1


def reduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
           root: int = 0, op=np.add, arity: int = 2,
           _tag: int = _REDUCE_TAG, _overhead_scale: float = 1.0):
    """k-ary tree reduction to ``root``; ``recvbuf`` required at root."""
    rank, size = comm.rank, comm.size
    vrank = (rank - root) % size
    acc = sendbuf.copy()
    tmp = np.empty_like(sendbuf)
    # Children of vrank v in a k-ary tree: v*k + 1 .. v*k + k.
    children = [vrank * arity + i for i in range(1, arity + 1)
                if vrank * arity + i < size]
    saved = comm.endpoint.params.mpi_overhead
    if _overhead_scale != 1.0:
        # vendor_reduce path: model the tuned implementation's cheaper
        # per-message software path.
        comm.endpoint.params = comm.endpoint.params.with_(
            mpi_overhead=saved * _overhead_scale)
    try:
        for child in children:
            real_child = (child + root) % size
            yield from comm.recv(tmp, real_child, _tag)
            acc = op(acc, tmp)
        if vrank != 0:
            parent = ((vrank - 1) // arity + root) % size
            yield from comm.send(acc, parent, _tag)
        else:
            if recvbuf is None:
                raise ValueError("root must supply recvbuf")
            recvbuf[...] = acc
    finally:
        if _overhead_scale != 1.0:
            comm.endpoint.params = comm.endpoint.params.with_(
                mpi_overhead=saved)


def vendor_reduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
                  root: int = 0, op=np.add):
    """Stand-in for the vendor-optimized reduction of Figure 4c."""
    yield from reduce(comm, sendbuf, recvbuf, root, op, arity=2,
                      _tag=_REDUCE_TAG + 1, _overhead_scale=0.5)


def allreduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op=np.add):
    """reduce-to-0 followed by bcast (sufficient for the benchmarks)."""
    yield from reduce(comm, sendbuf, recvbuf if comm.rank == 0 else None,
                      0, op)
    yield from bcast(comm, recvbuf, 0)

