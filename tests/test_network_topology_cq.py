"""Machine topology, completion queues, and immediate-value encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.cq import (
    MAX_IMM_RANK,
    MAX_IMM_TAG,
    CompletionQueue,
    CqEntry,
    decode_immediate,
    encode_immediate,
)
from repro.network.topology import Machine
from repro.sim.engine import Engine


# -- topology -------------------------------------------------------------
def test_block_placement():
    m = Machine(8, ranks_per_node=4)
    assert m.nnodes == 2
    assert m.node_of(0) == 0 and m.node_of(3) == 0
    assert m.node_of(4) == 1
    assert m.same_node(0, 3)
    assert not m.same_node(3, 4)


def test_uneven_placement():
    m = Machine(5, ranks_per_node=2)
    assert m.nnodes == 3


def test_rank_range_checked():
    m = Machine(4)
    with pytest.raises(NetworkError):
        m.node_of(4)
    with pytest.raises(NetworkError):
        m.node_of(-1)


def test_invalid_machine_rejected():
    with pytest.raises(NetworkError):
        Machine(0)
    with pytest.raises(NetworkError):
        Machine(4, ranks_per_node=0)


# -- immediates -----------------------------------------------------------
def test_encode_decode_roundtrip_basic():
    imm = encode_immediate(3, 99)
    assert decode_immediate(imm) == (3, 99)


def test_immediate_fits_32_bits():
    imm = encode_immediate(MAX_IMM_RANK, MAX_IMM_TAG)
    assert 0 <= imm < 2 ** 32


def test_immediate_range_enforced():
    with pytest.raises(NetworkError):
        encode_immediate(MAX_IMM_RANK + 1, 0)
    with pytest.raises(NetworkError):
        encode_immediate(0, MAX_IMM_TAG + 1)
    with pytest.raises(NetworkError):
        encode_immediate(-1, 0)
    with pytest.raises(NetworkError):
        encode_immediate(0, -1)


@given(st.integers(0, MAX_IMM_RANK), st.integers(0, MAX_IMM_TAG))
def test_encode_decode_roundtrip_property(source, tag):
    assert decode_immediate(encode_immediate(source, tag)) == (source, tag)


# -- completion queue --------------------------------------------------------
def _entry(t=0.0, source=0):
    return CqEntry(kind="put", source=source, target=1, nbytes=8, time=t)


def test_cq_fifo():
    cq = CompletionQueue(Engine())
    cq.post(_entry(source=1))
    cq.post(_entry(source=2))
    assert cq.poll().source == 1
    assert cq.poll().source == 2
    assert cq.poll() is None


def test_cq_counters():
    cq = CompletionQueue(Engine())
    cq.post(_entry())
    assert len(cq) == 1
    cq.poll()
    assert len(cq) == 0


def test_bounded_cq_overrun():
    cq = CompletionQueue(Engine(), capacity=2)
    cq.post(_entry())
    cq.post(_entry())
    with pytest.raises(NetworkError):
        cq.post(_entry())


def test_cq_arrival_signal():
    eng = Engine()
    cq = CompletionQueue(eng)
    got = []

    def waiter(e):
        entry = yield cq.wait_arrival()
        got.append(entry.source)

    def poster(e):
        yield e.timeout(1.0)
        cq.post(_entry(source=7))

    eng.process(waiter(eng))
    eng.process(poster(eng))
    eng.run()
    assert got == [7]


def test_cq_drain():
    cq = CompletionQueue(Engine())
    for i in range(3):
        cq.post(_entry(source=i))
    out = cq.drain()
    assert [e.source for e in out] == [0, 1, 2]
    assert len(cq) == 0


@given(st.lists(st.integers(min_value=-1, max_value=120), max_size=60),
       st.integers(min_value=1, max_value=300))
def test_cq_is_a_bounded_fifo_that_cuts_back(bursts, capacity):
    """A CQ against a deque oracle: each burst posts ``n`` entries (``-1``
    drains instead), then polls about half of what is queued.  Order,
    length and overrun match the oracle, and the list never keeps more
    consumed slots than it keeps entries plus one cut-back allowance."""
    from collections import deque

    cq, oracle, serial = CompletionQueue(Engine(), capacity=capacity), \
        deque(), 0
    for n in bursts:
        if n < 0:
            assert [e.source for e in cq.drain()] == list(oracle)
            oracle.clear()
            continue
        for _ in range(n):
            if len(oracle) == capacity:
                with pytest.raises(NetworkError, match="overrun"):
                    cq.post(_entry(source=serial))
                break
            cq.post(_entry(source=serial))
            oracle.append(serial)
            serial += 1
        for _ in range(len(oracle) // 2 + 1):
            got = cq.poll()
            assert (got is None if not oracle
                    else got.source == oracle.popleft())
        assert len(cq) == len(oracle)
        assert cq._head <= max(len(oracle), 64)
