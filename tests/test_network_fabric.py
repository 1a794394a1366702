"""Fabric RDMA operations: data correctness, timing, notifications."""

import numpy as np
import pytest

from repro.errors import BufferError_, NetworkError
from repro.faults import FaultPlan
from repro.memory.address import AddressSpace
from repro.network.cq import decode_immediate, encode_immediate
from repro.network.fabric import Fabric
from repro.network.loggp import TransportParams
from repro.network.topology import Machine
from repro.sim.engine import Engine
from repro.sim.trace import Tracer


def make_fabric(nranks=2, ranks_per_node=1, params=None, trace=False,
                seed=1, fault_plan=None):
    eng = Engine()
    machine = Machine(nranks, ranks_per_node)
    spaces = [AddressSpace(r, 1 << 20) for r in range(nranks)]
    fabric = Fabric(eng, machine, spaces, params=params or TransportParams(),
                    tracer=Tracer(enabled=trace), seed=seed,
                    fault_plan=fault_plan)
    return eng, fabric, spaces


def test_put_moves_bytes():
    eng, fabric, spaces = make_fabric()
    data = np.arange(16, dtype=np.float64)
    h = fabric.put(0, 1, 256, data)
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[1].copy_out(256, 128).view(np.float64), data)
    assert h.local_done.processed and h.remote_done.processed


def test_put_commit_time_matches_loggp():
    p = TransportParams()
    eng, fabric, spaces = make_fabric(params=p)
    data = np.zeros(64, np.uint8)
    h = fabric.put(0, 1, 0, data)
    expected = p.fma.g + 64 * p.fma.G + p.fma.L
    assert h.commit_at == pytest.approx(expected)
    eng.run(detect_deadlock=False)


def test_put_selects_bte_above_threshold():
    p = TransportParams()
    eng, fabric, _ = make_fabric(params=p)
    small = fabric.put(0, 1, 0, np.zeros(64, np.uint8))
    big = fabric.put(0, 1, 4096, np.zeros(8192, np.uint8))
    assert fabric.nic(0).fma.stats[0] == 1
    assert fabric.nic(0).bte.stats[0] == 1
    eng.run(detect_deadlock=False)


def test_put_snapshot_isolates_source_buffer():
    eng, fabric, spaces = make_fabric()
    data = np.arange(8, dtype=np.float64)
    fabric.put(0, 1, 0, data)
    data[:] = -1          # overwrite immediately after issue
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[1].copy_out(0, 64).view(np.float64),
                       np.arange(8))


def test_notified_put_posts_immediate_at_commit():
    eng, fabric, spaces = make_fabric()
    imm = encode_immediate(0, 42)
    h = fabric.put(0, 1, 0, np.zeros(8, np.uint8), immediate=imm, win_id=5)
    eng.run(detect_deadlock=False)
    cq = fabric.nic(1).dest_cq
    entry = cq.poll()
    assert entry is not None
    assert decode_immediate(entry.immediate) == (0, 42)
    assert entry.win_id == 5
    assert entry.time == pytest.approx(h.commit_at)


def test_unnotified_put_posts_nothing():
    eng, fabric, _ = make_fabric()
    fabric.put(0, 1, 0, np.zeros(8, np.uint8))
    eng.run(detect_deadlock=False)
    assert len(fabric.nic(1).dest_cq) == 0


def test_zero_byte_notified_put():
    eng, fabric, spaces = make_fabric()
    fabric.put(0, 1, 0, np.empty(0, np.uint8),
               immediate=encode_immediate(0, 7), win_id=1)
    eng.run(detect_deadlock=False)
    entry = fabric.nic(1).dest_cq.poll()
    assert entry.nbytes == 0
    assert decode_immediate(entry.immediate) == (0, 7)


def test_shm_put_uses_ring_and_inline():
    p = TransportParams()
    eng, fabric, _ = make_fabric(ranks_per_node=2, params=p)
    fabric.put(0, 1, 0, np.zeros(16, np.uint8),
               immediate=encode_immediate(0, 1), win_id=1)
    eng.run(detect_deadlock=False)
    nic1 = fabric.nic(1)
    assert len(nic1.dest_cq) == 0
    entry = nic1.shm_ring.poll()
    assert entry.inline is not None          # 16B <= inline_max


def test_shm_large_put_not_inline():
    eng, fabric, _ = make_fabric(ranks_per_node=2)
    fabric.put(0, 1, 0, np.zeros(4096, np.uint8),
               immediate=encode_immediate(0, 1), win_id=1)
    eng.run(detect_deadlock=False)
    entry = fabric.nic(1).shm_ring.poll()
    assert entry.inline is None


def test_get_moves_bytes_back():
    eng, fabric, spaces = make_fabric()
    src = np.arange(32, dtype=np.float64)
    spaces[1].copy_in(512, src.view(np.uint8))
    fabric.get(0, 1, 512, 256, local_addr=1024)
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[0].copy_out(1024, 256).view(np.float64), src)


def test_get_snapshots_at_serve_time():
    """The value read is the value at serve, not at request issue."""
    eng, fabric, spaces = make_fabric()
    spaces[1].copy_in(0, np.full(8, 1.0).view(np.uint8))
    h = fabric.get(0, 1, 0, 64, local_addr=256)

    # Mutate the source before serve time: get must see the new value.
    def mutate():
        spaces[1].copy_in(0, np.full(8, 2.0).view(np.uint8))
    fabric._at(0.01, mutate)
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[0].copy_out(256, 64).view(np.float64), 2.0)


def test_notified_get_notifies_target_reliable():
    """On a reliable network the target is notified at serve time, before
    the data reaches the origin (§VIII case 1)."""
    eng, fabric, _ = make_fabric()
    h = fabric.get(0, 1, 0, 1024, local_addr=0,
                   immediate=encode_immediate(0, 3), win_id=1)
    eng.run(detect_deadlock=False)
    entry = fabric.nic(1).dest_cq.poll()
    assert entry is not None
    assert entry.time < h.commit_at


def test_notified_get_unreliable_waits_roundtrip():
    p = TransportParams(reliable=False)
    eng, fabric, _ = make_fabric(params=p)
    h = fabric.get(0, 1, 0, 1024, local_addr=0,
                   immediate=encode_immediate(0, 3), win_id=1)
    eng.run(detect_deadlock=False)
    entry = fabric.nic(1).dest_cq.poll()
    assert entry.time > h.commit_at    # data at origin, plus the ack back


def test_amo_fetch_add():
    eng, fabric, spaces = make_fabric()
    spaces[1].copy_in(64, np.array([10], np.int64).view(np.uint8))
    h1 = fabric.amo(0, 1, 64, "sum", 5)
    eng.run(detect_deadlock=False)
    assert h1.remote_done.value == 10
    assert spaces[1].copy_out(64, 8).view(np.int64)[0] == 15


def test_amo_cas_success_and_failure():
    eng, fabric, spaces = make_fabric()
    h = fabric.amo(0, 1, 0, "cas", 9, compare=0)
    eng.run(detect_deadlock=False)
    assert h.remote_done.value == 0
    assert spaces[1].copy_out(0, 8).view(np.int64)[0] == 9
    h2 = fabric.amo(0, 1, 0, "cas", 5, compare=0)
    eng.run(detect_deadlock=False)
    assert h2.remote_done.value == 9                      # failed compare
    assert spaces[1].copy_out(0, 8).view(np.int64)[0] == 9


def test_amo_replace_and_noop():
    eng, fabric, spaces = make_fabric()
    fabric.amo(0, 1, 0, "replace", 77)
    eng.run(detect_deadlock=False)
    h = fabric.amo(0, 1, 0, "no_op", 0)
    eng.run(detect_deadlock=False)
    assert h.remote_done.value == 77
    assert spaces[1].copy_out(0, 8).view(np.int64)[0] == 77


def test_amo_unknown_op_rejected():
    eng, fabric, _ = make_fabric()
    with pytest.raises(Exception):
        fabric.amo(0, 1, 0, "xor", 1)


def test_accumulate_sum():
    eng, fabric, spaces = make_fabric()
    spaces[1].copy_in(0, np.full(4, 1.0).view(np.uint8))
    fabric.put(0, 1, 0, np.full(4, 2.5), accumulate="sum")
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[1].copy_out(0, 32).view(np.float64), 3.5)


def test_accumulate_max_min():
    eng, fabric, spaces = make_fabric()
    spaces[1].copy_in(0, np.array([1.0, 5.0]).view(np.uint8))
    fabric.put(0, 1, 0, np.array([3.0, 3.0]), accumulate="max")
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[1].copy_out(0, 16).view(np.float64),
                       [3.0, 5.0])
    fabric.put(0, 1, 0, np.array([2.0, 2.0]), accumulate="min")
    eng.run(detect_deadlock=False)
    assert np.allclose(spaces[1].copy_out(0, 16).view(np.float64),
                       [2.0, 2.0])


@pytest.mark.parametrize("where", ["below", "straddling"])
@pytest.mark.parametrize("verb", ["amo", "accumulate"])
def test_in_place_updates_are_bounds_checked(verb, where):
    """Accumulates and atomics update target memory through a typed view;
    out of range they fail like a plain put, never wrapping around from
    the end of the space nor raising from NumPy."""
    eng, fabric, spaces = make_fabric()
    size = spaces[1].size
    addr = -16 if where == "below" else size - 4
    before = spaces[1].mem.copy()
    if verb == "amo":
        fabric.amo(0, 1, addr, "sum", 5)
    else:
        fabric.put(0, 1, addr, np.ones(1), accumulate="sum")
    with pytest.raises(BufferError_, match=rf"\[{addr}, {addr + 8}\)"):
        eng.run(detect_deadlock=False)
    assert np.array_equal(spaces[1].mem, before)


def test_accumulate_of_partial_elements_rejected_at_issue():
    eng, fabric, _ = make_fabric()
    with pytest.raises(NetworkError, match="3-byte accumulate"):
        fabric.put(0, 1, 0, np.ones(3, np.uint8), accumulate="sum")
    fabric.put(0, 1, 0, np.ones(4, np.uint8), accumulate="sum",
               acc_dtype=np.int32)
    eng.run(detect_deadlock=False)


def test_injection_serializes_per_engine():
    """Two back-to-back FMA puts commit g + s*G apart, not together."""
    p = TransportParams()
    eng, fabric, _ = make_fabric(params=p)
    h1 = fabric.put(0, 1, 0, np.zeros(1024, np.uint8))
    h2 = fabric.put(0, 1, 2048, np.zeros(1024, np.uint8))
    gap = p.fma.g + 1024 * p.fma.G
    assert h2.commit_at - h1.commit_at == pytest.approx(gap)
    eng.run(detect_deadlock=False)


def test_in_order_delivery_same_pair_same_engine():
    eng, fabric, _ = make_fabric()
    imm = encode_immediate(0, 0)
    times = []
    for i in range(5):
        h = fabric.put(0, 1, i * 64, np.zeros(64, np.uint8),
                       immediate=encode_immediate(0, i), win_id=1)
        times.append(h.commit_at)
    eng.run(detect_deadlock=False)
    cq = fabric.nic(1).dest_cq
    tags = [decode_immediate(cq.poll().immediate)[1] for _ in range(5)]
    assert tags == [0, 1, 2, 3, 4]
    assert times == sorted(times)


def test_drop_rate_adds_retransmission_delay():
    eng1, f1, _ = make_fabric()
    h1 = f1.put(0, 1, 0, np.zeros(64, np.uint8))
    # this seed drops the first delivery attempt and delivers the second
    lossy = FaultPlan(drop_prob=0.5, rto=50.0, seed=1)
    eng2, f2, _ = make_fabric(fault_plan=lossy)
    h2 = f2.put(0, 1, 0, np.zeros(64, np.uint8))
    assert f2.tracer.faults == {"drop": 1, "retry-ok": 1}
    assert h2.commit_at > h1.commit_at + 40.0


def test_wire_trace_counts():
    eng, fabric, _ = make_fabric(trace=True)
    fabric.put(0, 1, 0, np.zeros(8, np.uint8))
    fabric.get(0, 1, 0, 8, local_addr=64)
    fabric.amo(0, 1, 128, "sum", 1)
    eng.run(detect_deadlock=False)
    assert fabric.tracer.wire_transactions() == 1 + 2 + 2


@pytest.mark.parametrize("fault_plan", [None,
                                        FaultPlan(node_failures={1: 0.0})],
                         ids=["clean", "lost"])
def test_unread_sys_completions_still_end_the_run(fault_plan):
    """A sys message that builds no completion schedules none, but the
    run still lasts until its ack lands (or the lost op is given up on):
    the same end as when the completions are built and fire."""
    ends = []
    for built in (True, False):
        eng, fabric, _ = make_fabric(fault_plan=fault_plan)
        h = fabric.send_sys(0, 1, "hello", 32, local_done=built,
                            remote_done=built)
        assert (h.local_done is None) is (h.remote_done is None) \
            is (not built)
        eng.run(detect_deadlock=False)
        ends.append(max(eng.now, fabric.unread_at))
    assert ends[0] == ends[1] > 0


def test_sys_packet_delivery_and_hook():
    eng, fabric, _ = make_fabric()
    seen = []
    fabric.on_sys_arrival = lambda tgt, pkt: seen.append((tgt, pkt.ptype))
    fabric.send_sys(0, 1, "hello", 32, payload={"x": 1})
    eng.run(detect_deadlock=False)
    assert seen == [(1, "sys-hello")] or seen == [(1, "hello")]
    ok, pkt = fabric.nic(1).sys_inbox.try_get()
    assert ok and pkt.payload == {"x": 1} and pkt.source == 0
