"""Deterministic RNG streams and the tracer."""

from repro.sim.rng import RngStream, derive_seed
from repro.sim.trace import Tracer


def test_same_labels_same_stream():
    a = RngStream(42, "rank", 3)
    b = RngStream(42, "rank", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_labels_different_streams():
    a = RngStream(42, "rank", 3)
    b = RngStream(42, "rank", 4)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_child_streams_independent():
    root = RngStream(7, "exp")
    c1 = root.child("net")
    c2 = root.child("cpu")
    assert c1.seed != c2.seed
    assert c1.random() != c2.random()


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert 0 <= derive_seed(123, "x") < 2 ** 63


def test_rng_helpers_in_range():
    r = RngStream(5)
    for _ in range(100):
        assert 0 <= r.integers(0, 10) < 10
        assert 1.0 <= r.uniform(1.0, 2.0) < 2.0
        assert r.exponential(1.0) >= 0
    assert r.choice([1, 2, 3]) in (1, 2, 3)
    arr = r.array(8)
    assert arr.shape == (8,) and (0 <= arr).all() and (arr < 1).all()


def test_rng_shuffle_permutes():
    r = RngStream(5)
    seq = list(range(20))
    r.shuffle(seq)
    assert sorted(seq) == list(range(20))


# -- tracer -------------------------------------------------------------
def test_tracer_counters_always_on():
    t = Tracer(enabled=False)
    t.emit(1.0, "wire", 0, 1, 100, op="put")
    t.emit(2.0, "wire", 1, 0, 50, op="get")
    assert t.wire_transactions() == 2
    assert t.bytes_by_kind["wire"] == 150
    assert t.records == []     # records off when disabled


def test_tracer_records_when_enabled():
    t = Tracer(enabled=True)
    t.emit(1.0, "wire", 0, 1, 100, op="put")
    t.emit(2.0, "cq", 0, 1, 0)
    wire, cq = t.records
    assert (wire.kind, wire.detail["op"]) == ("wire", "put")
    assert (cq.kind, cq.src, cq.dst, cq.time) == ("cq", 0, 1, 2.0)
