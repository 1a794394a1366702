"""Cache-line model: LRU behaviour, stats, and a reference-model property."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CACHE_LINE, CacheModel, CacheStats


def test_first_touch_misses_then_hits():
    c = CacheModel()
    assert c.touch(0, 8) == 1
    assert c.touch(0, 8) == 0
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_straddling_access_touches_two_lines():
    c = CacheModel()
    assert c.touch(CACHE_LINE - 4, 8) == 2


def test_same_line_different_offsets_hit():
    c = CacheModel()
    c.touch(0, 1)
    assert c.touch(CACHE_LINE - 1, 1) == 0


def test_zero_byte_touch_counts_one_line():
    c = CacheModel()
    assert c.touch(128, 0) == 1


def test_label_accounting():
    c = CacheModel()
    c.touch(0, 8, label="request")
    c.touch(64, 8, label="uq")
    c.touch(0, 8, label="request")   # hit: no new miss
    assert c.stats.miss_for("request") == 1
    assert c.stats.miss_for("uq") == 1


def test_eviction_when_set_full():
    c = CacheModel(size_bytes=2 * 64, ways=2, line=64)  # 1 set, 2 ways
    c.touch(0 * 64, 1)
    c.touch(1 * 64, 1)
    c.touch(2 * 64, 1)                 # evicts line 0 (LRU)
    assert c.stats.evictions == 1
    assert c.touch(0, 1) == 1          # line 0 was evicted


def test_lru_order_respects_recency():
    c = CacheModel(size_bytes=2 * 64, ways=2, line=64)
    c.touch(0, 1)
    c.touch(64, 1)
    c.touch(0, 1)          # refresh line 0
    c.touch(128, 1)        # should evict line 64, not line 0
    assert c.touch(0, 1) == 0
    assert c.touch(64, 1) == 1


def test_flush_range_invalidates():
    c = CacheModel()
    c.touch(0, 128)
    c.flush_range(0, 64)
    assert not c.resident(0)
    assert c.resident(64)


def test_flush_all():
    c = CacheModel()
    c.touch(0, 256)
    c.flush_all()
    assert c.touch(0, 256) == 4


def test_spaces_are_distinct():
    c = CacheModel()
    c.touch(0, 8, space=0)
    assert c.touch(0, 8, space=1) == 1


def test_snapshot_delta():
    c = CacheModel()
    c.touch(0, 8, label="a")
    before = c.stats.snapshot()
    c.touch(64, 8, label="b")
    d = c.stats.delta(before)
    assert d.misses == 1
    assert d.by_label == {"b": 1}


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheModel(size_bytes=100, ways=3, line=64)


@pytest.mark.parametrize("geometry", [
    dict(size_bytes=0), dict(size_bytes=-512), dict(ways=0),
    dict(ways=-8), dict(line=0), dict(line=-64)])
def test_nonpositive_geometry_rejected(geometry):
    # size_bytes=0 used to build and divide by zero in the first touch
    with pytest.raises(ValueError, match="positive"):
        CacheModel(**geometry)


# -- property: model agrees with a brute-force fully-recent-order reference --
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=200))
def test_cache_against_reference_lru(addrs):
    ways, line = 4, 64
    nsets = 4
    c = CacheModel(size_bytes=nsets * ways * line, ways=ways, line=line)
    # reference: per-set list of lines in LRU order
    ref = [[] for _ in range(nsets)]
    for a in addrs:
        lineno = a // line
        s = ref[lineno % nsets]
        expect_hit = lineno in s
        got_miss = c.touch(a, 1)
        assert got_miss == (0 if expect_hit else 1)
        if expect_hit:
            s.remove(lineno)
        s.append(lineno)
        if len(s) > ways:
            s.pop(0)


# -- property: the list-LRU model against the OrderedDict one it replaced --
class _OrderedDictCache:
    """The model as first written — one ``OrderedDict`` of ``(space,
    line)`` keys per set, counters bumped per line — kept as the oracle."""

    def __init__(self, size_bytes, ways, line):
        self.line = line
        self.ways = ways
        self.nsets = size_bytes // (ways * line)
        self._sets = [OrderedDict() for _ in range(self.nsets)]
        self.stats = CacheStats()

    def _lines(self, addr, nbytes):
        first = addr // self.line
        last = (addr + max(nbytes, 1) - 1) // self.line
        return range(first, last + 1)

    def touch(self, addr, nbytes, space=0, label=""):
        misses = 0
        for lineno in self._lines(addr, nbytes):
            key = (space, lineno)
            st_ = self._sets[lineno % self.nsets]
            if key in st_:
                st_.move_to_end(key)
                self.stats.hits += 1
            else:
                misses += 1
                self.stats.misses += 1
                if label:
                    self.stats.by_label[label] = \
                        self.stats.by_label.get(label, 0) + 1
                st_[key] = True
                if len(st_) > self.ways:
                    st_.popitem(last=False)
                    self.stats.evictions += 1
        return misses

    def flush_range(self, addr, nbytes, space=0):
        for lineno in self._lines(addr, nbytes):
            self._sets[lineno % self.nsets].pop((space, lineno), None)

    def flush_all(self):
        for st_ in self._sets:
            st_.clear()

    def resident(self, addr, space=0):
        key = (space, addr // self.line)
        return key in self._sets[(addr // self.line) % self.nsets]


_ADDRS = st.integers(min_value=0, max_value=(1 << 14) - 1)
_SIZES = st.sampled_from((0, 1, 8, 64, 200, 5000))
_SPACES = st.sampled_from((0, 1))
_CACHE_OPS = st.one_of(
    st.tuples(st.just("touch"), _ADDRS, _SIZES, _SPACES,
              st.sampled_from(("", "a", "b"))),
    st.tuples(st.just("flush_range"), _ADDRS, _SIZES, _SPACES),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("resident"), _ADDRS, _SPACES))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(((2 * 64, 2, 64),        # one set
                        (4 * 4 * 64, 4, 64),    # evicts early
                        (32 * 1024, 8, 64))),   # the per-rank default
       st.lists(_CACHE_OPS, max_size=150))
def test_cache_agrees_with_ordereddict_oracle(geometry, ops):
    model, oracle = CacheModel(*geometry), _OrderedDictCache(*geometry)
    for op, *args in ops:
        assert getattr(model, op)(*args) == getattr(oracle, op)(*args)
        assert model.stats == oracle.stats


# -- property: one batched call charges what per-address touches do ------
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(((2 * 64, 2, 64), (4 * 4 * 64, 4, 64),
                        (32 * 1024, 8, 64), (4 * 2 * 32, 2, 32))),
       st.lists(st.tuples(st.lists(_ADDRS, max_size=40),
                          st.sampled_from((0, 1, 8, 64, 100)),
                          st.sampled_from(("", "na-uq-scan", "b"))),
                max_size=12))
def test_touch_each_agrees_with_per_address_touch(geometry, batches):
    """``touch_each`` (the UQ scan's one call) leaves the same per-line
    LRU order, hits, misses, evictions and ``by_label`` as one ``touch``
    per address, and returns the same miss count."""
    batched, oracle = CacheModel(*geometry), CacheModel(*geometry)
    for addrs, nbytes, label in batches:
        got = batched.touch_each(addrs, nbytes, label=label)
        want = sum(oracle.touch(a, nbytes, label=label) for a in addrs)
        assert got == want
        assert batched._sets == oracle._sets
        assert batched.stats == oracle.stats
        assert list(batched.stats.by_label) == list(oracle.stats.by_label)
