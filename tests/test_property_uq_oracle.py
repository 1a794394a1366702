"""Property tests: the Unexpected Queue against a brute-force oracle.

The UQ's slot ring, free-slot bookkeeping, growing mirror columns and
cache accounting must never change *matching* semantics:
``find_and_remove`` returns the oldest entry the request matches,
``peek_match`` the oldest entry a probe matches, under every combination
of ``ANY_SOURCE``/``ANY_TAG`` wildcards.  The oracle is a plain list
scanned front to back with the textbook predicate.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import _VECTOR_MIN, UnexpectedQueue
from repro.errors import MatchingError
from repro.memory.address import AddressSpace
from repro.memory.cache import CACHE_LINE, CacheModel
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

WINS = (1, 2)
SOURCES = (0, 1, 2)
TAGS = (0, 1, 2)


class _Req:
    def __init__(self, win_id, source, tag):
        self.win = SimpleNamespace(id=win_id)
        self.source, self.tag = source, tag


def _oracle_first(entries, win_id, source, tag):
    """Brute-force first match."""
    for entry in entries:
        if entry[0] != win_id:
            continue
        if source != ANY_SOURCE and entry[1] != source:
            continue
        if tag != ANY_TAG and entry[2] != tag:
            continue
        return entry
    return None


def _make_uq(slots):
    space = AddressSpace(0, 1 << 20)
    region = space.alloc(slots * CACHE_LINE, align=CACHE_LINE)
    return UnexpectedQueue(region, CacheModel(), slots=slots)


def _append_op():
    return st.tuples(st.just("append"), st.sampled_from(WINS),
                     st.sampled_from(SOURCES), st.sampled_from(TAGS))


def _remove_op():
    return st.tuples(st.just("remove"), st.sampled_from(WINS),
                     st.sampled_from(SOURCES + (ANY_SOURCE,)),
                     st.sampled_from(TAGS + (ANY_TAG,)))


def _peek_op():
    return st.tuples(st.just("peek"), st.sampled_from(WINS),
                     st.sampled_from(SOURCES + (ANY_SOURCE,)),
                     st.sampled_from(TAGS + (ANY_TAG,)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_append_op(), _remove_op(), _peek_op()),
                max_size=64))
def test_uq_agrees_with_bruteforce_oracle(ops):
    uq = _make_uq(slots=max(len(ops), 1))
    oracle = []                      # (win_id, source, tag, time)
    for time, (kind, win_id, source, tag) in enumerate(ops):
        if kind == "append":
            uq.append(win_id, source, tag, nbytes=8, time=float(time))
            oracle.append((win_id, source, tag, float(time)))
        elif kind == "remove":
            got = uq.find_and_remove(_Req(win_id, source, tag))
            want = _oracle_first(oracle, win_id, source, tag)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.win_id, got.source, got.tag,
                        got.time) == want
                oracle.remove(want)
        else:
            got = uq.peek_match(win_id, source, tag)
            want = _oracle_first(oracle, win_id, source, tag)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.win_id, got.source, got.tag,
                        got.time) == want
        # queue contents stay identical to the oracle, in order, and
        # every live entry keeps a distinct backing slot
        assert [(e.win_id, e.source, e.tag, e.time)
                for e in uq._entries] == oracle
        addrs = [e.slot_addr for e in uq._entries]
        assert len(set(addrs)) == len(addrs)


@settings(max_examples=100, deadline=None)
@given(st.lists(_append_op(), min_size=1, max_size=32),
       st.sampled_from(SOURCES + (ANY_SOURCE,)),
       st.sampled_from(TAGS + (ANY_TAG,)))
def test_drain_order_matches_repeated_oracle_scan(appends, source, tag):
    """Repeatedly consuming with one wildcard request drains matches in
    exact arrival order and leaves non-matches untouched."""
    uq = _make_uq(slots=len(appends))
    oracle = []
    for time, (_, win_id, asrc, atag) in enumerate(appends):
        uq.append(win_id, asrc, atag, nbytes=8, time=float(time))
        oracle.append((win_id, asrc, atag, float(time)))
    req = _Req(WINS[0], source, tag)
    drained = []
    while True:
        got = uq.find_and_remove(req)
        if got is None:
            break
        drained.append((got.win_id, got.source, got.tag, got.time))
    matching = [e for e in oracle
                if _oracle_first([e], WINS[0], source, tag)]
    assert drained == matching
    assert [(e.win_id, e.source, e.tag, e.time)
            for e in uq._entries] == \
        [e for e in oracle if e not in matching]


def _assert_first_match_is_scalar_scan(uq, oracle):
    for win_id, source, tag in product(
            WINS, SOURCES + (ANY_SOURCE,), TAGS + (ANY_TAG,)):
        want = _oracle_first(oracle, win_id, source, tag)
        assert uq._first_match(win_id, source, tag) == \
            (oracle.index(want) if want is not None else -1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_append_op(), _append_op(), _remove_op()),
                min_size=40, max_size=160))
def test_slots_lowest_free_first_through_growth_to_overflow(ops):
    """Slot hand-out is "lowest free first" (it fixes every slot address,
    hence the cache-miss counts) whether a slot is fresh or was freed,
    the queue overflows exactly at ``slots``, and the mirror columns,
    built when the queue first reaches ``_VECTOR_MIN`` and doubled after,
    still answer like a scalar scan after each growth."""
    slots = 2 * _VECTOR_MIN + 8          # two doublings, the last clipped
    uq = _make_uq(slots)
    free = set(range(slots))
    oracle = []                          # (win_id, source, tag, time)
    capacity = 0                         # no columns until the first build
    deepest = 0
    for time, (kind, win_id, source, tag) in enumerate(ops):
        if kind == "append" and not free:
            with pytest.raises(MatchingError, match="overflow"):
                uq.append(win_id, source, tag, nbytes=8, time=float(time))
        elif kind == "append":
            entry = uq.append(win_id, source, tag, nbytes=8,
                              time=float(time))
            slot = min(free)
            free.remove(slot)
            assert entry.slot_addr == uq.region.addr + CACHE_LINE * slot
            oracle.append((win_id, source, tag, float(time)))
        else:
            got = uq.find_and_remove(_Req(win_id, source, tag))
            want = _oracle_first(oracle, win_id, source, tag)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.win_id, got.source, got.tag, got.time) == want
                oracle.remove(want)
                free.add((got.slot_addr - uq.region.addr) // CACHE_LINE)
        assert len(uq) == len(oracle) == slots - len(free)
        deepest = max(deepest, len(uq))
        assert (uq._cols is None) == (deepest < _VECTOR_MIN)
        if uq._cols is not None and len(uq._win) != capacity:
            capacity = len(uq._win)
            assert len(uq) <= capacity <= slots
            _assert_first_match_is_scalar_scan(uq, oracle)
    if uq._cols is not None:
        _assert_first_match_is_scalar_scan(uq, oracle)
