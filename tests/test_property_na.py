"""Property tests: NA matching vs an independent reference matcher.

The reference reimplements §III's *rules* (arrival-ordered matching on
(source, tag) with wildcards and counting), not the library's code: for a
sequence of requests processed one at a time, each request consumes the
oldest unconsumed arrivals that match it, and its status reports the last
one consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from tests.conftest import run_cluster


@dataclass(frozen=True)
class Arrival:
    source: int
    tag: int


def reference_match(arrivals: list[Arrival],
                    requests: list[tuple[int, int, int]]):
    """Sequentially satisfy ``(source, tag, count)`` requests; returns the
    (source, tag) of each request's last match, or raises if unsatisfiable."""
    consumed = [False] * len(arrivals)
    out = []
    for source, tag, count in requests:
        matched = 0
        last = None
        for i, a in enumerate(arrivals):
            if consumed[i]:
                continue
            if source != ANY_SOURCE and a.source != source:
                continue
            if tag != ANY_TAG and a.tag != tag:
                continue
            consumed[i] = True
            matched += 1
            last = a
            if matched == count:
                break
        if matched < count:
            raise AssertionError("generated an unsatisfiable request")
        out.append((last.source, last.tag))
    return out


# Strategy: a plan of producer notifications plus requests that consume
# exactly those notifications.
@st.composite
def matching_plans(draw):
    nproducers = draw(st.integers(min_value=1, max_value=3))
    # Per producer: an ordered list of tags (arrival order per producer is
    # its send order; cross-producer order fixed by distinct delays).
    sends = []
    for p in range(1, nproducers + 1):
        tags = draw(st.lists(st.integers(min_value=0, max_value=3),
                             min_size=1, max_size=4))
        sends.append((p, tags))
    total = sum(len(tags) for _, tags in sends)
    # Requests: cover the whole arrival set with wildcard counts.
    requests = []
    remaining = total
    while remaining > 0:
        count = draw(st.integers(min_value=1, max_value=remaining))
        requests.append((ANY_SOURCE, ANY_TAG, count))
        remaining -= count
    # Delays stagger producers so the global arrival order is their
    # (producer, index) lexicographic order with producer-round-robin.
    return sends, requests


@settings(max_examples=25, deadline=None)
@given(plan=matching_plans())
def test_wildcard_counting_matches_reference(plan):
    sends, requests = plan
    nproducers = len(sends)

    # Build the expected global arrival order: producer p's k-th send is
    # issued at time BASE + k*10 + p (all distinct, past every barrier),
    # so arrivals sort by that key.
    BASE = 200.0
    schedule = []
    for p, tags in sends:
        for k, tag in enumerate(tags):
            schedule.append((BASE + k * 10.0 + p, p, tag))
    schedule.sort()
    arrivals = [Arrival(p, tag) for _, p, tag in schedule]
    expected = reference_match(arrivals, requests)

    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            got = []
            yield from ctx.barrier()
            for source, tag, count in requests:
                req = yield from ctx.na.notify_init(
                    win, source=source, tag=tag, expected_count=count)
                yield from ctx.na.start(req)
                status = yield from ctx.na.wait(req)
                got.append((status.source, status.tag))
                yield from ctx.na.request_free(req)
            return got
        tags = dict(sends).get(ctx.rank)
        yield from ctx.barrier()
        if tags is None:
            return None
        for k, tag in enumerate(tags):
            # Issue at exactly BASE + k*10 + rank µs: identical wire time
            # per message keeps arrival order equal to issue order.
            delay = 200.0 + k * 10.0 + ctx.rank - ctx.now
            if delay > 0:
                yield ctx.timeout(delay)
            # Disjoint slots per (producer, index): the property is the
            # match order, not concurrent same-address writes.
            disp = ((ctx.rank - 1) * 4 + k) * 8
            yield from ctx.na.put_notify(win, np.zeros(1), 0, disp,
                                         tag=tag)
        return None

    results, _ = run_cluster(nproducers + 1, prog)
    assert results[0] == expected


@settings(max_examples=20, deadline=None)
@given(
    tag_seq=st.lists(st.integers(min_value=0, max_value=2), min_size=2,
                     max_size=8),
    pick=st.integers(min_value=0, max_value=2))
def test_tag_specific_requests_consume_oldest_first(tag_seq, pick):
    """A tag-bound request always gets the OLDEST queued arrival of that
    tag, regardless of what else is in the queue."""
    wanted = [i for i, t in enumerate(tag_seq) if t == pick]

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from ctx.barrier()
            yield from ctx.barrier()     # all notifications arrived
            order = []
            for _ in wanted:
                req = yield from ctx.na.notify_init(win, source=1,
                                                    tag=pick)
                yield from ctx.na.start(req)
                st_ = yield from ctx.na.wait(req)
                order.append(st_.tag)
                yield from ctx.na.request_free(req)
            # Drain the rest with a wildcard to leave clean state.
            rest = len(tag_seq) - len(wanted)
            if rest:
                req = yield from ctx.na.notify_init(
                    win, expected_count=rest)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
            return order
        yield from ctx.barrier()
        for t in tag_seq:
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=t)
        yield from win.flush(0)
        yield from ctx.barrier()
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] == [pick] * len(wanted)


@settings(max_examples=15, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                       max_size=4))
def test_counting_requests_partition_stream(counts):
    """Back-to-back counting requests slice one notification stream into
    consecutive windows; statuses carry the last tag of each window."""
    total = sum(counts)
    tags = [i % 8 for i in range(total)]

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from ctx.barrier()
            yield from ctx.barrier()
            out = []
            for c in counts:
                req = yield from ctx.na.notify_init(win, source=1,
                                                    expected_count=c)
                yield from ctx.na.start(req)
                st_ = yield from ctx.na.wait(req)
                out.append(st_.tag)
                yield from ctx.na.request_free(req)
            return out
        yield from ctx.barrier()
        for t in tags:
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=t)
        yield from win.flush(0)
        yield from ctx.barrier()
        return None

    results, _ = run_cluster(2, prog)
    boundaries = np.cumsum(counts) - 1
    assert results[0] == [tags[b] for b in boundaries]


# ---------------------------------------------------------------------------
# waitany never loses a wakeup
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    sends=st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                             st.integers(min_value=0, max_value=150)),
                   min_size=1, max_size=6),
    delay=st.integers(min_value=0, max_value=300),
    same_node=st.booleans())
# one notification for the first of two requests, polled into the UQ by
# the test of the second: the receiver used to sleep on it forever
@example(k=2, sends=[(0, 0)], delay=117, same_node=False)
def test_waitany_matches_every_notification_exactly_once(k, sends, delay,
                                                         same_node):
    """A server-style sweep: ``k`` persistent single-count requests (one
    tag each, some never notified) stay armed in one ``waitany`` list
    until every notification sent — at drawn gaps, in drawn tag order,
    to a receiver that starts late — has been matched.  No draw may
    deadlock, and each notification is matched exactly once."""
    sends = [(tag % k, gap) for tag, gap in sends]

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from ctx.barrier()
            for i, (tag, gap) in enumerate(sends):
                if gap:
                    yield ctx.timeout(gap * 0.01)
                yield from ctx.na.put_notify(win, np.zeros(1), 1, i * 8,
                                             tag=tag)
            return None
        reqs = []
        for tag in range(k):
            req = yield from ctx.na.notify_init(win, source=0, tag=tag)
            yield from ctx.na.start(req)
            reqs.append(req)
        yield from ctx.barrier()
        if delay:
            yield ctx.timeout(delay * 0.01)
        seen = []
        while len(seen) < len(sends):
            idx, st_ = yield from ctx.na.waitany(reqs)
            assert st_.tag == idx and len(reqs[idx].match_log) == 1
            seen.append((idx, reqs[idx].match_log[0][2]))
            yield from ctx.na.start(reqs[idx])
        assert len(ctx.na.uq) == 0 and not ctx.nic.notification_pending()
        return seen

    results, _ = run_cluster(2, prog, ranks_per_node=2 if same_node else 1)
    seen = results[1]
    assert sorted(t for t, _ in seen) == sorted(t for t, _ in sends)
    # one source: notifications of a tag match in arrival order, and no
    # arrival clock is reported twice for it
    for tag in range(k):
        times = [t for g, t in seen if g == tag]
        assert times == sorted(times) and len(set(times)) == len(times)
