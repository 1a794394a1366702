"""Property: generated fault storms never lose an acked write at R >= 2.

Hypothesis generates node-failure-only :class:`~repro.faults.FaultPlan`s
— up to ``replication - 1`` server deaths at arbitrary times and
detection latencies — and runs the fault-tolerant KV service under each.
The durability invariant of the replication protocol is that an *acked*
write (the client collected its full credit count) survives any such
storm: at completion every acked record's final replica set has a live
member, so ``acked_lost`` must be exactly zero.  Value legality of every
get is checked inside the run (``verify=True``).

Run with ``--sanitize`` to layer the synchronization sanitizer's
happens-before checking over every generated storm.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.services import run_kv_ft
from repro.cluster import ClusterConfig
from repro.faults import FaultPlan


@st.composite
def _fault_storms(draw):
    nservers = draw(st.integers(min_value=3, max_value=4))
    replication = draw(st.integers(min_value=2, max_value=nservers - 1))
    ndeaths = draw(st.integers(min_value=1, max_value=replication - 1))
    victims = draw(st.lists(
        st.integers(min_value=0, max_value=nservers - 1),
        min_size=ndeaths, max_size=ndeaths, unique=True))
    # deaths land after setup (validated at runtime) and inside or just
    # past the ~8000us run, so storms hit live traffic
    times = draw(st.lists(
        st.floats(min_value=1_000.0, max_value=9_000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=ndeaths, max_size=ndeaths))
    detect_us = draw(st.floats(min_value=10.0, max_value=500.0,
                               allow_nan=False, allow_infinity=False))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return (nservers, replication,
            dict(zip(victims, times)), detect_us, seed)


@given(_fault_storms())
# a death instant inside a server's matching pass (which takes virtual
# time) once armed a negative death timer instead of crash-exiting
@example(storm=(3, 2, {2: 1000.0000000000001}, 10.0, 27944))
@settings(max_examples=10, deadline=None)
def test_fault_storm_never_loses_acked_write(storm):
    nservers, replication, deaths, detect_us, seed = storm
    nclients = 3
    cfg = ClusterConfig(
        nranks=nservers + nclients, ranks_per_node=2,
        faults=FaultPlan(node_failures=deaths, detect_us=detect_us))
    r = run_kv_ft(nservers=nservers, nclients=nclients,
                  replication=replication, reqs_per_client=8,
                  rate_rps=8_000.0, nkeys=16, ckpt_every=3,
                  verify=True, seed=seed, config=cfg)
    # the invariant under test: no acked write lost at R >= 2 with at
    # most R-1 deaths (run_kv_ft also audits that every ack had a
    # matching server-side apply, raising if not)
    assert r["acked_lost"] == 0
    assert r["completed"] + r["failed"] == r["requests"]
    # a death planned past the natural end of stream never crash-exits
    # (the server saw every EOS credit first)
    assert r["crashed"] <= len(deaths)
    assert 0.0 <= r["availability"] <= 1.0
