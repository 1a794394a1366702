"""Integration: full applications over mixed shm/uGNI paths and groups.

Placing several ranks per node makes every app exercise both transports in
one run (XPMEM ring + uGNI destination CQ merging in arrival order); adding
dragonfly groups prices a third latency tier.  Numerics must stay exact.
"""

import pytest

from repro.apps.cholesky import run_cholesky
from repro.apps.particles import run_particles
from repro.apps.stencil import run_stencil
from repro.apps.tree import run_tree_reduction
from repro.cluster import ClusterConfig
from repro.faults import FaultPlan
from repro.network.loggp import TransportParams


def cfg(nranks, rpn=2, groups=None, **kw):
    return ClusterConfig(nranks=nranks, ranks_per_node=rpn,
                         nodes_per_group=groups, **kw)


def test_stencil_multi_rank_nodes():
    r = run_stencil("na", 6, rows=20, cols=18, iters=2, verify=True,
                    config=cfg(6))
    assert r["corner"] == pytest.approx(r["corner_expected"])


@pytest.mark.parametrize("mode", ("mp", "na", "onesided"))
def test_cholesky_multi_rank_nodes(mode):
    r = run_cholesky(mode, 4, ntiles=6, b=8, verify=True, config=cfg(4))
    assert r["verified"]


@pytest.mark.parametrize("mode", ("mp", "na"))
def test_particles_multi_rank_nodes(mode):
    r = run_particles(mode, 6, per_rank=30, steps=6, verify=True,
                      config=cfg(6))
    assert r["max_error"] == pytest.approx(0.0, abs=1e-12)


def test_tree_on_dragonfly_groups():
    params = TransportParams(inter_group_L_extra=0.4)
    r = run_tree_reduction("na", 16, arity=4, reps=2,
                           config=cfg(16, rpn=2, groups=2, params=params))
    flat = run_tree_reduction("na", 16, arity=4, reps=2,
                              config=cfg(16, rpn=2, groups=None,
                                         params=params))
    assert r["time_us"] > flat["time_us"]     # global links cost extra


def test_cholesky_on_lossy_network():
    lossy = FaultPlan(drop_prob=0.05, rto=3.0)
    r = run_cholesky("na", 3, ntiles=5, b=8, verify=True,
                     config=ClusterConfig(nranks=3, faults=lossy, seed=11))
    assert r["verified"]          # retransmission delays, never corrupts


def test_stencil_na_with_intra_node_inline_path():
    """2 ranks on one node: the halo doubles ride the XPMEM inline ring."""
    r = run_stencil("na", 2, rows=24, cols=12, iters=2, verify=True,
                    config=cfg(2, rpn=2))
    assert r["corner"] == pytest.approx(r["corner_expected"])
