"""Tree-reduction model and the NoC parameter preset."""

import pytest

from repro.apps.pingpong import run_pingpong
from repro.apps.stencil import run_stencil
from repro.apps.tree import run_tree_reduction
from repro.cluster import ClusterConfig
from repro.models.performance import (na_put_half_rtt, tree_depth,
                                      tree_reduce_time)
from repro.network.loggp import TransportParams, noc_params


def test_tree_depth():
    assert tree_depth(1, 16) == 0
    assert tree_depth(2, 16) == 1
    assert tree_depth(17, 16) == 1
    assert tree_depth(18, 16) == 2
    assert tree_depth(4, 2) == 2


@pytest.mark.parametrize("nranks,arity", [(17, 16), (33, 16), (15, 2)])
def test_tree_model_within_2x(nranks, arity):
    """The model omits barrier-exit skew (up) and cross-level pipelining
    (down); both effects stay inside a 2x envelope."""
    P = TransportParams()
    sim = run_tree_reduction("na", nranks, arity=arity, elems=1,
                             reps=3)["time_us"]
    pred = tree_reduce_time(P, nranks, arity)
    assert 0.5 * pred <= sim <= 2.0 * pred


def test_tree_model_explains_log_scaling():
    P = TransportParams()
    assert tree_reduce_time(P, 257, 16) == pytest.approx(
        2 * tree_reduce_time(P, 17, 16))


# -- NoC preset ------------------------------------------------------------
def test_noc_preset_scales_o_r():
    """o_recv rescales the matching path: the NA model matches the sim on
    the NoC parameters too."""
    p = noc_params()
    cfg = ClusterConfig(nranks=2, params=p)
    sim = run_pingpong("na", 64, iters=10, config=cfg)["half_rtt_us"]
    assert sim == pytest.approx(na_put_half_rtt(p, 64), rel=0.02)


def test_noc_na_beats_mp_and_onesided():
    p = noc_params()
    lat = {}
    for mode in ("mp", "na", "onesided_pscw", "raw"):
        cfg = ClusterConfig(nranks=2, params=p)
        lat[mode] = run_pingpong(mode, 64, iters=10,
                                 config=cfg)["half_rtt_us"]
    assert lat["na"] < lat["mp"] < lat["onesided_pscw"]
    assert lat["raw"] <= lat["na"]


def test_noc_stencil_na_advantage_persists():
    """§III-A's conjecture: at nanosecond latencies synchronization costs
    relatively more, so NA keeps its lead on the pipelined stencil."""
    gm = {}
    for mode in ("mp", "na"):
        cfg = ClusterConfig(nranks=8, params=noc_params(),
                            flops_per_us=8000.0)
        gm[mode] = run_stencil(mode, 8, rows=48, cols=1280,
                               config=cfg)["gmops"]
    assert gm["na"] > gm["mp"]


def test_default_o_r_still_paper_value():
    """Rescaling must not change the paper-default calibration."""
    from repro.models.performance import na_test_success_cost
    assert na_test_success_cost() == pytest.approx(0.07)
    assert na_test_success_cost(TransportParams()) == pytest.approx(0.07)
