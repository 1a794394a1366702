"""Simulator vs closed-form LogGP model agreement, and calibration fits."""

import pytest

from repro.apps.pingpong import run_pingpong
from repro.models import performance as M
from repro.models.calibration import LogGPFit, fit_loggp
from repro.network.loggp import TransportParams


@pytest.fixture(scope="module")
def P():
    return TransportParams()


@pytest.mark.parametrize("size", [8, 256, 2048])
def test_na_put_model_exact_small(P, size):
    sim = run_pingpong("na", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.na_put_half_rtt(P, size), rel=0.01)


@pytest.mark.parametrize("size", [16384, 131072])
def test_na_put_model_exact_large(P, size):
    sim = run_pingpong("na", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.na_put_half_rtt(P, size), rel=0.01)


@pytest.mark.parametrize("size", [8, 1024, 8192])
def test_mp_eager_model(P, size):
    sim = run_pingpong("mp", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.mp_eager_half_rtt(P, size), rel=0.02)


@pytest.mark.parametrize("size", [16384, 65536])
def test_mp_rndv_model(P, size):
    sim = run_pingpong("mp", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.mp_rndv_half_rtt(P, size), rel=0.05)


@pytest.mark.parametrize("size", [8, 1024, 32768])
def test_pscw_model(P, size):
    sim = run_pingpong("onesided_pscw", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.onesided_pscw_half_rtt(P, size), rel=0.05)


@pytest.mark.parametrize("size", [8, 1024, 65536])
def test_raw_model(P, size):
    sim = run_pingpong("raw", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.raw_put_half_rtt(P, size), rel=0.01)


@pytest.mark.parametrize("size", [8, 2048, 65536])
def test_na_get_model(P, size):
    sim = run_pingpong("na_get", size, iters=10)["half_rtt_us"]
    assert sim == pytest.approx(M.na_get_half_rtt(P, size), rel=0.05)


@pytest.mark.parametrize("size", [8, 1024])
def test_shm_models(P, size):
    sim = run_pingpong("na", size, iters=10, same_node=True)["half_rtt_us"]
    assert sim == pytest.approx(M.na_put_half_rtt(P, size, same_node=True),
                                rel=0.02)


def test_na_receive_overhead_is_paper_o_r(P):
    """The matched-test cost equals the paper's o_r = 0.07 µs."""
    assert M.na_test_success_cost() == pytest.approx(P.o_recv)


def test_paper_headline_na_below_half_of_onesided(P):
    """§V-A: NA needs < 50% of One Sided's time on small transfers."""
    for size in (8, 64, 512):
        na = run_pingpong("na", size, iters=10)["half_rtt_us"]
        os_ = run_pingpong("onesided_pscw", size, iters=10)["half_rtt_us"]
        assert na < 0.5 * os_


def test_paper_headline_na_beats_mp(P):
    for size in (8, 512, 4096):
        na = run_pingpong("na", size, iters=10)["half_rtt_us"]
        mp = run_pingpong("mp", size, iters=10)["half_rtt_us"]
        assert na < mp


def test_paper_headline_na_get_beats_onesided():
    """Figure 3b: the notified get's request-reply still beats One Sided."""
    for size in (8, 512, 8192):
        na = run_pingpong("na_get", size, iters=10)["half_rtt_us"]
        os_ = run_pingpong("onesided_pscw", size, iters=10)["half_rtt_us"]
        assert na < os_


def test_paper_headline_intra_node_na_in_mp_class():
    """Figure 3c: intra-node NA stays in MP's latency class (below 1.2x)
    and below One Sided."""
    for size in (8, 512, 8192):
        lat = {m: run_pingpong(m, size, iters=10,
                               same_node=True)["half_rtt_us"]
               for m in ("mp", "onesided_pscw", "na")}
        assert lat["na"] < lat["onesided_pscw"]
        assert lat["na"] < 1.2 * lat["mp"]


# -- calibration ----------------------------------------------------------
def test_fit_recovers_known_line():
    sizes = [10, 100, 1000, 10000]
    lat = [0.5 + 0.001 * s for s in sizes]
    fit = fit_loggp(sizes, lat, software_overhead=0.2)
    assert fit.L == pytest.approx(0.3)
    assert fit.G == pytest.approx(0.001)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_loggp([1], [1.0])
    with pytest.raises(ValueError):
        fit_loggp([1, 2], [1.0])


def test_fit_g_units_helper():
    fit = LogGPFit(L=1.0, G=0.105e-3, intercept=1.3, residual=0.0)
    assert fit.G_ns_per_byte() == pytest.approx(0.105)


def test_table1_reproduces_paper_parameters():
    """End-to-end: calibration over simulated sweeps recovers Table I."""
    from repro.bench.figures import table1_loggp
    t = table1_loggp(iters=10)
    for row in t.rows:
        _, l_fit, l_paper, g_fit, g_paper = row
        assert l_fit == pytest.approx(l_paper, rel=0.05)
        assert g_fit == pytest.approx(g_paper, rel=0.05)
