"""LogGP parameter model and transport selection."""

import pytest

from repro.apps.overlap import run_overlap
from repro.apps.pingpong import run_pingpong
from repro.cluster import ClusterConfig
from repro.network.loggp import LogGPParams, TransportParams


def test_defaults_match_paper_table1():
    p = TransportParams()
    assert p.shm.L == pytest.approx(0.25)
    assert p.shm.G == pytest.approx(0.080e-3)
    assert p.fma.L == pytest.approx(1.02)
    assert p.fma.G == pytest.approx(0.105e-3)
    assert p.bte.L == pytest.approx(1.32)
    assert p.bte.G == pytest.approx(0.101e-3)


def test_defaults_match_paper_call_costs():
    p = TransportParams()
    assert p.o_send == pytest.approx(0.29)   # t_na
    assert p.o_recv == pytest.approx(0.07)   # o_r
    assert p.t_init == pytest.approx(0.07)
    assert p.t_free == pytest.approx(0.04)
    assert p.t_start == pytest.approx(0.008)


def test_serialization_includes_gap():
    p = LogGPParams(L=1.0, G=0.001, g=0.05)
    assert p.serialization(100) == pytest.approx(0.05 + 0.1)


def test_engine_selection_by_size_and_locality():
    p = TransportParams()
    assert p.engine_for(64, same_node=True) is p.shm
    assert p.engine_for(10**6, same_node=True) is p.shm
    assert p.engine_for(p.fma_max, same_node=False) is p.fma
    assert p.engine_for(p.fma_max + 1, same_node=False) is p.bte


def test_with_returns_modified_copy():
    p = TransportParams()
    q = p.with_(eager_max=1024)
    assert q.eager_max == 1024
    assert p.eager_max == 8192
    assert q.fma == p.fma


def _na_half_rtt(size, same_node=False, **knobs):
    cfg = ClusterConfig(nranks=2, ranks_per_node=2 if same_node else 1,
                        params=TransportParams(**knobs))
    return run_pingpong("na", size, iters=15, same_node=same_node,
                        config=cfg)["half_rtt_us"]


def test_fma_bte_crossover_ablation():
    """FMA (lower L, no descriptor post) wins latency for small puts and
    the gap closes with size; BTE's reason to exist is CPU offload, so it
    wins overlap at 64 KB."""
    fma, bte = 1 << 22, 0                  # fma_max forcing each engine
    gap = {size: _na_half_rtt(size, fma_max=bte)
           - _na_half_rtt(size, fma_max=fma) for size in (512, 65536)}
    assert gap[512] > 0
    assert gap[65536] < gap[512] * 1.5
    overlap = {}
    for fma_max in (fma, bte):
        cfg = ClusterConfig(nranks=2,
                            params=TransportParams(fma_max=fma_max))
        overlap[fma_max] = run_overlap("na", 65536, iters=8,
                                       config=cfg)["overlap_ratio"]
    assert overlap[bte] > overlap[fma]


def test_inline_transfer_ablation():
    """§IV-C: a 40 B shm notified put inside the notification cache line
    beats the copy path; above the cutoff the knob changes nothing."""
    assert (_na_half_rtt(40, same_node=True, inline_max=48)
            < _na_half_rtt(40, same_node=True, inline_max=0))
    assert (_na_half_rtt(4096, same_node=True, inline_max=48)
            == pytest.approx(_na_half_rtt(4096, same_node=True,
                                          inline_max=0), rel=1e-9))
