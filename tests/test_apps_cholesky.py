"""Task-based Cholesky (Figure 5): kernels, numerics, variants, shapes."""

import numpy as np
import pytest

from repro.apps.cholesky import (CHOLESKY_MODES, FLOPS, TileMatrix,
                                 gemm_update, potrf, run_cholesky,
                                 syrk_update, tree_children, tree_parent,
                                 trsm)
from repro.apps.cholesky.kernels import total_flops
from repro.apps.cholesky.matrix import make_spd
from repro.errors import ReproError


# -- kernels ----------------------------------------------------------------
def test_potrf_matches_numpy():
    a = make_spd(8, seed=1)
    tile = a.copy()
    potrf(tile)
    assert np.allclose(np.tril(tile), np.linalg.cholesky(a))


def test_potrf_rejects_indefinite():
    with pytest.raises(ReproError):
        potrf(-np.eye(4))


def test_trsm_solves_right_triangular_system():
    rng = np.random.default_rng(2)
    lkk = np.linalg.cholesky(make_spd(6, seed=3))
    a = rng.standard_normal((6, 6))
    x = trsm(lkk, a.copy())
    assert np.allclose(x @ lkk.T, a)


def test_gemm_and_syrk_updates():
    rng = np.random.default_rng(4)
    lik = rng.standard_normal((4, 4))
    ljk = rng.standard_normal((4, 4))
    aij = np.zeros((4, 4))
    gemm_update(aij, lik, ljk)
    assert np.allclose(aij, -lik @ ljk.T)
    ajj = np.zeros((4, 4))
    syrk_update(ajj, ljk)
    assert np.allclose(ajj, -ljk @ ljk.T)


def test_flop_counts_positive_and_ordered():
    b = 32
    assert FLOPS["potrf"](b) < FLOPS["trsm"](b) < FLOPS["gemm"](b)
    # Total is ~ (t*b)^3 / 3 for big t.
    t = 16
    n = t * b
    assert total_flops(t, b) == pytest.approx(n ** 3 / 3, rel=0.2)


# -- tiles / distribution ----------------------------------------------------
def test_tile_matrix_block_cyclic_ownership():
    tm = TileMatrix(6, 4, rank=1, nranks=3, materialize=False)
    assert tm.local_columns() == [1, 4]
    assert tm.owner(5) == 2
    assert set(tm.tiles) == {(i, j) for j in (1, 4) for i in range(j, 6)}


def test_tile_matrix_reference_check():
    tm = TileMatrix(4, 4, rank=0, nranks=1, materialize=True, seed=11)
    ref = tm.reference_lower(seed=11)
    # Factor serially through the kernels.
    T, b = 4, 4
    for k in range(T):
        potrf(tm.get(k, k))
        for i in range(k + 1, T):
            trsm(tm.get(k, k), tm.get(i, k))
        for j in range(k + 1, T):
            syrk_update(tm.get(j, j), tm.get(j, k))
            for i in range(j + 1, T):
                gemm_update(tm.get(i, j), tm.get(i, k), tm.get(j, k))
    assert tm.check_against(ref)


def test_bcast_tree_covers_all_ranks_once():
    for size in (2, 5, 9):
        for root in range(size):
            seen = set()
            frontier = [root]
            while frontier:
                r = frontier.pop()
                assert r not in seen
                seen.add(r)
                frontier.extend(tree_children(r, root, size))
            assert seen == set(range(size))
            for r in range(size):
                parent = tree_parent(r, root, size)
                if r == root:
                    assert parent is None
                else:
                    assert r in tree_children(parent, root, size)


# -- end-to-end -------------------------------------------------------------
@pytest.mark.parametrize("mode", CHOLESKY_MODES)
@pytest.mark.parametrize("nranks", [1, 3, 4])
def test_factorization_verified(mode, nranks):
    r = run_cholesky(mode, nranks, ntiles=6, b=8, verify=True)
    assert r["verified"] is True


@pytest.mark.parametrize("mode", CHOLESKY_MODES)
def test_more_tiles_than_pattern(mode):
    r = run_cholesky(mode, 2, ntiles=9, b=4, verify=True)
    assert r["verified"] is True


def test_invalid_args_rejected():
    with pytest.raises(ReproError):
        run_cholesky("bogus", 2, ntiles=4)
    with pytest.raises(ReproError):
        run_cholesky("na", 2, ntiles=300)     # exceeds tag encoding


def test_na_fastest_variant():
    """Figure 5 ordering: NA > MP > OneSided(ring) in GFlop/s."""
    from repro.cluster import ClusterConfig
    g = {}
    for mode in CHOLESKY_MODES:
        cfg = ClusterConfig(nranks=8, flops_per_us=60000)
        g[mode] = run_cholesky(mode, 8, ntiles=12, b=32,
                               config=cfg)["gflops"]
    assert g["na"] > g["mp"] > g["onesided"]


def test_na_advantage_grows_with_scale():
    """Figure 5: NA/MP grows with P (1.24 at P = 4, 1.43 at P = 8 on 4
    base tiles)."""
    from repro.bench.figures import fig5_cholesky
    small, large = fig5_cholesky(nranks_list=(4, 8),
                                 base_tiles=4).column("NA/MP")
    assert large > small


def test_tile_bytes_is_8kb_as_paper():
    r = run_cholesky("na", 2, ntiles=4, b=32)
    assert r["tile_bytes"] == 8192


@pytest.mark.parametrize("mode", CHOLESKY_MODES)
def test_left_looking_variant_verified(mode):
    """The paper names the left-looking Kurzak schedule; both schedules
    must produce the same factor."""
    r = run_cholesky(mode, 3, ntiles=7, b=8, verify=True, variant="left")
    assert r["verified"] is True


def test_unknown_variant_rejected():
    with pytest.raises(ReproError):
        run_cholesky("na", 2, ntiles=4, variant="diagonal")


def test_variants_move_identical_bytes():
    """Left- and right-looking only reschedule compute; the panel
    broadcasts are the same messages."""
    from repro.cluster import Cluster, ClusterConfig
    out = {}
    for variant in ("left", "right"):
        cfg = ClusterConfig(nranks=4, trace=True)
        from repro.apps.cholesky.driver import _cholesky_program
        cluster = Cluster(cfg)
        cluster.run(lambda ctx: _cholesky_program(ctx, "na", 8, 8, False,
                                                  7, variant))
        out[variant] = (cluster.tracer.wire_transactions(),
                        cluster.tracer.bytes_by_kind["wire"])
    assert out["left"] == out["right"]
