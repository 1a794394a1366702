"""PRK Sync_p2p stencil: numerics vs serial reference, and shapes."""

import pytest

from repro.apps.stencil import STENCIL_MODES, _serial_reference, run_stencil
from repro.bench.figures import fig1_stencil_strong, fig4b_stencil_weak
from repro.errors import ReproError


@pytest.mark.parametrize("mode", STENCIL_MODES)
def test_numerics_match_serial_reference(mode):
    r = run_stencil(mode, 4, rows=24, cols=20, iters=1, verify=True)
    assert r["corner"] == pytest.approx(r["corner_expected"])


@pytest.mark.parametrize("mode", STENCIL_MODES)
def test_numerics_multiple_iterations(mode):
    r = run_stencil(mode, 3, rows=16, cols=12, iters=3, verify=True)
    assert r["corner"] == pytest.approx(r["corner_expected"])


def test_numerics_uneven_column_split():
    r = run_stencil("na", 5, rows=12, cols=17, iters=2, verify=True)
    assert r["corner"] == pytest.approx(r["corner_expected"])


def test_single_rank_runs():
    r = run_stencil("mp", 1, rows=16, cols=8, iters=1, verify=True)
    assert r["corner"] == pytest.approx(r["corner_expected"])


def test_serial_reference_closed_form():
    # With the boundary init a[0,j]=j, a[i,0]=i, one sweep gives
    # a[i,j] = i + j, so the corner is (rows-1) + (cols-1).
    assert _serial_reference(10, 7, 1) == pytest.approx(15.0)


def test_invalid_mode_and_grid_rejected():
    with pytest.raises(ReproError):
        run_stencil("bogus", 2, rows=16, cols=16)
    with pytest.raises(ReproError):
        run_stencil("na", 8, rows=16, cols=4)   # fewer cols than ranks
    with pytest.raises(ReproError):
        run_stencil("na", 2, rows=1, cols=16)


def test_na_beats_mp_beats_onesided():
    """The Figure 1/4b ordering at a reduced scale."""
    gm = {m: run_stencil(m, 8, rows=200, cols=640)["gmops"]
          for m in ("mp", "na", "pscw", "fence")}
    assert gm["na"] > gm["mp"]
    assert gm["mp"] > gm["pscw"]
    assert gm["mp"] > gm["fence"]


def test_na_advantage_grows_when_latency_bound():
    """Strong scaling shrinks per-rank compute; NA's lighter per-message
    path should widen the gap (Figure 1)."""
    wide = {m: run_stencil(m, 2, rows=128, cols=1280)["gmops"]
            for m in ("mp", "na")}
    narrow = {m: run_stencil(m, 16, rows=128, cols=1280)["gmops"]
              for m in ("mp", "na")}
    assert (narrow["na"] / narrow["mp"]) > (wide["na"] / wide["mp"])


def test_fig1_na_over_mp_above_1_4_at_p32():
    """Figure 1's P = 32 claim: NA > 1.4x MP, and > 4x both One Sided
    modes.  96 rows is the smallest domain with a clear margin: NA/MP
    reads 1.51 here, but 1.45 at 64 rows and 1.40 at 48, which leave a
    timing-model change almost no room."""
    [(_p, _mp, fence, pscw, na, na_mp)] = fig1_stencil_strong(
        nranks_list=(32,), rows=96).rows
    assert na_mp > 1.4
    assert na > 4 * max(fence, pscw)


def test_fig4b_na_over_twice_one_sided_at_every_weak_point():
    """Figure 4b: NA beats MP and more than doubles both One Sided
    modes at every weak-scaling point."""
    table = fig4b_stencil_weak(nranks_list=(2, 4, 8), rows=64, scale=1.0)
    for _p, _mp, fence, pscw, na, na_mp in table.rows:
        assert na_mp > 1.0
        assert na > 2 * max(fence, pscw)


def test_metrics_fields():
    r = run_stencil("na", 2, rows=32, cols=16)
    assert r["mode"] == "na"
    assert r["time_us"] > 0
    assert r["gmops"] > 0
    assert "corner" not in r       # only present with verify=True
