"""The paper's application case studies (§V–§VI).

* :mod:`repro.apps.pingpong` — latency/bandwidth microbenchmark, Figure 3.
* :mod:`repro.apps.overlap` — computation/communication overlap, Figure 4a.
* :mod:`repro.apps.stencil` — PRK Sync_p2p pipelined stencil, Figures 1/4b.
* :mod:`repro.apps.tree` — 16-ary reduction tree, Figure 4c.
* :mod:`repro.apps.cholesky` — task-based tiled Cholesky, Figure 5.
* :mod:`repro.apps.particles` — dynamic particle exchange (§VI-B's dynamic
  applications: nondeterministic producer sets, point-to-point termination
  via notifications instead of a global allreduce).

Each module exposes ``run_*`` driver functions returning plain dictionaries
of metrics in simulated microseconds, plus the rank programs themselves for
reuse and testing.
"""

from repro.apps.cholesky import CHOLESKY_MODES, run_cholesky
from repro.apps.overlap import OVERLAP_MODES, run_overlap
from repro.apps.particles import PARTICLE_MODES, run_particles
from repro.apps.pingpong import PINGPONG_MODES, run_pingpong
from repro.apps.stencil import STENCIL_MODES, run_stencil
from repro.apps.tree import TREE_MODES, run_tree_reduction

__all__ = [
    "run_pingpong",
    "PINGPONG_MODES",
    "run_overlap",
    "OVERLAP_MODES",
    "run_stencil",
    "STENCIL_MODES",
    "run_tree_reduction",
    "TREE_MODES",
    "run_cholesky",
    "CHOLESKY_MODES",
    "run_particles",
    "PARTICLE_MODES",
]
