"""Experiment harness: one driver per figure/table of the paper.

Each ``fig_*``/``table_*`` function runs the full parameter sweep on the
simulator and returns a :class:`~repro.bench.report.Table` whose rows mirror
what the paper plots; ``python -m repro.bench`` regenerates everything and
prints the tables (the source of EXPERIMENTS.md).

The drivers accept a ``scale`` factor shrinking domain sizes / process
counts so the pure-Python simulation stays fast; shapes (who wins, by what
factor, where crossovers fall) are preserved.
"""

from repro.bench.figures import (
    ALL_EXPERIMENTS,
    fig1_stencil_strong,
    fig2_transactions,
    fig3a_pingpong_put,
    fig3b_pingpong_get,
    fig3c_pingpong_shm,
    fig4a_overlap,
    fig4b_stencil_weak,
    fig4c_tree,
    fig5_cholesky,
    sec5_cache_misses,
    table1_loggp,
)
from repro.bench.load import LatencyDigest, ZipfKeys, arrival_times
from repro.bench.report import Table, format_table
from repro.bench.services import svc_kv, svc_pubsub
from repro.bench.runner import run_experiment, write_bench_json

__all__ = [
    "Table",
    "format_table",
    "run_experiment",
    "write_bench_json",
    "fig1_stencil_strong",
    "fig3a_pingpong_put",
    "fig3b_pingpong_get",
    "fig3c_pingpong_shm",
    "fig4a_overlap",
    "fig4b_stencil_weak",
    "fig4c_tree",
    "fig5_cholesky",
    "table1_loggp",
    "sec5_cache_misses",
    "fig2_transactions",
    "svc_kv",
    "svc_pubsub",
    "arrival_times",
    "ZipfKeys",
    "LatencyDigest",
    "ALL_EXPERIMENTS",
]
