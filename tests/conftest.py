"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import Cluster, ClusterConfig
from repro.network.loggp import TransportParams
from repro.sim.engine import Engine

pytest_plugins = ("repro.analysis.pytest_plugin",)

# Tier-1 is a property of the commit, not of the draw: by default every
# property test derives its examples from its own source, so a red run
# means the code changed.  ``HYPOTHESIS_PROFILE=explore`` draws afresh
# each run (and 1000 examples where a test pins no count of its own) to
# *find* counter-examples; pin what it finds with ``@example``.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, max_examples=1000,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run every cluster with the synchronization sanitizer on "
             "(sets REPRO_SANITIZE=1; see docs/architecture.md)")


def pytest_configure(config):
    if config.getoption("--sanitize"):
        os.environ["REPRO_SANITIZE"] = "1"


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def params() -> TransportParams:
    return TransportParams()


def run_cluster(nranks: int, program, *, check=None, **cfg_kw):
    """Run ``program`` on a fresh cluster; returns (results, cluster)."""
    cluster = Cluster(ClusterConfig(nranks=nranks, **cfg_kw))
    results = cluster.run(program)
    if check is not None:
        check(results, cluster)
    return results, cluster


def filled(n: int, value: float = 1.0, dtype=np.float64) -> np.ndarray:
    return np.full(n, value, dtype=dtype)
