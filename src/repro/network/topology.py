"""Cluster topology: nodes, cores, and rank placement.

Ranks are placed block-wise onto nodes (rank ``r`` lives on node
``r // ranks_per_node``), matching the default placement of ``aprun`` on the
Cray system the paper used.  Intra-node pairs use the shared-memory
transport; inter-node pairs use the uGNI-like transport.

Optionally, nodes are arranged into *dragonfly groups*
(``nodes_per_group``): the Aries network the paper ran on routes
inter-group traffic through global links with higher latency, which the
fabric prices via ``TransportParams.inter_group_L_extra``.
"""

from __future__ import annotations

from repro.errors import NetworkError


class Machine:
    """The physical layout of the simulated cluster."""

    def __init__(self, nranks: int, ranks_per_node: int = 1,
                 nodes_per_group: int | None = None):
        if nranks < 1:
            raise NetworkError(f"need at least one rank, got {nranks}")
        if ranks_per_node < 1:
            raise NetworkError(
                f"ranks_per_node must be >=1, got {ranks_per_node}")
        if nodes_per_group is not None and nodes_per_group < 1:
            raise NetworkError(
                f"nodes_per_group must be >=1, got {nodes_per_group}")
        self.nranks = nranks
        self.ranks_per_node = ranks_per_node
        self.nnodes = (nranks + ranks_per_node - 1) // ranks_per_node
        self.nodes_per_group = nodes_per_group

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise NetworkError(f"rank {rank} out of range [0, {self.nranks})")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def group_of(self, rank: int) -> int:
        """Dragonfly group of ``rank`` (0 if grouping is disabled)."""
        if self.nodes_per_group is None:
            return 0
        return self.node_of(rank) // self.nodes_per_group

    def same_group(self, a: int, b: int) -> bool:
        return self.group_of(a) == self.group_of(b)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Machine(nranks={self.nranks}, "
                f"ranks_per_node={self.ranks_per_node})")
