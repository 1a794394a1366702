"""Deterministic random-number streams.

Each consumer (experiment, rank, subsystem) derives its own independent
stream from a root seed and a label, so adding randomness to one subsystem
never perturbs another — a standard reproducibility technique in parallel
simulators.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a 63-bit child seed from a root seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


class RngStream:
    """A labelled, independently-seeded ``numpy`` Generator wrapper.

    The Generator is built at the first draw: a stream nobody draws from
    (most ranks' in most runs) costs its seed and labels only.
    """

    __slots__ = ("seed", "labels", "_gen")

    def __init__(self, root_seed: int, *labels: object):
        self.seed = derive_seed(root_seed, *labels)
        self.labels = labels
        self._gen: np.random.Generator | None = None

    @property
    def _rng(self) -> np.random.Generator:
        gen = self._gen
        if gen is None:
            gen = self._gen = np.random.default_rng(self.seed)
        return gen

    def child(self, *labels: object) -> "RngStream":
        """Derive a sub-stream (e.g. per-rank from per-experiment)."""
        return RngStream(self.seed, *labels)

    # Thin pass-throughs for the operations the simulator uses.
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high))

    def random(self) -> float:
        return float(self._rng.random())

    def exponential(self, scale: float) -> float:
        return float(self._rng.exponential(scale))

    def choice(self, seq):
        return seq[int(self._rng.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def array(self, shape, dtype=np.float64) -> np.ndarray:
        """Random array in [0, 1); used to fill test buffers."""
        return self._rng.random(shape).astype(dtype, copy=False)
