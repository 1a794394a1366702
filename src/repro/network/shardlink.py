"""Inter-shard routing and the serializable cross-shard packet type.

The sharded DES core (:mod:`repro.sim.shard`) partitions ranks across
worker processes, each owning a shard-local engine + fabric slice.  This
module holds the pieces both sides of that boundary agree on:

* :class:`ShardRouting` — the node-aligned rank→shard partition and the
  conservative *lookahead* derived from the LogGP transport parameters;
* :class:`ShardPacket` — the one message type that crosses shard
  boundaries, and its wire codec (:data:`WIRE_FIELDS`,
  :func:`encode_packet` / :func:`decode_packet`): one record per packet
  holding only what its ptype carries, a bucket of them per pipe message;
* :class:`RankTable` — a sparse stand-in for the per-rank lists (spaces,
  NICs, ranks, endpoints) that keeps ``len()`` equal to the global rank
  count while holding only the shard's local entries, and raises a clear
  error on any cross-shard direct object access.

Shards are split on *node* boundaries, so the shared-memory transport
never crosses a shard: every cross-shard transfer rides uGNI (FMA/BTE),
whose minimum wire latency is the safe lookahead window.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections.abc import Iterator
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any

import numpy as np

from repro.errors import NetworkError
from repro.network.loggp import TransportParams
from repro.network.topology import Machine


class RankTable:
    """Sparse per-rank table: local entries only, global ``len()``.

    Indexing a rank outside the shard raises :class:`NetworkError` naming
    the table — the diagnostic for simulator code that reaches across the
    shard boundary through direct object access (e.g. the counter engine's
    ``ctx.cluster.ranks[source]``) instead of the fabric.
    """

    __slots__ = ("_items", "_nranks", "_kind")

    def __init__(self, items: dict[int, Any], nranks: int, kind: str):
        self._items = items
        self._nranks = nranks
        self._kind = kind

    def __len__(self) -> int:
        return self._nranks

    def __getitem__(self, rank: int) -> Any:
        try:
            return self._items[rank]
        except (KeyError, TypeError):
            raise NetworkError(
                f"{self._kind}[{rank!r}] is not in this shard: direct "
                f"cross-shard object access is not supported under "
                f"sharded execution (local ranks: "
                f"{sorted(self._items)[:8]}...)") from None

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items.values())


class ShardRouting:
    """Node-aligned rank→shard partition plus the lookahead window.

    Nodes are split into ``shards`` contiguous blocks (block ``s`` holds
    nodes ``[s*nnodes//shards, (s+1)*nnodes//shards)``), so intra-node
    (shared-memory) traffic never crosses a shard boundary and every
    cross-shard transfer pays at least the minimum uGNI wire latency —
    which is exactly the conservative synchronization window.
    """

    def __init__(self, machine: Machine, shards: int):
        if shards < 1:
            raise NetworkError(f"need at least one shard, got {shards}")
        if shards > machine.nnodes:
            raise NetworkError(
                f"{shards} shards for {machine.nnodes} nodes: shards are "
                f"node-aligned, use at most one shard per node")
        self.machine = machine
        self.shards = shards
        nnodes = machine.nnodes
        #: node -> shard (contiguous blocks, balanced within one node)
        self._node_shard = [min(n * shards // nnodes, shards - 1)
                            for n in range(nnodes)]

    def shard_of(self, rank: int) -> int:
        return self._node_shard[self.machine.node_of(rank)]

    def ranks_of(self, shard: int) -> list[int]:
        return [r for r in range(self.machine.nranks)
                if self._node_shard[self.machine.node_of(r)] == shard]

    def lookahead(self, params: TransportParams) -> float:
        """The conservative window width W (µs).

        Any cross-shard effect is carried by a uGNI transfer whose effect
        time is at least its issue time plus the engine's wire latency
        ``L``; since shards only advance ``W = min(L_fma, L_bte)`` past
        the global minimum next-event time per window, every packet
        generated inside a window takes effect at or after the boundary
        where it is delivered (see docs/architecture.md §11).
        """
        return min(params.fma.L, params.bte.L)


@dataclass(slots=True)
class ShardPacket:
    """One cross-shard message (request, response, or control).

    ``ptype`` selects the handler at the receiving shard.  The four
    request types carry one op's hand-off from its origin half to its
    target half (:data:`WIRE_ARGS` maps the fields); the three response
    types carry the target half's result back to the parked return leg:

    ======== ============================================================
    put      -> ``Fabric._land_put``; answered by ``ack``
    sys      -> ``Fabric._land_sys``; answered by ``ack``
    get      -> ``Fabric._land_get``; answered by ``get-resp`` at serve
    amo      -> ``Fabric._land_amo``; answered by ``amo-resp`` at execute
    ack      reserved commit + ack arrival -> ``Fabric._finish_send``
    get-resp ideal data arrival, gap, bytes -> ``Fabric._finish_get``
    amo-resp fetched old value -> ``Fabric._finish_amo``
    win-reg  window-registration broadcast (collective win_allocate)
    ======== ============================================================

    ``sort_time``/``origin``/``op_id`` define the deterministic boundary
    processing order; ``op_id`` keys the origin fabric's pending-op table
    for responses.  A packet pickles as the wire record of its ptype
    (:data:`WIRE_FIELDS`, :func:`encode_packet`): a field that type does
    not carry comes back as its default, and ``data`` — always the raw
    ``uint8`` snapshot the origin half took — as bytes.
    """

    ptype: str
    origin: int
    target: int
    op_id: int
    sort_time: float
    #: explicit destination shard (win-reg broadcasts); None = shard of
    #: ``target``
    shard: int | None = None
    nbytes: int = 0
    #: requests: origin-computed ideal commit / data arrival (pre
    #: rx-reservation); ack: the commit the target NIC reserved
    t_commit: float = 0.0
    #: response-engine floor (get), execute time (amo), ack arrival (ack)
    t_exec: float = 0.0
    #: per-byte gap and wire latency of the engine that priced the leg
    G: float = 0.0
    L: float = 0.0
    hop: float = 0.0
    target_addr: int = 0
    immediate: int | None = None
    win_id: int | None = None
    accumulate: str | None = None
    #: element type of an accumulate / atomic (any numpy dtype-like)
    acc_dtype: Any = None
    amo_op: str | None = None
    sys_ptype: str | None = None
    operand: int = 0
    compare: int | None = None
    value: Any = None
    data: np.ndarray | None = None
    #: python headers of a sys message; a win-reg broadcast's record
    payload: dict | None = None
    #: the op's fault fate (requests; ``None`` on a fault-free fabric)
    fate: Any = None

    def __reduce__(self):
        # the wire record of this ptype, not all 25 fields: boundary
        # batches are the hot pipe path
        return decode_packet, (encode_packet(self),)


#: request ptype -> the packet field carrying each element of the ``op``
#: tuple that verb's origin half hands to its target half
#: (``Fabric._land_<verb>``), the fault fate last — the one table of what
#: crosses the hand-off (docs/architecture.md §3)
WIRE_ARGS: dict[str, tuple[str, ...]] = {
    "put": ("origin", "target", "nbytes", "t_commit", "G", "L",
            "target_addr", "data", "immediate", "win_id", "accumulate",
            "acc_dtype", "fate"),
    "sys": ("origin", "target", "nbytes", "t_commit", "G", "L",
            "sys_ptype", "payload", "data", "fate"),
    "get": ("origin", "target", "nbytes", "t_exec", "hop", "target_addr",
            "immediate", "win_id", "fate"),
    "amo": ("origin", "target", "nbytes", "t_exec", "target_addr",
            "amo_op", "operand", "compare", "acc_dtype", "immediate",
            "win_id", "fate"),
}
_UNPACK = {verb: attrgetter(*names) for verb, names in WIRE_ARGS.items()}

#: ptype -> every field a packet of that type carries on the wire: the
#: ordering header, then the hand-off tuple (requests) or the result the
#: return leg needs (responses); any other field holds its default
WIRE_FIELDS: dict[str, tuple[str, ...]] = {
    ptype: ("ptype", "op_id", "sort_time") + names
    for ptype, names in {
        **WIRE_ARGS,
        "ack": ("origin", "target", "t_commit", "t_exec"),
        "get-resp": ("origin", "target", "t_commit", "G", "data"),
        "amo-resp": ("origin", "target", "value"),
        "win-reg": ("origin", "target", "shard", "payload"),
    }.items()}
#: the same rows without ``data``, which travels last, as ``bytes``
_PLAIN = {ptype: tuple(n for n in names if n != "data")
          for ptype, names in WIRE_FIELDS.items()}
_PACK = {ptype: attrgetter(*names) for ptype, names in _PLAIN.items()}
_FIELDS = dataclasses.fields(ShardPacket)
_DEFAULTS = tuple(f.default for f in _FIELDS)


def _expander(carried: tuple[str, ...]) -> itemgetter:
    """Picks the constructor's positional arguments out of ``values +
    _DEFAULTS``, ``values`` holding the ``carried`` fields in that order:
    a carried field's value, any other field's default."""
    return itemgetter(*(
        carried.index(f.name) if f.name in carried else len(carried) + i
        for i, f in enumerate(_FIELDS)))


_FROM_RECORD = {ptype: _expander(names + ("data",))
                for ptype, names in _PLAIN.items()}
_FROM_OP = {verb: _expander(WIRE_FIELDS[verb]) for verb in WIRE_ARGS}


def request_packet(verb: str, op_id: int, sort_time: float,
                   op: tuple) -> ShardPacket:
    """Pack one ``verb``'s hand-off tuple ``op`` for shipment."""
    return ShardPacket(*_FROM_OP[verb](
        (verb, op_id, sort_time) + op + _DEFAULTS))


def wire_args(pkt: ShardPacket) -> tuple:
    """The hand-off tuple ``op`` a request packet carries."""
    return _UNPACK[pkt.ptype](pkt)


def encode_packet(pkt: ShardPacket) -> tuple:
    """The wire record of ``pkt``: its ptype's ``WIRE_FIELDS`` values,
    the byte payload last and as ``bytes`` (``None`` when it has none)."""
    data = pkt.data
    return _PACK[pkt.ptype](pkt) + (
        None if data is None else data.tobytes(),)


def decode_packet(record: tuple) -> ShardPacket:
    """The packet a wire record was made from (``data`` comes back as a
    read-only ``uint8`` array over the received bytes)."""
    pkt = ShardPacket(*_FROM_RECORD[record[0]](record + _DEFAULTS))
    if pkt.data is not None:
        pkt.data = np.frombuffer(pkt.data, np.uint8)
    return pkt


def encode_bucket(packets: list[ShardPacket]) -> bytes:
    """One boundary bucket as it crosses the link: its wire records."""
    return pickle.dumps([encode_packet(p) for p in packets],
                        pickle.HIGHEST_PROTOCOL)


def decode_bucket(blob: bytes) -> list[ShardPacket]:
    """The packets of a bucket another worker encoded, in its order."""
    return [decode_packet(r) for r in pickle.loads(blob)]


def partition_summary(routing: ShardRouting) -> str:
    """Human-readable shard layout (for logs and error messages)."""
    sizes = [len(routing.ranks_of(s)) for s in range(routing.shards)]
    return (f"{routing.shards} shards over {routing.machine.nnodes} nodes "
            f"({routing.machine.nranks} ranks; shard sizes {sizes})")
