"""The fabric's behavioural contract, pinned case by case.

Every fabric verb on a bare :class:`~repro.network.fabric.Fabric` with an
enabled :class:`~repro.sim.trace.Tracer`, crossed over three axes:

* **op form** — put, notified put, accumulate, ``send_sys``
  (with both completions, and bare: neither built), get, notified get
  (``reliable`` on and off), atomic;
* **placement** — shared memory, an FMA-sized and a BTE-sized inter-node
  transfer (across a dragonfly group, so the hop extra applies);
* **fate** — clean, lost (dead target node), duplicated + delayed,
  stalled engines.

Each case issues its op twice at t = 0 (so the second queues behind the
first on every engine and rx link) and records every trace record, each
handle's state right after issue and after the run, the fire time and
value (or error) of every completion event, the CQ entries and sys
packets posted, the events scheduled, the link and engine horizons and a
digest of both ranks' memory.  The committed file holds one SHA-256 per
case; a refactor of the fabric that is meant to change nothing must leave
it unchanged, and one meant to move it regenerates the file and explains
the diff::

    PYTHONPATH=src python tests/test_fabric_contract.py --write

``--show OP/PLACEMENT/FATE`` prints one case's full record.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.memory.address import AddressSpace
from repro.network.fabric import Fabric
from repro.network.loggp import TransportParams
from repro.network.topology import Machine
from repro.sim.engine import Engine
from repro.sim.trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "fixtures", "fabric_contract.json")
REGENERATE = "PYTHONPATH=src python tests/test_fabric_contract.py --write"

SPACE = 1 << 16
ADDR = 1024          # target address of every remote access
LOCAL = 32768        # origin landing address of every get
IMM = 0x00070003     # immediate of every notified op
WIN = 5


def _payload(nbytes: int) -> np.ndarray:
    return np.arange(nbytes // 8, dtype=np.float64) + 0.5


#: op form -> issue one op from rank 0 to rank 1
OPS = {
    "put": lambda f, n: f.put(0, 1, ADDR, _payload(n)),
    "put_notify": lambda f, n: f.put(0, 1, ADDR, _payload(n),
                                     win_id=WIN, immediate=IMM),
    "accumulate": lambda f, n: f.put(0, 1, ADDR, _payload(n),
                                     accumulate="sum"),
    "send_sys": lambda f, n: f.send_sys(0, 1, "eager", n,
                                        payload={"tag": 7},
                                        data=_payload(n)),
    "send_sys_bare": lambda f, n: f.send_sys(0, 1, "eager", n,
                                             payload={"tag": 7},
                                             data=_payload(n),
                                             local_done=False,
                                             remote_done=False),
    "get": lambda f, n: f.get(0, 1, ADDR, n, LOCAL),
    "get_notify": lambda f, n: f.get(0, 1, ADDR, n, LOCAL, win_id=WIN,
                                     immediate=IMM),
    "get_notify_unreliable": lambda f, n: f.get(0, 1, ADDR, n, LOCAL,
                                                win_id=WIN, immediate=IMM),
    "amo": lambda f, n: f.amo(0, 1, ADDR, "sum", 5, win_id=WIN,
                              immediate=IMM),
}
#: placement -> (ranks per node, payload bytes); the shm payload rides
#: inline in the notification line
PLACEMENTS = {"shm": (2, 32), "fma": (1, 64), "bte": (1, 8192)}
FATES = {
    "clean": None,
    "lost": FaultPlan(node_failures={1: 0.0}),
    "dup_delay": FaultPlan(dup_prob=1.0, delay_prob=1.0),
    "stall": FaultPlan(stall_prob=1.0),
}


def _digest(arr) -> str | None:
    if arr is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _handle(h) -> list:
    return [h.kind, h.cpu_busy, h.commit_at, h.failed, h.nbytes, h.target]


def record(op: str, placement: str, fate: str) -> dict:
    """Everything one case does, as JSON-ready data."""
    ranks_per_node, nbytes = PLACEMENTS[placement]
    params = TransportParams(inter_group_L_extra=0.25,
                             reliable=op != "get_notify_unreliable")
    eng = Engine()
    spaces = [AddressSpace(r, SPACE) for r in range(2)]
    for space in spaces:
        space.mem.view(np.float64)[:] = np.arange(SPACE // 8)
    fabric = Fabric(eng, Machine(2, ranks_per_node, nodes_per_group=1),
                    spaces, params=params, tracer=Tracer(enabled=True),
                    seed=7, fault_plan=FATES[fate])
    start = eng.events_scheduled()
    handles = [OPS[op](fabric, nbytes) for _ in range(2)]
    issued = [_handle(h) for h in handles]
    fired: list = []

    def watch(i: int, name: str):
        def seen(ev) -> None:
            try:
                outcome = ["ok", ev.value]
            except ReproError as exc:
                outcome = [type(exc).__name__, str(exc)]
            fired.append([i, name, eng.now, *outcome])
        return seen

    for i, h in enumerate(handles):
        for name in ("local_done", "remote_done"):
            ev = getattr(h, name)
            if ev is not None:       # a bare sys message builds neither
                ev.add_callback(watch(i, name))
    eng.run(detect_deadlock=False)
    nics = []
    for nic in fabric.nics:
        cq = [[e.kind, e.source, e.target, e.nbytes, e.time, e.immediate,
               e.win_id, e.target_addr, _digest(e.inline)]
              for queue in (nic.dest_cq, nic.shm_ring)
              for e in queue._entries]
        sys_inbox = [[p.ptype, p.source, p.target, p.nbytes, p.payload,
                      _digest(p.data), p.time, p.san_clock]
                     for p in nic.sys_inbox._items]
        nics.append({"cq": cq, "sys": sys_inbox,
                     "rx": [nic.rx_next_free, nic.rx_bytes],
                     "engines": [nic.fma.stats, nic.bte.stats,
                                 nic.fma._inject.next_free,
                                 nic.bte._inject.next_free,
                                 nic.shm.inline_puts]})
    return {
        "trace": [[r.time, r.kind, r.src, r.dst, r.nbytes,
                   list(r.detail.items())]
                  for r in fabric.tracer.records],
        "issued": issued,
        "settled": [_handle(h) for h in handles],
        "fired": fired,
        "events": eng.events_scheduled() - start,
        "nics": nics,
        "memory": [_digest(space.mem) for space in spaces],
    }


def _key(op: str, placement: str, fate: str) -> str:
    return f"{op}/{placement}/{fate}"


def _encode(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"))


def compute() -> dict[str, str]:
    """``op/placement/fate -> sha256`` of every case's record."""
    return {_key(op, placement, fate): hashlib.sha256(
                _encode(record(op, placement, fate)).encode()).hexdigest()
            for op in OPS for placement in PLACEMENTS for fate in FATES}


def test_every_case_matches_the_committed_contract():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = compute()
    moved = [key for key in sorted(set(golden) | set(actual))
             if golden.get(key) != actual.get(key)]
    first = (json.dumps(record(*moved[0].split("/")), indent=1)
             if moved and moved[0] in actual else "")
    assert not moved, (
        f"{len(moved)} of {len(actual)} fabric case(s) moved against "
        f"{os.path.relpath(GOLDEN, ROOT)}: {', '.join(moved[:8])}. If the "
        f"move is intended, regenerate with `{REGENERATE}` and explain the "
        f"diff.  {moved[0]} now records:\n{first}")


def test_the_contract_sees_each_axis():
    """Each axis value leaves a mark, so no case is vacuous."""
    lost = record("put", "fma", "lost")
    assert lost["settled"][0][3] and ["ok", None] != lost["fired"][-1][3:]
    dup = record("put_notify", "fma", "dup_delay")
    assert any(d == [("fault", "dup-suppressed"), ("op", "put")]
               for *_, d in dup["trace"])
    assert len(dup["nics"][1]["cq"]) == 2
    stall = record("get", "bte", "stall")
    assert any(dict(d).get("fault") == "stall" for *_, d in stall["trace"])
    shm = record("put_notify", "shm", "clean")
    assert shm["nics"][1]["cq"][0][-1] is not None     # inline payload


def test_a_bare_sys_message_schedules_only_its_delivery():
    """With neither completion built, a clean sys message costs one event
    per op — the deliver — and still lands its packet."""
    for placement in PLACEMENTS:
        bare = record("send_sys_bare", placement, "clean")
        assert bare["events"] == 2, placement
        assert bare["fired"] == [] and len(bare["nics"][1]["sys"]) == 2
        full = record("send_sys", placement, "clean")
        assert {k: v for k, v in bare.items() if k not in ("fired",
                                                             "events")} \
            == {k: v for k, v in full.items() if k not in ("fired",
                                                             "events")}


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--show"] and len(args) == 2:
        print(json.dumps(record(*args[1].split("/")), indent=1))
    elif args == ["--write"]:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(compute(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(GOLDEN, ROOT)}")
    else:
        sys.exit(f"usage: {REGENERATE} | --show OP/PLACEMENT/FATE")
