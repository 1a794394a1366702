"""Static data-race and buffer-overlap checking over concrete traces.

The happens-before rules are the dynamic sanitizer's, not a copy of
them: :class:`_ClockPass` *is* a :class:`repro.sanitizer.Sanitizer`,
driven over the replayed linearization (:mod:`repro.analysis.replay`)
the way ``network/fabric.py`` and ``rma/window.py`` drive it over a
simulated run — ``op_begin`` / ``op_child`` / ``op_commit`` per remote
operation, ``acquire_op`` per notification match and flush,
``release`` + ``acquire`` across a collective, ``cpu_access`` per local
view.  Instead of raising on the first conflict of one schedule, its
record hook collects every access; two conflicting accesses to
overlapping bytes with no happens-before path are reported as one of

* ``race.overlap-write``  — unordered writes overlap,
* ``race.unordered-read`` — a read overlaps an unordered write,
* ``race.stale-view``     — a local numpy view races a remote access.

What is static-only is the part no single run can see.  The checker
runs only on programs whose geometry resolved exactly
(``Trace.race_exact``); the replay's matching of posts to waits is
verified per wait — any compatible post that is not provably issued
after the wait completed downgrades that wait to a sound k-th-smallest
lower bound, so the static happens-before is never stronger than every
real schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.instantiate import COp, Trace, WindowVal
from repro.analysis.ir import Program
from repro.analysis.replay import OpId, Replay, compatible, replay
from repro.analysis.report import Finding
from repro.network.loggp import TransportParams
from repro.network.transports.ugni import BteEngine, FmaEngine
from repro.sanitizer import ATOMIC, READ, WRITE, Access, OpClock, Sanitizer
from repro.sanitizer.clocks import covers, join_into
from repro.sanitizer.shadow import kinds_conflict

#: pairwise ordering tests before the sweep gives up (defensive cap)
MAX_PAIR_TESTS = 2_000_000

#: clock-fixpoint passes for downgraded-wait lower bounds
MAX_BOUND_PASSES = 8

#: a byte range of one segment: ("win", index, owner) | ("buf", rank, idx)
Seg = tuple[str, int, int]

#: the tracker speaks flat addresses; every segment gets one stride of an
#: abstract address space, so overlap is always within one segment
_SEG_STRIDE = 1 << 48


@dataclass
class _Access:
    """One access the tracker recorded, with the clock it was made at."""

    rec: Access
    vc: dict[int, int]
    by: int                     # rank whose trace op performed it
    line: int

    @property
    def is_view(self) -> bool:
        return self.rec.actor == self.by    # CPU access, not an op's leg


class _ClockPass(Sanitizer):
    """The tracker driven over a replayed linearization.

    It is its own engine: ``now`` is the position in the linearization.
    """

    def __init__(self, run: Replay, downgraded: set[OpId],
                 bounds: dict[OpId, dict[int, int]], collect: bool):
        super().__init__(self, len(run.states))
        self.run = run
        self.downgraded = downgraded
        self.bounds = bounds
        self.collect = collect
        self.now = 0.0
        #: the trace op being executed: who and where (the static
        #: counterpart of ``tracker.call_site``)
        self.by = self.line = 0
        self.site = ""
        self.segs: dict[Seg, int] = {}
        #: per-rank ops awaiting a flush, as a *sanitized* ``Window``
        #: keeps them: (win, target, remote leg, local leg)
        self.pending: list[list[tuple[
            WindowVal | None, int | None, OpClock, OpClock | None]]] = [
                [] for _ in run.states]
        #: post id -> the clock its notification carries
        self.posts: dict[OpId, OpClock] = {}
        self.completion: dict[OpId, int] = {}
        self.accesses: list[_Access] = []

    def _record(self, rank: int, rec: Access, vc: dict[int, int]) -> None:
        self.accesses.append(_Access(rec, dict(vc), self.by, self.line))

    def _addr(self, seg: Seg, offset: int) -> int:
        return self.segs.setdefault(seg, len(self.segs)) * _SEG_STRIDE \
            + offset

    # -- op execution ----------------------------------------------------
    def execute(self) -> None:
        for step, item in enumerate(self.run.schedule):
            self.now = float(step)
            if isinstance(item, list):
                self._collective(item)
                continue
            op = self.run.op(item)
            self.by, self.line = item[0], op.line
            self.site = f"line {op.line} (rank {self.by})"
            if op.kind in ("post", "rma"):
                self._remote_op(item, op)
            elif op.kind == "wait":
                self._wait(item, op)
            elif op.kind == "flush":
                self._flush(self.by, op.win, op.target, op.local)
            elif op.kind == "view" and self.collect:
                self._view(op)

    def _remote_op(self, oid: OpId, op: COp) -> None:
        assert op.target is not None and op.win is not None
        rank = self.by
        begun = self.op_begin(rank, self.site)
        unit = self.run.states[op.target].trace.win_meta.get(
            op.win.index, (-1, 1))[1]
        nbytes = max(op.nbytes, 0)
        blocks = [(self._addr(("win", op.win.index, op.target),
                              op.disp * unit), nbytes)]
        if op.rma == "get":
            # two legs, two actors, as ``Fabric.get`` has them: the
            # remote read and the dependent delivery into ``op.buf``
            delivery = self.op_child(begun)
            self.op_commit(begun, rank, op.target, blocks, kind=READ,
                           record=self.collect)
            if op.buf is not None:
                self.op_commit(
                    delivery, op.target, rank,
                    [(self._addr(("buf", op.buf.rank, op.buf.index),
                                 op.buf_off), nbytes)],
                    record=self.collect)
            self.pending[rank].append(
                (op.win, op.target, delivery, delivery))
        else:
            # at or below the FMA ceiling a transfer rides an in-order
            # channel on every transport pairing, so chaining it is
            # sound for any node mapping
            chan = (FmaEngine.san_channel
                    if 0 <= op.nbytes <= TransportParams.fma_max
                    else BteEngine.san_channel)
            self.op_commit(begun, rank, op.target, blocks,
                           kind=ATOMIC if op.rma == "acc" else WRITE,
                           chan=chan, record=self.collect)
            self.pending[rank].append((op.win, op.target, begun, None))
        if op.kind == "post":
            self.posts[oid] = begun     # a get notifies at its READ leg

    def _wait(self, oid: OpId, op: COp) -> None:
        if oid in self.downgraded or op.mech == "gaspi":
            # gaspi waitsome picks slots nondeterministically: acquire
            # nothing; downgraded waits acquire their pool lower bound
            self.acquire(self.by, self.bounds.get(oid))
        else:
            for pid in self.run.matching[oid]:
                self.acquire_op(self.by, self.posts[pid])
        self.release(self.by)
        self.completion[oid] = self._tick[self.by]

    def _flush(self, rank: int, win: WindowVal | None,
               target: int | None, local: bool) -> None:
        keep = []
        for entry in self.pending[rank]:
            pwin, ptarget, remote, local_leg = entry
            if (win is not None and pwin != win) or \
                    (target is not None and ptarget != target):
                keep.append(entry)
            elif not local:
                self.acquire_op(rank, remote)
            elif local_leg is None:
                keep.append(entry)      # puts need a full flush
            else:
                self.acquire_op(rank, local_leg)
        self.pending[rank] = keep

    def _view(self, op: COp) -> None:
        if op.win is not None:
            seg: Seg = ("win", op.win.index, self.by)
        else:
            assert op.buf is not None
            seg = ("buf", op.buf.rank, op.buf.index)
        self.cpu_access(self.by, self._addr(seg, op.disp),
                        max(op.nbytes, 0),
                        WRITE if op.rma == "w" else READ, self.site)

    def _collective(self, group: list[OpId]) -> None:
        # win_free flushes its window everywhere before the rendezvous
        for oid in group:
            op = self.run.op(oid)
            if op.kind == "wfree":
                self._flush(oid[0], op.win, None, False)
        joined: dict[int, int] = {}
        for rank, _index in group:
            join_into(joined, self.release(rank))
        for rank, _index in group:
            self.acquire(rank, joined)


def _kth_smallest_bound(pool: list[dict[int, int]],
                        k: int) -> dict[int, int]:
    """Componentwise k-th smallest over the pool (missing = 0): with at
    least ``k`` pool posts consumed, each component is at least this."""
    if not pool or k <= 0:
        return {}
    k = min(k, len(pool))
    out: dict[int, int] = {}
    components: set[int] = set()
    for vc in pool:
        components.update(vc)
    for actor in components:
        values = sorted(vc.get(actor, 0) for vc in pool)
        value = values[k - 1]
        if value > 0:
            out[actor] = value
    return out


def _compute_clocks(run: Replay, downgraded: set[OpId],
                    wait_depth: dict[OpId, int],
                    pools: dict[OpId, list[OpId]]) -> _ClockPass:
    """Iterate clock passes until downgraded-wait bounds stabilize."""
    bounds: dict[OpId, dict[int, int]] = {}
    passes = MAX_BOUND_PASSES if downgraded else 1
    for step in range(passes):
        clocks = _ClockPass(run, downgraded, bounds, step == passes - 1)
        clocks.execute()
        new_bounds = {
            wid: _kth_smallest_bound(
                [clocks.posts[pid].vc for pid in pools[wid]],
                wait_depth[wid])
            for wid in downgraded}
        if new_bounds == bounds:
            break
        bounds = new_bounds
    if not clocks.collect:
        clocks = _ClockPass(run, downgraded, bounds, True)
        clocks.execute()
    return clocks


def _verify(run: Replay, clocks: _ClockPass, downgraded: set[OpId],
            pools: dict[OpId, list[OpId]]) -> set[OpId]:
    """Waits whose replay matching is not forced in every schedule."""
    bad: set[OpId] = set()
    for rank, state in enumerate(run.states):
        consumed: set[OpId] = set()
        for index, op in enumerate(state.trace.ops):
            wid = (rank, index)
            if op.kind != "wait" or wid in downgraded or \
                    op.mech == "gaspi":
                continue
            mine = set(run.matching[wid])
            # a rival post threatens the matching unless it was issued
            # knowing this wait had already completed
            if any(clocks.posts[pid].vc.get(rank, 0)
                   < clocks.completion[wid]
                   for pid in pools[wid]
                   if pid not in mine and pid not in consumed):
                bad.add(wid)
            else:
                consumed |= mine
    return bad


def _seg_desc(seg: Seg) -> str:
    if seg[0] == "win":
        return f"window {seg[1]} of rank {seg[2]}"
    return f"buffer {seg[2]} of rank {seg[1]}"


_KIND_WORD = {READ: "read", WRITE: "write", ATOMIC: "accumulate"}


def _sweep(program: Program, size: int,
           clocks: _ClockPass) -> list[Finding]:
    segs = list(clocks.segs)            # ordinal -> segment
    by_seg: dict[Seg, list[_Access]] = {}
    for access in clocks.accesses:
        by_seg.setdefault(segs[access.rec.addr // _SEG_STRIDE],
                          []).append(access)
    findings: list[Finding] = []
    seen: set[tuple[object, ...]] = set()
    tests = 0
    for seg, group in sorted(by_seg.items(), key=lambda kv: repr(kv[0])):
        group.sort(key=lambda a: (a.rec.addr, a.rec.end, a.line))
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if b.rec.addr >= a.rec.end:
                    break               # sorted by start: no later overlap
                tests += 1
                if tests > MAX_PAIR_TESTS:
                    return findings
                if not kinds_conflict(a.rec.kind, b.rec.kind):
                    continue
                if a.rec.actor == b.rec.actor or \
                        covers(b.vc, a.rec.actor, a.rec.tick) or \
                        covers(a.vc, b.rec.actor, b.rec.tick):
                    continue
                first, second = sorted((a, b), key=lambda x: (x.line,
                                                              x.by))
                key = (seg, first.line, second.line, first.rec.kind,
                       second.rec.kind)
                if key in seen:
                    continue
                seen.add(key)
                if first.line in program.race_ok_lines or \
                        second.line in program.race_ok_lines:
                    continue
                if first.is_view or second.is_view:
                    check = "race.stale-view"
                elif READ in (first.rec.kind, second.rec.kind):
                    check = "race.unordered-read"
                else:
                    check = "race.overlap-write"
                base = clocks.segs[seg] * _SEG_STRIDE
                lo = max(a.rec.addr, b.rec.addr) - base
                hi = min(a.rec.end, b.rec.end) - base
                findings.append(Finding(
                    check=check, path=program.path, line=first.line,
                    program=program.qualname,
                    message=(
                        f"{_KIND_WORD[first.rec.kind]} at "
                        f"{first.rec.site} and "
                        f"{_KIND_WORD[second.rec.kind]} at "
                        f"{second.rec.site} touch "
                        f"{_seg_desc(seg)} bytes [{lo}, {hi}) with no "
                        f"ordering edge (notification, flush, or "
                        f"barrier) between them"),
                    ranks=tuple(sorted({first.by, second.by})),
                    size=size))
    return findings


def check_races(program: Program, size: int, traces: list[Trace],
                replayed: Replay | None = None) -> list[Finding]:
    """Report unordered conflicting overlapping accesses, or nothing
    when the program is outside the exactly-modelled fragment."""
    if any(not trace.race_exact
           or any(op.mech in ("p2p", "coll") for op in trace.ops)
           for trace in traces):
        return []
    run = replayed or replay(traces)
    if run is None or run.stuck:
        return []                       # starvation: budget's domain

    # per-wait pools (compatible posts program-wide) and pattern depth
    pools: dict[OpId, list[OpId]] = {}
    wait_depth: dict[OpId, int] = {}
    posts_to: dict[int, list[tuple[OpId, COp]]] = {}
    for rank, trace in enumerate(traces):
        for index, op in enumerate(trace.ops):
            if op.kind == "post":
                assert op.target is not None
                posts_to.setdefault(op.target, []).append(
                    ((rank, index), op))
    for rank, trace in enumerate(traces):
        depth: dict[tuple[str, object, int, int], int] = {}
        for index, op in enumerate(trace.ops):
            if op.kind != "wait":
                continue
            pattern = (op.mech, op.win, op.source, op.tag)
            depth[pattern] = depth.get(pattern, 0) + op.expected
            wait_depth[rank, index] = depth[pattern]
            pools[rank, index] = [pid for pid, post in posts_to.get(rank, [])
                                  if compatible(post, op)]

    downgraded: set[OpId] = set()
    clocks = _compute_clocks(run, downgraded, wait_depth, pools)
    for _ in wait_depth:                # each round downgrades >= 1 wait
        bad = _verify(run, clocks, downgraded, pools)
        if not bad:
            break
        downgraded |= bad
        clocks = _compute_clocks(run, downgraded, wait_depth, pools)
    return _sweep(program, size, clocks)
