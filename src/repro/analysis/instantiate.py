"""Instantiate a symbolic program for a concrete ``(rank, size)`` pair.

The cross-rank checkers (notification budget, deadlock) need concrete
peer ranks and tags.  This module walks the IR with a small abstract
interpreter: assignments, arithmetic, branches and loops with statically
known bounds execute for real; anything unresolvable aborts the trace
and marks it *inexact*, which silences the cross-rank checks for that
program — the verifier reports nothing rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from itertools import count

from repro.analysis import ir
from repro.analysis import symbols as sym
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL

#: loop-iteration cap: beyond this the trace is declared inexact
MAX_ITERATIONS = 4096

_req_ids = count()


@dataclass(frozen=True)
class WindowVal:
    """A window allocated by the n-th collective ``win_allocate``.

    Window identity is positional: the n-th allocation on every rank is
    the same window, which is how the simulator assigns window ids for
    collectively allocated windows.
    """

    index: int


@dataclass(frozen=True)
class SpaceVal:
    """A GASPI notification space attached to a window."""

    win: WindowVal
    num: int


@dataclass(frozen=True)
class AllocVal:
    """A local region from the n-th ``ctx.alloc`` on this rank.

    ``nbytes`` is -1 when the allocation size is not statically known.
    """

    rank: int
    index: int
    nbytes: int = -1


@dataclass(frozen=True)
class ReqVal:
    """A persistent notification/counter request."""

    uid: int
    mech: str                   # "na" | "counter" | "p2p_send" | "p2p_recv"
    win: WindowVal | None
    source: int
    tag: int
    expected: int
    line: int


@dataclass
class COp:
    """One concrete trace event."""

    kind: str                   # "post" | "wait" | "recv" | "barrier" | ...
    mech: str = ""              # "na" | "counter" | "gaspi" | "p2p"
    line: int = 0
    win: WindowVal | None = None
    target: int | None = None   # posts: destination rank
    source: int = ANY_SOURCE    # posts: origin; waits: request source
    tag: int = ANY_TAG
    expected: int = 1
    req: ReqVal | None = None
    # -- race-checker payload geometry (defaults = not applicable) -------
    #: transferred bytes (-1 when not statically known)
    nbytes: int = -1
    #: target displacement (posts) / view byte offset (views)
    disp: int = 0
    #: data direction: "put" | "get" | "acc" for posts, "r" | "w" for views
    rma: str = ""
    #: local region a get delivers into / a view reads from
    buf: AllocVal | None = None
    #: byte offset into ``buf``
    buf_off: int = 0
    #: flush_local (completes only the origin-side buffers)
    local: bool = False


@dataclass
class Trace:
    """The concrete event sequence of one rank."""

    rank: int
    size: int
    ops: list[COp] = field(default_factory=list)
    exact: bool = True
    #: reason the trace went inexact, for diagnostics
    reason: str = ""
    #: nondeterministic consumption (test/probe/waitany) present
    has_poll: bool = False
    #: PSCW / lock epochs present (deadlock replay skips these)
    has_pscw: bool = False
    #: race geometry fully resolved (False silences only the race check;
    #: budget/deadlock/epoch checks keep their own ``exact`` flag)
    race_exact: bool = True
    race_reason: str = ""
    #: window index -> (payload nbytes or -1, disp_unit) on this rank
    win_meta: dict[int, tuple[int, int]] = field(default_factory=dict)


class _Inexact(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


#: op kinds with no effect on the cross-rank checkers
_SILENT_KINDS = frozenset({
    "nop", "na_request_free", "counter_request_free",
})

#: ops whose byte-level effects the race checker does not model;
#: their presence downgrades only the race check, nothing else
_RACE_BAIL_KINDS = frozenset({
    "san_acquire", "win_fetch_and_op", "win_compare_and_swap",
    "win_lock", "win_unlock", "win_lock_all", "win_unlock_all",
})

#: origin-side completion ops -> (flush-local-only, flushes-all-targets)
_FLUSH_KINDS = {
    "win_flush": (False, False),
    "win_flush_local": (True, False),
    "win_flush_all": (False, True),
}

_PSCW_KINDS = frozenset({
    "win_post", "win_start", "win_complete", "win_wait_pscw",
})

#: polling / nondeterministic-selection ops: budget and deadlock cannot
#: attribute consumption, so their presence disables both checks
_POLL_LIKE = frozenset({
    "na_test", "na_testany", "na_probe", "na_waitany", "counter_test",
    "comm_probe",
})


class _Interp:
    def __init__(self, program: ir.Program, rank: int, size: int):
        self.program = program
        self.trace = Trace(rank=rank, size=size)
        self.env = sym.Env(rank, size, program.module_consts,
                           program.scope)
        for index, name in enumerate(program.params):
            if index < len(program.arg_values):
                self.env.store(name, program.arg_values[index])
            else:
                self.env.store(name, sym.UNKNOWN)
        self.win_index = 0
        self.alloc_index = 0
        self.steps = 0

    # -- helpers ---------------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > 250_000:
            raise _Inexact("trace too long")

    def _value(self, op: ir.Op, role: str) -> object:
        """What the call passed for ``role``; None when it passed nothing
        (and the runtime signature declares no default)."""
        expr = op.args.get(role)
        return None if expr is None else sym.evaluate(expr, self.env)

    def _int(self, op: ir.Op, role: str, default: int | None = None) -> int:
        expr = op.args.get(role)
        if expr is None:
            if default is None:
                raise _Inexact(f"{op.kind}: missing {role}")
            return default
        value = sym.evaluate(expr, self.env)
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Inexact(f"{op.kind} line {op.line}: "
                           f"unresolved {role}")
        return value

    def _win(self, op: ir.Op) -> WindowVal:
        expr = op.args.get("win")
        if expr is None:
            raise _Inexact(f"{op.kind}: missing window")
        value = sym.evaluate(expr, self.env)
        if isinstance(value, SpaceVal):
            return value.win
        if not isinstance(value, WindowVal):
            raise _Inexact(f"{op.kind} line {op.line}: unresolved window")
        return value

    # -- race-geometry helpers (never raise: they only downgrade the
    # race check, keeping budget/deadlock coverage untouched) -----------
    def _race_bail(self, reason: str) -> None:
        if self.trace.race_exact:
            self.trace.race_exact = False
            self.trace.race_reason = reason

    def _opt_int(self, op: ir.Op, role: str,
                 default: int | None) -> int | None:
        """Resolve an int role; missing -> ``default``, unresolved ->
        ``None`` after downgrading the race check."""
        value = self._value(op, role)
        if value is None:
            return default             # also an explicit None keyword
        if isinstance(value, bool) or not isinstance(value, int):
            self._race_bail(f"line {op.line}: unresolved {role}")
            return None
        return value

    def _try_win(self, op: ir.Op) -> WindowVal | None:
        value = self._value(op, "win")
        if isinstance(value, SpaceVal):
            return value.win
        if isinstance(value, WindowVal):
            return value
        self._race_bail(f"line {op.line}: unresolved window")
        return None

    def _record(self, cop: COp) -> None:
        self.trace.ops.append(cop)

    # -- statement walk --------------------------------------------------
    def run(self) -> Trace:
        try:
            self._stmts(self.program.body)
        except _Return:
            pass
        except _Inexact as exc:
            self.trace.exact = False
            self.trace.reason = exc.reason
        except RecursionError:               # pragma: no cover - defensive
            self.trace.exact = False
            self.trace.reason = "recursion limit"
        return self.trace

    def _stmts(self, stmts: list[ir.Stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ir.Stmt) -> None:
        self._tick()
        if isinstance(stmt, ir.Assign):
            if isinstance(stmt.value, ir.Op):
                result = self._op(stmt.value)
            else:
                result = sym.evaluate(stmt.value, self.env)
            self._bind(stmt.target, result, stmt.line)
        elif isinstance(stmt, ir.ExprStmt):
            if isinstance(stmt.value, ir.Op):
                self._op(stmt.value)
        elif isinstance(stmt, ir.If):
            cond = sym.evaluate(stmt.cond, self.env)
            if not sym.is_known(cond):
                raise _Inexact(f"line {stmt.line}: unresolved branch")
            self._stmts(stmt.body if cond else stmt.orelse)
        elif isinstance(stmt, ir.For):
            self._for(stmt)
        elif isinstance(stmt, ir.While):
            self._while(stmt)
        elif isinstance(stmt, ir.Return):
            raise _Return
        elif isinstance(stmt, ir.Break):
            raise _Break
        elif isinstance(stmt, ir.Continue):
            raise _Continue
        elif isinstance(stmt, ir.Unknown):
            raise _Inexact(f"line {stmt.line}: {stmt.reason}")

    def _for(self, stmt: ir.For) -> None:
        iterable = sym.evaluate(stmt.iter, self.env)
        if not sym.is_known(iterable) or \
                not isinstance(iterable, (list, tuple)):
            raise _Inexact(f"line {stmt.line}: unresolved loop bounds")
        if len(iterable) > MAX_ITERATIONS:
            raise _Inexact(f"line {stmt.line}: loop too long")
        for item in iterable:
            self._bind(stmt.target, item, stmt.line)
            try:
                self._stmts(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _while(self, stmt: ir.While) -> None:
        for _ in range(MAX_ITERATIONS):
            cond = sym.evaluate(stmt.cond, self.env)
            if not sym.is_known(cond):
                raise _Inexact(f"line {stmt.line}: unresolved while")
            if not cond:
                return
            try:
                self._stmts(stmt.body)
            except _Break:
                return
            except _Continue:
                continue
        raise _Inexact(f"line {stmt.line}: while cap exceeded")

    def _bind(self, target: ast.expr, value: object,
              line: int) -> None:
        if isinstance(target, ast.Name):
            self.env.store(target.id, value)
        elif isinstance(target, ast.Tuple):
            if sym.is_known(value) and \
                    isinstance(value, (list, tuple)) and \
                    len(value) == len(target.elts):
                for part, item in zip(target.elts, value):
                    self._bind(part, item, line)
            else:
                for part in target.elts:
                    self._bind(part, sym.UNKNOWN, line)
        elif ir.is_item(target):
            base = sym.evaluate(target.value, self.env)
            index = sym.evaluate(target.slice, self.env)
            if sym.is_known(base) and sym.is_known(index) and \
                    isinstance(base, (list, dict)):
                try:
                    base[index] = value          # type: ignore[index]
                    return
                except Exception:
                    pass
            # cannot locate the cell: invalidate the whole container
            if isinstance(target.value, ast.Name):
                self.env.store(target.value.id, sym.UNKNOWN)

    # -- op execution ----------------------------------------------------
    def _op(self, op: ir.Op) -> object:
        kind = op.kind
        if kind in _SILENT_KINDS:
            return sym.UNKNOWN
        if kind in _RACE_BAIL_KINDS:
            self._race_bail(f"line {op.line}: unmodelled {kind}")
            return sym.UNKNOWN
        if kind in _PSCW_KINDS:
            self.trace.has_pscw = True
            return sym.UNKNOWN
        if kind in _POLL_LIKE:
            self.trace.has_poll = True
            # testany/waitany return (index, status)-ish tuples
            return sym.UNKNOWN
        if kind == "unknown":
            raise _Inexact(f"line {op.line}: unrecognized call")
        if kind == "alloc":
            nbytes = self._opt_int(op, "size", None)
            val = AllocVal(self.trace.rank, self.alloc_index,
                           -1 if nbytes is None else nbytes)
            self.alloc_index += 1
            return val
        if kind == "win_allocate":
            win = WindowVal(self.win_index)
            self.win_index += 1
            size = self._opt_int(op, "size", None)
            du = self._opt_int(op, "disp_unit", 1)
            if size is None:
                self._race_bail(f"line {op.line}: unresolved window size")
            self.trace.win_meta[win.index] = (
                -1 if size is None else size, 1 if du is None else du)
            self._record(COp(kind="walloc", line=op.line, win=win))
            return win
        if kind == "win_free":
            self._record(COp(kind="wfree", line=op.line,
                             win=self._try_win(op)))
            return sym.UNKNOWN
        if kind in _FLUSH_KINDS:
            local, all_targets = _FLUSH_KINDS[kind]
            target = None if all_targets else self._opt_int(
                op, "target", None)
            if not all_targets and target is None:
                self._race_bail(f"line {op.line}: unresolved flush target")
            self._record(COp(kind="flush", line=op.line,
                             win=self._try_win(op), target=target,
                             local=local))
            return sym.UNKNOWN
        if kind in ("win_view", "region_read"):
            self._view(op)
            return sym.UNKNOWN
        if kind in ("win_put", "win_get", "win_accumulate"):
            self._plain_rma(op)
            return sym.UNKNOWN
        if kind == "barrier":
            self._record(COp(kind="barrier", line=op.line))
            return sym.UNKNOWN
        if kind == "collective":
            # bcast/reduce synchronize with the root only — not a full
            # all-to-all join, so the race replay must not treat it as one
            self._record(COp(kind="barrier", mech="coll", line=op.line))
            return sym.UNKNOWN
        if kind in ("win_fence", "win_fence_end"):
            # fence = flush_all + barrier on every rank
            self._record(COp(kind="flush", line=op.line,
                             win=self._try_win(op)))
            self._record(COp(kind="barrier", line=op.line))
            return sym.UNKNOWN
        if kind == "notify_init":
            return self._make_req(op, "na")
        if kind == "counter_init":
            return self._make_req(op, "counter")
        if kind in ("na_start", "counter_start"):
            self._req_of(op)
            return None
        if kind in ("na_wait", "counter_wait"):
            req = self._req_of(op)
            self._record(COp(kind="wait", mech=req.mech, line=op.line,
                             win=req.win, source=req.source, tag=req.tag,
                             expected=req.expected, req=req))
            return sym.UNKNOWN
        if kind in ("na_waitall", "comm_waitall"):
            reqs = self._reqs_of(op)
            for req in reqs:
                if req.mech == "p2p_send":
                    continue
                if req.mech == "p2p_recv":
                    self._record(COp(kind="recv", mech="p2p",
                                     line=op.line, source=req.source,
                                     tag=req.tag, req=req))
                else:
                    self._record(COp(kind="wait", mech=req.mech,
                                     line=op.line, win=req.win,
                                     source=req.source, tag=req.tag,
                                     expected=req.expected, req=req))
            return sym.UNKNOWN
        if kind in ("put_notify", "accumulate_notify", "get_notify",
                    "flush_notify", "put_counted"):
            mech = "counter" if kind == "put_counted" else "na"
            target = self._int(op, "target")
            if target == PROC_NULL:
                return sym.UNKNOWN
            self._check_peer(op, target)
            cop = COp(kind="post", mech=mech, line=op.line,
                      win=self._win(op), target=target,
                      source=self.trace.rank,
                      tag=self._int(op, "tag", 0))
            self._post_geometry(cop, op, kind)
            self._record(cop)
            return sym.UNKNOWN
        if kind == "gaspi_init":
            win = self._win(op)
            num = self._int(op, "num", 1)
            return SpaceVal(win=win, num=num)
        if kind == "waitsome":
            space = self._value(op, "space")
            if not isinstance(space, SpaceVal):
                raise _Inexact(f"line {op.line}: unresolved space")
            self._record(COp(kind="wait", mech="gaspi", line=op.line,
                             win=space.win, source=ANY_SOURCE,
                             tag=ANY_TAG, expected=1))
            return sym.UNKNOWN
        if kind == "write_notify":
            target = self._int(op, "target")
            if target == PROC_NULL:
                return sym.UNKNOWN
            self._check_peer(op, target)
            cop = COp(kind="post", mech="gaspi", line=op.line,
                      win=self._win(op), target=target,
                      source=self.trace.rank,
                      tag=self._int(op, "slot", 0))
            self._post_geometry(cop, op, "write_notify")
            self._record(cop)
            return sym.UNKNOWN
        if kind == "send":
            target = self._int(op, "target")
            if target == PROC_NULL:
                return sym.UNKNOWN
            self._check_peer(op, target)
            self._record(COp(kind="send", mech="p2p", line=op.line,
                             target=target, source=self.trace.rank,
                             tag=self._int(op, "tag", 0)))
            return sym.UNKNOWN
        if kind == "isend":
            target = self._int(op, "target")
            if target != PROC_NULL:
                self._check_peer(op, target)
                self._record(COp(kind="send", mech="p2p", line=op.line,
                                 target=target, source=self.trace.rank,
                                 tag=self._int(op, "tag", 0)))
            return ReqVal(uid=next(_req_ids), mech="p2p_send", win=None,
                          source=self.trace.rank,
                          tag=self._int(op, "tag", 0), expected=1,
                          line=op.line)
        if kind == "recv":
            source = self._int(op, "source", ANY_SOURCE)
            if source == PROC_NULL:
                return sym.UNKNOWN
            self._record(COp(kind="recv", mech="p2p", line=op.line,
                             source=source,
                             tag=self._int(op, "tag", ANY_TAG)))
            return sym.UNKNOWN
        if kind == "irecv":
            return ReqVal(uid=next(_req_ids), mech="p2p_recv", win=None,
                          source=self._int(op, "source", ANY_SOURCE),
                          tag=self._int(op, "tag", ANY_TAG), expected=1,
                          line=op.line)
        if kind == "sendrecv":
            target = self._int(op, "target")
            if target != PROC_NULL:
                self._check_peer(op, target)
                self._record(COp(kind="send", mech="p2p", line=op.line,
                                 target=target, source=self.trace.rank,
                                 tag=self._int(op, "sendtag", 0)))
            source = self._int(op, "source", ANY_SOURCE)
            if source != PROC_NULL:
                self._record(COp(kind="recv", mech="p2p", line=op.line,
                                 source=source,
                                 tag=self._int(op, "tag", ANY_TAG)))
            return sym.UNKNOWN
        if kind == "comm_wait":
            req = self._req_of(op)
            if req.mech == "p2p_recv":
                self._record(COp(kind="recv", mech="p2p", line=op.line,
                                 source=req.source, tag=req.tag,
                                 req=req))
            return sym.UNKNOWN
        if kind in ("list_append", "list_extend"):
            self._list_mutate(op)
            return None
        # anything else is outside the modelled fragment
        raise _Inexact(f"line {op.line}: unmodelled op {kind}")

    def _post_geometry(self, cop: COp, op: ir.Op, kind: str) -> None:
        """Resolve the byte range a post touches at its target (and, for
        gets, the local buffer its delivery writes)."""
        if kind == "flush_notify":
            cop.rma = "put"
            cop.nbytes = 0
            return
        disp = self._opt_int(op, "disp", 0)
        cop.disp = 0 if disp is None else disp
        if kind == "get_notify":
            cop.rma = "get"
            buf = self._value(op, "buf")
            if isinstance(buf, AllocVal):
                cop.buf = buf
            else:
                self._race_bail(f"line {op.line}: unresolved get buffer")
            off = self._opt_int(op, "local_offset", 0)
            cop.buf_off = 0 if off is None else off
            nbytes = self._opt_int(op, "nbytes", None)
            if nbytes is None:
                if cop.buf is not None and cop.buf.nbytes >= 0:
                    cop.nbytes = cop.buf.nbytes - cop.buf_off
                else:
                    self._race_bail(
                        f"line {op.line}: unresolved get nbytes")
            else:
                cop.nbytes = nbytes
            return
        cop.rma = "acc" if kind == "accumulate_notify" else "put"
        cop.nbytes = self._data_nbytes(op)

    def _data_nbytes(self, op: ir.Op) -> int:
        data_expr = op.args.get("data")
        if data_expr is not None:
            value = sym.evaluate(data_expr, self.env)
            if isinstance(value, sym.ArrayVal):
                return value.nbytes
            self._race_bail(f"line {op.line}: unresolved payload size")
            return -1
        # foMPI-style (count, datatype) payloads
        count = self._opt_int(op, "count", None)
        dtype = self._value(op, "dtype")
        if count is not None and isinstance(dtype, sym.DTypeVal):
            return count * dtype.itemsize
        self._race_bail(f"line {op.line}: unresolved payload size")
        return -1

    def _view(self, op: ir.Op) -> None:
        mode = op.mode or "rw"
        if mode == "raw":
            return                      # raw views are the raw-view lint's job
        base = self._value(op, "base")
        win: WindowVal | None = None
        buf: AllocVal | None = None
        seg_nbytes = -1
        if isinstance(base, WindowVal):
            win = base
            seg_nbytes = self.trace.win_meta.get(base.index, (-1, 1))[0]
        elif isinstance(base, AllocVal):
            buf = base
            seg_nbytes = base.nbytes
        else:
            self._race_bail(f"line {op.line}: unresolved view base")
            return
        dtype = self._value(op, "dtype")    # the signature's if omitted
        if not isinstance(dtype, sym.DTypeVal):
            self._race_bail(f"line {op.line}: unresolved view dtype")
            return
        itemsize = dtype.itemsize
        offset = self._opt_int(op, "offset", 0)
        if offset is None:
            return
        count = self._opt_int(op, "count", None)
        if count is None:
            if seg_nbytes < 0:
                self._race_bail(f"line {op.line}: view on unsized segment")
                return
            length = max(0, ((seg_nbytes - offset) // itemsize) * itemsize)
        else:
            length = count * itemsize
        self._record(COp(kind="view", line=op.line, win=win, buf=buf,
                         disp=offset, nbytes=length,
                         rma="w" if mode == "rw" else "r"))

    def _plain_rma(self, op: ir.Op) -> None:
        """Non-notified window accesses (win.put/get/accumulate)."""
        target = self._opt_int(op, "target", None)
        if target is None or target == PROC_NULL:
            return
        if not 0 <= target < self.trace.size:
            self._race_bail(f"line {op.line}: peer {target} out of range")
            return
        win = self._try_win(op)
        if win is None:
            return
        cop = COp(kind="rma", line=op.line, win=win, target=target,
                  source=self.trace.rank)
        geometry_as = {"win_get": "get_notify",
                       "win_accumulate": "accumulate_notify"}
        self._post_geometry(cop, op, geometry_as.get(op.kind, "put_notify"))
        self._record(cop)

    def _make_req(self, op: ir.Op, mech: str) -> ReqVal:
        source = self._int(op, "source", ANY_SOURCE)
        tag = self._int(op, "tag", ANY_TAG)
        expected = self._int(op, "expected", 1)
        if expected < 0:
            raise _Inexact(f"line {op.line}: negative expected_count")
        if source not in (ANY_SOURCE,) and \
                not 0 <= source < self.trace.size:
            raise _Inexact(f"line {op.line}: source {source} out of "
                           f"range for size {self.trace.size}")
        return ReqVal(uid=next(_req_ids), mech=mech, win=self._win(op),
                      source=source, tag=tag, expected=expected,
                      line=op.line)

    def _req_of(self, op: ir.Op) -> ReqVal:
        value = self._value(op, "req")
        if not isinstance(value, ReqVal):
            raise _Inexact(f"{op.kind} line {op.line}: unresolved request")
        return value

    def _reqs_of(self, op: ir.Op) -> list[ReqVal]:
        value = self._value(op, "reqs")
        if not sym.is_known(value) or \
                not isinstance(value, (list, tuple)) or \
                not all(isinstance(v, ReqVal) for v in value):
            raise _Inexact(f"{op.kind} line {op.line}: unresolved "
                           f"request list")
        return list(value)

    def _check_peer(self, op: ir.Op, peer: int) -> None:
        if not 0 <= peer < self.trace.size:
            raise _Inexact(f"line {op.line}: peer {peer} out of range "
                           f"for size {self.trace.size}")

    def _list_mutate(self, op: ir.Op) -> None:
        base_expr = op.args["base"]
        base = sym.evaluate(base_expr, self.env)
        item = self._value(op, "item")
        if isinstance(base, list) and op.kind == "list_append":
            base.append(item)
        elif isinstance(base, list) and sym.is_known(item) and \
                isinstance(item, (list, tuple)):
            base.extend(item)
        elif isinstance(base_expr, ast.Name):   # lost track of the list
            self.env.store(base_expr.id, sym.UNKNOWN)


def instantiate(program: ir.Program, size: int) -> list[Trace]:
    """Run ``program`` abstractly for every rank of a ``size``-rank job."""
    return [_Interp(program, rank, size).run() for rank in range(size)]
