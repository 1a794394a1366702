"""AST extractor: lift rank programs into the protocol IR.

A *rank program* is any generator function whose first parameter is
``ctx`` (the :class:`repro.cluster.Rank` context).  The extractor walks a
module, folds its top-level constants, discovers the communicator sizes
each program actually runs at (``run_ranks(N, program)`` call sites or an
``# analyze: nranks=N`` annotation), and translates each program body
into :class:`repro.analysis.ir.Program`.

The translation is deliberately partial: every communication call of the
repro API (``ctx.na.*``, ``ctx.counters.*``, ``ctx.gaspi.*``,
``ctx.comm.*``, window epoch/flush methods, the foMPI shim, typed RMA)
becomes an :class:`~repro.analysis.ir.Op`; all other Python is either a
pure symbolic expression or an :class:`~repro.analysis.ir.Unknown`
marker that downgrades the cross-rank checks to "cannot prove".
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass, field
from types import ModuleType

from repro import fompi
from repro.analysis import ir
from repro.analysis import symbols as sym
from repro.cluster import Rank
from repro.core.counters import CounterEngine
from repro.core.engine import NotifyEngine
from repro.core.overwriting import OverwriteEngine
from repro.memory.address import Region
from repro.mpi.comm import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.rma import typed
from repro.rma.window import Window

_ANALYZE_RE = re.compile(r"#\s*analyze:\s*(.+?)\s*$")
_RAW_OK_RE = re.compile(r"#\s*protocol:\s*raw-ok")
_RACE_OK_RE = re.compile(r"#\s*protocol:\s*race-ok")

#: modules whose attributes resolve to wildcard constants
_WILDCARDS = {
    "ANY_SOURCE": ANY_SOURCE,
    "ANY_TAG": ANY_TAG,
    "MPI_ANY_SOURCE": ANY_SOURCE,
    "MPI_ANY_TAG": ANY_TAG,
}

#: One resolved API-table row: IR op kind, and per argument role its
#: ``(position in the call, keyword name)``.
_Entry = tuple[str, dict[str, tuple[int, str]]]


def _bind(owner: type | ModuleType,
          table: dict[str, tuple[str, dict[str, str]]]) -> dict[str, _Entry]:
    """Resolve a table of ``name -> (kind, {role: parameter name})``
    against the signatures of ``owner``'s callables.

    The tables below say which parameter plays which role; *where* that
    parameter sits is read from the runtime, so a signature change moves
    the analyzer with it — and a role naming a parameter the callable
    does not have fails here, at import, instead of silently dropping
    the argument.  A method's ``self`` is not among a call's arguments.
    """
    out: dict[str, _Entry] = {}
    for name, (kind, roles) in table.items():
        params = list(inspect.signature(getattr(owner, name)).parameters)
        if isinstance(owner, type):
            del params[0]
        for param in roles.values():
            if param not in params:
                raise TypeError(f"analysis API table: {owner.__name__}."
                                f"{name}() has no parameter {param!r}")
        out[name] = (kind, {role: (params.index(param), param)
                            for role, param in roles.items()})
    return out


_REQ = {"req": "req"}
_REQS = {"reqs": "reqs"}
_PUT = {"win": "win", "data": "data", "target": "target",
        "disp": "target_disp", "tag": "tag"}

#: ctx.<engine>.<method>(...), by the attribute the engine hangs off
_ENGINE_TABLES = {
    "na": _bind(NotifyEngine, {
        "put_notify": ("put_notify", _PUT),
        "get_notify": ("get_notify",
                       {"win": "win", "buf": "buf_region",
                        "target": "target", "disp": "target_disp",
                        "nbytes": "nbytes", "tag": "tag",
                        "local_offset": "local_offset"}),
        "accumulate_notify": ("accumulate_notify", _PUT),
        "notify_init": ("notify_init",
                        {"win": "win", "source": "source", "tag": "tag",
                         "expected": "expected_count"}),
        "start": ("na_start", _REQ),
        "wait": ("na_wait", _REQ),
        "test": ("na_test", _REQ),
        "testany": ("na_testany", _REQS),
        "waitany": ("na_waitany", _REQS),
        "waitall": ("na_waitall", _REQS),
        "request_free": ("na_request_free", _REQ),
        "probe": ("na_probe",
                  {"win": "win", "source": "source", "tag": "tag"}),
        "flush_notify": ("flush_notify",
                         {"win": "win", "target": "target", "tag": "tag"}),
    }),
    "counters": _bind(CounterEngine, {
        "counter_init": ("counter_init",
                         {"win": "win", "source": "source", "tag": "tag",
                          "expected": "expected_count"}),
        "start": ("counter_start", _REQ),
        "test": ("counter_test", _REQ),
        "wait": ("counter_wait", _REQ),
        "request_free": ("counter_request_free", _REQ),
        "put_counted": ("put_counted", _PUT),
    }),
    "gaspi": _bind(OverwriteEngine, {
        "notification_init": ("gaspi_init", {"win": "win", "num": "num"}),
        "waitsome": ("waitsome", {"space": "space"}),
        "write_notify": ("write_notify",
                         {"win": "win", "data": "data", "target": "target",
                          "disp": "target_disp", "slot": "slot"}),
    }),
    "comm": _bind(Communicator, {
        "send": ("send", {"target": "dest", "tag": "tag"}),
        "ssend": ("send", {"target": "dest", "tag": "tag"}),
        "isend": ("isend", {"target": "dest", "tag": "tag"}),
        "recv": ("recv", {"source": "source", "tag": "tag"}),
        "irecv": ("irecv", {"source": "source", "tag": "tag"}),
        "sendrecv": ("sendrecv",
                     {"target": "dest", "sendtag": "sendtag",
                      "source": "source", "tag": "recvtag"}),
        "wait": ("comm_wait", _REQ),
        "waitall": ("comm_waitall", _REQS),
        "waitany": ("comm_waitany", _REQS),
        "probe": ("comm_probe", {"source": "source", "tag": "tag"}),
        "iprobe": ("nop", {}),
        "barrier": ("barrier", {}),
        "bcast": ("collective", {}),
        "reduce": ("collective", {}),
        "allreduce": ("collective", {}),
        "send_typed": ("send", {"target": "dest", "tag": "tag"}),
        "recv_typed": ("recv", {"source": "source", "tag": "tag"}),
    }),
}

#: ctx.<method>(...)
_CTX_TABLE = _bind(Rank, {
    "win_allocate": ("win_allocate",
                     {"size": "nbytes", "disp_unit": "disp_unit"}),
    "alloc": ("alloc", {"size": "nbytes"}),
    "barrier": ("barrier", {}),
    "san_acquire": ("san_acquire", {}),
    "san_acquire_at": ("san_acquire", {}),
    # pure time/computation: no protocol effect
    "compute": ("nop", {}),
    "compute_flops": ("nop", {}),
    "timeout": ("nop", {}),
})

#: the sanitizer blessings among them, whatever they are called on
_BLESSINGS = frozenset(name for name, (kind, _roles) in _CTX_TABLE.items()
                       if kind == "san_acquire")

_TARGET = {"target": "target"}

#: window methods reached through an arbitrary base expression
_WIN_TABLE = _bind(Window, {
    "put": ("win_put", {"data": "data", "target": "target",
                        "disp": "target_disp"}),
    "get": ("win_get", {"buf": "buf_region", "target": "target",
                        "disp": "target_disp", "nbytes": "nbytes",
                        "local_offset": "local_offset"}),
    "accumulate": ("win_accumulate",
                   {"data": "data", "target": "target",
                    "disp": "target_disp"}),
    "fetch_and_op": ("win_fetch_and_op", _TARGET),
    "compare_and_swap": ("win_compare_and_swap", _TARGET),
    "flush": ("win_flush", _TARGET),
    "flush_local": ("win_flush_local", _TARGET),
    "flush_all": ("win_flush_all", {}),
    "flush_local_all": ("win_flush_local_all", {}),
    "fence": ("win_fence", {}),
    "fence_end": ("win_fence_end", {}),
    "post": ("win_post", {"group": "origins"}),
    "start": ("win_start", {"group": "targets"}),
    "complete": ("win_complete", {}),
    "wait": ("win_wait_pscw", {"group": "origins"}),
    "lock": ("win_lock", _TARGET),
    "unlock": ("win_unlock", _TARGET),
    "lock_all": ("win_lock_all", {}),
    "unlock_all": ("win_unlock_all", {}),
    "free": ("win_free", {}),
})

_VIEW = {"dtype": "dtype", "offset": "offset", "count": "count",
         "mode": "mode"}

#: NumPy views of window / region memory, through any base expression
_VIEW_TABLE = {**_bind(Window, {"local": ("win_view", _VIEW)}),
               **_bind(Region, {"ndarray": ("region_read", _VIEW)})}

#: typed-RMA module functions (first argument ``ctx`` or ``win``)
_TYPED_TABLE = _bind(typed, {
    "put_notify_typed": ("put_notify",
                         {"win": "win", "target": "target", "tag": "tag"}),
    "put_typed": ("put_typed", {"win": "win", "target": "target"}),
    "get_typed": ("get_typed",
                  {"win": "win", "buf": "buf", "target": "target"}),
})

_FOMPI_REQ = {"req": "request"}
_FOMPI_FLUSH = {"target": "target_rank", "win": "win"}
_FOMPI_RMA = {"win": "win", "target": "target_rank", "tag": "tag",
              "disp": "target_disp", "count": "target_count",
              "dtype": "target_dtype"}

#: foMPI shim functions (``ctx`` passed explicitly as first argument)
_FOMPI_TABLE = _bind(fompi, {
    "Win_allocate": ("win_allocate",
                     {"size": "size_bytes", "disp_unit": "disp_unit"}),
    "Win_free": ("win_free", {"win": "win"}),
    "Win_flush": ("win_flush", _FOMPI_FLUSH),
    "Win_flush_local": ("win_flush_local", _FOMPI_FLUSH),
    "Put_notify": ("put_notify", _FOMPI_RMA),
    "Get_notify": ("get_notify", {"buf": "origin_region", **_FOMPI_RMA}),
    "Notify_init": ("notify_init",
                    {"win": "win", "source": "source_rank", "tag": "tag",
                     "expected": "expected_count"}),
    "Start": ("na_start", _FOMPI_REQ),
    "Wait": ("na_wait", _FOMPI_REQ),
    "Test": ("na_test", _FOMPI_REQ),
    "Request_free": ("na_request_free", _FOMPI_REQ),
})


@dataclass
class _Annotations:
    """Per-function ``# analyze:`` / ``# protocol:`` annotations."""

    nranks: list[int] = field(default_factory=list)
    args: list[object] = field(default_factory=list)
    skip: bool = False
    raw_ok_lines: set[int] = field(default_factory=set)
    race_ok_lines: set[int] = field(default_factory=set)


class _Translator(ast.NodeVisitor):
    """Translates one function body; stateless across functions."""

    def __init__(self, ctx_name: str, fompi_aliases: set[str],
                 fompi_names: set[str], typed_names: set[str],
                 np_aliases: set[str] | frozenset[str] = frozenset(),
                 helpers: dict[str, tuple[tuple[str, ...],
                                          sym.SymExpr]] | None = None):
        self.ctx_name = ctx_name
        self.fompi_aliases = fompi_aliases
        self.fompi_names = fompi_names
        self.typed_names = typed_names
        self.np_aliases = np_aliases
        self.helpers = helpers if helpers is not None else {}

    # -- expressions ----------------------------------------------------
    def expr(self, node: ast.expr | None) -> sym.SymExpr:
        if node is None:
            return sym.Const(None)
        method = getattr(self, f"_e_{type(node).__name__}", None)
        if method is None:
            return sym.Opaque(type(node).__name__)
        return method(node)

    def _e_Constant(self, node: ast.Constant) -> sym.SymExpr:
        return sym.Const(node.value)

    def _e_Name(self, node: ast.Name) -> sym.SymExpr:
        if node.id in _WILDCARDS and node.id in self.fompi_names:
            return sym.Const(_WILDCARDS[node.id])
        return sym.Name(node.id)

    def _e_Attribute(self, node: ast.Attribute) -> sym.SymExpr:
        base = node.value
        if isinstance(base, ast.Name) and base.id == self.ctx_name:
            if node.attr == "rank":
                return sym.Rank()
            if node.attr == "size":
                return sym.Size()
            return sym.Opaque(f"ctx.{node.attr}")
        if isinstance(base, ast.Name) and base.id in self.fompi_aliases \
                and node.attr in _WILDCARDS:
            return sym.Const(_WILDCARDS[node.attr])
        if isinstance(base, ast.Name) and base.id in self.np_aliases \
                and node.attr in sym.NP_DTYPES:
            return sym.Const(sym.DTypeVal(sym.NP_DTYPES[node.attr]))
        if node.attr in _WILDCARDS and _ends_with_constants(node):
            return sym.Const(_WILDCARDS[node.attr])
        return sym.Opaque(f".{node.attr}")

    def _e_BinOp(self, node: ast.BinOp) -> sym.SymExpr:
        op = _BINOP_SYMS.get(type(node.op).__name__)
        if op is None:
            return sym.Opaque("binop")
        return sym.Bin(op, self.expr(node.left), self.expr(node.right))

    def _e_UnaryOp(self, node: ast.UnaryOp) -> sym.SymExpr:
        op = {"USub": "-", "UAdd": "+", "Invert": "~", "Not": "not"}.get(
            type(node.op).__name__)
        if op is None:  # pragma: no cover - exhaustive
            return sym.Opaque("unary")
        return sym.Un(op, self.expr(node.operand))

    def _e_Compare(self, node: ast.Compare) -> sym.SymExpr:
        if len(node.ops) != 1:
            return sym.Opaque("chained-compare")
        op = _CMP_SYMS.get(type(node.ops[0]).__name__)
        if op is None:
            return sym.Opaque("compare")
        return sym.Cmp(op, self.expr(node.left),
                       self.expr(node.comparators[0]))

    def _e_BoolOp(self, node: ast.BoolOp) -> sym.SymExpr:
        op = "and" if isinstance(node.op, ast.And) else "or"
        return sym.Bool(op, tuple(self.expr(v) for v in node.values))

    def _e_IfExp(self, node: ast.IfExp) -> sym.SymExpr:
        return sym.IfExp(self.expr(node.test), self.expr(node.body),
                         self.expr(node.orelse))

    def _e_Tuple(self, node: ast.Tuple) -> sym.SymExpr:
        return sym.TupleExpr(tuple(self.expr(e) for e in node.elts))

    def _e_List(self, node: ast.List) -> sym.SymExpr:
        return sym.ListExpr(tuple(self.expr(e) for e in node.elts))

    def _e_Dict(self, node: ast.Dict) -> sym.SymExpr:
        if any(k is None for k in node.keys):
            return sym.Opaque("dict-splat")
        return sym.DictExpr(tuple(self.expr(k) for k in node.keys
                                  if k is not None),
                            tuple(self.expr(v) for v in node.values))

    def _e_Subscript(self, node: ast.Subscript) -> sym.SymExpr:
        if isinstance(node.slice, ast.Slice):
            return sym.Opaque("slice")
        return sym.Sub(self.expr(node.value), self.expr(node.slice))

    def _e_Call(self, node: ast.Call) -> sym.SymExpr:
        func = node.func
        if node.keywords and any(kw.arg is None for kw in node.keywords):
            return sym.Opaque("call-splat")
        args = tuple(self.expr(a) for a in node.args
                     if not isinstance(a, ast.Starred))
        if isinstance(func, ast.Name):
            if func.id in sym._PURE_FUNCS and not node.keywords:
                return sym.PureCall(func.id, args)
            helper = self.helpers.get(func.id)
            if helper is not None and not node.keywords and \
                    len(args) == len(node.args) and \
                    len(args) == len(helper[0]):
                return sym.HelperCall(func.id, helper[0], helper[1], args)
            return sym.Opaque(f"{func.id}()")
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and \
                    base.id in self.np_aliases and \
                    func.attr in sym.NP_CTORS and \
                    len(args) == len(node.args):
                ctor = self._np_ctor(func.attr, node, args)
                if ctor is not None:
                    return ctor
            if func.attr in sym._PURE_METHODS and not node.keywords:
                return sym.MethodCall(self.expr(func.value), func.attr,
                                      args)
            return sym.Opaque(f".{func.attr}()")
        return sym.Opaque("call")

    def _np_ctor(self, name: str, node: ast.Call,
                 args: tuple[sym.SymExpr, ...]) -> sym.SymExpr | None:
        if any(kw.arg != "dtype" for kw in node.keywords):
            return None
        dtype: sym.SymExpr = sym.Const(None)
        for keyword in node.keywords:
            dtype = self.expr(keyword.value)
        pos = {"zeros": 1, "ones": 1, "empty": 1, "array": 1,
               "full": 2}.get(name)
        if pos is not None and len(args) > pos:
            dtype = args[pos]
            args = args[:pos] + args[pos + 1:]
        return sym.ArrayCtor(name, args, dtype)

    # -- api-call recognition -------------------------------------------
    def recognize(self, node: ast.expr) -> ir.Op | None:
        """Map a ``yield from`` (or effect) call to an Op, or None."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            # ctx.<engine>.<method>(...)
            if isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and \
                    base.value.id == self.ctx_name:
                table = _ENGINE_TABLES.get(base.attr, {})
                return self._build_op(table.get(func.attr), node)
            # ctx.<method>(...)
            if isinstance(base, ast.Name) and base.id == self.ctx_name:
                return self._build_op(_CTX_TABLE.get(func.attr), node)
            # fompi.<Func>(ctx, ...)
            if isinstance(base, ast.Name) and base.id in self.fompi_aliases:
                return self._build_op(_FOMPI_TABLE.get(func.attr), node)
            # <expr>.<window method>(...)
            entry = _WIN_TABLE.get(func.attr)
            if entry is not None:
                op = self._build_op(entry, node)
                op.args["win"] = self.expr(base)
                return op
            return None
        if isinstance(func, ast.Name):
            if func.id in self.fompi_names and func.id in _FOMPI_TABLE:
                return self._build_op(_FOMPI_TABLE[func.id], node)
            if func.id in self.typed_names and func.id in _TYPED_TABLE:
                return self._build_op(_TYPED_TABLE[func.id], node)
        return None

    def _build_op(self, entry: _Entry | None, node: ast.Call) -> ir.Op:
        """The Op of one recognized call; a callable the tables do not
        know is an ``unknown`` op."""
        if entry is None:
            return ir.Op("unknown", line=node.lineno)
        kind, roles = entry
        op = ir.Op(kind, line=node.lineno)
        by_keyword = {kw: role for role, (_pos, kw) in roles.items()}
        for role, (pos, _kw) in roles.items():
            if pos < len(node.args) and \
                    not isinstance(node.args[pos], ast.Starred):
                op.args[role] = self.expr(node.args[pos])
        for keyword in node.keywords:
            if keyword.arg in by_keyword:
                op.args[by_keyword[keyword.arg]] = self.expr(keyword.value)
        self._fill_defaults(op)
        return op

    @staticmethod
    def _fill_defaults(op: ir.Op) -> None:
        if op.kind in ("notify_init", "na_probe", "comm_probe"):
            op.args.setdefault("source", sym.Const(ANY_SOURCE))
            op.args.setdefault("tag", sym.Const(ANY_TAG))
        if op.kind == "notify_init":
            op.args.setdefault("expected", sym.Const(1))
        if op.kind == "counter_init":
            op.args.setdefault("expected", sym.Const(1))
        if op.kind == "recv":
            op.args.setdefault("source", sym.Const(ANY_SOURCE))
            op.args.setdefault("tag", sym.Const(ANY_TAG))
        if op.kind == "irecv":
            op.args.setdefault("source", sym.Const(ANY_SOURCE))
            op.args.setdefault("tag", sym.Const(ANY_TAG))
        if op.kind in ("put_notify", "get_notify", "accumulate_notify",
                       "flush_notify", "put_counted", "send", "isend"):
            op.args.setdefault("tag", sym.Const(0))

    # -- statements ------------------------------------------------------
    def stmts(self, nodes: list[ast.stmt]) -> list[ir.Stmt]:
        out: list[ir.Stmt] = []
        for node in nodes:
            out.extend(self.stmt(node))
        return out

    def stmt(self, node: ast.stmt) -> list[ir.Stmt]:
        line = node.lineno
        prefix = self._view_ops(node)
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                return prefix + [ir.Unknown(line=line,
                                            reason="multi-assign")]
            return prefix + [self._assign(node.targets[0], node.value,
                                          line)]
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return prefix
            return prefix + [self._assign(node.target, node.value, line)]
        if isinstance(node, ast.AugAssign):
            op = _BINOP_SYMS.get(type(node.op).__name__)
            target = self.expr(node.target)
            if op is None or not isinstance(target,
                                            (sym.Name, sym.Sub)):
                return prefix + [ir.Unknown(line=line, reason="augassign")]
            return prefix + [ir.Assign(
                line=line, target=target,
                value=sym.Bin(op, target, self.expr(node.value)))]
        if isinstance(node, ast.Expr):
            return prefix + self._expr_stmt(node.value, line)
        if isinstance(node, ast.If):
            return prefix + [ir.If(line=line, cond=self.expr(node.test),
                                   body=self.stmts(node.body),
                                   orelse=self.stmts(node.orelse))]
        if isinstance(node, ast.For):
            if node.orelse:
                return prefix + [ir.Unknown(line=line,
                                            reason="for-else")]
            return prefix + [ir.For(line=line,
                                    target=self.expr(node.target),
                                    iter=self.expr(node.iter),
                                    body=self.stmts(node.body))]
        if isinstance(node, ast.While):
            if node.orelse:
                return prefix + [ir.Unknown(line=line,
                                            reason="while-else")]
            return prefix + [ir.While(line=line,
                                      cond=self.expr(node.test),
                                      body=self.stmts(node.body))]
        if isinstance(node, ast.Return):
            return prefix + [ir.Return(line=line)]
        if isinstance(node, ast.Break):
            return [ir.Break(line=line)]
        if isinstance(node, ast.Continue):
            return [ir.Continue(line=line)]
        if isinstance(node, (ast.Pass, ast.Assert, ast.Import,
                             ast.ImportFrom, ast.Global, ast.Nonlocal,
                             ast.Delete)):
            return prefix
        return prefix + [ir.Unknown(line=line,
                                    reason=type(node).__name__)]

    def _assign(self, target: ast.expr, value: ast.expr,
                line: int) -> ir.Stmt:
        tgt = self.expr(target)
        if not isinstance(tgt, (sym.Name, sym.Sub, sym.TupleExpr)):
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                return ir.Unknown(line=line, reason="assign-target")
            # a store through a slice/attribute of some object cannot
            # introduce protocol ops; at worst it mutates the root name
            root = _root_name(target)
            if root is None:
                return ir.ExprStmt(line=line, value=self.expr(value))
            return ir.Assign(line=line, target=sym.Name(root),
                             value=sym.Opaque("mutated"))
        if isinstance(value, (ast.Yield, ast.YieldFrom)):
            inner = value.value
            if isinstance(value, ast.YieldFrom):
                op = self.recognize(inner) if inner is not None else None
                if op is None:
                    op = ir.Op("unknown", line=line)
                return ir.Assign(line=line, target=tgt, value=op)
            # x = yield <expr>: the sent value is unknowable
            return ir.Assign(line=line, target=tgt,
                             value=sym.Opaque("yield"))
        op = self._effect_call(value)
        if op is not None:
            return ir.Assign(line=line, target=tgt, value=op)
        return ir.Assign(line=line, target=tgt, value=self.expr(value))

    def _effect_call(self, node: ast.expr) -> ir.Op | None:
        """Plain (non-yield) calls with protocol-relevant effects."""
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == self.ctx_name:
            entry = _CTX_TABLE.get(node.func.attr)
            if entry is not None and entry[0] in ("alloc", "san_acquire"):
                return self._build_op(entry, node)
        return None

    def _expr_stmt(self, value: ast.expr, line: int) -> list[ir.Stmt]:
        if isinstance(value, ast.Constant):
            return []                       # docstring
        if isinstance(value, ast.YieldFrom):
            op = (self.recognize(value.value)
                  if value.value is not None else None)
            if op is None:
                op = ir.Op("unknown", line=line)
            return [ir.ExprStmt(line=line, value=op)]
        if isinstance(value, ast.Yield):
            inner = value.value
            if inner is None:
                return [ir.YieldRaw(line=line, value=sym.Const(None),
                                    is_literal=True)]
            expr = self.expr(inner)
            literal = _is_literalish(expr)
            return [ir.YieldRaw(line=line, value=expr,
                                is_literal=literal)]
        op = self._effect_call(value)
        if op is not None:
            return [ir.ExprStmt(line=line, value=op)]
        # container mutations the interpreter tracks
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Attribute) and \
                value.func.attr in ("append", "extend") and \
                not value.keywords and len(value.args) == 1:
            return [ir.ExprStmt(line=line, value=ir.Op(
                f"list_{value.func.attr}",
                args={"base": self.expr(value.func.value),
                      "item": self.expr(value.args[0])}, line=line))]
        if isinstance(value, ast.Call):
            # A plain call cannot run protocol ops (those need `yield
            # from`), but it may mutate anything reachable from its
            # receiver or arguments — invalidate those names.
            if isinstance(value.func, ast.Name) and \
                    value.func.id == "print":
                return []
            roots: set[str] = set()
            if isinstance(value.func, ast.Attribute):
                root = _root_name(value.func.value)
                if root is not None and root != self.ctx_name:
                    roots.add(root)
            operands = [a.value if isinstance(a, ast.Starred) else a
                        for a in value.args]
            operands += [kw.value for kw in value.keywords]
            for operand in operands:
                root = _root_name(operand)
                if root is not None and root != self.ctx_name:
                    roots.add(root)
            return [ir.Assign(line=line, target=sym.Name(root),
                              value=sym.Opaque("mutated"))
                    for root in sorted(roots)]
        return []                           # pure/benign expression

    def _view_ops(self, node: ast.stmt) -> list[ir.Stmt]:
        """Emit win_view / region_read ops for ``.local()`` /
        ``.ndarray()`` calls anywhere in a simple statement."""
        if isinstance(node, (ast.If, ast.For, ast.While)):
            scan: list[ast.expr] = [node.test] if isinstance(
                node, (ast.If, ast.While)) else [node.iter]
        else:
            scan = [n for n in ast.walk(node)
                    if isinstance(n, ast.expr)]
        out: list[ir.Stmt] = []
        seen: set[int] = set()
        for expr_node in scan:
            for call in ast.walk(expr_node):
                if not isinstance(call, ast.Call) or id(call) in seen:
                    continue
                seen.add(id(call))
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in _BLESSINGS:
                    # blessings inside helper closures still count
                    out.append(ir.ExprStmt(line=call.lineno, value=ir.Op(
                        "san_acquire", line=call.lineno)))
                    continue
                if func.attr not in _VIEW_TABLE:
                    continue
                op = self._build_op(_VIEW_TABLE[func.attr], call)
                op.args["base"] = self.expr(func.value)
                mode = op.args.pop("mode", None)
                if isinstance(mode, sym.Const):     # else: not syntactic
                    op.mode = str(mode.value)
                else:
                    op.mode = "rw"
                out.append(ir.ExprStmt(line=call.lineno, value=op))
        return out


_BINOP_SYMS = {
    "Add": "+", "Sub": "-", "Mult": "*", "Div": "/", "FloorDiv": "//",
    "Mod": "%", "Pow": "**", "BitAnd": "&", "BitOr": "|", "BitXor": "^",
    "LShift": "<<", "RShift": ">>",
}

_CMP_SYMS = {
    "Eq": "==", "NotEq": "!=", "Lt": "<", "LtE": "<=", "Gt": ">",
    "GtE": ">=", "In": "in", "NotIn": "not in", "Is": "is",
    "IsNot": "is not",
}


def _root_name(node: ast.expr) -> str | None:
    """The variable a subscript/attribute store ultimately mutates."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _ends_with_constants(node: ast.Attribute) -> bool:
    """True for ``<...>.constants.ANY_TAG``-style chains."""
    base = node.value
    return isinstance(base, ast.Attribute) and base.attr == "constants"


def _is_literalish(expr: sym.SymExpr) -> bool:
    """Constants and arithmetic over constants — never an Event."""
    if isinstance(expr, sym.Const):
        return not isinstance(expr.value, str) or True
    if isinstance(expr, sym.Un):
        return _is_literalish(expr.operand)
    if isinstance(expr, sym.Bin):
        return _is_literalish(expr.left) and _is_literalish(expr.right)
    return False


# ---------------------------------------------------------------------------
# module-level extraction
# ---------------------------------------------------------------------------

def _fold_module_consts(tree: ast.Module) -> dict[str, object]:
    """Evaluate simple top-level constant assignments."""
    consts: dict[str, object] = dict(_WILDCARDS)
    translator = _Translator("\0", set(), set(), set())
    env = sym.Env(rank=0, size=0, globals_=consts)
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        result = translator.expr(value).evaluate(env)
        if not sym.is_known(result):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                consts[target.id] = result
                env.globals[target.id] = result
            elif isinstance(target, ast.Tuple) and \
                    isinstance(result, (tuple, list)) and \
                    len(target.elts) == len(result):
                for elt, val in zip(target.elts, result):
                    if isinstance(elt, ast.Name):
                        consts[elt.id] = val
                        env.globals[elt.id] = val
    return consts


def _collect_imports(tree: ast.Module) -> tuple[set[str], set[str],
                                                set[str], set[str]]:
    """(fompi aliases, fompi direct names, typed names, numpy aliases)."""
    aliases: set[str] = set()
    names: set[str] = set()
    typed: set[str] = set()
    numpy_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro" and any(a.name == "fompi"
                                         for a in node.names):
                for alias in node.names:
                    if alias.name == "fompi":
                        aliases.add(alias.asname or "fompi")
            elif module == "repro.fompi":
                for alias in node.names:
                    names.add(alias.asname or alias.name)
            elif module in ("repro.rma.typed", "repro.rma"):
                for alias in node.names:
                    typed.add(alias.asname or alias.name)
            elif module == "repro.mpi.constants":
                for alias in node.names:
                    if alias.name in _WILDCARDS:
                        names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.fompi":
                    aliases.add(alias.asname or "repro.fompi")
                elif alias.name == "repro.rma.typed":
                    aliases.add(alias.asname or alias.name)
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
    return aliases, names, typed, numpy_aliases


def _discover_sizes(tree: ast.Module,
                    consts: dict[str, object]) -> dict[str, list[int]]:
    """Map program name -> communicator sizes from run_ranks call sites."""
    translator = _Translator("\0", set(), set(), set())
    env = sym.Env(rank=0, size=0, globals_=consts)
    sizes: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name not in ("run_ranks", "run_cluster") or len(node.args) < 2:
            continue
        n = translator.expr(node.args[0]).evaluate(env)
        prog = node.args[1]
        if isinstance(n, int) and n >= 1 and isinstance(prog, ast.Name):
            sizes.setdefault(prog.id, [])
            if n not in sizes[prog.id]:
                sizes[prog.id].append(n)
    return sizes


def _parse_annotations(source: str,
                       tree: ast.Module) -> dict[str, _Annotations]:
    """Attach ``# analyze:`` / ``# protocol:`` comments to functions."""
    functions: list[ast.FunctionDef] = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    out: dict[str, _Annotations] = {}

    def owner(lineno: int) -> ast.FunctionDef | None:
        best: ast.FunctionDef | None = None
        for fn in functions:
            end = fn.end_lineno or fn.lineno
            if fn.lineno <= lineno <= end:
                if best is None or fn.lineno > best.lineno:
                    best = fn
        return best

    for idx, text in enumerate(source.splitlines(), start=1):
        raw_match = _RAW_OK_RE.search(text)
        race_match = _RACE_OK_RE.search(text)
        analyze_match = _ANALYZE_RE.search(text)
        if not raw_match and not race_match and not analyze_match:
            continue
        fn = owner(idx)
        if fn is None:
            continue
        ann = out.setdefault(fn.name, _Annotations())
        if raw_match:
            ann.raw_ok_lines.add(idx)
        if race_match:
            ann.race_ok_lines.add(idx)
        if analyze_match:
            _parse_analyze(analyze_match.group(1), ann)
    return out


def _parse_analyze(text: str, ann: _Annotations) -> None:
    for token in re.findall(r"(\w+)=([^\s]+)|(\bskip\b)", text):
        key, value, skip = token
        if skip:
            ann.skip = True
        elif key == "nranks":
            for part in value.split(","):
                try:
                    ann.nranks.append(int(part))
                except ValueError:
                    pass
        elif key == "args":
            try:
                parsed = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                continue
            if isinstance(parsed, tuple):
                ann.args = list(parsed)
            else:
                ann.args = [parsed]


def _has_yield(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _lift_helper(fn: ast.FunctionDef, translator: _Translator,
                 ) -> tuple[tuple[str, ...], sym.SymExpr] | None:
    """Lift a straight-line pure helper function into one SymExpr.

    Supported bodies: an optional docstring followed by nested
    guard-``if``/``return`` chains ending in a plain ``return <expr>``.
    Anything else (loops, defaults, varargs, yields) is rejected.
    """
    spec = fn.args
    if spec.posonlyargs or spec.kwonlyargs or spec.vararg or \
            spec.kwarg or spec.defaults or spec.kw_defaults or \
            fn.decorator_list:
        return None
    if _has_yield(fn):
        return None
    params = tuple(arg.arg for arg in spec.args)
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant):
        body = body[1:]                         # docstring
    expr = _fold_returns(body, translator)
    if expr is None:
        return None
    return params, expr


def _fold_returns(body: list[ast.stmt],
                  translator: _Translator) -> sym.SymExpr | None:
    """Fold an if/return ladder into a nested conditional expression."""
    if not body:
        return None
    head, rest = body[0], body[1:]
    if isinstance(head, ast.Return):
        if head.value is None or rest:
            return None
        return translator.expr(head.value)
    if isinstance(head, ast.If):
        then = _fold_returns(head.body, translator)
        if then is None:
            return None
        if head.orelse:
            if rest:
                return None
            other = _fold_returns(head.orelse, translator)
        else:
            other = _fold_returns(rest, translator)
        if other is None:
            return None
        return sym.IfExp(translator.expr(head.test), then, other)
    return None


def extract_file(path: str, source: str | None = None) -> list[ir.Program]:
    """Extract every rank program from one Python source file."""
    if source is None:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    consts = _fold_module_consts(tree)
    aliases, fompi_names, typed_names, np_aliases = _collect_imports(tree)
    sizes = _discover_sizes(tree, consts)
    annotations = _parse_annotations(source, tree)

    # Pure module-level helpers become inlinable symbolic bodies so
    # rank/size-affine offsets routed through them stay resolvable.
    helpers: dict[str, tuple[tuple[str, ...], sym.SymExpr]] = {}
    helper_translator = _Translator("\0", aliases, fompi_names,
                                    typed_names, np_aliases, helpers)
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        fn_args = node.args.posonlyargs + node.args.args
        if fn_args and fn_args[0].arg == "ctx":
            continue
        lifted = _lift_helper(node, helper_translator)
        if lifted is not None:
            helpers[node.name] = lifted

    programs: list[ir.Program] = []
    parents: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for child in ast.walk(node):
                if isinstance(child, ast.FunctionDef) and child is not node:
                    parents.setdefault(id(child), node.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args.posonlyargs + node.args.args
        if not args or args[0].arg != "ctx" or not _has_yield(node):
            continue
        ann = annotations.get(node.name, _Annotations())
        translator = _Translator(args[0].arg, aliases, fompi_names,
                                 typed_names, np_aliases, helpers)
        parent = parents.get(id(node))
        qualname = f"{parent}.<locals>.{node.name}" if parent \
            else node.name
        program = ir.Program(
            name=node.name, qualname=qualname, path=path,
            line=node.lineno,
            params=[a.arg for a in args[1:]],
            body=translator.stmts(node.body),
            sizes=list(ann.nranks or sizes.get(node.name, [])),
            arg_values=list(ann.args),
            raw_ok_lines=frozenset(ann.raw_ok_lines),
            race_ok_lines=frozenset(ann.race_ok_lines),
            skipped=ann.skip,
            module_consts=consts,
        )
        programs.append(program)
    return programs
