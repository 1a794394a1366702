"""AST extractor: lift rank programs into the protocol IR.

A *rank program* is any generator function whose first parameter is
``ctx`` (the :class:`repro.cluster.Rank` context).  The extractor walks a
module, folds its top-level constants, discovers the communicator sizes
each program actually runs at (``run_ranks(N, program)`` call sites or an
``# analyze: nranks=N`` annotation), and translates each program body
into :class:`repro.analysis.ir.Program`.

The translation is deliberately partial: every communication call of the
repro API (``ctx.na.*``, ``ctx.counters.*``, ``ctx.gaspi.*``,
``ctx.comm.*``, window epoch/flush methods, the foMPI shim) becomes an
:class:`~repro.analysis.ir.Op`; all other Python is either an
expression, kept as the ``ast`` node it is (valued later by
:func:`repro.analysis.symbols.evaluate`), or an
:class:`~repro.analysis.ir.Unknown` marker that downgrades the
cross-rank checks to "cannot prove".
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass, field, replace
from types import ModuleType
from typing import Any, cast

import numpy as np

from repro import fompi
from repro.analysis import ir
from repro.analysis import symbols as sym
from repro.cluster import Rank
from repro.core.counters import CounterEngine
from repro.core.engine import NotifyEngine
from repro.core.overwriting import OverwriteEngine
from repro.memory.address import Region
from repro.mpi.comm import Communicator
from repro.rma.window import Window

_ANALYZE_RE = re.compile(r"#\s*analyze:\s*(.+?)\s*$")
_RAW_OK_RE = re.compile(r"#\s*protocol:\s*raw-ok")
_RACE_OK_RE = re.compile(r"#\s*protocol:\s*race-ok")

#: One resolved API-table row: IR op kind, per argument role its
#: ``(position in the call, keyword name)``, and per role the runtime
#: signature declares a default for, that default as an expression.
_Entry = tuple[str, dict[str, tuple[int, str]], dict[str, ast.expr]]

#: an expression outside the modelled fragment (a Constant's value is
#: returned as is, so it need not be a Python literal)
_OPAQUE = ast.Constant(cast(Any, sym.UNKNOWN))


def _bind(owner: type | ModuleType,
          table: dict[str, tuple[str, dict[str, str]]]) -> dict[str, _Entry]:
    """Resolve a table of ``name -> (kind, {role: parameter name})``
    against the signatures of ``owner``'s callables.

    The tables below say which parameter plays which role; *where* that
    parameter sits and what it defaults to is read from the runtime, so
    a signature change moves the analyzer with it — and a role naming a
    parameter the callable does not have, or one whose default is not a
    value the evaluator has (a plain constant or a numpy scalar type),
    fails here, at import, instead of silently dropping the argument.
    A method's ``self`` is not among a call's arguments.
    """
    out: dict[str, _Entry] = {}
    for name, (kind, roles) in table.items():
        signature = inspect.signature(getattr(owner, name)).parameters
        params = list(signature)
        if isinstance(owner, type):
            del params[0]
        where = f"analysis API table: {owner.__name__}.{name}()"
        defaults: dict[str, ast.expr] = {}
        for role, param in roles.items():
            if param not in params:
                raise TypeError(f"{where} has no parameter {param!r}")
            default = signature[param].default
            if default is inspect.Parameter.empty:
                continue
            if isinstance(default, type) and issubclass(default, np.generic):
                default = sym.DTypeVal(np.dtype(default).itemsize)
            elif not isinstance(default, (int, float, str, type(None))):
                raise TypeError(f"{where}: default of {param!r} is not a "
                                f"constant ({default!r})")
            defaults[role] = ast.Constant(default)
        out[name] = (kind, {role: (params.index(param), param)
                            for role, param in roles.items()}, defaults)
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
        "isend": ("isend", {"target": "dest", "tag": "tag"}),
        "recv": ("recv", {"source": "source", "tag": "tag"}),
        "irecv": ("irecv", {"source": "source", "tag": "tag"}),
        "sendrecv": ("sendrecv",
                     {"target": "dest", "sendtag": "sendtag",
                      "source": "source", "tag": "recvtag"}),
        "wait": ("comm_wait", _REQ),
        "waitall": ("comm_waitall", _REQS),
        "probe": ("comm_probe", {"source": "source", "tag": "tag"}),
        "iprobe": ("nop", {}),
        "barrier": ("barrier", {}),
        "bcast": ("collective", {}),
        "reduce": ("collective", {}),
        "allreduce": ("collective", {}),
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
_BLESSINGS = frozenset(name for name, entry in _CTX_TABLE.items()
                       if entry[0] == "san_acquire")

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


class _Translator:
    """Translates one function body; stateless across functions."""

    def __init__(self, scope: sym.Scope):
        self.ctx_name = scope.ctx_name
        self.fompi_aliases = scope.fompi_aliases
        self.fompi_names = scope.fompi_names

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
                op.args["win"] = base
                return op
            return None
        if isinstance(func, ast.Name) and func.id in self.fompi_names \
                and func.id in _FOMPI_TABLE:
            return self._build_op(_FOMPI_TABLE[func.id], node)
        return None

    def _build_op(self, entry: _Entry | None, node: ast.Call) -> ir.Op:
        """The Op of one recognized call; a callable the tables do not
        know is an ``unknown`` op."""
        if entry is None:
            return ir.Op("unknown", line=node.lineno)
        kind, roles, defaults = entry
        op = ir.Op(kind, line=node.lineno)
        by_keyword = {kw: role for role, (_pos, kw) in roles.items()}
        for role, (pos, _kw) in roles.items():
            if pos < len(node.args) and \
                    not isinstance(node.args[pos], ast.Starred):
                op.args[role] = node.args[pos]
        for keyword in node.keywords:
            if keyword.arg in by_keyword:
                op.args[by_keyword[keyword.arg]] = keyword.value
        for role, default in defaults.items():
            op.args.setdefault(role, default)
        return op

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
            target = node.target
            if isinstance(node.op, ast.MatMult) or not (
                    isinstance(target, ast.Name) or ir.is_item(target)):
                return prefix + [ir.Unknown(line=line, reason="augassign")]
            return prefix + [ir.Assign(
                line=line, target=target,
                value=ast.BinOp(target, node.op, node.value))]
        if isinstance(node, ast.Expr):
            return prefix + self._expr_stmt(node.value, line)
        if isinstance(node, ast.If):
            return prefix + [ir.If(line=line, cond=node.test,
                                   body=self.stmts(node.body),
                                   orelse=self.stmts(node.orelse))]
        if isinstance(node, ast.For):
            if node.orelse:
                return prefix + [ir.Unknown(line=line,
                                            reason="for-else")]
            return prefix + [ir.For(line=line, target=node.target,
                                    iter=node.iter,
                                    body=self.stmts(node.body))]
        if isinstance(node, ast.While):
            if node.orelse:
                return prefix + [ir.Unknown(line=line,
                                            reason="while-else")]
            return prefix + [ir.While(line=line, cond=node.test,
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
        if not isinstance(target, (ast.Name, ast.Tuple)) and \
                not ir.is_item(target):
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                return ir.Unknown(line=line, reason="assign-target")
            # a store through a slice/attribute of some object cannot
            # introduce protocol ops; at worst it mutates the root name
            root = _root_name(target)
            if root is None:
                return ir.ExprStmt(line=line, value=value)
            return _mutated(root, line)
        if isinstance(value, ast.YieldFrom):
            op = self.recognize(value.value) or ir.Op("unknown", line=line)
            return ir.Assign(line=line, target=target, value=op)
        if isinstance(value, ast.Yield):
            # x = yield <expr>: the sent value is unknowable
            return ir.Assign(line=line, target=target, value=_OPAQUE)
        return ir.Assign(line=line, target=target,
                         value=self._effect_call(value) or value)

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
            op = self.recognize(value.value) or ir.Op("unknown", line=line)
            return [ir.ExprStmt(line=line, value=op)]
        if isinstance(value, ast.Yield):
            return [ir.YieldRaw(line=line,
                                value=value.value or ast.Constant(None))]
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
                args={"base": value.func.value,
                      "item": value.args[0]}, line=line))]
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
            return [_mutated(root, line) for root in sorted(roots)]
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
                op.args["base"] = func.value
                mode = op.args.pop("mode", None)
                if isinstance(mode, ast.Constant):  # else: not syntactic
                    op.mode = str(mode.value)
                else:
                    op.mode = "rw"
                out.append(ir.ExprStmt(line=call.lineno, value=op))
        return out


def _mutated(root: str, line: int) -> ir.Stmt:
    """Whatever ``root`` held is no longer known."""
    return ir.Assign(line=line, target=ast.Name(root, ast.Store()),
                     value=_OPAQUE)


def _root_name(node: ast.expr) -> str | None:
    """The variable a subscript/attribute store ultimately mutates."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# module-level extraction
# ---------------------------------------------------------------------------

def _fold_module_consts(tree: ast.Module) -> dict[str, object]:
    """Evaluate simple top-level constant assignments."""
    env = sym.Env(rank=0, size=0, globals_=sym.WILDCARDS)
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        result = sym.evaluate(value, env)
        if not sym.is_known(result):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                env.globals[target.id] = result
            elif isinstance(target, ast.Tuple) and \
                    isinstance(result, (tuple, list)) and \
                    len(target.elts) == len(result):
                for elt, val in zip(target.elts, result):
                    if isinstance(elt, ast.Name):
                        env.globals[elt.id] = val
    return env.globals


def _collect_imports(tree: ast.Module) -> sym.Scope:
    """What the module's imports make of its names: the evaluator's
    scope (foMPI / numpy aliases, names imported from the shim)."""
    aliases: set[str] = set()
    names: set[str] = set()
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
            elif module == "repro.mpi.constants":
                for alias in node.names:
                    if alias.name in sym.WILDCARDS:
                        names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.fompi":
                    aliases.add(alias.asname or "repro.fompi")
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
    return sym.Scope(None, frozenset(aliases), frozenset(names),
                     frozenset(numpy_aliases))


def _discover_sizes(tree: ast.Module,
                    consts: dict[str, object]) -> dict[str, list[int]]:
    """Map program name -> communicator sizes from run_ranks call sites."""
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
        n = sym.evaluate(node.args[0], env)
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


def _lift_helper(fn: ast.FunctionDef,
                 scope: sym.Scope) -> sym.Helper | None:
    """Lift a straight-line pure helper function into one expression.

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
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant):
        body = body[1:]                         # docstring
    expr = _fold_returns(body)
    if expr is None:
        return None
    return sym.Helper(tuple(arg.arg for arg in spec.args), expr, scope)


def _fold_returns(body: list[ast.stmt]) -> ast.expr | None:
    """Fold an if/return ladder into a nested conditional expression."""
    if not body:
        return None
    head, rest = body[0], body[1:]
    if isinstance(head, ast.Return):
        if head.value is None or rest:
            return None
        return head.value
    if isinstance(head, ast.If):
        then = _fold_returns(head.body)
        if then is None:
            return None
        if head.orelse:
            if rest:
                return None
            other = _fold_returns(head.orelse)
        else:
            other = _fold_returns(rest)
        if other is None:
            return None
        return ast.IfExp(head.test, then, other)
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
    module = _collect_imports(tree)
    sizes = _discover_sizes(tree, consts)
    annotations = _parse_annotations(source, tree)

    # Pure module-level helpers become inlinable expression bodies so
    # rank/size-affine offsets routed through them stay resolvable.  A
    # helper's own scope is the module as defined so far: the helpers
    # above it.
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        fn_args = node.args.posonlyargs + node.args.args
        if fn_args and fn_args[0].arg == "ctx":
            continue
        lifted = _lift_helper(node, module)
        if lifted is not None:
            module = replace(module, helpers={**module.helpers,
                                              node.name: lifted})

    scope = replace(module, ctx_name="ctx")
    translator = _Translator(scope)
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
        parent = parents.get(id(node))
        qualname = f"{parent}.<locals>.{node.name}" if parent \
            else node.name
        programs.append(ir.Program(
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
            scope=scope,
        ))
    return programs
