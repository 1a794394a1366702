"""Epoch / flush lint over the program tree.

Unlike the cross-rank checkers this lint needs no concrete ``(rank,
size)``: it tracks, per window *variable*, a three-valued epoch state
(``closed`` / ``open`` / ``maybe``) plus a must-dirty set of local
buffers with un-flushed remote reads, and reports only on definite
states.  Any statement outside the modelled fragment degrades the state
to ``maybe`` instead of producing a diagnostic.

Checks:

* ``epoch.no-epoch`` — a plain (non-notified) RMA access on a window
  whose access epoch is definitely closed;
* ``epoch.missing-flush`` — reading a local buffer filled by a remote
  get with no intervening flush / notification edge on any path;
* ``epoch.raw-view`` — a ``mode="raw"`` window view in a program that
  never takes a sanitizer blessing (``ctx.san_acquire``), without a
  ``# protocol: raw-ok`` waiver on the line;
* ``epoch.non-event-yield`` — a plain ``yield`` of a literal, which the
  simulator's event loop rejects at run time (a float literal is a CPU
  charge, the delay a process may yield, and is not reported).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import ir
from repro.analysis.report import Finding

_OPENERS = frozenset({"win_fence", "win_lock", "win_lock_all",
                      "win_start"})
_CLOSERS = frozenset({"win_fence_end", "win_unlock", "win_unlock_all",
                      "win_complete", "win_free"})
_NOTIFY_EDGES = ir.WAIT_KINDS | ir.POLL_KINDS


@dataclass
class _State:
    #: window variable -> "closed" | "open" | "maybe"
    wins: dict[str, str] = field(default_factory=dict)
    #: buffer variable with un-flushed remote read -> window variable
    dirty: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(wins=dict(self.wins), dirty=dict(self.dirty))


def _merge(a: _State, b: _State) -> _State:
    wins: dict[str, str] = {}
    for name in set(a.wins) | set(b.wins):
        left = a.wins.get(name)
        right = b.wins.get(name)
        wins[name] = left if left == right and left is not None \
            else "maybe"
    dirty = {name: win for name, win in a.dirty.items()
             if b.dirty.get(name) == win}
    return _State(wins=wins, dirty=dirty)


def _root(expr: ast.expr | None) -> str | None:
    while ir.is_item(expr):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_literalish(expr: ast.expr) -> bool:
    """Constants and arithmetic over constants — never an Event."""
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _is_literalish(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _is_literalish(expr.left) and _is_literalish(expr.right)
    return False


def _is_delay(expr: ast.expr) -> bool:
    """A literal float, or arithmetic over literals with one in it."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp):
        return _is_delay(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _is_delay(expr.left) or _is_delay(expr.right)
    return False


class _Lint:
    def __init__(self, program: ir.Program):
        self.program = program
        self.findings: list[Finding] = []
        self._keys: set[tuple[str, int]] = set()
        self.has_san = any(op.kind == "san_acquire"
                           for op in program.walk_ops())

    def _emit(self, check: str, line: int, message: str) -> None:
        key = (check, line)
        if key in self._keys:
            return
        self._keys.add(key)
        self.findings.append(Finding(
            check=check, path=self.program.path, line=line,
            program=self.program.qualname, message=message))

    # -- walk ------------------------------------------------------------
    def run(self) -> list[Finding]:
        self._stmts(self.program.body, _State())
        return self.findings

    def _stmts(self, stmts: list[ir.Stmt], state: _State) -> _State:
        for stmt in stmts:
            state = self._stmt(stmt, state)
        return state

    def _stmt(self, stmt: ir.Stmt, state: _State) -> _State:
        if isinstance(stmt, ir.Assign):
            if isinstance(stmt.value, ir.Op):
                self._op(stmt.value, state)
                self._bind(stmt.target, stmt.value, state)
            else:
                self._bind(stmt.target, None, state)
            return state
        if isinstance(stmt, ir.ExprStmt):
            if isinstance(stmt.value, ir.Op):
                self._op(stmt.value, state)
            return state
        if isinstance(stmt, ir.If):
            then_state = self._stmts(stmt.body, state.copy())
            else_state = self._stmts(stmt.orelse, state.copy())
            return _merge(then_state, else_state)
        if isinstance(stmt, (ir.For, ir.While)):
            once = self._stmts(stmt.body, state.copy())
            merged = _merge(state, once)
            twice = self._stmts(stmt.body, merged.copy())
            return _merge(merged, twice)
        if isinstance(stmt, ir.YieldRaw):
            if _is_literalish(stmt.value) and not _is_delay(stmt.value):
                self._emit(
                    "epoch.non-event-yield", stmt.line,
                    f"plain `yield {ast.unparse(stmt.value)}` is not a "
                    f"simulator event; use `yield from` on an API call")
            return state
        if isinstance(stmt, ir.Unknown):
            for name in state.wins:
                state.wins[name] = "maybe"
            state.dirty.clear()
            return state
        return state          # Return/Break/Continue: linear approximation

    def _bind(self, target: ast.expr, value: ir.Op | None,
              state: _State) -> None:
        names: list[str] = []
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, ast.Tuple):
            names = [t.id for t in target.elts
                     if isinstance(t, ast.Name)]
        for name in names:
            state.wins.pop(name, None)
            state.dirty.pop(name, None)
        if value is not None and value.kind == "win_allocate" and \
                isinstance(target, ast.Name):
            state.wins[target.id] = "closed"

    def _op(self, op: ir.Op, state: _State) -> None:
        kind = op.kind
        win = _root(op.args.get("win"))

        if kind == "win_view" and op.mode == "raw":
            if op.line not in self.program.raw_ok_lines and \
                    not self.has_san:
                self._emit(
                    "epoch.raw-view", op.line,
                    'mode="raw" view without a ctx.san_acquire blessing '
                    "(add one, or waive with `# protocol: raw-ok`)")
            return
        if kind == "region_read":
            base = _root(op.args.get("base"))
            if base is not None and base in state.dirty:
                self._emit(
                    "epoch.missing-flush", op.line,
                    f"local read of `{base}` after a remote get with no "
                    f"intervening flush or notification wait")
            return

        if kind in ir.EPOCH_ACCESS_KINDS:
            if win is not None and state.wins.get(win) == "closed":
                self._emit(
                    "epoch.no-epoch", op.line,
                    f"{kind.removeprefix('win_')} on window `{win}` "
                    f"outside any access epoch (fence/lock/start)")
        if kind in ("win_get", "get_notify"):
            buf = _root(op.args.get("buf"))
            if buf is not None:
                state.dirty[buf] = win or "?"

        if kind in _OPENERS and win is not None and win in state.wins:
            state.wins[win] = "open"
        elif kind in _CLOSERS and win is not None and win in state.wins:
            state.wins[win] = "closed"

        if kind in ir.COMPLETION_KINDS:
            if win is None:
                state.dirty.clear()
            else:
                for name in [n for n, w in state.dirty.items()
                             if w in (win, "?")]:
                    del state.dirty[name]
        elif kind in _NOTIFY_EDGES:
            state.dirty.clear()


def lint_epochs(program: ir.Program) -> list[Finding]:
    return _Lint(program).run()
