"""The per-rank protocol IR.

A rank program is lifted into a tree of statements whose expressions are
the ``ast.expr`` nodes Python parsed (:func:`repro.analysis.symbols.
evaluate` gives them values).  Communication API calls become
:class:`Op` nodes carrying the argument expressions the checkers care
about (window, peer rank, tag, threshold); everything the verifier
cannot model becomes an :class:`Unknown` statement, which downgrades the
affected checks instead of guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TypeGuard

from repro.analysis.symbols import Scope

# ---------------------------------------------------------------------------
# op vocabulary
# ---------------------------------------------------------------------------

#: notified-access / counter / overwriting posts (origin side)
POST_KINDS = frozenset({
    "put_notify", "get_notify", "accumulate_notify", "flush_notify",
    "put_counted", "write_notify",
})

#: blocking completion calls (target side)
WAIT_KINDS = frozenset({
    "na_wait", "na_waitall", "na_waitany", "counter_wait", "waitsome",
})

#: polling calls that consume notifications nondeterministically
POLL_KINDS = frozenset({
    "na_test", "na_testany", "na_probe", "counter_test",
})

#: plain (non-notified) window accesses that need an open epoch
EPOCH_ACCESS_KINDS = frozenset({
    "win_put", "win_get", "win_accumulate", "win_fetch_and_op",
    "win_compare_and_swap",
})

#: ops that complete pending origin-side work on a window
COMPLETION_KINDS = frozenset({
    "win_flush", "win_flush_local", "win_flush_all", "win_fence",
    "win_fence_end", "win_complete", "win_unlock", "win_unlock_all",
    "win_free", "flush_notify",
})


@dataclass
class Op:
    """One recognized runtime call, with its argument expressions.

    ``args`` maps role names (``win``, ``target``, ``source``, ``tag``,
    ``expected``, ``req``, ``buf``, ...) to the expressions passed (or
    the runtime signature's default).
    """

    kind: str
    args: dict[str, ast.expr] = field(default_factory=dict)
    line: int = 0
    #: mode string of a view op ("rw", "r", "raw"), when syntactic
    mode: str | None = None

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={ast.unparse(v)}"
                          for k, v in sorted(self.args.items()))
        return f"{self.kind}({inner})"


def is_item(node: ast.expr | None) -> TypeGuard[ast.Subscript]:
    """``value[index]`` with a plain index: what a store can locate a
    cell through (slices are outside the modelled fragment)."""
    return isinstance(node, ast.Subscript) and \
        not isinstance(node.slice, ast.Slice)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class Stmt:
    line: int = 0


@dataclass(kw_only=True)
class Assign(Stmt):
    """``target = value``; ``value`` is an expression or an Op result."""

    #: assignment target pattern: a Name, an item (:func:`is_item`) or a
    #: Tuple of them
    target: ast.expr
    value: ast.expr | Op


@dataclass(kw_only=True)
class ExprStmt(Stmt):
    value: ast.expr | Op


@dataclass(kw_only=True)
class If(Stmt):
    cond: ast.expr
    body: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)


@dataclass(kw_only=True)
class For(Stmt):
    target: ast.expr
    iter: ast.expr
    body: list[Stmt] = field(default_factory=list)


@dataclass(kw_only=True)
class While(Stmt):
    cond: ast.expr
    body: list[Stmt] = field(default_factory=list)


@dataclass(kw_only=True)
class Return(Stmt):
    pass


@dataclass(kw_only=True)
class Break(Stmt):
    pass


@dataclass(kw_only=True)
class Continue(Stmt):
    pass


@dataclass(kw_only=True)
class YieldRaw(Stmt):
    """A plain ``yield <expr>`` (not ``yield from``)."""

    value: ast.expr


@dataclass(kw_only=True)
class Unknown(Stmt):
    """A statement outside the modelled fragment."""

    reason: str = ""


@dataclass
class Program:
    """One extracted rank program."""

    name: str
    qualname: str
    path: str
    line: int
    #: names of parameters after ``ctx``
    params: list[str] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    #: communicator sizes to instantiate, from ``run_ranks`` discovery or
    #: an ``# analyze: nranks=N`` annotation (empty = unknown size)
    sizes: list[int] = field(default_factory=list)
    #: values for the extra parameters (from ``# analyze: args=(...)``)
    arg_values: list[object] = field(default_factory=list)
    #: lines carrying a ``# protocol: raw-ok`` blessing
    raw_ok_lines: frozenset[int] = frozenset()
    #: lines carrying a ``# protocol: race-ok`` waiver
    race_ok_lines: frozenset[int] = frozenset()
    #: ``# analyze: skip`` disables the whole program
    skipped: bool = False
    #: module-level constants visible to the program
    module_consts: dict[str, object] = field(default_factory=dict)
    #: what the module's imports and helpers make of the program's names
    scope: Scope = Scope()

    def walk_ops(self) -> list[Op]:
        """All Op nodes in the tree, in source order."""
        out: list[Op] = []

        def visit(stmts: list[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (Assign, ExprStmt)) and \
                        isinstance(stmt.value, Op):
                    out.append(stmt.value)
                elif isinstance(stmt, If):
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (For, While)):
                    visit(stmt.body)

        visit(self.body)
        return out
