"""One origin call: every one-sided op is issued by ``Window._issue``.

The notified and plain verbs of ``repro.core``, ``repro.rma`` and
``repro.ft`` (put, get, accumulate, the atomics, the typed, counted and
overwriting variants) differ only in the arguments they hand to it.  A
verb that charged ``o_send`` and called the fabric itself would bring
back a second copy of the origin sequence, free to drift in the order
of its flush record, commit hook and CPU charge.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
LAYERS = ("core", "rma", "ft")
ORIGIN_CALL = "Window._issue"


def _origin_steps(tree: ast.AST) -> list[tuple[str, str]]:
    """``(function, step)`` for every fabric verb call (``fabric.put(``,
    ``get(``, ``amo(``) and every ``params.o_send`` in ``tree``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("put", "get", "amo")
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "fabric"):
                found.append((scope, f"fabric.{child.func.attr}"))
            if (isinstance(child, ast.Attribute)
                    and child.attr == "o_send"
                    and isinstance(child.value, ast.Attribute)
                    and child.value.attr == "params"):
                found.append((scope, "o_send"))
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_the_window_issues_one_sided_ops():
    steps = []
    for layer in LAYERS:
        for path in sorted((SRC / layer).rglob("*.py")):
            steps += _origin_steps(ast.parse(path.read_text(), str(path)))
    assert [s for s in steps if s[0] != ORIGIN_CALL] == []
    assert steps.count((ORIGIN_CALL, "o_send")) == 1


def test_a_hand_written_verb_is_caught():
    """The guard fires on the shape it forbids: a verb that charges
    ``o_send`` and calls the fabric itself."""
    verb = textwrap.dedent("""
        class CounterEngine:
            def put_counted(self, win, data, target):
                yield self.engine.timeout(self.params.o_send)
                h = self.ctx.fabric.put(self.rank, target, 0, data)
                win.record_pending(target, h)
                return h
    """)
    assert _origin_steps(ast.parse(verb)) == [
        ("CounterEngine.put_counted", "o_send"),
        ("CounterEngine.put_counted", "fabric.put")]
