"""Values and the evaluator of the static protocol verifier.

The extractor keeps the expressions of a rank program as the ``ast``
nodes Python parsed them into: rank arithmetic (``rank + 1``,
``(rank - 1) % size``, neighbour expressions) stays symbolic in the IR
and gets a value only when a checker instantiates the program for a
concrete ``(rank, size)`` pair.  This module holds what that takes: the
abstract *values* (:data:`UNKNOWN`, :class:`DTypeVal`,
:class:`ArrayVal`), the name environment (:class:`Env`, with the
:class:`Scope` a module's imports and helper functions give its names),
the whitelists of what may be called, and the one function
:func:`evaluate`.

Evaluation is total: anything outside the modelled fragment evaluates to
the :data:`UNKNOWN` sentinel, which checkers treat as "cannot prove
anything here" — the verifier never guesses.
"""

from __future__ import annotations

import ast
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.mpi.constants import ANY_SOURCE, ANY_TAG


class _Unknown:
    """Singleton for values the verifier cannot resolve statically."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<unknown>"

    def __bool__(self) -> bool:  # pragma: no cover - defensive
        raise TypeError("UNKNOWN has no truth value; test with is_known()")


#: the single "statically unresolvable" value
UNKNOWN = _Unknown()


def is_known(value: Any) -> bool:
    """True when ``value`` (including its elements) is fully resolved."""
    if value is UNKNOWN:
        return False
    if isinstance(value, (list, tuple)):
        return all(is_known(v) for v in value)
    if isinstance(value, dict):
        return all(is_known(k) and is_known(v) for k, v in value.items())
    return True


@dataclass(frozen=True)
class Helper:
    """A module-level pure function, lifted into one expression over its
    parameters (see ``extract._lift_helper``), so rank-routing helpers
    like a hash-based peer selector stay statically resolvable."""

    params: tuple[str, ...]
    body: ast.expr
    #: what the body's names mean: its module's imports and the helpers
    #: defined *above* it (so a lifted body cannot recurse)
    scope: Scope


@dataclass(frozen=True)
class Scope:
    """What a module makes of the names an expression may use."""

    #: the rank-context parameter (``ctx.rank`` / ``ctx.size`` resolve
    #: through it); None outside a rank program
    ctx_name: str | None = None
    #: names bound to the foMPI shim module / imported from it
    fompi_aliases: frozenset[str] = frozenset()
    fompi_names: frozenset[str] = frozenset()
    #: names bound to the numpy module
    np_aliases: frozenset[str] = frozenset()
    helpers: dict[str, Helper] = field(default_factory=dict)


class Env:
    """A mutable name environment for one instantiation walk."""

    def __init__(self, rank: int, size: int,
                 globals_: dict[str, Any] | None = None,
                 scope: Scope = Scope()):
        self.rank = rank
        self.size = size
        self.globals = dict(globals_ or {})
        self.locals: dict[str, Any] = {}
        self.scope = scope

    def load(self, name: str) -> Any:
        if name in self.locals:
            return self.locals[name]
        if name in self.globals:
            return self.globals[name]
        return UNKNOWN

    def store(self, name: str, value: Any) -> None:
        self.locals[name] = value


@dataclass(frozen=True)
class DTypeVal:
    """A resolved numpy dtype — all the checkers need is the itemsize."""

    itemsize: int


@dataclass(frozen=True)
class ArrayVal:
    """Shape/dtype summary of a numpy array constructor result.

    The race checker sizes RMA payloads from these; element values are
    never tracked (an array's *contents* cannot carry protocol effects).
    """

    count: int
    itemsize: int

    @property
    def nbytes(self) -> int:
        return self.count * self.itemsize


#: names that resolve to the wildcard constants
WILDCARDS = {
    "ANY_SOURCE": ANY_SOURCE,
    "ANY_TAG": ANY_TAG,
    "MPI_ANY_SOURCE": ANY_SOURCE,
    "MPI_ANY_TAG": ANY_TAG,
}

#: numpy dtype names the evaluator resolves to an itemsize
NP_DTYPES: dict[str, int] = {
    "bool_": 1, "int8": 1, "uint8": 1, "int16": 2, "uint16": 2,
    "float16": 2, "int32": 4, "uint32": 4, "float32": 4, "int64": 8,
    "uint64": 8, "float64": 8, "complex64": 8, "complex128": 16,
}

#: numpy array constructors the evaluator models (count x itemsize) ->
#: where ``dtype`` sits when passed positionally (None: keyword only)
NP_CTORS: dict[str, int | None] = {
    "zeros": 1, "ones": 1, "empty": 1, "array": 1, "full": 2,
    "arange": None,
}

_BUILTINS: tuple[Callable[..., Any], ...] = (
    range, len, min, max, abs, int, float, bool, divmod, sum, sorted, list,
    tuple, set)

#: pure builtins the evaluator may call (lazy ones made lists)
_PURE_FUNCS: dict[str, Callable[..., Any]] = {
    **{fn.__name__: fn for fn in _BUILTINS},
    "reversed": lambda x: list(reversed(x)),
    "enumerate": lambda x: list(enumerate(x)),
    "zip": lambda *xs: list(zip(*xs)),
}

#: pure container methods the evaluator may call
_PURE_METHODS = ("items", "keys", "values", "get", "index", "count",
                 "copy")

#: ``ast`` operator class -> what it computes
_OPERATORS: dict[type[ast.AST], Callable[..., Any]] = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.BitXor: operator.xor, ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
    ast.USub: operator.neg, ast.UAdd: operator.pos,
    ast.Invert: operator.invert, ast.Not: operator.not_,
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.Is: operator.is_, ast.IsNot: operator.is_not,
    # operator.contains takes the container first
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
}


def _apply(fn: Callable[..., Any] | None, *operands: Any) -> Any:
    """``fn(*operands)`` when every operand is resolved and the call
    does not raise; :data:`UNKNOWN` otherwise (also for ``fn=None``: an
    operator outside the table, i.e. ``@``)."""
    if fn is None or not all(is_known(v) for v in operands):
        return UNKNOWN
    try:
        return fn(*operands)
    except Exception:
        return UNKNOWN


def evaluate(node: ast.expr, env: Env) -> Any:
    """The value of expression ``node`` in ``env``, or :data:`UNKNOWN`.

    Total: a node type without a rule here (comprehensions, lambdas,
    f-strings, starred operands, slices, ...) is :data:`UNKNOWN`, and so
    is any operation with an unresolved operand.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in WILDCARDS and node.id in env.scope.fompi_names:
            return WILDCARDS[node.id]
        return env.load(node.id)
    if isinstance(node, ast.Attribute):
        return _attribute(node, env)
    if isinstance(node, ast.BinOp):
        return _apply(_OPERATORS.get(type(node.op)),
                      evaluate(node.left, env), evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _apply(_OPERATORS.get(type(node.op)),
                      evaluate(node.operand, env))
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1:
            return UNKNOWN                  # chained compare
        return _apply(_OPERATORS.get(type(node.ops[0])),
                      evaluate(node.left, env),
                      evaluate(node.comparators[0], env))
    if isinstance(node, ast.BoolOp):
        # short-circuit, tolerating unresolved parts: a resolved part
        # that decides the result decides it whatever the others are
        want_all = isinstance(node.op, ast.And)
        saw_unknown = False
        for part in node.values:
            value = evaluate(part, env)
            if not is_known(value):
                saw_unknown = True
            elif bool(value) != want_all:
                return value
        return UNKNOWN if saw_unknown else want_all
    if isinstance(node, ast.IfExp):
        cond = evaluate(node.test, env)
        if not is_known(cond):
            return UNKNOWN
        return evaluate(node.body if cond else node.orelse, env)
    if isinstance(node, ast.Tuple):
        return tuple(evaluate(item, env) for item in node.elts)
    if isinstance(node, ast.List):
        return [evaluate(item, env) for item in node.elts]
    if isinstance(node, ast.Dict):
        out: dict[Any, Any] = {}
        for key_node, value_node in zip(node.keys, node.values):
            key = UNKNOWN if key_node is None else evaluate(key_node, env)
            if not is_known(key):
                return UNKNOWN              # **splat or unresolved key
            try:
                out[key] = evaluate(value_node, env)
            except TypeError:
                return UNKNOWN              # unhashable key
        return out
    if isinstance(node, ast.Subscript):
        return _apply(operator.getitem, evaluate(node.value, env),
                      evaluate(node.slice, env))
    if isinstance(node, ast.Call):
        return _call(node, env)
    return UNKNOWN


def _attribute(node: ast.Attribute, env: Env) -> Any:
    scope, base = env.scope, node.value
    if isinstance(base, ast.Name):
        if base.id == scope.ctx_name:
            return {"rank": env.rank,
                    "size": env.size}.get(node.attr, UNKNOWN)
        if base.id in scope.fompi_aliases and node.attr in WILDCARDS:
            return WILDCARDS[node.attr]
        if base.id in scope.np_aliases and node.attr in NP_DTYPES:
            return DTypeVal(NP_DTYPES[node.attr])
    # <...>.constants.ANY_TAG-style chains
    if node.attr in WILDCARDS and isinstance(base, ast.Attribute) \
            and base.attr == "constants":
        return WILDCARDS[node.attr]
    return UNKNOWN


def _call(node: ast.Call, env: Env) -> Any:
    """Whitelisted pure builtins and container methods, numpy array
    constructors and lifted helpers; every other call is UNKNOWN."""
    if any(keyword.arg is None for keyword in node.keywords):
        return UNKNOWN                      # **splat
    func = node.func
    args = [evaluate(arg, env) for arg in node.args]
    if isinstance(func, ast.Name) and not node.keywords:
        if func.id in _PURE_FUNCS:
            result = _apply(_PURE_FUNCS[func.id], *args)
            if isinstance(result, range):
                return list(result) if len(result) <= 100_000 else UNKNOWN
            return result
        helper = env.scope.helpers.get(func.id)
        if helper is None or len(args) != len(helper.params) or \
                not is_known(args):
            return UNKNOWN
        inner = Env(env.rank, env.size, env.globals, helper.scope)
        for param, value in zip(helper.params, args):
            inner.store(param, value)
        return evaluate(helper.body, inner)
    if isinstance(func, ast.Attribute):
        base, method = func.value, func.attr
        if isinstance(base, ast.Name) and \
                base.id in env.scope.np_aliases and method in NP_CTORS:
            return _array(method, node, args, env)
        if method in _PURE_METHODS and not node.keywords:
            result = _apply(lambda obj, *rest: getattr(obj, method)(*rest),
                            evaluate(base, env), *args)
            if result is not UNKNOWN and \
                    method in ("items", "keys", "values"):
                return list(result)
            return result
    return UNKNOWN


def _array(ctor: str, node: ast.Call, args: list[Any], env: Env) -> Any:
    """A numpy array constructor (``np.zeros(n)``, ``np.arange(n)``...):
    an :class:`ArrayVal` carrying the byte size, or :data:`UNKNOWN` when
    the element count cannot be resolved.  The default itemsize is 8
    (numpy's float64 / int64 inference for the numeric literals rank
    programs use)."""
    dtype: Any = None
    for keyword in node.keywords:
        if keyword.arg != "dtype":
            return UNKNOWN
        dtype = evaluate(keyword.value, env)
    pos = NP_CTORS[ctor]
    if pos is not None and len(args) > pos:
        dtype = args[pos]
        args = args[:pos] + args[pos + 1:]
    if isinstance(dtype, DTypeVal):
        itemsize = dtype.itemsize
    elif dtype is None:
        itemsize = 8
    else:
        return UNKNOWN
    count = _array_count(ctor, args)
    if count is None or count < 0:
        return UNKNOWN
    return ArrayVal(count=count, itemsize=itemsize)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _array_count(ctor: str, args: list[Any]) -> int | None:
    if not args:
        return None
    first = args[0]
    if ctor == "array":
        # only the *length* matters; elements may stay unresolved
        if isinstance(first, (list, tuple)):
            return len(first)
        if isinstance(first, ArrayVal):
            return first.count
        return None
    if ctor == "arange":
        if not all(_is_int(bound) for bound in args):
            return None
        try:
            return len(range(*args))
        except (TypeError, ValueError):
            return None
    # zeros / ones / empty / full: first arg is the shape
    if _is_int(first):
        return int(first)
    if isinstance(first, (list, tuple)) and first and \
            all(_is_int(dim) for dim in first):
        total = 1
        for dim in first:
            total *= dim
        return total
    return None
