"""Constant folding, expression evaluation and loop unrolling on the AST.

The frontend must unroll every loop before lowering (the IR has no control
flow), which requires evaluating loop bounds — and anything they depend on —
at compile time.  :class:`ConstantEnv` tracks the compile-time value bindings
(template constants, loop induction variables) and :func:`try_eval` evaluates
an expression against them, returning ``None`` when the value is not a
compile-time constant.
"""

from __future__ import annotations

import builtins
from typing import Dict, List, Optional, Tuple

from repro.exceptions import UnrollError
from repro.lang import ast_nodes as cn


class ConstantEnv:
    """A stack of compile-time constant bindings."""

    def __init__(self, initial: Optional[Dict[str, object]] = None) -> None:
        self._bindings: Dict[str, object] = dict(initial or {})

    def bind(self, name: str, value: object) -> None:
        self._bindings[name] = value

    def unbind(self, name: str) -> None:
        self._bindings.pop(name, None)

    def get(self, name: str) -> Optional[object]:
        return self._bindings.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def copy(self) -> "ConstantEnv":
        return ConstantEnv(self._bindings)

    def as_dict(self) -> Dict[str, object]:
        return dict(self._bindings)


_BIN_EVAL = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "**": lambda a, b: a ** b,
}

_CMP_EVAL = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


#: ``id(node) -> (node, value)``: the values of the nodes one
#: :func:`try_eval` memo has evaluated (the node is kept so its id is not
#: reused while the memo lives)
FoldMemo = Dict[int, Tuple[cn.Expr, Optional[object]]]


def try_eval(expr: cn.Expr, env: ConstantEnv,
             memo: Optional[FoldMemo] = None) -> Optional[object]:
    """Evaluate *expr* to a Python value if it is a compile-time constant.

    Returns ``None`` when the expression depends on runtime data (packet
    header fields, table lookups, ...).  Note the value ``None`` itself is a
    valid constant (``vals != None``).  With *memo* — valid for one unchanging *env* —
    every node is evaluated once however often it or an enclosing
    expression is asked about, so folding a tree costs linear time.
    """
    if memo is not None:
        hit = memo.get(id(expr))
        if hit is not None and hit[0] is expr:
            return hit[1]
    value: Optional[object] = None
    if isinstance(expr, cn.Constant):
        value = expr.value
    elif isinstance(expr, cn.Name):
        value = env.get(expr.ident) if expr.ident in env else None
    elif isinstance(expr, cn.BinOp):
        left = try_eval(expr.left, env, memo)
        right = try_eval(expr.right, env, memo)
        if left is not None and right is not None:
            try:
                value = _BIN_EVAL[expr.op](left, right)
            except (ZeroDivisionError, TypeError, KeyError):
                value = None
    elif isinstance(expr, cn.UnaryOp):
        operand = try_eval(expr.operand, env, memo)
        if operand is None:
            value = None
        elif expr.op == "-":
            value = -operand
        elif expr.op == "~":
            value = ~operand
        elif expr.op == "not":
            value = not operand
        else:
            value = operand
    elif isinstance(expr, cn.Compare):
        left = try_eval(expr.left, env, memo)
        right = try_eval(expr.right, env, memo)
        func = _CMP_EVAL.get(expr.op)
        if left is not None and right is not None and func is not None:
            value = func(left, right)
    elif isinstance(expr, cn.Call):
        args = [try_eval(a, env, memo) for a in expr.args]
        if any(a is None for a in args):
            value = None
        elif (expr.func == "len" and len(args) == 1
                and hasattr(args[0], "__len__")):
            value = len(args[0])
        elif expr.func in ("min", "max", "sum", "abs", "pow", "round") and args:
            value = getattr(builtins, expr.func)(*args)
    if memo is not None:
        memo[id(expr)] = (expr, value)
    return value


def eval_required_int(expr: cn.Expr, env: ConstantEnv, what: str) -> int:
    """Evaluate *expr* to an int, raising :class:`UnrollError` otherwise."""
    value = try_eval(expr, env)
    if value is None or not isinstance(value, (int, float)):
        raise UnrollError(
            f"{what} must be a compile-time constant integer "
            f"(got non-constant expression {expr!r})"
        )
    return int(value)


def unroll_range(loop: cn.ForLoop, env: ConstantEnv) -> List[int]:
    """Return the concrete iteration values of a ``for ... in range`` loop."""
    start = eval_required_int(loop.start, env, f"loop start at line {loop.lineno}")
    stop = eval_required_int(loop.stop, env, f"loop bound at line {loop.lineno}")
    step = eval_required_int(loop.step, env, f"loop step at line {loop.lineno}")
    if step == 0:
        raise UnrollError(f"loop at line {loop.lineno} has step 0")
    return list(range(start, stop, step))
