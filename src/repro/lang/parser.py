"""Parser from Python-style ClickINC source to the ClickINC AST.

The parser is built on CPython's :mod:`ast` module: user programs are parsed
as ordinary Python, then the resulting tree is converted into the restricted
ClickINC AST (:mod:`repro.lang.ast_nodes`).  Anything outside the grammar of
paper Fig. 5 — ``while`` loops, function/class definitions, ``import`` of
arbitrary modules, comprehensions — is rejected with a
:class:`~repro.exceptions.LanguageError` that names the offending line.
"""

from __future__ import annotations

import ast as pyast
from typing import Dict, List, Optional

from repro.exceptions import LanguageError
from repro.lang import ast_nodes as cnodes
from repro.lang.objects import ObjectKind

#: Names of the INC object constructors.
_OBJECT_NAMES = {kind.value: kind for kind in ObjectKind}

#: Names of INC templates a program may instantiate (paper Appendix A.1).
_TEMPLATE_NAMES = {"MLAgg", "KVS", "DQAcc"}

#: Primitive and builtin call names accepted in expressions / statements.
ALLOWED_CALLS = {
    # INC primitives (paper Fig. 5 "Primitive P")
    "get", "write", "clear", "count", "drop", "fwd", "forward", "copy",
    "copyto", "back", "mirror", "read", "del", "append",
    # Python builtins supported by the language (paper Table 7)
    "min", "max", "sum", "abs", "pow", "round", "range", "len", "list",
    "dict", "ceil", "floor", "sqrt", "randint", "slice", "width",
}

#: Symbolic protocol constants usable without declaration (REQUEST, ACK, ...).
SYMBOLIC_CONSTANTS = {
    "REQUEST": 1,
    "REPLY": 2,
    "UPDATE": 3,
    "ACK": 4,
    "REQ": 5,
    "TH": 128,
    "None": None,
    "True": True,
    "False": False,
}

_BINOPS = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.Div: "/",
    pyast.FloorDiv: "//",
    pyast.Mod: "%",
    pyast.BitAnd: "&",
    pyast.BitOr: "|",
    pyast.BitXor: "^",
    pyast.LShift: "<<",
    pyast.RShift: ">>",
    pyast.Pow: "**",
}

_CMPOPS = {
    pyast.Lt: "<",
    pyast.LtE: "<=",
    pyast.Gt: ">",
    pyast.GtE: ">=",
    pyast.Eq: "==",
    pyast.NotEq: "!=",
    pyast.In: "in",
    pyast.NotIn: "not in",
}

_UNARYOPS = {
    pyast.USub: "-",
    pyast.Invert: "~",
    pyast.Not: "not",
    pyast.UAdd: "+",
}


def parse_program(source: str, name: str = "user_program",
                  constants: Optional[Dict[str, object]] = None) -> cnodes.Module:
    """Parse ClickINC *source* into a :class:`~repro.lang.ast_nodes.Module`.

    Parameters
    ----------
    source:
        Python-style ClickINC program text.
    name:
        Program name (becomes the IR program / owner name downstream).
    constants:
        Extra compile-time constants (e.g. ``BlockNum``, ``Num_agg``) that the
        program may reference; these are resolved by the frontend during loop
        unrolling.
    """
    try:
        tree = pyast.parse(source)
        body = _Converter(name, constants or {}).convert_body(tree.body)
    except SyntaxError as exc:
        raise LanguageError(f"{name}: Python-level syntax error: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        # CPython's parser and the recursive conversion both give out on
        # deep nesting (e.g. ``x = ----...1``), as RecursionError or, past
        # the parser's own stack, MemoryError
        raise LanguageError(
            f"{name}: the program nests too deeply to parse") from exc
    return cnodes.Module(name=name, body=body, source=source)


class _Converter:
    """Stateful converter from the Python AST to the ClickINC AST."""

    def __init__(self, program_name: str, constants: Dict[str, object]) -> None:
        self.program_name = program_name
        self.constants = dict(constants)
        self.template_instances: Dict[str, str] = {}

    # -- statements --------------------------------------------------------
    def convert_body(self, stmts: List[pyast.stmt]) -> List[cnodes.Statement]:
        converted: List[cnodes.Statement] = []
        for stmt in stmts:
            node = self.convert_statement(stmt)
            if node is not None:
                converted.append(node)
        return converted

    def convert_statement(self, stmt: pyast.stmt) -> Optional[cnodes.Statement]:
        if isinstance(stmt, (pyast.Import, pyast.ImportFrom)):
            return self._convert_import(stmt)
        if isinstance(stmt, pyast.Assign):
            return self._convert_assign(stmt)
        if isinstance(stmt, pyast.AugAssign):
            return self._convert_augassign(stmt)
        if isinstance(stmt, pyast.If):
            return self._convert_if(stmt)
        if isinstance(stmt, pyast.For):
            return self._convert_for(stmt)
        if isinstance(stmt, pyast.Expr):
            return self._convert_expr_statement(stmt)
        if isinstance(stmt, pyast.Delete):
            return self._convert_delete(stmt)
        if isinstance(stmt, pyast.Pass):
            return None
        raise LanguageError(
            f"{self.program_name}: line {stmt.lineno}: statement "
            f"{type(stmt).__name__} is outside the ClickINC grammar"
        )

    def _convert_import(self, stmt) -> None:
        # "from Funclib import *" and similar library imports are accepted and
        # ignored: the module library is linked by the frontend, not at parse
        # time.  Importing anything else is rejected.
        if isinstance(stmt, pyast.ImportFrom):
            module = stmt.module or ""
            if module.lower() in {"funclib", "clickinc", "inc", "templates"}:
                return None
        if isinstance(stmt, pyast.Import):
            names = {alias.name.lower() for alias in stmt.names}
            if names <= {"funclib", "clickinc", "inc", "templates"}:
                return None
        raise LanguageError(
            f"{self.program_name}: line {stmt.lineno}: only the ClickINC "
            "module library may be imported"
        )

    def _convert_assign(self, stmt: pyast.Assign) -> cnodes.Statement:
        if len(stmt.targets) != 1:
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: multiple assignment "
                "targets are not supported"
            )
        target = stmt.targets[0]
        # Object declaration:  name = Array(...)/Table(...)/...
        if isinstance(target, pyast.Name) and isinstance(stmt.value, pyast.Call):
            call_name = _call_func_name(stmt.value)
            if call_name in _OBJECT_NAMES:
                kwargs = self._convert_kwargs(stmt.value)
                return cnodes.ObjectDecl(
                    name=target.id,
                    kind=_OBJECT_NAMES[call_name],
                    kwargs=kwargs,
                    lineno=stmt.lineno,
                )
            if call_name in _TEMPLATE_NAMES:
                self.template_instances[target.id] = call_name
                return cnodes.TemplateInstance(
                    name=target.id,
                    template=call_name,
                    args=[self.convert_expr(a) for a in stmt.value.args],
                    kwargs=self._convert_kwargs(stmt.value),
                    lineno=stmt.lineno,
                )
        # Tuple assignment like "delete = 0, overflow = 0" is not valid Python;
        # the paper's template uses it informally.  Plain tuple targets are
        # rejected; callers should write one assignment per line.
        if isinstance(target, (pyast.Tuple, pyast.List)):
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: tuple assignment is "
                "not supported; write one assignment per line"
            )
        return cnodes.Assign(
            target=self.convert_expr(target),
            value=self.convert_expr(stmt.value),
            lineno=stmt.lineno,
        )

    def _convert_augassign(self, stmt: pyast.AugAssign) -> cnodes.AugAssign:
        op = _BINOPS.get(type(stmt.op))
        if op is None:
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: unsupported augmented "
                f"assignment operator {type(stmt.op).__name__}"
            )
        return cnodes.AugAssign(
            target=self.convert_expr(stmt.target),
            op=op,
            value=self.convert_expr(stmt.value),
            lineno=stmt.lineno,
        )

    def _convert_if(self, stmt: pyast.If) -> cnodes.IfElse:
        return cnodes.IfElse(
            condition=self.convert_expr(stmt.test),
            body=self.convert_body(stmt.body),
            orelse=self.convert_body(stmt.orelse),
            lineno=stmt.lineno,
        )

    def _convert_for(self, stmt: pyast.For) -> cnodes.ForLoop:
        if stmt.orelse:
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: for/else is not supported"
            )
        if not isinstance(stmt.target, pyast.Name):
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: loop variable must be "
                "a simple name"
            )
        if not (isinstance(stmt.iter, pyast.Call) and _call_func_name(stmt.iter) == "range"):
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: only 'for ... in "
                "range(...)' loops are supported"
            )
        range_args = [self.convert_expr(a) for a in stmt.iter.args]
        start: cnodes.Expr = cnodes.Constant(0)
        step: cnodes.Expr = cnodes.Constant(1)
        if len(range_args) == 1:
            stop = range_args[0]
        elif len(range_args) == 2:
            start, stop = range_args
        elif len(range_args) == 3:
            start, stop, step = range_args
        else:
            raise LanguageError(
                f"{self.program_name}: line {stmt.lineno}: range() takes 1-3 arguments"
            )
        return cnodes.ForLoop(
            var=stmt.target.id,
            start=start,
            stop=stop,
            step=step,
            body=self.convert_body(stmt.body),
            lineno=stmt.lineno,
        )

    def _convert_expr_statement(self, stmt: pyast.Expr) -> cnodes.Statement:
        value = stmt.value
        if isinstance(value, pyast.Call):
            call_name = _call_func_name(value)
            if call_name in self.template_instances:
                return cnodes.TemplateCall(
                    instance=call_name,
                    args=[self.convert_expr(a) for a in value.args],
                    lineno=stmt.lineno,
                )
            if call_name not in ALLOWED_CALLS:
                raise LanguageError(
                    f"{self.program_name}: line {stmt.lineno}: call to unknown "
                    f"function {call_name!r}"
                )
        # Accept bare names such as the paper's "drop" shorthand.
        if isinstance(value, pyast.Name) and value.id in {"drop", "fwd", "forward"}:
            return cnodes.ExprStatement(
                value=cnodes.Call(func=value.id), lineno=stmt.lineno
            )
        return cnodes.ExprStatement(value=self.convert_expr(value), lineno=stmt.lineno)

    def _convert_delete(self, stmt: pyast.Delete) -> cnodes.DeleteStatement:
        args: List[cnodes.Expr] = []
        for target in stmt.targets:
            if isinstance(target, pyast.Tuple):
                args.extend(self.convert_expr(elt) for elt in target.elts)
            else:
                args.append(self.convert_expr(target))
        return cnodes.DeleteStatement(args=args, lineno=stmt.lineno)

    # -- expressions ---------------------------------------------------------
    def convert_expr(self, expr: pyast.expr) -> cnodes.Expr:
        if isinstance(expr, pyast.Constant):
            return cnodes.Constant(expr.value)
        if isinstance(expr, pyast.Name):
            if expr.id in SYMBOLIC_CONSTANTS:
                return cnodes.Constant(SYMBOLIC_CONSTANTS[expr.id])
            if expr.id in self.constants:
                return cnodes.Constant(self.constants[expr.id])
            return cnodes.Name(expr.id)
        if isinstance(expr, pyast.Attribute):
            base = expr.value
            if isinstance(base, pyast.Name):
                return cnodes.FieldRef(base=base.id, fieldname=expr.attr)
            raise LanguageError(
                f"{self.program_name}: nested attribute access is not supported"
            )
        if isinstance(expr, pyast.Subscript):
            return cnodes.IndexRef(
                base=self.convert_expr(expr.value),
                index=self.convert_expr(expr.slice),
            )
        if isinstance(expr, pyast.BinOp):
            op = _BINOPS.get(type(expr.op))
            if op is None:
                raise LanguageError(
                    f"{self.program_name}: unsupported binary operator "
                    f"{type(expr.op).__name__}"
                )
            return cnodes.BinOp(
                op=op,
                left=self.convert_expr(expr.left),
                right=self.convert_expr(expr.right),
            )
        if isinstance(expr, pyast.UnaryOp):
            op = _UNARYOPS.get(type(expr.op))
            if op is None:
                raise LanguageError(
                    f"{self.program_name}: unsupported unary operator "
                    f"{type(expr.op).__name__}"
                )
            return cnodes.UnaryOp(op=op, operand=self.convert_expr(expr.operand))
        if isinstance(expr, pyast.Compare):
            if len(expr.ops) != 1 or len(expr.comparators) != 1:
                raise LanguageError(
                    f"{self.program_name}: chained comparisons are not supported"
                )
            op = _CMPOPS.get(type(expr.ops[0]))
            if op is None:
                raise LanguageError(
                    f"{self.program_name}: unsupported comparison "
                    f"{type(expr.ops[0]).__name__}"
                )
            return cnodes.Compare(
                op=op,
                left=self.convert_expr(expr.left),
                right=self.convert_expr(expr.comparators[0]),
            )
        if isinstance(expr, pyast.BoolOp):
            op = "and" if isinstance(expr.op, pyast.And) else "or"
            return cnodes.BoolOp(
                op=op, values=[self.convert_expr(v) for v in expr.values]
            )
        if isinstance(expr, pyast.Call):
            return self._convert_call(expr)
        if isinstance(expr, (pyast.List, pyast.Tuple)):
            return cnodes.ListExpr(elements=[self.convert_expr(e) for e in expr.elts])
        if isinstance(expr, pyast.Dict):
            # dict literals appear only as primitive kwargs like back(hdr={...});
            # keep them as a constant payload description.
            keys = [k.value if isinstance(k, pyast.Constant) else _expr_to_str(k)
                    for k in expr.keys]
            values = [self.convert_expr(v) for v in expr.values]
            return cnodes.Constant(dict(zip(keys, values)))
        raise LanguageError(
            f"{self.program_name}: expression {type(expr).__name__} is outside "
            "the ClickINC grammar"
        )

    def _convert_call(self, expr: pyast.Call) -> cnodes.Expr:
        func_name = _call_func_name(expr)
        if func_name is None:
            raise LanguageError(
                f"{self.program_name}: only direct calls to named functions are "
                "supported"
            )
        # Method-style access such as bitmap_t.read(index) or
        # agg_data_t.read(key=index) is normalised to read(bitmap_t, index).
        if isinstance(expr.func, pyast.Attribute) and isinstance(expr.func.value, pyast.Name):
            obj_name = expr.func.value.id
            method = expr.func.attr
            args = [cnodes.Name(obj_name)]
            args.extend(self.convert_expr(a) for a in expr.args)
            kwargs = self._convert_kwargs(expr)
            if method not in ALLOWED_CALLS:
                raise LanguageError(
                    f"{self.program_name}: unknown method {method!r} on {obj_name!r}"
                )
            return cnodes.Call(func=method, args=args, kwargs=kwargs)
        if func_name in self.template_instances:
            return cnodes.Call(
                func=func_name, args=[self.convert_expr(a) for a in expr.args]
            )
        if func_name not in ALLOWED_CALLS and func_name not in _OBJECT_NAMES:
            raise LanguageError(
                f"{self.program_name}: call to unknown function {func_name!r}"
            )
        return cnodes.Call(
            func=func_name,
            args=[self.convert_expr(a) for a in expr.args],
            kwargs=self._convert_kwargs(expr),
        )

    def _convert_kwargs(self, call: pyast.Call) -> dict:
        kwargs = {}
        for keyword in call.keywords:
            if keyword.arg is None:
                raise LanguageError(
                    f"{self.program_name}: **kwargs expansion is not supported"
                )
            value = keyword.value
            if isinstance(value, pyast.Constant):
                kwargs[keyword.arg] = value.value
            elif isinstance(value, pyast.Attribute) and isinstance(value.value, pyast.Name):
                kwargs[keyword.arg] = f"{value.value.id}.{value.attr}"
            elif isinstance(value, pyast.Name):
                resolved = self.constants.get(value.id, SYMBOLIC_CONSTANTS.get(value.id))
                kwargs[keyword.arg] = resolved if resolved is not None else value.id
            elif isinstance(value, pyast.Dict):
                kwargs[keyword.arg] = _expr_to_str(value)
            elif isinstance(value, pyast.UnaryOp) and isinstance(value.op, pyast.USub) \
                    and isinstance(value.operand, pyast.Constant):
                kwargs[keyword.arg] = -value.operand.value
            else:
                kwargs[keyword.arg] = self.convert_expr(value)
        return kwargs


def _call_func_name(call: pyast.Call) -> Optional[str]:
    if isinstance(call.func, pyast.Name):
        return call.func.id
    if isinstance(call.func, pyast.Attribute):
        return call.func.attr
    return None


def _expr_to_str(expr: pyast.expr) -> str:
    try:
        return pyast.unparse(expr)
    except Exception:  # pragma: no cover - unparse availability
        return repr(expr)
