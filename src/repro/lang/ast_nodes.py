"""Abstract syntax tree of the ClickINC language.

The AST mirrors the grammar of paper Fig. 5: a program is a list of
statements; statements are assignments, object declarations, branches,
loops and bare primitive calls; expressions are constants, names, header
field references, indexing, unary/binary operations, comparisons and calls.

The nodes are intentionally plain dataclasses — all semantic work (type
checking, lowering to IR) lives in :mod:`repro.frontend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.lang.objects import ObjectKind


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #
@dataclass
class Constant:
    """A literal integer, float, string or boolean."""

    value: object


@dataclass
class Name:
    """A reference to a local variable or declared object."""

    ident: str


@dataclass
class FieldRef:
    """A packet-header field reference such as ``hdr.key`` or ``hdr.op``."""

    base: str
    fieldname: str

    @property
    def qualified(self) -> str:
        return f"{self.base}.{self.fieldname}"


@dataclass
class IndexRef:
    """A subscript expression such as ``hdr.feat[index]`` or ``vals[i]``."""

    base: "Expr"
    index: "Expr"


@dataclass
class BinOp:
    """A binary arithmetic / bit operation (``+ - * / % & | ^ << >>``)."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class UnaryOp:
    """A unary operation (``-``, ``~``, ``not``)."""

    op: str
    operand: "Expr"


@dataclass
class Compare:
    """A comparison (``< <= > >= == !=``), possibly chained with and/or."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class BoolOp:
    """``and`` / ``or`` of two or more sub-predicates."""

    op: str  # "and" | "or"
    values: List["Expr"] = field(default_factory=list)


@dataclass
class Call:
    """A function or primitive call such as ``get(cache, hdr.key)``.

    ``func`` is the bare callable name; positional and keyword arguments are
    kept separately so the frontend can validate primitive signatures.
    """

    func: str
    args: List["Expr"] = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)


@dataclass
class ListExpr:
    """A list literal or ``list()`` constructor (used for accumulators)."""

    elements: List["Expr"] = field(default_factory=list)


Expr = Union[
    Constant, Name, FieldRef, IndexRef, BinOp, UnaryOp, Compare, BoolOp, Call, ListExpr
]


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #
@dataclass
class ObjectDecl:
    """Declaration of an INC object: ``mem = Array(row=3, size=65536, w=32)``."""

    name: str
    kind: ObjectKind
    kwargs: dict = field(default_factory=dict)
    lineno: int = 0


@dataclass
class Assign:
    """A simple assignment ``var = expr`` (or subscript target)."""

    target: Expr
    value: Expr
    lineno: int = 0


@dataclass
class AugAssign:
    """An augmented assignment such as ``counter += 1``."""

    target: Expr
    op: str
    value: Expr
    lineno: int = 0


@dataclass
class ExprStatement:
    """A bare expression statement — typically a primitive call like ``drop()``."""

    value: Expr
    lineno: int = 0


@dataclass
class IfElse:
    """``if cond: body [elif ...] else: orelse``.

    ``elif`` chains are normalised by the parser into nested IfElse nodes in
    the ``orelse`` list.
    """

    condition: Expr
    body: List["Statement"] = field(default_factory=list)
    orelse: List["Statement"] = field(default_factory=list)
    lineno: int = 0


@dataclass
class ForLoop:
    """``for var in range(...)`` — the only loop form the grammar allows."""

    var: str
    start: Expr = field(default_factory=lambda: Constant(0))
    stop: Expr = field(default_factory=lambda: Constant(0))
    step: Expr = field(default_factory=lambda: Constant(1))
    body: List["Statement"] = field(default_factory=list)
    lineno: int = 0


@dataclass
class DeleteStatement:
    """``del(obj, index)`` — remove an entry from a stateful object."""

    args: List[Expr] = field(default_factory=list)
    lineno: int = 0


@dataclass
class TemplateInstance:
    """Instantiation of a library template, e.g. ``agg = MLAgg(row, dim, ...)``."""

    name: str
    template: str
    args: List[Expr] = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    lineno: int = 0


@dataclass
class TemplateCall:
    """Invocation of an instantiated template on a packet, e.g. ``agg(hdr)``."""

    instance: str
    args: List[Expr] = field(default_factory=list)
    lineno: int = 0


Statement = Union[
    ObjectDecl,
    Assign,
    AugAssign,
    ExprStatement,
    IfElse,
    ForLoop,
    DeleteStatement,
    TemplateInstance,
    TemplateCall,
]


@dataclass
class Module:
    """A complete ClickINC user program."""

    name: str
    body: List[Statement] = field(default_factory=list)
    source: str = ""

    def loc(self) -> int:
        """Lines of code of the original source (non-blank, non-comment)."""
        lines = [
            ln
            for ln in self.source.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        return len(lines)

