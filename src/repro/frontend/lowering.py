"""Lowering from the ClickINC AST to guarded, SSA-form IR instructions.

The lowering walks the (already unrolled) statement list and emits two-operand
IR instructions.  Branches are lowered to predicated instructions: each branch
scope materialises a guard variable that is the conjunction of the enclosing
scope's guard and the (possibly negated) branch condition, and every
instruction in the scope carries that guard.

Temporaries are kept in SSA form: every assignment produces a fresh version
``name__vN``, and guarded assignments first copy the previous version so the
value is preserved when the guard is false at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.exceptions import CompileError
from repro.frontend.folding import ConstantEnv, FoldMemo, try_eval
from repro.ir.instructions import Opcode
from repro.ir.program import IRProgram
from repro.lang import ast_nodes as cn
from repro.lang.objects import (
    ArraySpec,
    CryptoSpec,
    HashSpec,
    SeqSpec,
    SketchSpec,
    TableSpec,
    make_object,
)

Operand = Union[str, int, float]

_ARITH_OPCODES = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "//": Opcode.DIV,
    "%": Opcode.MOD,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
}

_CMP_OPCODES = {
    "<": Opcode.CMP_LT,
    "<=": Opcode.CMP_LE,
    ">": Opcode.CMP_GT,
    ">=": Opcode.CMP_GE,
    "==": Opcode.CMP_EQ,
    "!=": Opcode.CMP_NE,
}

_HASH_OPCODES = {
    "crc_8": Opcode.HASH_CRC,
    "crc_16": Opcode.HASH_CRC,
    "crc_32": Opcode.HASH_CRC,
    "xor_16": Opcode.HASH_CRC,
    "identity": Opcode.HASH_IDENTITY,
}


class LoweringContext:
    """Mutable state shared across the lowering of one program."""

    def __init__(self, program: IRProgram, env: ConstantEnv) -> None:
        self.program = program
        self.env = env
        self.objects: Dict[str, object] = {}
        self.ssa_versions: Dict[str, int] = {}
        self.current_names: Dict[str, str] = {}
        self.list_vars: Dict[str, List[Operand]] = {}
        self.boolean_vars: set = set()
        self._temp_counter = 0

    # -- naming -------------------------------------------------------------
    def new_temp(self, hint: str = "t") -> str:
        self._temp_counter += 1
        return f"%{hint}{self._temp_counter}"

    def new_version(self, name: str) -> str:
        version = self.ssa_versions.get(name, 0) + 1
        self.ssa_versions[name] = version
        versioned = f"{name}__v{version}"
        self.current_names[name] = versioned
        return versioned

    def current(self, name: str) -> Optional[str]:
        return self.current_names.get(name)


class Lowerer:
    """Lowers unrolled ClickINC statements into an :class:`IRProgram`."""

    def __init__(self, program: IRProgram, env: ConstantEnv) -> None:
        self.ctx = LoweringContext(program, env)
        # lowering never rebinds the environment, so one fold memo serves
        # the whole program: each expression node is folded once
        self._folds: FoldMemo = {}

    def _fold(self, expr: cn.Expr) -> Optional[object]:
        return try_eval(expr, self.ctx.env, self._folds)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def lower_statements(self, statements: List[cn.Statement],
                         guard: Optional[str] = None) -> None:
        for stmt in statements:
            self.lower_statement(stmt, guard)

    def lower_statement(self, stmt: cn.Statement, guard: Optional[str]) -> None:
        if isinstance(stmt, cn.ObjectDecl):
            self._lower_object_decl(stmt)
        elif isinstance(stmt, cn.Assign):
            self._lower_assign(stmt, guard)
        elif isinstance(stmt, cn.AugAssign):
            self._lower_augassign(stmt, guard)
        elif isinstance(stmt, cn.IfElse):
            self._lower_if(stmt, guard)
        elif isinstance(stmt, cn.ExprStatement):
            self._lower_expr_statement(stmt, guard)
        elif isinstance(stmt, cn.DeleteStatement):
            self._lower_delete(stmt, guard)
        elif isinstance(stmt, cn.ForLoop):
            raise CompileError(
                f"line {stmt.lineno}: loop survived unrolling — bound is not constant"
            )
        elif isinstance(stmt, (cn.TemplateInstance, cn.TemplateCall)):
            raise CompileError(
                f"line {stmt.lineno}: template reference survived expansion"
            )
        else:  # pragma: no cover - defensive
            raise CompileError(f"cannot lower statement {stmt!r}")

    def _lower_object_decl(self, stmt: cn.ObjectDecl) -> None:
        kwargs = dict(stmt.kwargs)
        # resolve constant-name kwargs (e.g. size=CACHE_DEPTH)
        for key, value in list(kwargs.items()):
            if isinstance(value, str) and value in self.ctx.env:
                kwargs[key] = self.ctx.env.get(value)
            elif isinstance(value, cn.Expr.__args__ if hasattr(cn.Expr, "__args__") else tuple()):
                folded = self._fold(value)
                if folded is not None:
                    kwargs[key] = folded
        spec = make_object(stmt.kind, stmt.name, **_plain_kwargs(kwargs))
        self.ctx.objects[stmt.name] = spec
        for decl in spec.state_decls():
            self.ctx.program.declare_state(decl)

    def _lower_assign(self, stmt: cn.Assign, guard: Optional[str]) -> None:
        target = stmt.target
        # list accumulator:  vals = list()  /  vals = []
        if isinstance(stmt.value, cn.ListExpr) or (
            isinstance(stmt.value, cn.Call) and stmt.value.func == "list"
        ):
            if isinstance(target, cn.Name):
                self.ctx.list_vars[target.ident] = []
                return
        if isinstance(target, cn.Name):
            value_op = self.lower_expr(stmt.value, guard)
            self._assign_scalar(target.ident, value_op, guard)
            return
        if isinstance(target, cn.FieldRef):
            value_op = self.lower_expr(stmt.value, guard)
            self.ctx.program.emit(
                Opcode.HDR_WRITE, None, target.qualified, value_op, guard=guard
            )
            return
        if isinstance(target, cn.IndexRef):
            self._lower_indexed_store(target, stmt.value, guard)
            return
        raise CompileError(f"line {stmt.lineno}: unsupported assignment target")

    def _lower_augassign(self, stmt: cn.AugAssign, guard: Optional[str]) -> None:
        if not isinstance(stmt.target, cn.Name):
            raise CompileError(
                f"line {stmt.lineno}: augmented assignment target must be a name"
            )
        name = stmt.target.ident
        current = self.ctx.current(name)
        if current is None:
            raise CompileError(
                f"line {stmt.lineno}: {name!r} used in augmented assignment "
                "before definition"
            )
        value_op = self.lower_expr(stmt.value, guard)
        opcode = _ARITH_OPCODES.get(stmt.op)
        if opcode is None:
            raise CompileError(f"line {stmt.lineno}: unsupported operator {stmt.op}")
        result = self.ctx.new_temp("aug")
        self.ctx.program.emit(opcode, result, current, value_op, guard=guard)
        self._assign_scalar(name, result, guard)

    def _lower_if(self, stmt: cn.IfElse, guard: Optional[str]) -> None:
        condition = self.lower_condition(stmt.condition, guard)
        then_guard = self._combine_guards(guard, condition, negate=False)
        self.lower_statements(stmt.body, then_guard)
        if stmt.orelse:
            else_guard = self._combine_guards(guard, condition, negate=True)
            self.lower_statements(stmt.orelse, else_guard)

    def _lower_expr_statement(self, stmt: cn.ExprStatement, guard: Optional[str]) -> None:
        value = stmt.value
        if isinstance(value, cn.Call):
            self._lower_call(value, guard, want_result=False)
            return
        # a bare expression with no effect is folded away
        self.lower_expr(value, guard)

    def _lower_delete(self, stmt: cn.DeleteStatement, guard: Optional[str]) -> None:
        if not stmt.args:
            return
        first = stmt.args[0]
        # del(hdr.feat, i) — remove a block from the packet payload
        if isinstance(first, (cn.FieldRef, cn.IndexRef)):
            operands = [self._expr_to_operand(arg, guard) for arg in stmt.args]
            self.ctx.program.emit(Opcode.HDR_REMOVE, None, *operands, guard=guard)
            return
        # del(obj, index) — clear a stateful entry
        if isinstance(first, cn.Name) and first.ident in self.ctx.objects:
            index_op = (
                self.lower_expr(stmt.args[1], guard) if len(stmt.args) > 1 else 0
            )
            self.ctx.program.emit(
                Opcode.REG_DELETE, None, index_op, state=first.ident, guard=guard
            )
            return
        raise CompileError("del() expects a header field or a declared INC object")

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def lower_expr(self, expr: cn.Expr, guard: Optional[str]) -> Operand:
        folded = self._fold(expr)
        if folded is not None and isinstance(folded, (int, float, bool)):
            return int(folded) if isinstance(folded, bool) else folded
        if isinstance(expr, cn.Constant):
            return self._constant_operand(expr.value)
        if isinstance(expr, cn.Name):
            return self._name_operand(expr.ident)
        if isinstance(expr, cn.FieldRef):
            return expr.qualified
        if isinstance(expr, cn.IndexRef):
            return self._lower_indexed_load(expr, guard)
        if isinstance(expr, cn.BinOp):
            left = self.lower_expr(expr.left, guard)
            right = self.lower_expr(expr.right, guard)
            opcode = _ARITH_OPCODES.get(expr.op)
            if opcode is None:
                raise CompileError(f"unsupported binary operator {expr.op!r}")
            # strength reduction: switch ASICs cannot multiply/divide/mod, but
            # power-of-two constants reduce to shifts and masks (BIN class).
            if isinstance(right, int) and right > 0 and (right & (right - 1)) == 0:
                if opcode is Opcode.MOD:
                    opcode, right = Opcode.AND, right - 1
                elif opcode is Opcode.DIV:
                    opcode, right = Opcode.SHR, right.bit_length() - 1
                elif opcode is Opcode.MUL:
                    opcode, right = Opcode.SHL, right.bit_length() - 1
            dst = self.ctx.new_temp("bin")
            self.ctx.program.emit(opcode, dst, left, right, guard=guard)
            return dst
        if isinstance(expr, cn.UnaryOp):
            operand = self.lower_expr(expr.operand, guard)
            dst = self.ctx.new_temp("un")
            if expr.op == "-":
                self.ctx.program.emit(Opcode.SUB, dst, 0, operand, guard=guard)
            elif expr.op == "~":
                self.ctx.program.emit(Opcode.NOT, dst, operand, guard=guard)
            elif expr.op == "not":
                self.ctx.program.emit(Opcode.CMP_EQ, dst, operand, 0, guard=guard)
            else:
                self.ctx.program.emit(Opcode.MOV, dst, operand, guard=guard)
            return dst
        if isinstance(expr, cn.Compare):
            return self.lower_condition(expr, guard)
        if isinstance(expr, cn.BoolOp):
            return self.lower_condition(expr, guard)
        if isinstance(expr, cn.Call):
            result = self._lower_call(expr, guard, want_result=True)
            if result is None:
                raise CompileError(f"call to {expr.func!r} produces no value")
            return result
        if isinstance(expr, cn.ListExpr):
            raise CompileError("list literals may only initialise accumulators")
        raise CompileError(f"cannot lower expression {expr!r}")

    def lower_condition(self, expr: cn.Expr, guard: Optional[str]) -> str:
        """Lower a predicate expression into a 1-bit temporary."""
        folded = self._fold(expr)
        if isinstance(folded, bool):
            dst = self.ctx.new_temp("const")
            self.ctx.program.emit(Opcode.MOV, dst, int(folded), width=1, guard=guard)
            return dst
        if isinstance(expr, cn.Compare):
            left = self.lower_expr(expr.left, guard)
            right_value = self._fold(expr.right)
            if isinstance(expr.right, cn.Constant) and expr.right.value is None:
                # "x != None" / "x == None" compare against the table-miss
                # sentinel (-1 in the emulator's lookup convention).
                right: Operand = -1
            elif right_value is not None and isinstance(right_value, (int, float)):
                right = right_value
            else:
                right = self.lower_expr(expr.right, guard)
            opcode = _CMP_OPCODES.get(expr.op)
            if opcode is None:
                raise CompileError(f"unsupported comparison {expr.op!r}")
            dst = self.ctx.new_temp("cmp")
            self.ctx.program.emit(opcode, dst, left, right, width=1, guard=guard)
            return dst
        if isinstance(expr, cn.BoolOp):
            operands = [self.lower_condition(v, guard) for v in expr.values]
            opcode = Opcode.AND if expr.op == "and" else Opcode.OR
            result = operands[0]
            for operand in operands[1:]:
                dst = self.ctx.new_temp("bool")
                self.ctx.program.emit(opcode, dst, result, operand, width=1, guard=guard)
                result = dst
            return result
        if isinstance(expr, cn.UnaryOp) and expr.op == "not":
            inner = self.lower_condition(expr.operand, guard)
            dst = self.ctx.new_temp("not")
            self.ctx.program.emit(Opcode.CMP_EQ, dst, inner, 0, width=1, guard=guard)
            return dst
        # truthiness of a general expression:  expr != 0
        value = self.lower_expr(expr, guard)
        dst = self.ctx.new_temp("truth")
        self.ctx.program.emit(Opcode.CMP_NE, dst, value, 0, width=1, guard=guard)
        return dst

    # ------------------------------------------------------------------ #
    # call lowering (primitives, builtins, object methods)
    # ------------------------------------------------------------------ #
    def _lower_call(self, call: cn.Call, guard: Optional[str],
                    want_result: bool) -> Optional[Operand]:
        func = call.func
        if func in ("get", "read"):
            return self._lower_get(call, guard)
        if func == "write":
            self._lower_write(call, guard)
            return None
        if func == "count":
            return self._lower_count(call, guard)
        if func == "clear":
            self._lower_clear(call, guard)
            return None
        if func == "del":
            self._lower_delete(cn.DeleteStatement(args=list(call.args)), guard)
            return None
        if func == "append":
            self._lower_append(call, guard)
            return None
        if func == "drop":
            self.ctx.program.emit(Opcode.DROP, None, guard=guard)
            return None
        if func in ("fwd", "forward"):
            self.ctx.program.emit(Opcode.FORWARD, None, guard=guard)
            return None
        if func == "back":
            payload = _payload_repr(call)
            self.ctx.program.emit(Opcode.SEND_BACK, None, payload, guard=guard)
            return None
        if func == "mirror":
            payload = _payload_repr(call)
            self.ctx.program.emit(Opcode.MIRROR, None, payload, guard=guard)
            return None
        if func in ("copy", "copyto"):
            operands = [self._expr_to_operand(a, guard) for a in call.args]
            self.ctx.program.emit(Opcode.COPY_TO, None, *operands, guard=guard)
            return None
        if func in ("min", "max"):
            return self._lower_minmax(call, guard)
        if func == "sum":
            return self._lower_sum(call, guard)
        if func == "abs":
            operand = self.lower_expr(call.args[0], guard)
            dst = self.ctx.new_temp("abs")
            self.ctx.program.emit(Opcode.ABS, dst, operand, guard=guard)
            return dst
        if func == "randint":
            dst = self.ctx.new_temp("rand")
            operands = [self.lower_expr(a, guard) for a in call.args]
            self.ctx.program.emit(Opcode.RANDINT, dst, *operands, guard=guard)
            return dst
        if func == "slice":
            operands = [self.lower_expr(a, guard) for a in call.args]
            dst = self.ctx.new_temp("slice")
            self.ctx.program.emit(Opcode.SLICE, dst, *operands, guard=guard)
            return dst
        if func in ("len", "width", "ceil", "floor", "sqrt", "pow", "round"):
            # these must have been folded; reaching here means non-constant use
            raise CompileError(
                f"{func}() must be applied to compile-time constants"
            )
        raise CompileError(f"unsupported call {func!r} in data-plane program")

    # -- object primitives --------------------------------------------------
    def _resolve_object(self, expr: cn.Expr, func: str):
        if not isinstance(expr, cn.Name):
            raise CompileError(f"{func}() first argument must name an INC object")
        spec = self.ctx.objects.get(expr.ident)
        if spec is None:
            raise CompileError(f"{func}() references undeclared object {expr.ident!r}")
        return spec

    def _lower_get(self, call: cn.Call, guard: Optional[str]) -> Operand:
        if not call.args:
            raise CompileError("get() needs an object argument")
        spec = self._resolve_object(call.args[0], "get")
        args = call.args[1:]
        if isinstance(spec, HashSpec):
            key = self.lower_expr(args[0], guard) if args else spec.key_field or 0
            dst = self.ctx.new_temp("hash")
            opcode = _HASH_OPCODES[spec.algorithm]
            operands: List[Operand] = [key]
            if spec.ceil:
                operands.append(spec.ceil)
            self.ctx.program.emit(
                opcode, dst, *operands, width=spec.output_width, guard=guard
            )
            return dst
        if isinstance(spec, TableSpec):
            key = self.lower_expr(args[0], guard) if args else "hdr.key"
            dst = self.ctx.new_temp("lkp")
            opcode = {
                "exact": Opcode.SEMT_LOOKUP if spec.stateful else Opcode.EMT_LOOKUP,
                "ternary": Opcode.STMT_LOOKUP if spec.stateful else Opcode.TMT_LOOKUP,
                "lpm": Opcode.LPM_LOOKUP,
                "direct": Opcode.DMT_LOOKUP,
            }[spec.match_type]
            self.ctx.program.emit(
                opcode, dst, key, state=spec.name, width=spec.value_width, guard=guard
            )
            return dst
        if isinstance(spec, SketchSpec):
            return self._lower_sketch_get(spec, args, guard)
        if isinstance(spec, (ArraySpec, SeqSpec)):
            index = self.lower_expr(args[0], guard) if args else 0
            extra = [self.lower_expr(a, guard) for a in args[1:]]
            dst = self.ctx.new_temp("reg")
            self.ctx.program.emit(
                Opcode.REG_READ, dst, index, *extra, state=spec.name,
                width=spec.width, guard=guard,
            )
            return dst
        if isinstance(spec, CryptoSpec):
            operand = self.lower_expr(args[0], guard) if args else 0
            dst = self.ctx.new_temp("crypt")
            opcode = Opcode.CRYPTO_AES if spec.algorithm == "aes" else Opcode.CRYPTO_ECS
            self.ctx.program.emit(opcode, dst, operand, guard=guard)
            return dst
        raise CompileError(f"get() is not defined for object {spec!r}")

    def _lower_sketch_get(self, spec: SketchSpec, args, guard) -> Operand:
        key = self.lower_expr(args[0], guard) if args else spec.key_field or "hdr.key"
        row_values: List[Operand] = []
        for row in range(spec.rows):
            idx = self.ctx.new_temp(f"h{row}")
            self.ctx.program.emit(
                Opcode.HASH_CRC, idx, key, spec.size, row, width=16, guard=guard
            )
            val = self.ctx.new_temp(f"s{row}")
            self.ctx.program.emit(
                Opcode.REG_READ, val, idx, row, state=spec.name,
                width=spec.width, guard=guard,
            )
            row_values.append(val)
        result = row_values[0]
        fold_opcode = Opcode.MIN if spec.sketch_type == "count-min" else Opcode.AND
        for value in row_values[1:]:
            dst = self.ctx.new_temp("fold")
            self.ctx.program.emit(fold_opcode, dst, result, value, guard=guard)
            result = dst
        return result

    def _lower_count(self, call: cn.Call, guard: Optional[str]) -> Optional[Operand]:
        spec = self._resolve_object(call.args[0], "count")
        args = call.args[1:]
        key = self.lower_expr(args[0], guard) if args else "hdr.key"
        amount = self.lower_expr(args[1], guard) if len(args) > 1 else 1
        if isinstance(spec, SketchSpec):
            last = None
            for row in range(spec.rows):
                idx = self.ctx.new_temp(f"h{row}")
                self.ctx.program.emit(
                    Opcode.HASH_CRC, idx, key, spec.size, row, width=16, guard=guard
                )
                dst = self.ctx.new_temp(f"c{row}")
                self.ctx.program.emit(
                    Opcode.REG_ADD, dst, idx, amount, row, state=spec.name,
                    width=spec.width, guard=guard,
                )
                last = dst
            return last
        if isinstance(spec, (ArraySpec, SeqSpec)):
            idx = self.ctx.new_temp("hidx")
            self.ctx.program.emit(
                Opcode.HASH_CRC, idx, key, spec.size, width=16, guard=guard
            )
            dst = self.ctx.new_temp("cnt")
            self.ctx.program.emit(
                Opcode.REG_ADD, dst, idx, amount, state=spec.name,
                width=spec.width, guard=guard,
            )
            return dst
        raise CompileError("count() is only defined for Sketch/Array/Seq objects")

    def _lower_write(self, call: cn.Call, guard: Optional[str]) -> None:
        spec = self._resolve_object(call.args[0], "write")
        args = call.args[1:]
        operands = [self.lower_expr(a, guard) for a in args]
        if isinstance(spec, TableSpec):
            if spec.stateful:
                self.ctx.program.emit(
                    Opcode.SEMT_WRITE, None, *operands, state=spec.name, guard=guard
                )
            else:
                # stateless tables are updated via the control plane
                # (NetCache-style): the data plane only reports the update.
                self.ctx.program.emit(
                    Opcode.COPY_TO, None, f"const.update:{spec.name}", *operands,
                    guard=guard,
                )
            return
        if isinstance(spec, SketchSpec):
            key = operands[0]
            value = operands[1] if len(operands) > 1 else 1
            for row in range(spec.rows):
                idx = self.ctx.new_temp(f"h{row}")
                self.ctx.program.emit(
                    Opcode.HASH_CRC, idx, key, spec.size, row, width=16, guard=guard
                )
                self.ctx.program.emit(
                    Opcode.REG_WRITE, None, idx, value, row, state=spec.name,
                    guard=guard,
                )
            return
        if isinstance(spec, (ArraySpec, SeqSpec)):
            self.ctx.program.emit(
                Opcode.REG_WRITE, None, *operands, state=spec.name, guard=guard
            )
            return
        raise CompileError(f"write() is not defined for object {spec!r}")

    def _lower_clear(self, call: cn.Call, guard: Optional[str]) -> None:
        spec = self._resolve_object(call.args[0], "clear")
        operands = [self.lower_expr(a, guard) for a in call.args[1:]]
        self.ctx.program.emit(
            Opcode.REG_CLEAR, None, *operands, state=spec.name, guard=guard
        )

    def _lower_append(self, call: cn.Call, guard: Optional[str]) -> None:
        if not call.args or not isinstance(call.args[0], cn.Name):
            raise CompileError("append() must be called as <list>.append(value)")
        list_name = call.args[0].ident
        if list_name not in self.ctx.list_vars:
            raise CompileError(f"{list_name!r} is not a list accumulator")
        value = self.lower_expr(call.args[1], guard)
        self.ctx.list_vars[list_name].append(value)

    def _lower_minmax(self, call: cn.Call, guard: Optional[str]) -> Operand:
        opcode = Opcode.MIN if call.func == "min" else Opcode.MAX
        values: List[Operand] = []
        for arg in call.args:
            if isinstance(arg, cn.Name) and arg.ident in self.ctx.list_vars:
                values.extend(self.ctx.list_vars[arg.ident])
            elif isinstance(arg, cn.ListExpr):
                values.extend(self.lower_expr(e, guard) for e in arg.elements)
            else:
                values.append(self.lower_expr(arg, guard))
        if not values:
            raise CompileError(f"{call.func}() needs at least one value")
        result = values[0]
        for value in values[1:]:
            dst = self.ctx.new_temp(call.func)
            self.ctx.program.emit(opcode, dst, result, value, guard=guard)
            result = dst
        return result

    def _lower_sum(self, call: cn.Call, guard: Optional[str]) -> Operand:
        values: List[Operand] = []
        for arg in call.args:
            if isinstance(arg, cn.Name) and arg.ident in self.ctx.list_vars:
                values.extend(self.ctx.list_vars[arg.ident])
            else:
                values.append(self.lower_expr(arg, guard))
        if not values:
            return 0
        result = values[0]
        for value in values[1:]:
            dst = self.ctx.new_temp("sum")
            self.ctx.program.emit(Opcode.ADD, dst, result, value, guard=guard)
            result = dst
        return result

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _assign_scalar(self, name: str, value: Operand, guard: Optional[str]) -> None:
        previous = self.ctx.current(name)
        versioned = self.ctx.new_version(name)
        # Track boolean (flag) variables: values that are 0/1 constants or
        # produced by predicate instructions.  Flag updates compile to 1-bit
        # gateway logic on real hardware, so keeping them 1 bit wide lets the
        # stage allocator co-locate them with their consumers.
        value_is_bool = (isinstance(value, int) and value in (0, 1)) or (
            isinstance(value, str) and value in self.ctx.boolean_vars
        )
        prev_is_bool = previous is None or previous in self.ctx.boolean_vars
        is_bool = value_is_bool and prev_is_bool
        width = 1 if is_bool else 32
        if is_bool:
            self.ctx.boolean_vars.add(versioned)
        if guard is not None and previous is not None:
            # preserve the old value when the guard is false at runtime:
            # versioned = guard ? value : previous
            self.ctx.program.emit(
                Opcode.SELECT, versioned, guard, value, previous, width=width
            )
        else:
            self.ctx.program.emit(Opcode.MOV, versioned, value, guard=guard, width=width)

    def _name_operand(self, name: str) -> Operand:
        constant = self.ctx.env.get(name) if name in self.ctx.env else None
        if isinstance(constant, (int, float)):
            return constant
        current = self.ctx.current(name)
        if current is not None:
            return current
        if name in self.ctx.objects:
            raise CompileError(
                f"object {name!r} used as a value; use get()/write() primitives"
            )
        raise CompileError(f"variable {name!r} used before assignment")

    def _constant_operand(self, value: object) -> Operand:
        if value is None:
            return -1
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            return f"const.{value}"
        if isinstance(value, dict):
            return f"const.{value!r}"
        raise CompileError(f"unsupported constant {value!r}")

    def _expr_to_operand(self, expr: cn.Expr, guard: Optional[str]) -> Operand:
        if isinstance(expr, cn.FieldRef):
            return expr.qualified
        if isinstance(expr, cn.IndexRef) and isinstance(expr.base, cn.FieldRef):
            index = self._fold(expr.index)
            if index is not None:
                return f"{expr.base.qualified}[{int(index)}]"
        if isinstance(expr, cn.Constant) and isinstance(expr.value, str):
            return f"const.{expr.value}"
        return self.lower_expr(expr, guard)

    def _lower_indexed_load(self, expr: cn.IndexRef, guard: Optional[str]) -> Operand:
        # header vector access: hdr.feat[index]
        if isinstance(expr.base, cn.FieldRef):
            index = self._fold(expr.index)
            if index is not None:
                return f"{expr.base.qualified}[{int(index)}]"
            index_op = self.lower_expr(expr.index, guard)
            dst = self.ctx.new_temp("hld")
            self.ctx.program.emit(
                Opcode.HDR_READ, dst, expr.base.qualified, index_op, guard=guard
            )
            return dst
        # object indexing: mem[idx] — treated as a register read
        if isinstance(expr.base, cn.Name) and expr.base.ident in self.ctx.objects:
            spec = self.ctx.objects[expr.base.ident]
            index_op = self.lower_expr(expr.index, guard)
            dst = self.ctx.new_temp("reg")
            self.ctx.program.emit(
                Opcode.REG_READ, dst, index_op, state=expr.base.ident, guard=guard
            )
            return dst
        # list accumulator indexing with a constant index
        if isinstance(expr.base, cn.Name) and expr.base.ident in self.ctx.list_vars:
            index = self._fold(expr.index)
            if index is None:
                raise CompileError("list accumulators only support constant indices")
            return self.ctx.list_vars[expr.base.ident][int(index)]
        raise CompileError("unsupported subscript expression")

    def _lower_indexed_store(self, target: cn.IndexRef, value: cn.Expr,
                             guard: Optional[str]) -> None:
        value_op = self.lower_expr(value, guard)
        if isinstance(target.base, cn.FieldRef):
            index = self._fold(target.index)
            index_op: Operand = (
                int(index) if index is not None else self.lower_expr(target.index, guard)
            )
            self.ctx.program.emit(
                Opcode.HDR_WRITE, None, target.base.qualified, index_op, value_op,
                guard=guard,
            )
            return
        if isinstance(target.base, cn.Name) and target.base.ident in self.ctx.objects:
            index_op = self.lower_expr(target.index, guard)
            self.ctx.program.emit(
                Opcode.REG_WRITE, None, index_op, value_op,
                state=target.base.ident, guard=guard,
            )
            return
        raise CompileError("unsupported subscript assignment target")

    def _combine_guards(self, outer: Optional[str], condition: str,
                        negate: bool) -> str:
        if negate:
            negated = self.ctx.new_temp("neg")
            self.ctx.program.emit(
                Opcode.CMP_EQ, negated, condition, 0, width=1, guard=outer
            )
            condition = negated
        if outer is None:
            return condition
        combined = self.ctx.new_temp("grd")
        self.ctx.program.emit(Opcode.AND, combined, outer, condition, width=1)
        return combined


def _plain_kwargs(kwargs: dict) -> dict:
    """Strip AST nodes from kwargs, keeping plain Python values and strings."""
    plain = {}
    for key, value in kwargs.items():
        if isinstance(value, cn.Constant):
            plain[key] = value.value
        elif isinstance(value, (cn.Name,)):
            plain[key] = value.ident
        elif isinstance(value, (int, float, str, bool)) or value is None:
            plain[key] = value
        else:
            plain[key] = value
    return plain


def _payload_repr(call: cn.Call) -> str:
    """A stable textual description of a back()/mirror() payload."""
    if "hdr" in call.kwargs:
        return f"const.{call.kwargs['hdr']!r}"
    if call.args:
        first = call.args[0]
        if isinstance(first, cn.Constant):
            return f"const.{first.value!r}"
    return "const.{}"
