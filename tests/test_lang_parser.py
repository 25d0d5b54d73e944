"""Unit tests for the ClickINC language parser."""

import pytest

from repro.exceptions import LanguageError
from repro.lang import ast_nodes as cn
from repro.lang.objects import ObjectKind
from repro.lang.parser import parse_program


class TestBasicStatements:
    def test_simple_assignment(self):
        module = parse_program("x = 1", name="t")
        assert len(module.body) == 1
        stmt = module.body[0]
        assert isinstance(stmt, cn.Assign)
        assert isinstance(stmt.target, cn.Name) and stmt.target.ident == "x"
        assert isinstance(stmt.value, cn.Constant) and stmt.value.value == 1

    def test_object_declaration(self):
        module = parse_program('mem = Array(row=3, size=65536, w=32)')
        decl = module.body[0]
        assert isinstance(decl, cn.ObjectDecl)
        assert decl.kind is ObjectKind.ARRAY
        assert decl.kwargs["row"] == 3 and decl.kwargs["size"] == 65536

    def test_hash_declaration_with_field_kwarg(self):
        module = parse_program('f = Hash(type="crc_16", key=hdr.key)')
        decl = module.body[0]
        assert decl.kind is ObjectKind.HASH
        assert decl.kwargs["key"] == "hdr.key"

    def test_field_reference(self):
        module = parse_program("x = hdr.key")
        assign = module.body[0]
        assert isinstance(assign.value, cn.FieldRef)
        assert assign.value.qualified == "hdr.key"

    def test_augmented_assignment(self):
        module = parse_program("x = 0\nx += 2")
        aug = module.body[1]
        assert isinstance(aug, cn.AugAssign) and aug.op == "+"

    def test_for_range_loop(self):
        module = parse_program("for i in range(3):\n    x = i")
        loop = module.body[0]
        assert isinstance(loop, cn.ForLoop)
        assert loop.var == "i"
        assert isinstance(loop.stop, cn.Constant) and loop.stop.value == 3

    def test_for_range_with_start_stop_step(self):
        module = parse_program("for i in range(1, 10, 2):\n    x = i")
        loop = module.body[0]
        assert loop.start.value == 1 and loop.stop.value == 10 and loop.step.value == 2

    def test_if_elif_else(self):
        source = (
            "x = 1\n"
            "if hdr.op == 1:\n    y = 1\n"
            "elif hdr.op == 2:\n    y = 2\n"
            "else:\n    y = 3\n"
        )
        module = parse_program(source)
        branch = module.body[1]
        assert isinstance(branch, cn.IfElse)
        assert len(branch.body) == 1
        nested = branch.orelse[0]
        assert isinstance(nested, cn.IfElse)
        assert len(nested.orelse) == 1

    def test_del_statement(self):
        # note: the index must be a name (Python cannot parse "del" of a
        # literal); loop induction variables satisfy this in templates
        module = parse_program("i = 3\ndel(hdr.feat, i)")
        stmt = module.body[1]
        assert isinstance(stmt, cn.DeleteStatement)
        assert len(stmt.args) == 2

    def test_primitive_call_statement(self):
        module = parse_program("drop()")
        stmt = module.body[0]
        assert isinstance(stmt, cn.ExprStatement)
        assert isinstance(stmt.value, cn.Call) and stmt.value.func == "drop"

    def test_method_call_normalised(self):
        module = parse_program("vals = list()\nvals.append(3)")
        call = module.body[1].value
        assert call.func == "append"
        assert isinstance(call.args[0], cn.Name) and call.args[0].ident == "vals"

    def test_funclib_import_ignored(self):
        module = parse_program("from Funclib import *\nx = 1")
        assert len(module.body) == 1

    def test_symbolic_constants_resolved(self):
        module = parse_program("x = REQUEST")
        assert module.body[0].value.value == 1

    def test_user_constants_resolved(self):
        module = parse_program("x = DEPTH", constants={"DEPTH": 42})
        assert module.body[0].value.value == 42

    def test_template_instantiation(self):
        module = parse_program("agg = MLAgg(8, 24, 1, 1000)\nagg(hdr)")
        assert isinstance(module.body[0], cn.TemplateInstance)
        assert isinstance(module.body[1], cn.TemplateCall)

    def test_loc_counts_nonblank_lines(self):
        module = parse_program("x = 1\n\n# comment\ny = 2\n")
        assert module.loc() == 2


class TestRejections:
    @pytest.mark.parametrize(
        "source",
        [
            "while True:\n    x = 1",
            "def f():\n    return 1",
            "class C:\n    pass",
            "import os",
            "x = [i for i in range(3)]",
            "for x in mylist:\n    y = x",
            "x, y = 1, 2",
            "x = unknown_function(1)",
            "x = y if z else w",
            "with open('f') as f:\n    pass",
        ],
    )
    def test_outside_grammar_rejected(self, source):
        with pytest.raises(LanguageError):
            parse_program(source)

    def test_python_syntax_error_reported(self):
        with pytest.raises(LanguageError):
            parse_program("x = = 1")

    def test_chained_comparison_rejected(self):
        with pytest.raises(LanguageError):
            parse_program("x = 1 < y < 3")

    def test_for_else_rejected(self):
        with pytest.raises(LanguageError):
            parse_program("for i in range(3):\n    x = i\nelse:\n    y = 1")

    @pytest.mark.parametrize("depth", [1000, 5000, 50000])
    def test_deep_nesting_is_a_language_error(self, depth):
        """Past the converter's recursion limit (1 000), CPython's parser
        stack (5 000) and its memory guard (50 000), a deep expression is
        refused as a LanguageError, never a builtin one."""
        with pytest.raises(LanguageError, match="nests too deeply") as info:
            parse_program("x = " + "-" * depth + "1")
        assert isinstance(info.value.__cause__, (RecursionError, MemoryError))


class TestExpressions:
    def test_binary_operations(self):
        module = parse_program("x = (1 + 2) * 3")
        expr = module.body[0].value
        assert isinstance(expr, cn.BinOp) and expr.op == "*"
        assert isinstance(expr.left, cn.BinOp) and expr.left.op == "+"

    def test_boolean_operations(self):
        module = parse_program("x = 0\ny = 0\nif x == 1 and y == 2:\n    z = 1")
        branch = module.body[2]
        assert isinstance(branch.condition, cn.BoolOp)
        assert branch.condition.op == "and"

    def test_unary_not(self):
        module = parse_program("x = 1\nif not x:\n    y = 1")
        branch = module.body[1]
        assert isinstance(branch.condition, cn.UnaryOp)

    def test_subscript(self):
        module = parse_program("x = hdr.feat[3]")
        expr = module.body[0].value
        assert isinstance(expr, cn.IndexRef)

    def test_nested_call_expression(self):
        module = parse_program(
            'mem = Array(row=1, size=16, w=32)\nx = min(get(mem, 1), get(mem, 2))'
        )
        expr = module.body[1].value
        assert isinstance(expr, cn.Call) and expr.func == "min"
        assert all(isinstance(a, cn.Call) for a in expr.args)

    def test_dict_payload_kwarg(self):
        module = parse_program('back(hdr={"op": 2, "vals": "v"})')
        call = module.body[0].value
        assert call.func == "back"
        assert "hdr" in call.kwargs

