"""Unit tests for the frontend compiler passes (folding, unrolling, lowering)."""

import sys

import pytest

from repro.exceptions import CompileError, LanguageError, UnrollError
from repro.frontend import FrontendCompiler, compile_source
from repro.frontend.folding import ConstantEnv, try_eval, unroll_range
from repro.ir.instructions import Opcode
from repro.lang import ast_nodes as cn


def deep_module(depth: int) -> cn.Module:
    """``x = --…-hdr.a`` with *depth* negations, as a parsed tree."""
    expr = cn.FieldRef("hdr", "a")
    for _ in range(depth):
        expr = cn.UnaryOp("-", expr)
    return cn.Module(name="deep", body=[cn.Assign(cn.Name("x"), expr, 1)])


class TestConstantFolding:
    def test_eval_arithmetic(self):
        env = ConstantEnv({"N": 4})
        expr = cn.BinOp("*", cn.Name("N"), cn.Constant(3))
        assert try_eval(expr, env) == 12

    def test_eval_unknown_name_is_none(self):
        assert try_eval(cn.Name("unknown"), ConstantEnv()) is None

    def test_eval_comparison_and_unary(self):
        env = ConstantEnv()
        assert try_eval(cn.Compare("<", cn.Constant(1), cn.Constant(2)), env) is True
        assert try_eval(cn.UnaryOp("-", cn.Constant(5)), env) == -5

    def test_division_by_zero_is_not_constant(self):
        expr = cn.BinOp("/", cn.Constant(1), cn.Constant(0))
        assert try_eval(expr, ConstantEnv()) is None

    def test_unroll_range_variants(self):
        env = ConstantEnv({"N": 3})
        loop = cn.ForLoop(var="i", stop=cn.Name("N"))
        assert unroll_range(loop, env) == [0, 1, 2]
        loop = cn.ForLoop(var="i", start=cn.Constant(2), stop=cn.Constant(8),
                          step=cn.Constant(3))
        assert unroll_range(loop, env) == [2, 5]

    def test_unroll_nonconstant_bound_fails(self):
        loop = cn.ForLoop(var="i", stop=cn.Name("runtime"))
        with pytest.raises(UnrollError):
            unroll_range(loop, ConstantEnv())

    def test_unroll_zero_step_fails(self):
        loop = cn.ForLoop(var="i", stop=cn.Constant(3), step=cn.Constant(0))
        with pytest.raises(UnrollError):
            unroll_range(loop, ConstantEnv())

    def test_lowering_folds_each_node_once(self):
        """Lowering asks for the constant value of every node and of every
        sub-tree below it; with the fold memo a flat chain costs a number
        of ``try_eval`` calls linear in its length (it was quadratic).
        Calls are counted by a profile hook, which adds no stack frames to
        the deep recursion."""
        code = try_eval.__code__
        counts = []
        for terms in (300, 600):
            calls = []

            def hook(frame, event, _arg):
                if event == "call" and frame.f_code is code:
                    calls.append(1)

            sys.setprofile(hook)
            try:
                compile_source("x = " + "+".join(["hdr.a"] * terms),
                               header_fields={"a": 32})
            finally:
                sys.setprofile(None)
            counts.append(len(calls))
        assert counts[1] <= 2.1 * counts[0]
        assert counts[1] <= 4 * 2 * 600     # a few per node of the chain


class TestLowering:
    def test_loop_unrolling_produces_per_iteration_instructions(self):
        source = (
            "mem = Array(row=1, size=16, w=32)\n"
            "for i in range(4):\n"
            "    write(mem, i, i)\n"
        )
        program = compile_source(source, name="loop")
        writes = [i for i in program if i.opcode is Opcode.REG_WRITE]
        assert len(writes) == 4
        assert [w.operands[0] for w in writes] == [0, 1, 2, 3]

    def test_nonconstant_loop_bound_is_an_error(self):
        source = "for i in range(hdr.n):\n    x = i\n"
        with pytest.raises((CompileError, UnrollError)):
            compile_source(source, name="bad", header_fields={"n": 32})

    def test_branches_become_guarded_instructions(self):
        source = (
            "x = 0\n"
            "if hdr.op == 1:\n"
            "    x = 5\n"
            "else:\n"
            "    x = 7\n"
        )
        program = compile_source(source, name="branch", header_fields={"op": 8})
        guarded = [i for i in program if i.guard is not None or i.opcode is Opcode.SELECT]
        assert guarded, "expected predicated instructions"
        # no control flow opcodes exist in the IR at all
        assert all(i.opcode is not Opcode.PARSE for i in program)

    def test_ssa_versions_for_reassignment(self):
        source = "x = 1\nx = 2\ny = x + 1\n"
        program = compile_source(source, name="ssa")
        dsts = [i.dst for i in program if i.dst]
        assert "x__v1" in dsts and "x__v2" in dsts
        add = [i for i in program if i.opcode is Opcode.ADD][0]
        assert add.operands[0] == "x__v2"

    def test_strength_reduction_of_power_of_two(self):
        source = "x = hdr.v % 8\ny = hdr.v / 4\nz = hdr.v * 2\n"
        program = compile_source(source, name="sr", header_fields={"v": 32})
        opcodes = {i.opcode for i in program}
        assert Opcode.MOD not in opcodes and Opcode.DIV not in opcodes
        assert Opcode.AND in opcodes and Opcode.SHR in opcodes and Opcode.SHL in opcodes

    def test_non_power_of_two_mod_stays(self):
        source = "x = hdr.v % 7\n"
        program = compile_source(source, name="mod7", header_fields={"v": 32})
        assert any(i.opcode is Opcode.MOD for i in program)

    def test_count_min_sketch_example(self):
        source = (
            'mem = Array(row=3, size=1024, w=32)\n'
            'f = Hash(type="crc_16", key=hdr.key)\n'
            "vals = list()\n"
            "for i in range(3):\n"
            "    idx = get(f, hdr.key)\n"
            "    vals.append(count(mem, idx, 1))\n"
            "relt = min(vals)\n"
        )
        program = compile_source(source, name="cms", header_fields={"key": 128})
        assert sum(1 for i in program if i.opcode is Opcode.REG_ADD) == 3
        assert sum(1 for i in program if i.opcode is Opcode.MIN) == 2

    def test_variable_before_assignment_rejected(self):
        with pytest.raises(CompileError):
            compile_source("y = x + 1", name="bad")

    def test_object_as_value_rejected(self):
        source = "mem = Array(row=1, size=4, w=8)\nx = mem + 1\n"
        with pytest.raises(CompileError):
            compile_source(source, name="bad")

    def test_table_get_and_miss_sentinel(self):
        source = (
            'cache = Table(type="exact", size=16, stateful=False)\n'
            "v = get(cache, hdr.key)\n"
            "if v != None:\n"
            "    drop()\n"
        )
        program = compile_source(source, name="tbl", header_fields={"key": 32})
        lookups = [i for i in program if i.opcode is Opcode.EMT_LOOKUP]
        assert len(lookups) == 1
        compares = [i for i in program if i.opcode is Opcode.CMP_NE]
        assert any(-1 in i.operands for i in compares)

    def test_stateless_table_write_goes_to_control_plane(self):
        source = (
            'cache = Table(type="exact", size=16, stateful=False)\n'
            "write(cache, hdr.key, hdr.val)\n"
        )
        program = compile_source(source, name="tbl",
                                 header_fields={"key": 32, "val": 32})
        assert any(i.opcode is Opcode.COPY_TO for i in program)

    def test_stateful_table_write_stays_in_dataplane(self):
        source = (
            'cache = Table(type="exact", size=16, stateful=True)\n'
            "write(cache, hdr.key, hdr.val)\n"
        )
        program = compile_source(source, name="tbl",
                                 header_fields={"key": 32, "val": 32})
        assert any(i.opcode is Opcode.SEMT_WRITE for i in program)

    def test_boolean_flags_are_one_bit(self):
        source = (
            "seen = 0\n"
            "if hdr.v == 3:\n"
            "    seen = 1\n"
            "x = seen + 0\n"
        )
        program = compile_source(source, name="flag", header_fields={"v": 32})
        selects = [i for i in program if i.opcode is Opcode.SELECT]
        assert selects and all(i.width == 1 for i in selects)

    def test_drop_and_forward_primitives(self):
        program = compile_source("drop()\nforward(hdr)\n", name="flow")
        opcodes = [i.opcode for i in program]
        assert Opcode.DROP in opcodes and Opcode.FORWARD in opcodes

    def test_template_expansion_in_user_program(self):
        source = (
            "agg = MLAgg(64, 4, 0, 1)\n"
            "agg(hdr)\n"
        )
        program = compile_source(source, name="wrapped",
                                 constants={"NUM_AGG": 64, "VEC_DIM": 4})
        # the MLAgg template body was inlined
        assert any("agg_data_t" in s for s in program.states)
        assert len(program) > 30

    def test_header_vector_constant_index(self):
        source = (
            "sparse = 1\n"
            "for j in range(2):\n"
            "    if hdr.feat[j] != 0:\n"
            "        sparse = 0\n"
        )
        program = compile_source(source, name="vec", header_fields={"feat": 64})
        reads = [
            op
            for i in program
            for op in i.operands
            if isinstance(op, str) and op.startswith("hdr.feat[")
        ]
        assert "hdr.feat[0]" in reads and "hdr.feat[1]" in reads


class TestCompilerInterface:
    def test_compile_profile_names_program(self, compiler):
        from repro.lang.profile import default_profile

        program = compiler.compile_profile(default_profile("KVS", user="alice"))
        assert program.name == "kvs_alice"

    def test_header_fields_declared(self, compiler):
        program = compiler.compile_source(
            "x = hdr.key", name="hf", header_fields={"key": 128}
        )
        assert program.header_fields["key"].width == 128

    def test_verification_can_be_disabled(self):
        compiler = FrontendCompiler(verify=False)
        program = compiler.compile_source("x = 1", name="nv")
        assert len(program) == 1

    def test_nesting_too_deep_to_lower_is_a_language_error(self):
        """990 nested negations: the recursive lowering passes exhaust the
        stack, which is reported as a LanguageError like the parser's.  The
        tree is built directly, so the depth at which the parser itself
        gives out (which depends on the caller's stack) does not matter."""
        with pytest.raises(LanguageError,
                           match="nests too deeply to compile") as info:
            FrontendCompiler().compile_module(deep_module(990),
                                              header_fields={"a": 32})
        assert isinstance(info.value.__cause__, RecursionError)

    def test_nesting_too_deep_to_lower_fails_the_frontend_stage(
            self, monkeypatch, paper_topology):
        from repro.core import ClickINC, DeployRequest
        from repro.frontend import compiler

        # the source's own tree, built past the parser's reach
        monkeypatch.setattr(compiler, "parse_program",
                            lambda *_a, **_k: deep_module(990))
        controller = ClickINC(paper_topology, generate_code=False)
        report = controller.deploy_many([DeployRequest(
            source_groups=["pod0(a)"], destination_group="pod0(b)",
            name="deep", source="x = " + "-" * 990 + "hdr.a",
            header_fields={"a": 32})])[0]
        assert not report.succeeded
        assert report.failed_stage == "frontend"
        assert isinstance(report.exception, LanguageError)
        assert "nests too deeply" in report.error
