"""Unit tests for the IR instruction set and classification."""

import pytest

from repro.exceptions import IRError
from repro.ir.instructions import (
    Instruction,
    InstrClass,
    Opcode,
    StateDecl,
    StateKind,
    STATEFUL_OPCODES,
    PACKET_FLOW_OPCODES,
    classify,
    resource_footprint,
)


def with_owner(instr, owner):
    """A copy of *instr* annotated with *owner*, the original untouched."""
    clone = instr.copy()
    clone.owner = owner
    clone.annotations = set(instr.annotations) | {owner}
    return clone


class TestClassification:
    def test_every_opcode_has_a_class(self):
        for opcode in Opcode:
            assert isinstance(classify(opcode), InstrClass)

    @pytest.mark.parametrize(
        "opcode,expected",
        [
            (Opcode.ADD, InstrClass.BIN),
            (Opcode.MUL, InstrClass.BIC),
            (Opcode.FADD, InstrClass.BCA),
            (Opcode.REG_READ, InstrClass.BSO),
            (Opcode.EMT_LOOKUP, InstrClass.BEM),
            (Opcode.SEMT_LOOKUP, InstrClass.BSEM),
            (Opcode.TMT_LOOKUP, InstrClass.BNEM),
            (Opcode.STMT_LOOKUP, InstrClass.BSNEM),
            (Opcode.DMT_LOOKUP, InstrClass.BDM),
            (Opcode.DROP, InstrClass.BBPF),
            (Opcode.MIRROR, InstrClass.BAPF),
            (Opcode.HASH_CRC, InstrClass.BAF),
            (Opcode.CRYPTO_AES, InstrClass.BCF),
            (Opcode.DECL_STATE, InstrClass.META),
        ],
    )
    def test_class_mapping_matches_table9(self, opcode, expected):
        assert classify(opcode) is expected

    def test_stateful_opcodes_touch_state(self):
        assert Opcode.REG_WRITE in STATEFUL_OPCODES
        assert Opcode.SEMT_LOOKUP in STATEFUL_OPCODES
        assert Opcode.ADD not in STATEFUL_OPCODES

    def test_packet_flow_opcodes(self):
        assert Opcode.DROP in PACKET_FLOW_OPCODES
        assert Opcode.FORWARD in PACKET_FLOW_OPCODES
        assert Opcode.MOV not in PACKET_FLOW_OPCODES


class TestInstruction:
    def test_reads_include_operands_and_guard(self):
        instr = Instruction(Opcode.ADD, dst="x", operands=("a", 3, "b"), guard="g")
        assert set(instr.reads()) == {"a", "b", "g"}
        assert instr.writes() == ("x",)

    def test_no_dst_means_no_writes(self):
        instr = Instruction(Opcode.DROP)
        assert instr.writes() == ()

    def test_is_stateful_property(self):
        instr = Instruction(Opcode.REG_ADD, dst="x", operands=(1,), state="ctr")
        assert instr.is_stateful
        assert not Instruction(Opcode.ADD, dst="x").is_stateful

    def test_copy_is_independent(self):
        instr = Instruction(Opcode.ADD, dst="x", operands=("a", "b"))
        clone = instr.copy()
        clone.dst = "y"
        clone.annotations.add("user1")
        assert instr.dst == "x"
        assert "user1" not in instr.annotations

    def test_with_owner_annotates(self):
        instr = Instruction(Opcode.ADD, dst="x", operands=("a", 1))
        owned = with_owner(instr, "kvs_0")
        assert owned.owner == "kvs_0"
        assert "kvs_0" in owned.annotations
        assert instr.owner is None

    def test_rename_vars_touches_all_references(self):
        instr = Instruction(
            Opcode.REG_ADD, dst="x", operands=("idx", 1), state="ctr", guard="g"
        )
        renamed = instr.rename_vars({"x": "u_x", "idx": "u_idx", "ctr": "u_ctr", "g": "u_g"})
        assert renamed.dst == "u_x"
        assert renamed.operands[0] == "u_idx"
        assert renamed.state == "u_ctr"
        assert renamed.guard == "u_g"

    def test_rename_vars_keeps_unknown_names(self):
        instr = Instruction(Opcode.ADD, dst="x", operands=("a", "b"))
        renamed = instr.rename_vars({"a": "z"})
        assert renamed.operands == ("z", "b")

    def test_invalid_opcode_rejected(self):
        with pytest.raises(IRError):
            Instruction("not-an-opcode", dst="x")

    def test_str_contains_opcode_and_dst(self):
        instr = Instruction(Opcode.ADD, dst="x", operands=("a", 1), guard="g")
        text = str(instr)
        assert "add" in text and "x" in text and "g" in text


class TestStateDecl:
    def test_total_bits(self):
        decl = StateDecl("cms", StateKind.REGISTER_ARRAY, rows=3, size=1024, width=32)
        assert decl.total_bits == 3 * 1024 * 32

    def test_table_bits_include_key(self):
        decl = StateDecl("cache", StateKind.EXACT_TABLE, size=100, width=32, key_width=64)
        assert decl.total_bits == 100 * (32 + 64)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(IRError):
            StateDecl("bad", StateKind.REGISTER_ARRAY, rows=0, size=10, width=32)
        with pytest.raises(IRError):
            StateDecl("bad", StateKind.REGISTER_ARRAY, rows=1, size=-1, width=32)

    def test_renamed_preserves_shape(self):
        decl = StateDecl("cms", StateKind.REGISTER_ARRAY, rows=3, size=64, width=16)
        renamed = decl.renamed("user_cms")
        assert renamed.name == "user_cms"
        assert renamed.rows == 3 and renamed.size == 64 and renamed.width == 16


class TestHelpers:
    def test_iter_reads_and_writes(self):
        instrs = [
            Instruction(Opcode.MOV, dst="a", operands=(1,)),
            Instruction(Opcode.ADD, dst="b", operands=("a", 2)),
        ]
        assert set().union(*(i.reads() for i in instrs)) == {"a"}
        assert set().union(*(i.writes() for i in instrs)) == {"a", "b"}

    def test_resource_footprint_bin(self):
        demand = resource_footprint(Instruction(Opcode.ADD, dst="x", operands=("a", 1)))
        assert demand["alu"] == 1 and demand["salu"] == 0

    def test_resource_footprint_stateful(self):
        demand = resource_footprint(
            Instruction(Opcode.REG_ADD, dst="x", operands=(1,), state="s")
        )
        assert demand["salu"] == 1

    def test_resource_footprint_guard_uses_gateway(self):
        demand = resource_footprint(
            Instruction(Opcode.ADD, dst="x", operands=("a", 1), guard="g")
        )
        assert demand["gateway"] == 1

    def test_resource_footprint_tables(self):
        exact = resource_footprint(
            Instruction(Opcode.EMT_LOOKUP, dst="v", operands=("k",), state="t", width=64)
        )
        ternary = resource_footprint(
            Instruction(Opcode.TMT_LOOKUP, dst="v", operands=("k",), state="t", width=64)
        )
        assert exact["sram_bits"] == 64 and exact["hash"] == 1
        assert ternary["tcam_bits"] == 64
