"""Unit tests for the IRProgram container."""

import collections

import pytest

from repro.exceptions import IRError
from repro.ir.instructions import (
    InstrClass,
    Opcode,
    StateDecl,
    StateKind,
    resource_footprint,
)
from repro.ir.program import HeaderField, IRProgram


def make_small_program(name="p"):
    program = IRProgram(name)
    program.declare_header_field(HeaderField(name="key", width=32))
    program.declare_state(StateDecl("ctr", StateKind.REGISTER_ARRAY, size=16, width=32))
    program.emit(Opcode.HASH_CRC, "idx", "hdr.key", 16)
    program.emit(Opcode.REG_ADD, "count", "idx", 1, state="ctr")
    program.emit(Opcode.CMP_GT, "hot", "count", 10, width=1)
    program.emit(Opcode.COPY_TO, None, "hdr.key", guard="hot")
    return program


class TestConstruction:
    def test_uids_are_sequential(self):
        program = make_small_program()
        assert [instr.uid for instr in program] == [0, 1, 2, 3]

    def test_default_owner_is_program_name(self):
        program = make_small_program("owner_test")
        assert all(instr.owner == "owner_test" for instr in program)
        assert all("owner_test" in instr.annotations for instr in program)

    def test_undeclared_state_rejected(self):
        program = IRProgram("p")
        with pytest.raises(IRError):
            program.emit(Opcode.REG_READ, "x", 0, state="missing")

    def test_duplicate_state_rejected(self):
        program = IRProgram("p")
        program.declare_state(StateDecl("s", StateKind.REGISTER_ARRAY, size=4, width=8))
        with pytest.raises(IRError):
            program.declare_state(StateDecl("s", StateKind.REGISTER_ARRAY, size=4, width=8))

    def test_conflicting_header_field_rejected(self):
        program = IRProgram("p")
        program.declare_header_field(HeaderField(name="key", width=32))
        with pytest.raises(IRError):
            program.declare_header_field(HeaderField(name="key", width=64))

    def test_same_header_field_twice_is_ok(self):
        program = IRProgram("p")
        program.declare_header_field(HeaderField(name="key", width=32))
        program.declare_header_field(HeaderField(name="key", width=32))
        assert len(program.header_fields) == 1

    def test_invalid_header_field(self):
        with pytest.raises(IRError):
            HeaderField(name="bad", width=0)

    def test_len_and_getitem(self):
        program = make_small_program()
        assert len(program) == 4
        assert program[0].opcode is Opcode.HASH_CRC


class TestAnalysis:
    def test_instruction_classes_histogram(self):
        program = make_small_program()
        histogram = collections.Counter(i.instr_class for i in program)
        assert histogram[InstrClass.BAF] == 1
        assert histogram[InstrClass.BSO] == 1
        assert histogram[InstrClass.BIN] == 1
        assert histogram[InstrClass.BBPF] == 1

    def test_used_classes(self):
        program = make_small_program()
        assert InstrClass.BSO in {i.instr_class for i in program}

    def test_stateful_variables(self):
        program = make_small_program()
        assert {i.state for i in program if i.state is not None} == {"ctr"}

    def test_temporary_variables_exclude_states(self):
        program = make_small_program()
        temps = program.temporary_variables()
        assert "idx" in temps and "ctr" not in temps

    def test_resource_summary_includes_state_bits(self):
        program = make_small_program()
        state_bits = sum(s.total_bits for s in program.states.values())
        assert state_bits == 16 * 32
        assert sum(resource_footprint(i).get("salu", 0) for i in program) >= 1

    def test_loc_equals_instruction_count(self):
        program = make_small_program()
        assert program.loc() == len(program)

    def test_get_state_unknown_raises(self):
        program = make_small_program()
        with pytest.raises(IRError):
            program.get_state("nope")


class TestTransforms:
    def test_copy_is_deep(self):
        program = make_small_program()
        clone = program.copy("clone")
        clone[0].dst = "changed"
        assert program[0].dst == "idx"
        assert clone.name == "clone"
        assert len(clone) == len(program)

    def test_renamed_prefixes_states_and_temps(self):
        program = make_small_program()
        renamed = program.renamed("user1")
        assert "user1_ctr" in renamed.states
        assert "ctr" not in renamed.states
        dsts = {instr.dst for instr in renamed if instr.dst}
        assert "user1_idx" in dsts
        # header fields are untouched
        reads = {op for instr in renamed for op in instr.operands if isinstance(op, str)}
        assert "hdr.key" in reads

    def test_renamed_does_not_change_original(self):
        program = make_small_program()
        program.renamed("user1")
        assert "ctr" in program.states

    def test_pretty_output_mentions_states_and_instructions(self):
        program = make_small_program()
        text = program.pretty()
        assert "ctr" in text and "reg_add" in text
