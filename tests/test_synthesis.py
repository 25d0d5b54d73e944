"""Unit tests for base programs, isolation, merging and incremental synthesis."""

import pytest

from repro.exceptions import SynthesisError
from repro.frontend import compile_template
from repro.ir.instructions import PACKET_FLOW_OPCODES, Opcode
from repro.ir.program import IRProgram
from repro.lang.profile import default_profile
from repro.placement import DPPlacer, PlacementRequest
from repro.synthesis import (
    DeviceExecutable,
    IncrementalSynthesizer,
    default_base_program,
    isolate_program,
    merge_into_executable,
    user_gate_instruction,
)
from repro.synthesis.merge import merge_parse_tree, remove_from_executable
from repro.topology import build_paper_emulation_topology



def count_nodes(node):
    """Nodes of a parse tree rooted at *node*."""
    return 1 + sum(count_nodes(child) for child in node.children)

class TestBaseProgram:
    def test_default_base_program_has_head_and_tail(self):
        base = default_base_program()
        assert len(base.head) > 0 and len(base.tail) > 0
        assert base.parse_tree.find("udp") is not None
        assert base.parse_tree.find("tcp") is not None

    def test_head_validates_and_tail_forwards(self):
        base = default_base_program()
        head_ops = {i.opcode for i in base.head}
        tail_ops = {i.opcode for i in base.tail}
        assert Opcode.LPM_LOOKUP in head_ops
        assert Opcode.DROP in head_ops
        assert Opcode.FORWARD in tail_ops

    def test_copy_is_independent(self):
        base = default_base_program()
        clone = base.copy()
        clone.parse_tree.find("udp").owners.add("someone")
        assert "someone" not in base.parse_tree.find("udp").owners


class TestIsolation:
    def test_states_and_temps_renamed(self, kvs_program):
        isolated = isolate_program(kvs_program, owner="kvs_0", user_id=3)
        assert all(name.startswith("kvs_0_") for name in isolated.states)
        assert not (set(isolated.states) & set(kvs_program.states))

    def test_two_users_never_share_state_names(self, kvs_program):
        a = isolate_program(kvs_program, owner="kvs_a", user_id=1)
        b = isolate_program(kvs_program, owner="kvs_b", user_id=2)
        assert not (set(a.states) & set(b.states))

    def test_gate_guards_every_effectful_instruction(self, dqacc_program):
        isolated = isolate_program(dqacc_program, owner="dq_0", user_id=5)
        gate_instr, gate_var = user_gate_instruction(5, "dq_0")
        assert isolated[0].opcode is Opcode.CMP_EQ
        assert isolated[0].operands[1] == 5
        # every stateful or packet-flow instruction (the ones with side
        # effects) must be guarded; predicate-combination helpers may not be
        for instr in list(isolated)[1:]:
            if instr.is_stateful or instr.opcode in PACKET_FLOW_OPCODES:
                assert instr.guard is not None

    def test_gate_can_be_disabled(self, dqacc_program):
        isolated = isolate_program(dqacc_program, owner="dq_0", user_id=5,
                                   add_gate=False)
        assert len(isolated) == len(dqacc_program)

    def test_instructions_sharing_a_guard_share_one_gated_predicate(self):
        snippet = IRProgram("tenant@dev")
        snippet.emit(Opcode.CMP_EQ, "hit", "hdr.key", 7, width=1)
        snippet.emit(Opcode.ADD, "x", "hdr.key", 1, guard="hit")
        snippet.emit(Opcode.ADD, "y", "hdr.key", 2, guard="hit")
        snippet.emit(Opcode.ADD, "z", "hdr.key", 3)
        isolated = isolate_program(snippet, owner="t0", user_id=4)
        assert [str(i) for i in isolated] == [
            "t0__gate = cmp_eq inc.user_id, 4",
            "[t0__gate] t0_hit = cmp_eq hdr.key, 7",
            "t0_hit__gated = and t0_hit, t0__gate",      # one AND, not two
            "[t0_hit__gated] t0_x = add hdr.key, 1",
            "[t0_hit__gated] t0_y = add hdr.key, 2",
            "[t0__gate] t0_z = add hdr.key, 3",
        ]
        assert [i.uid for i in isolated] == list(range(6))
        assert all(i.owner == "t0" for i in isolated)
        # the input is only read: synthesis shares it with the emulator
        assert [i.guard for i in snippet] == [None, "hit", "hit", None]
        assert {i.dst for i in snippet} == {"hit", "x", "y", "z"}

    def test_annotations_carry_owner(self, kvs_program):
        isolated = isolate_program(kvs_program, owner="kvs_0", user_id=1)
        assert all("kvs_0" in i.annotations for i in isolated)


class TestMerging:
    def test_parse_tree_merge_adds_inc_header(self, kvs_program):
        base = default_base_program()
        before = count_nodes(base.parse_tree)
        added = merge_parse_tree(base.parse_tree, kvs_program, "kvs_0")
        assert added == 1
        assert count_nodes(base.parse_tree) == before + 1
        inc_node = base.parse_tree.find("inc_kvs_0")
        assert inc_node is not None
        assert "key" in inc_node.fields

    def test_shared_nodes_gain_owner_annotation(self, kvs_program):
        base = default_base_program()
        merge_parse_tree(base.parse_tree, kvs_program, "kvs_0")
        assert "kvs_0" in base.parse_tree.find("udp").owners
        assert "kvs_0" in base.parse_tree.owners

    def test_merge_into_executable_and_flatten(self, kvs_program, dqacc_program):
        executable = DeviceExecutable("sw0", default_base_program())
        merge_into_executable(
            executable, isolate_program(kvs_program, "kvs_0", 1), "kvs_0"
        )
        merge_into_executable(
            executable, isolate_program(dqacc_program, "dq_0", 2), "dq_0"
        )
        assert executable.users() == ["kvs_0", "dq_0"]
        # base head + both snippets + base tail
        sources = ([executable.base.head]
                   + [executable.snippets[u] for u in executable.snippet_order]
                   + [executable.base.tail])
        assert sum(len(p) for p in sources) == executable.total_instructions()
        # user states are present and disjoint
        states = [s for p in sources for s in p.states]
        assert any(s.startswith("kvs_0_") for s in states)
        assert any(s.startswith("dq_0_") for s in states)

    def test_duplicate_user_rejected(self, kvs_program):
        executable = DeviceExecutable("sw0", default_base_program())
        snippet = isolate_program(kvs_program, "kvs_0", 1)
        merge_into_executable(executable, snippet, "kvs_0")
        with pytest.raises(SynthesisError):
            merge_into_executable(executable, snippet, "kvs_0")

    def test_removal_strips_user(self, kvs_program):
        executable = DeviceExecutable("sw0", default_base_program())
        merge_into_executable(
            executable, isolate_program(kvs_program, "kvs_0", 1), "kvs_0"
        )
        remove_from_executable(executable, "kvs_0")
        assert executable.users() == []
        assert executable.base.parse_tree.find("inc_kvs_0") is None

    def test_removing_unknown_user_raises(self):
        executable = DeviceExecutable("sw0", default_base_program())
        with pytest.raises(SynthesisError):
            remove_from_executable(executable, "ghost")


class TestIncrementalSynthesizer:
    def _plan(self, topo, app, name, sources, dest):
        program = compile_template(default_profile(app), name=name)
        return DPPlacer(topo).place(
            PlacementRequest(program=program, source_groups=sources,
                             destination_group=dest)
        )

    def test_add_and_remove_program(self):
        topo = build_paper_emulation_topology()
        synth = IncrementalSynthesizer(topo)
        plan = self._plan(topo, "KVS", "kvs_0", ["pod0(a)"], "pod2(b)")
        delta = synth.add_program(plan)
        assert delta.operation == "add"
        assert set(delta.affected_devices) == set(plan.devices_used())
        assert synth.deployed_programs() == ["kvs_0"]
        removal = synth.remove_program("kvs_0")
        assert removal.operation == "remove"
        assert synth.deployed_programs() == []

    def test_incremental_add_does_not_touch_other_programs(self):
        topo = build_paper_emulation_topology()
        synth = IncrementalSynthesizer(topo, incremental=True)
        plan1 = self._plan(topo, "KVS", "kvs_0", ["pod0(a)"], "pod2(a)")
        plan2 = self._plan(topo, "DQAcc", "dq_0", ["pod1(a)"], "pod2(b)")
        synth.add_program(plan1)
        delta = synth.add_program(plan2)
        assert delta.affected_programs == []

    def test_monolithic_add_recompiles_colocated_programs(self):
        topo = build_paper_emulation_topology()
        incremental = IncrementalSynthesizer(topo, incremental=True)
        monolithic = IncrementalSynthesizer(topo, incremental=False)
        plans_inc = [
            self._plan(topo, "KVS", "kvs_i", ["pod0(a)"], "pod2(b)"),
            self._plan(topo, "DQAcc", "dq_i", ["pod0(a)"], "pod2(b)"),
        ]
        plans_mono = [
            self._plan(topo, "KVS", "kvs_m", ["pod0(a)"], "pod2(b)"),
            self._plan(topo, "DQAcc", "dq_m", ["pod0(a)"], "pod2(b)"),
        ]
        incremental.add_program(plans_inc[0])
        delta_inc = incremental.add_program(plans_inc[1])
        monolithic.add_program(plans_mono[0])
        delta_mono = monolithic.add_program(plans_mono[1])
        assert delta_mono.num_affected_programs >= delta_inc.num_affected_programs
        assert delta_mono.num_affected_devices >= delta_inc.num_affected_devices

    def test_duplicate_add_rejected(self):
        topo = build_paper_emulation_topology()
        synth = IncrementalSynthesizer(topo)
        plan = self._plan(topo, "KVS", "kvs_0", ["pod0(a)"], "pod2(b)")
        synth.add_program(plan)
        with pytest.raises(SynthesisError):
            synth.add_program(plan)

    def test_remove_unknown_program_rejected(self):
        topo = build_paper_emulation_topology()
        synth = IncrementalSynthesizer(topo)
        with pytest.raises(SynthesisError):
            synth.remove_program("ghost")

    def test_user_ids_are_unique(self):
        topo = build_paper_emulation_topology()
        synth = IncrementalSynthesizer(topo)
        plan1 = self._plan(topo, "KVS", "kvs_0", ["pod0(a)"], "pod2(b)")
        plan2 = self._plan(topo, "DQAcc", "dq_0", ["pod1(a)"], "pod2(b)")
        synth.add_program(plan1)
        synth.add_program(plan2)
        assert synth.user_ids["kvs_0"] != synth.user_ids["dq_0"]
