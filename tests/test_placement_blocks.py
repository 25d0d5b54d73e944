"""Unit tests for the dependency graph and block DAG construction."""

import networkx as nx

from repro.ir.instructions import Opcode, StateDecl, StateKind
from repro.ir.program import HeaderField, IRProgram
from repro.placement import build_block_dag, build_dependency_graph
from repro.placement.depgraph import live_variable_widths


def block_of_instruction(dag, uid):
    """The block holding instruction *uid*, ``None`` when no block does."""
    return next((b for b in dag.blocks if uid in b.instruction_uids), None)


def cut_cost_after(dag, prefix_blocks):
    """Bits crossing the boundary between *prefix_blocks* and the rest."""
    prefix = set(prefix_blocks)
    return sum(int(data.get("bits", 0))
               for src, dst, data in dag.graph.edges(data=True)
               if src in prefix and dst not in prefix)


def two_state_program():
    """A small program with two independent states and a data chain."""
    program = IRProgram("two_state")
    program.declare_header_field(HeaderField(name="key", width=32))
    program.declare_state(StateDecl("ctr_a", StateKind.REGISTER_ARRAY, size=8, width=32))
    program.declare_state(StateDecl("ctr_b", StateKind.REGISTER_ARRAY, size=8, width=32))
    program.emit(Opcode.HASH_CRC, "idx", "hdr.key", 8)
    program.emit(Opcode.REG_READ, "a", "idx", state="ctr_a")
    program.emit(Opcode.ADD, "a2", "a", 1)
    program.emit(Opcode.REG_WRITE, None, "idx", "a2", state="ctr_a")
    program.emit(Opcode.REG_ADD, "b", "idx", 1, state="ctr_b")
    program.emit(Opcode.CMP_GT, "hot", "b", 100, width=1)
    program.emit(Opcode.DROP, None, guard="hot")
    return program


class TestDependencyGraph:
    def test_data_dependencies(self):
        program = two_state_program()
        dep = build_dependency_graph(program, include_state_cycles=False)
        # reg_read(uid1) depends on hash(uid0)
        assert 0 in dep.predecessors(1)
        # add(uid2) depends on reg_read(uid1)
        assert 1 in dep.predecessors(2)
        # acyclic without state cycles
        assert nx.is_directed_acyclic_graph(dep.graph)

    def test_state_sharing_creates_mutual_dependency(self):
        program = two_state_program()
        dep = build_dependency_graph(program)
        groups = [g for g in dep.state_groups.values() if len(g) > 1]
        assert any(set(g) == {1, 3} for g in groups)   # ctr_a read + write
        assert dep.graph.has_edge(1, 3) and dep.graph.has_edge(3, 1)

    def test_topological_order_covers_all_instructions(self):
        program = two_state_program()
        dep = build_dependency_graph(program)
        order = dep.topological_order()
        assert sorted(order) == [i.uid for i in program]

    def test_live_variable_widths(self):
        program = two_state_program()
        widths = live_variable_widths(program)
        assert widths[(1, 2)] == 32      # "a" from reg_read to add
        assert (0, 1) in widths          # idx from hash to reg_read

    def test_depends_on_transitive(self):
        program = two_state_program()
        dep = build_dependency_graph(program, include_state_cycles=False)
        # write depends on hash transitively
        assert nx.has_path(dep.graph, 0, 3)
        assert not nx.has_path(dep.graph, 3, 0)


class TestBlockConstruction:
    def test_union_of_blocks_equals_program(self, kvs_program):
        dag = build_block_dag(kvs_program)
        covered = sorted(uid for b in dag.blocks for uid in b.instruction_uids)
        assert covered == [i.uid for i in kvs_program]

    def test_blocks_are_disjoint(self, mlagg_program):
        dag = build_block_dag(mlagg_program)
        seen = set()
        for block in dag.blocks:
            for uid in block.instruction_uids:
                assert uid not in seen
                seen.add(uid)

    def test_block_dag_is_acyclic(self, kvs_program, mlagg_program, dqacc_program):
        for program in (kvs_program, mlagg_program, dqacc_program):
            dag = build_block_dag(program)
            assert nx.is_directed_acyclic_graph(dag.graph)

    def test_state_sharing_instructions_in_same_block(self, kvs_program):
        dag = build_block_dag(kvs_program)
        for state in {i.state for i in kvs_program if i.state is not None}:
            blocks = {
                block_of_instruction(dag, i.uid).block_id
                for i in kvs_program
                if i.state == state
            }
            assert len(blocks) == 1, f"state {state} split across blocks {blocks}"

    def test_merging_reduces_block_count(self, mlagg_program):
        merged = build_block_dag(mlagg_program, merge=True)
        unmerged = build_block_dag(mlagg_program, merge=False)
        assert merged.num_blocks() < unmerged.num_blocks()
        assert merged.total_instructions() == unmerged.total_instructions()

    def test_max_block_size_respected_for_mergeable_blocks(self):
        program = IRProgram("chainy")
        program.emit(Opcode.MOV, "x0", 1)
        for i in range(20):
            program.emit(Opcode.ADD, f"x{i + 1}", f"x{i}", 1)
        dag = build_block_dag(program, max_block_size=5)
        for block in dag.blocks:
            # pure compute blocks must respect the threshold (state-sharing
            # cycles may exceed it, but this program has none)
            assert block.size <= 5

    def test_topological_order_respects_dependencies(self, kvs_program):
        dag = build_block_dag(kvs_program)
        order = [b.block_id for b in dag.topological_order()]
        position = {block_id: i for i, block_id in enumerate(order)}
        for src, dst in dag.edges():
            assert position[src] < position[dst]

    def test_transfer_bits_nonzero_for_data_edges(self, kvs_program):
        dag = build_block_dag(kvs_program)
        assert any(
            dag.transfer_bits(src, dst) > 0 for src, dst in dag.edges()
        )

    def test_cut_cost_after_prefix(self, kvs_program):
        dag = build_block_dag(kvs_program)
        order = [b.block_id for b in dag.topological_order()]
        total_edges_bits = sum(dag.transfer_bits(s, d) for s, d in dag.edges())
        assert cut_cost_after(dag, order) == 0
        assert cut_cost_after(dag, []) == 0
        mid = cut_cost_after(dag, order[:1])
        assert 0 <= mid <= total_edges_bits

    def test_block_kinds_are_labelled(self, kvs_program):
        dag = build_block_dag(kvs_program)
        kinds = {b.kind for b in dag.blocks}
        assert kinds <= {"compute", "stateful", "table", "flow", "float", "crypto", "mixed"}

    def test_block_classes_recorded(self, kvs_program):
        dag = build_block_dag(kvs_program)
        for block in dag.blocks:
            instrs = block.instructions(kvs_program)
            assert block.classes == frozenset(i.instr_class for i in instrs)

    def test_block_of_instruction_unknown_uid(self, kvs_program):
        dag = build_block_dag(kvs_program)
        assert block_of_instruction(dag, 10_000) is None
