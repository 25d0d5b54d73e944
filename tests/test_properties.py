"""Property-based tests (hypothesis) on core data structures and invariants."""

from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.baselines import IntraDeviceAllocator
from repro.core.stats import DataplaneStats
from repro.devices import TofinoDevice
from repro.emulator import DeviceRuntime, Packet
from repro.emulator import state as state_mod
from repro.emulator.interpreter import StateStore, crc_hash
from repro.frontend import compile_source
from repro.ir.instructions import Opcode, StateDecl, StateKind
from repro.ir.program import HeaderField, IRProgram
from repro.placement import build_block_dag, build_dependency_graph
from repro.placement.objective import ObjectiveWeights


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_ARITH_OPS = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.MIN, Opcode.MAX]


@st.composite
def random_programs(draw):
    """Random straight-line IR programs with a counter state and guards."""
    length = draw(st.integers(min_value=1, max_value=25))
    program = IRProgram("random")
    program.declare_header_field(HeaderField(name="v", width=32))
    program.declare_state(StateDecl("ctr", StateKind.REGISTER_ARRAY, size=64, width=32))
    available = ["hdr.v"]
    predicates = []
    for i in range(length):
        choice = draw(st.integers(min_value=0, max_value=3))
        guard = draw(st.sampled_from(predicates)) if predicates and draw(st.booleans()) else None
        if choice == 0:
            src_a = draw(st.sampled_from(available))
            src_b = draw(st.one_of(st.sampled_from(available),
                                   st.integers(min_value=0, max_value=255)))
            opcode = draw(st.sampled_from(_ARITH_OPS))
            dst = f"t{i}"
            program.emit(opcode, dst, src_a, src_b, guard=guard)
            available.append(dst)
        elif choice == 1:
            src = draw(st.sampled_from(available))
            dst = f"p{i}"
            program.emit(Opcode.CMP_GT, dst, src,
                         draw(st.integers(min_value=0, max_value=255)),
                         width=1, guard=guard)
            predicates.append(dst)
        elif choice == 2:
            index = draw(st.integers(min_value=0, max_value=63))
            dst = f"r{i}"
            program.emit(Opcode.REG_ADD, dst, index, 1, state="ctr", guard=guard)
            available.append(dst)
        else:
            src = draw(st.sampled_from(available))
            dst = f"m{i}"
            program.emit(Opcode.MOV, dst, src, guard=guard)
            available.append(dst)
    return program


# --------------------------------------------------------------------------- #
# block construction invariants
# --------------------------------------------------------------------------- #
class TestBlockDAGProperties:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_blocks_partition_the_program(self, program):
        dag = build_block_dag(program)
        covered = sorted(uid for b in dag.blocks for uid in b.instruction_uids)
        assert covered == [i.uid for i in program]

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_block_dag_is_acyclic_and_order_respects_edges(self, program):
        dag = build_block_dag(program)
        assert nx.is_directed_acyclic_graph(dag.graph)
        order = [b.block_id for b in dag.topological_order()]
        position = {b: i for i, b in enumerate(order)}
        for src, dst in dag.edges():
            assert position[src] < position[dst]

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_state_users_stay_together(self, program):
        dag = build_block_dag(program)
        state_blocks = {
            block.block_id
            for block in dag.blocks
            for i in program
            if i.state == "ctr" and i.uid in block.instruction_uids
        }
        assert len(state_blocks) <= 1

    @given(random_programs(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_merge_preserves_instruction_count(self, program, max_size):
        merged = build_block_dag(program, max_block_size=max_size, merge=True)
        plain = build_block_dag(program, merge=False)
        assert merged.total_instructions() == plain.total_instructions()


# --------------------------------------------------------------------------- #
# intra-device allocation invariants
# --------------------------------------------------------------------------- #
class TestAllocationProperties:
    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_stage_order_respects_data_dependencies(self, program):
        allocator = IntraDeviceAllocator(TofinoDevice("t", num_stages=32))
        assignment = allocator.allocate(program, list(program))
        if assignment is None:
            return   # genuinely infeasible programs are allowed
        stage_of = assignment.stage_of_instruction
        dep = build_dependency_graph(program, include_state_cycles=False)
        for src, dst in dep.graph.edges():
            assert stage_of[src] <= stage_of[dst]

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_committed_resources_can_be_released(self, program):
        device = TofinoDevice("t", num_stages=32)
        allocator = IntraDeviceAllocator(device)
        assignment = allocator.allocate(program, list(program), commit=True)
        if assignment is None:
            return
        allocator.release(assignment)
        assert device.utilisation() == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# objective weights
# --------------------------------------------------------------------------- #
class TestWeightProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_adaptive_weights_always_valid(self, remaining):
        weights = ObjectiveWeights.adaptive(remaining)
        assert 0.0 <= weights.w_r <= 0.5
        assert 0.0 <= weights.w_p <= 0.5
        assert weights.w_r + weights.w_p == pytest.approx(0.5)
        assert weights.w_t == 0.5

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_adaptive_resource_weight_monotone(self, a, b):
        low, high = sorted((a, b))
        # less remaining resource => resource weight at least as large
        assert ObjectiveWeights.adaptive(low).w_r >= \
            ObjectiveWeights.adaptive(high).w_r - 1e-12


# --------------------------------------------------------------------------- #
# interpreter / state store invariants
# --------------------------------------------------------------------------- #
class TestInterpreterProperties:
    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=2**20))
    def test_crc_hash_bounded(self, value, modulus):
        assert 0 <= crc_hash(value, modulus) < modulus

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.integers(min_value=-1000, max_value=1000)),
                    min_size=1, max_size=50))
    def test_register_accumulation_matches_python_sum(self, updates):
        store = StateStore()
        expected = {}
        for index, amount in updates:
            store.reg_add("r", index, amount)
            expected[index] = expected.get(index, 0) + amount
        for index, total in expected.items():
            assert store.reg_read("r", index) == total

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=200))
    def test_threshold_filter_program_matches_reference(self, keys, threshold):
        """A compiled counter+threshold program behaves like its Python model."""
        source = (
            "ctr = Array(row=1, size=1024, w=32)\n"
            'f = Hash(type="identity", key=hdr.key)\n'
            "idx = get(f, hdr.key)\n"
            "n = count(ctr, idx, 1)\n"
            f"if n > {threshold}:\n"
            "    drop()\n"
        )
        program = compile_source(source, name="thr", header_fields={"key": 32})
        runtime = DeviceRuntime(TofinoDevice("t"))
        runtime.install_snippet("thr", program)
        reference_counts = {}
        for key in keys:
            packet = Packet(src_group="a", dst_group="b", owner="thr",
                            fields={"key": key})
            result = runtime.process_packet(packet)
            reference_counts[key] = reference_counts.get(key, 0) + 1
            should_drop = reference_counts[key] > threshold
            assert result.dropped == should_drop


# --------------------------------------------------------------------------- #
# resident register state: one mapping, two backings
# --------------------------------------------------------------------------- #
_LIMIT = state_mod.COLUMN_VALUE_LIMIT
_SMALL_CAP = 64
_REG_DECL = StateDecl("r", StateKind.REGISTER_ARRAY, rows=2, size=8, width=32)

_cell_rows = st.integers(min_value=-1, max_value=3)
_cell_indices = st.one_of(st.integers(min_value=-1, max_value=9),
                          st.just(40))            # 40: growth past the cap
_cell_values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([0, _LIMIT, -_LIMIT, _LIMIT + 1, -_LIMIT - 1, 1 << 70]))
_register_ops = st.one_of(
    st.tuples(st.just("read"), _cell_rows, _cell_indices),
    st.tuples(st.just("write"), _cell_rows, _cell_indices, _cell_values),
    st.tuples(st.just("add"), _cell_rows, _cell_indices, _cell_values),
    st.tuples(st.just("pop"), _cell_rows, _cell_indices),
    st.tuples(st.just("pop_live"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("update"), st.dictionaries(
        st.tuples(_cell_rows, _cell_indices), _cell_values, max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("promote")),
)


def _holdable(model) -> bool:
    """Could columns (under the shrunken cap) hold exactly these cells?"""
    if any(r < 0 or i < 0 or abs(v) > _LIMIT for (r, i), v in model.items()):
        return False
    rows = max([_REG_DECL.rows] + [r + 1 for r, _ in model])
    size = max([_REG_DECL.size] + [i + 1 for _, i in model])
    return rows * size <= _SMALL_CAP


def _assert_same_mapping(file, model) -> None:
    assert file == model and model == file
    assert not (file != model)
    assert len(file) == len(model) and bool(file) == bool(model)
    assert dict(file.items()) == model
    assert sorted(file) == sorted(model)
    assert sorted(file.values()) == sorted(model.values())
    for key, value in model.items():       # written zeros are present
        assert key in file and file[key] == value and file.get(key) == value
    assert all(type(v) is int for v in file.values())
    assert (9, 9) not in file and file.get((9, 9)) is None
    if file.columnar:
        assert _holdable(model)


class TestRegisterFileProperties:
    @given(st.lists(_register_ops, min_size=1, max_size=40), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_plain_dict_in_either_backing(self, ops, start_columnar):
        with mock.patch.object(state_mod, "COLUMN_CELL_CAP", _SMALL_CAP):
            store, sparse_twin = StateStore(), StateStore()
            for twin in (store, sparse_twin):
                twin.ensure(_REG_DECL)
            file = store.registers["r"]
            model = {}
            if start_columnar:
                assert file.promote()
            for op, *args in ops:
                if op == "promote":
                    promoted = file.promote()
                    assert promoted == file.columnar
                    if not _holdable(model):
                        assert not promoted
                elif op == "read":
                    row, index = args
                    assert store.reg_read("r", index, row) == \
                        model.get((row, index), 0)
                elif op == "write":
                    row, index, value = args
                    model[(row, index)] = value
                    for twin in (store, sparse_twin):
                        twin.reg_write("r", index, value, row)
                elif op == "add":
                    row, index, amount = args
                    model[(row, index)] = model.get((row, index), 0) + amount
                    for twin in (store, sparse_twin):
                        assert twin.reg_add("r", index, amount, row) == \
                            model[(row, index)]
                elif op in ("pop", "pop_live"):
                    key = tuple(args)
                    if op == "pop_live":    # the n-th cell that exists
                        key = sorted(model)[args[0] % len(model)] \
                            if model else (0, 0)
                    expected = model.pop(key, None)
                    for twin in (store, sparse_twin):
                        assert twin.registers["r"].pop(key, None) == expected
                elif op == "update":
                    model.update(args[0])
                    for twin in (store, sparse_twin):
                        twin.registers["r"].update(args[0])
                else:
                    model.clear()
                    for twin in (store, sparse_twin):
                        twin.reg_clear("r")
                _assert_same_mapping(file, model)
                assert not sparse_twin.registers["r"].columnar
                assert file == sparse_twin.registers["r"]
                assert sparse_twin.registers["r"] == file

    @given(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=12)),
        st.integers(min_value=-_LIMIT, max_value=_LIMIT), max_size=20),
        st.sampled_from([((-1, 0), 1), ((0, 0), _LIMIT + 1),
                         ((0, 1 << 40), 1)]))
    @settings(max_examples=60, deadline=None)
    def test_promote_demote_round_trip_keeps_every_cell(self, cells, breaker):
        stats = DataplaneStats()
        file = state_mod.RegisterFile(_REG_DECL, stats)
        file.update(cells)
        model = dict(cells)
        assert file.promote() and file.columnar
        assert stats.state_promotions == 1
        assert stats.state_cells_converted == len(model)
        _assert_same_mapping(file, model)
        key, value = breaker                # a write columns cannot hold
        file[key] = value
        model[key] = value
        assert not file.columnar
        assert stats.state_cells_converted == 2 * len(cells)
        assert file == model and dict(file.items()) == model
        assert not file.promote()           # demoted: stays a dict ...
        file.clear()                        # ... until it is cleared
        assert file == {} and file.promote() and file.columnar
        assert stats.state_promotions == 2


# --------------------------------------------------------------------------- #
# program transformation invariants
# --------------------------------------------------------------------------- #
class TestProgramProperties:
    @given(random_programs(), st.text(alphabet="abcdefgh", min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_renaming_preserves_structure(self, program, prefix):
        renamed = program.renamed(prefix)
        assert len(renamed) == len(program)
        assert len(renamed.states) == len(program.states)
        assert all(name.startswith(f"{prefix}_") for name in renamed.states)
        # opcode sequence is unchanged
        assert [i.opcode for i in renamed] == [i.opcode for i in program]

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_copy_equals_original(self, program):
        clone = program.copy()
        assert len(clone) == len(program)
        assert [str(i) for i in clone] == [str(i) for i in program]
