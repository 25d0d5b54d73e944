"""Unit tests for the intra-device allocator and the objective function."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.intra_reference import ReferenceAllocator

from benchmarks.baselines import IntraDeviceAllocator

from repro.devices import NetronomeNFPDevice, TofinoDevice, XilinxFPGADevice
from repro.frontend import compile_source, compile_template
from repro.ir.instructions import Opcode, StateDecl, StateKind
from repro.ir.program import HeaderField, IRProgram
from repro.lang.profile import default_profile
from repro.lang.templates import sparse_mlagg_source
from repro.placement import (
    DPPlacer,
    ObjectiveWeights,
    PlacementObjective,
    PlacementRequest,
)
from repro.placement.blocks import build_block_dag
from repro.placement.intra import PackingTable
from repro.topology import build_paper_emulation_topology


def chain_program(length=5):
    program = IRProgram("chain")
    program.declare_header_field(HeaderField(name="v", width=32))
    program.emit(Opcode.MOV, "x0", "hdr.v")
    for i in range(length):
        program.emit(Opcode.ADD, f"x{i + 1}", f"x{i}", 1)
    return program


class TestIntraDeviceAllocator:
    def test_dependent_instructions_use_increasing_stages(self):
        program = chain_program(5)
        allocator = IntraDeviceAllocator(TofinoDevice("t"))
        assignment = allocator.allocate(program, list(program))
        stages = [assignment.stage_of_instruction[i.uid] for i in program]
        assert stages == sorted(stages)
        assert assignment.stages_used == 6

    def test_chain_longer_than_pipeline_fails(self):
        program = chain_program(15)
        allocator = IntraDeviceAllocator(TofinoDevice("t", num_stages=8))
        assert allocator.allocate(program, list(program)) is None

    def test_rtc_device_ignores_chain_depth(self):
        program = chain_program(30)
        allocator = IntraDeviceAllocator(NetronomeNFPDevice("n"))
        assignment = allocator.allocate(program, list(program))
        assert assignment is not None

    def test_unsupported_class_rejected(self):
        program = IRProgram("f")
        program.emit(Opcode.FADD, "x", 1.0, 2.0)
        assert IntraDeviceAllocator(TofinoDevice("t")).allocate(program, list(program)) is None
        assert IntraDeviceAllocator(XilinxFPGADevice("f")).allocate(program, list(program)) is not None

    def test_predicate_producers_can_share_stage(self):
        program = IRProgram("pred")
        program.declare_header_field(HeaderField(name="v", width=32))
        program.emit(Opcode.CMP_GT, "p", "hdr.v", 5, width=1)
        program.emit(Opcode.MOV, "x", 1, guard="p")
        allocator = IntraDeviceAllocator(TofinoDevice("t"))
        assignment = allocator.allocate(program, list(program))
        stage_cmp = assignment.stage_of_instruction[0]
        stage_mov = assignment.stage_of_instruction[1]
        assert stage_mov == stage_cmp

    def test_state_memory_accounted(self):
        program = IRProgram("mem")
        program.declare_state(
            StateDecl("big", StateKind.REGISTER_ARRAY, rows=1, size=1 << 20, width=32)
        )
        program.emit(Opcode.REG_READ, "x", 0, state="big")
        allocator = IntraDeviceAllocator(TofinoDevice("t"))
        assignment = allocator.allocate(program, list(program))
        assert assignment is not None
        total_sram = sum(d.get("sram_kb", 0) for d in assignment.stage_demands.values())
        assert total_sram >= (1 << 20) * 32 / 8192.0

    def test_commit_and_release(self):
        program = chain_program(3)
        device = TofinoDevice("t")
        allocator = IntraDeviceAllocator(device)
        assignment = allocator.allocate(program, list(program), commit=True)
        assert device.utilisation() > 0
        allocator.release(assignment)
        assert device.utilisation() == pytest.approx(0.0)

    def test_empty_instruction_list(self):
        allocator = IntraDeviceAllocator(TofinoDevice("t"))
        assignment = allocator.allocate(IRProgram("e"), [])
        assert assignment.stages_used == 0 and assignment.instruction_count == 0

    def test_salu_per_stage_limit_spreads_stateful_ops(self):
        program = IRProgram("salu")
        program.declare_state(StateDecl("r", StateKind.REGISTER_ARRAY, size=64, width=32))
        for i in range(10):
            program.emit(Opcode.REG_ADD, f"c{i}", i, 1, state="r")
        allocator = IntraDeviceAllocator(TofinoDevice("t"))
        assignment = allocator.allocate(program, list(program))
        assert assignment is not None
        per_stage = {}
        for uid, stage in assignment.stage_of_instruction.items():
            per_stage[stage] = per_stage.get(stage, 0) + 1
        assert max(per_stage.values()) <= 4   # Tofino SALU/stage limit


# --------------------------------------------------------------------------- #
# differential: the packing table against the allocator it replaced
# --------------------------------------------------------------------------- #
def template_program(rng: random.Random) -> IRProgram:
    kind = rng.choice(("KVS", "MLAgg", "DQAcc", "SparseMLAgg"))
    if kind == "SparseMLAgg":
        block_num, block_size = rng.choice(((2, 3), (3, 2), (2, 2)))
        output = sparse_mlagg_source(
            block_num=block_num, block_size=block_size,
            num_agg=rng.randrange(64, 200000),
            vec_dim=block_num * block_size,
            is_convert=rng.random() < 0.5,
        )
        return compile_source(output.source, name="sparse",
                              constants=output.constants,
                              header_fields=output.header_fields)
    profile = default_profile(kind)
    if kind == "KVS":
        profile.performance["depth"] = rng.randrange(16, 400000)
    elif kind == "MLAgg":
        profile.performance["depth"] = rng.randrange(16, 200000)
        profile.performance["dim"] = rng.choice((4, 8, 16, 24, 32))
    else:
        profile.performance["c_depth"] = rng.randrange(16, 400000)
        profile.performance["c_len"] = rng.randrange(2, 12)
    return compile_template(profile, name=kind.lower())


def straight_line_program(rng: random.Random) -> IRProgram:
    """Generated IR: guards, predicates, re-defined names, shared states of
    every memory kind (some larger than a stage), every capability class a
    device of the paper topology rejects or accepts."""
    program = IRProgram("generated")
    program.declare_header_field(HeaderField(name="v", width=32))
    states = {}
    for index in range(rng.randrange(1, 5)):
        kind = rng.choice((StateKind.REGISTER_ARRAY, StateKind.REGISTER_ARRAY,
                           StateKind.EXACT_TABLE, StateKind.TERNARY_TABLE))
        name = f"s{index}"
        program.declare_state(StateDecl(
            name, kind, rows=rng.randrange(1, 4),
            size=1 << rng.randrange(4, 19), width=rng.choice((8, 32, 64)),
            key_width=rng.choice((0, 32, 128))))
        states[name] = kind
    values = ["hdr.v"]
    predicates = []

    def operand():
        return rng.choice(values) if rng.random() < 0.8 else rng.randrange(100)

    def fresh(pool):
        # now and then redefine an old name, predicate or not
        everything = [v for v in values + predicates if v != "hdr.v"]
        if everything and rng.random() < 0.15:
            return rng.choice(everything)
        name = f"t{len(values) + len(predicates)}"
        pool.append(name)
        return name

    for _ in range(rng.randrange(3, 45)):
        guard = {}
        if predicates and rng.random() < 0.35:
            guard = {"guard": rng.choice(predicates),
                     "guard_negated": rng.random() < 0.5}
        roll = rng.random()
        if roll < 0.30:
            opcode = rng.choice((Opcode.ADD, Opcode.SUB, Opcode.XOR,
                                 Opcode.MIN, Opcode.MOV))
            program.emit(opcode, fresh(values), operand(), operand(), **guard)
        elif roll < 0.45:
            opcode = rng.choice((Opcode.CMP_GT, Opcode.CMP_EQ, Opcode.CMP_NE))
            program.emit(opcode, fresh(predicates), operand(), operand(),
                         width=1, **guard)
        elif roll < 0.52:
            program.emit(Opcode.MUL, fresh(values), operand(), operand(), **guard)
        elif roll < 0.56:
            program.emit(Opcode.FADD, fresh(values), operand(), 1.5, **guard)
        elif roll < 0.64:
            program.emit(Opcode.HASH_CRC, fresh(values), operand(), **guard)
        elif roll < 0.92:
            name = rng.choice(sorted(states))
            if states[name] is StateKind.REGISTER_ARRAY:
                opcode = rng.choice((Opcode.REG_READ, Opcode.REG_ADD,
                                     Opcode.REG_WRITE))
            elif states[name] is StateKind.EXACT_TABLE:
                opcode = rng.choice((Opcode.EMT_LOOKUP, Opcode.SEMT_LOOKUP,
                                     Opcode.SEMT_WRITE))
            else:
                opcode = rng.choice((Opcode.TMT_LOOKUP, Opcode.STMT_LOOKUP))
            program.emit(opcode, fresh(values), operand(), operand(),
                         state=name, width=rng.choice((8, 32, 128)), **guard)
        elif roll < 0.96:
            program.emit(rng.choice((Opcode.DROP, Opcode.FORWARD)), **guard)
        else:
            program.emit(Opcode.MIRROR, None, operand(), **guard)
    return program


def one_device_per_type(rng: random.Random):
    """One device of each type of the paper topology (pipeline, RTC smartNIC,
    hybrid FPGA bypass / FPGA NIC), with random prior allocations."""
    topology = build_paper_emulation_topology()
    by_type = {}
    for name in sorted(topology.devices):
        device = topology.devices[name]
        by_type.setdefault(device.dev_type, device)
    for device in by_type.values():
        for index in rng.sample(range(device.num_stages),
                                k=rng.randrange(0, device.num_stages + 1)):
            stage = device.stages[index]
            device.commit([(index, {
                key: stage.available(key) * rng.choice((0.0, rng.random(), 1.0))
                for key in rng.sample(sorted(stage.capacities),
                                      k=rng.randrange(1, 4))
            })])
    return [by_type[dev_type] for dev_type in sorted(by_type)]


def assert_same_assignment(got, expected):
    if expected is None or got is None:
        assert got is expected
        return
    assert got == expected
    # dict equality is order-blind; plans are compared byte for byte
    assert list(got.stage_of_instruction) == list(expected.stage_of_instruction)
    assert list(got.stage_demands) == list(expected.stage_demands)
    for stage, demand in expected.stage_demands.items():
        assert list(got.stage_demands[stage]) == list(demand)


class TestPackingTableMatchesReference:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           generated=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_interval_on_every_device_type(self, seed, generated):
        rng = random.Random(seed)
        program = (straight_line_program(rng) if generated
                   else template_program(rng))
        ordered = build_block_dag(
            program, max_block_size=rng.choice((4, 8, 16))
        ).topological_order()
        # twin device sets in the same state: one per implementation
        devices = one_device_per_type(random.Random(seed))
        twins = one_device_per_type(random.Random(seed))
        table = PackingTable(program, program)
        for device, twin in zip(devices, twins):
            for start in range(len(ordered)):
                for end in range(start + 1, len(ordered) + 1):
                    blocks = ordered[start:end]
                    instructions = [i for b in blocks
                                    for i in b.instructions(program)]
                    rows = table.select(
                        uid for b in blocks for uid in sorted(b.instruction_uids))
                    for start_stage in (0, rng.randrange(1, device.num_stages)):
                        expected = ReferenceAllocator(twin).allocate(
                            program, instructions, start_stage=start_stage)
                        assert_same_assignment(
                            table.pack(device, rows, start_stage), expected)
                        assert_same_assignment(
                            IntraDeviceAllocator(device).allocate(
                                program, instructions,
                                start_stage=start_stage),
                            expected)
                    # commit and release move both devices through the same
                    # allocation states (release is not exact in floats, so
                    # "the same" is against the twin, not against before)
                    expected = ReferenceAllocator(twin).allocate(
                        program, instructions, commit=True)
                    got = IntraDeviceAllocator(device).allocate(
                        program, instructions, commit=True)
                    assert_same_assignment(got, expected)
                    assert (device.state.digest
                            == twin.state.digest)
                    if expected is not None:
                        ReferenceAllocator(twin).release(expected)
                        IntraDeviceAllocator(device).release(got)
                        assert (device.state.digest
                                == twin.state.digest)


class TestPackingWorkIsCounted:
    def test_three_templates_on_a_fresh_paper_topology(
            self, paper_topology, kvs_program, mlagg_program, dqacc_program):
        """The deterministic half of a packing before/after row: how many
        Algorithm 2 runs three cold searches need and how many instruction
        rows those visit.  A change that moves these changed what the search
        packs, not how fast it packs it."""
        placer = DPPlacer(paper_topology)
        pinned = []
        for program in (kvs_program, mlagg_program, dqacc_program):
            placer.place(PlacementRequest(
                program=program, source_groups=["pod0(a)", "pod1(a)"],
                destination_group="pod2(b)"))
            counters = placer.profile.counters
            pinned.append((counters.packing_runs,
                           counters.packed_instructions))
        assert pinned == [(117, 2297), (158, 3877), (181, 4634)]
        # every feasibility check the memo did not answer is one run; the
        # rest are the materialisation packs of memo-answered devices
        assert counters.packing_runs >= (counters.device_checks
                                         - counters.device_memo_hits)


class TestObjective:
    def test_fixed_weights(self):
        weights = ObjectiveWeights.fixed()
        assert weights.w_t == 0.5

    def test_adaptive_weights_shift_with_resources(self):
        empty = ObjectiveWeights.adaptive(1.0)
        full = ObjectiveWeights.adaptive(0.0)
        assert empty.w_r == pytest.approx(0.0)
        assert empty.w_p == pytest.approx(0.5)
        assert full.w_r == pytest.approx(0.5)
        assert full.w_p == pytest.approx(0.0)
        # w_r + w_p is always 1/2
        for r in (0.0, 0.3, 0.7, 1.0):
            w = ObjectiveWeights.adaptive(r)
            assert w.w_r + w.w_p == pytest.approx(0.5)

    def test_gain_monotonic_in_terms(self):
        objective = PlacementObjective(
            total_resource_units=100, total_transfer_bits=1000, adaptive=False
        )
        weights = objective.base_weights
        base = objective.gain(1.0, 10, 100, weights)
        more_resource = objective.gain(1.0, 20, 100, weights)
        more_transfer = objective.gain(1.0, 10, 200, weights)
        less_traffic = objective.gain(0.5, 10, 100, weights)
        assert more_resource < base
        assert more_transfer < base
        assert less_traffic < base

    def test_replication_costs_resources(self):
        objective = PlacementObjective(100, 1000, adaptive=False)
        weights = objective.base_weights
        assert objective.gain(1.0, 10, 0, weights, replicas=2) < \
            objective.gain(1.0, 10, 0, weights, replicas=1)

    def test_current_weights_adaptive_uses_devices(self):
        objective = PlacementObjective(100, 1000, adaptive=True)
        devices = [TofinoDevice("t")]
        fresh = objective.current_weights(devices)
        devices[0].commit([(0, {"salu": 4.0})])
        used = objective.current_weights(devices)
        assert used.w_r > fresh.w_r
