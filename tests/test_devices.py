"""Unit tests for the heterogeneous device models."""

import pytest

from repro.devices import (
    Architecture,
    Device,
    NetronomeNFPDevice,
    Tofino2Device,
    TofinoDevice,
    Trident4Device,
    XilinxFPGADevice,
    make_device,
)
from repro.devices.base import StageResources, uniform_stages
from repro.exceptions import ResourceExhaustedError, TopologyError
from repro.ir.instructions import Instruction, InstrClass, Opcode, StateDecl, StateKind
from repro.ir.program import IRProgram


def one_stage_device(**capacities) -> Device:
    return Device("d", "test", Architecture.PIPELINE, (),
                  [StageResources(dict(capacities))])


class TestStageResources:
    def test_allocate_and_release(self):
        device = one_stage_device(alu=4.0, salu=2.0)
        device.commit([(0, {"alu": 3.0})])
        assert device.stages[0].available("alu") == 1.0
        device.release([(0, {"alu": 3.0})])
        assert device.stages[0].available("alu") == 4.0

    def test_over_allocation_raises(self):
        device = one_stage_device(alu=1.0)
        state = device.state
        with pytest.raises(ResourceExhaustedError):
            device.commit([(0, {"alu": 2.0})])
        assert device.state is state

    def test_utilisation(self):
        device = one_stage_device(alu=4.0, hash=2.0)
        device.commit([(0, {"alu": 2.0})])
        assert device.stages[0].utilisation() == pytest.approx(0.5)

    def test_copy_is_independent(self):
        # a stage view is a copy of one state: later changes do not reach it
        device = one_stage_device(alu=4.0)
        view = device.stages[0]
        device.commit([(0, {"alu": 1.0})])
        assert view.available("alu") == 4.0
        assert device.stages[0].available("alu") == 3.0

    def test_writing_a_view_reaches_no_device(self):
        # two devices in one interned state: a write through one's view
        # shows in neither device's stages nor in the state
        a, b = TofinoDevice("a"), TofinoDevice("b")
        assert a.state is b.state
        state = a.state
        a.stages[0].used["alu"] = 1.0
        a.stages[0].capacities["alu"] = 0.0
        for device in (a, b):
            assert device.stages[0].used["alu"] == 0.0
            assert device.stages[0].available("alu") > 0.0
        assert a.state is state is b.state


class TestCapabilities:
    def test_tofino_cannot_do_float_or_crypto(self):
        device = TofinoDevice("t")
        assert InstrClass.BCA not in device.supported_classes
        assert InstrClass.BCF not in device.supported_classes
        assert InstrClass.BIC not in device.supported_classes
        assert InstrClass.BSO in device.supported_classes

    def test_td4_supports_direct_match_not_stateful_tables(self):
        device = Trident4Device("td")
        assert InstrClass.BDM in device.supported_classes
        assert InstrClass.BSEM not in device.supported_classes

    def test_nfp_supports_mul_and_crypto_not_float(self):
        device = NetronomeNFPDevice("n")
        assert InstrClass.BIC in device.supported_classes
        assert InstrClass.BCF in device.supported_classes
        assert InstrClass.BSEM in device.supported_classes
        assert InstrClass.BCA not in device.supported_classes

    def test_fpga_supports_everything_relevant(self):
        device = XilinxFPGADevice("f")
        for cls in (InstrClass.BCA, InstrClass.BSEM, InstrClass.BCF, InstrClass.BIC):
            assert cls in device.supported_classes

    def test_supports_instruction_and_program(self):
        device = TofinoDevice("t")
        float_add = Instruction(Opcode.FADD, dst="x", operands=("a", "b"))
        assert float_add.instr_class not in device.supported_classes
        program = IRProgram("p")
        program.emit(Opcode.ADD, "x", 1, 2)
        assert all(instr.instr_class in device.supported_classes for instr in program)

    def test_unsupported_classes_helper(self):
        device = TofinoDevice("t")
        missing = {InstrClass.BCA, InstrClass.BIN} - device.supported_classes
        assert missing == frozenset({InstrClass.BCA})


class TestArchitectures:
    def test_architecture_labels(self):
        assert TofinoDevice("t").architecture is Architecture.PIPELINE
        assert Trident4Device("td").architecture is Architecture.PIPELINE
        assert NetronomeNFPDevice("n").architecture is Architecture.RTC
        assert XilinxFPGADevice("f").architecture is Architecture.HYBRID

    def test_stage_counts(self):
        assert TofinoDevice("t").num_stages == 12
        assert Tofino2Device("t2").num_stages == 20
        assert NetronomeNFPDevice("n").num_stages == NetronomeNFPDevice.DEFAULT_ISLANDS

    def test_td4_stages_are_unbalanced(self):
        device = Trident4Device("td")
        sram = [s.capacities["sram_kb"] for s in device.stages]
        assert len(set(sram)) > 1


class TestResourceAccounting:
    def test_instruction_demand_shapes(self):
        device = TofinoDevice("t")
        demand = device.instruction_demand(
            Instruction(Opcode.REG_ADD, dst="x", operands=(0, 1), state="s")
        )
        assert demand["salu"] == 1.0 and demand["instructions"] == 1.0

    def test_state_demand_distinguishes_tcam(self):
        device = TofinoDevice("t")
        program = IRProgram("p")
        program.declare_state(
            StateDecl("lpm", StateKind.TERNARY_TABLE, size=100, width=32, key_width=32)
        )
        program.declare_state(
            StateDecl("reg", StateKind.REGISTER_ARRAY, size=100, width=32)
        )
        demand = device.memory_demand(
            device.state_bits(program.get_state(name)) for name in ("lpm", "reg"))
        assert demand["tcam_kb"] > 0 and demand["sram_kb"] > 0

    def test_allocate_release_and_remaining_ratio(self):
        device = TofinoDevice("t")
        assert device.remaining_ratio() == pytest.approx(1.0)
        device.commit([(0, {"alu": 10.0})])
        assert device.remaining_ratio() < 1.0
        device.release([(0, {"alu": 10.0})])
        assert device.remaining_ratio() == pytest.approx(1.0)

    def test_snapshot_restore(self):
        # the state is the snapshot: releasing what was allocated gives the
        # device back the very value it had
        device = TofinoDevice("t")
        snap = device.state
        device.commit([(0, {"alu": 5.0})])
        assert device.state is not snap
        device.release([(0, {"alu": 5.0})])
        assert device.state is snap
        assert device.stages[0].available("alu") == device.stages[0].capacities["alu"]

    def test_reset_clears_everything(self):
        device = TofinoDevice("t")
        device.commit([(2, {"salu": 1.0})])
        device.deployed_programs["p"] = [0]
        device.reset()
        assert device.utilisation() == pytest.approx(0.0)
        assert not device.deployed_programs


class TestRegistry:
    @pytest.mark.parametrize(
        "dev_type,cls",
        [
            ("tofino", TofinoDevice),
            ("tofino2", Tofino2Device),
            ("td4", Trident4Device),
            ("trident4", Trident4Device),
            ("nfp", NetronomeNFPDevice),
            ("smartnic", NetronomeNFPDevice),
            ("fpga", XilinxFPGADevice),
            ("fpga_nic", XilinxFPGADevice),
        ],
    )
    def test_factory_types(self, dev_type, cls):
        device = make_device(dev_type, "d0")
        assert isinstance(device, cls)
        assert device.name == "d0"

    def test_fpga_nic_flag(self):
        assert make_device("fpga_nic", "n").dev_type == "fpga_nic"

    def test_unknown_type_raises(self):
        with pytest.raises(TopologyError):
            make_device("quantum", "q")

    def test_uniform_stages_helper(self):
        stages = uniform_stages(3, {"alu": 2.0})
        stages[0].used["alu"] = 1.0        # the stages share no dicts
        assert stages[1].available("alu") == 2.0
