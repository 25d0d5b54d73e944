"""Integration tests for the DP placer and the exhaustive (SMT) baseline."""

import pytest

from benchmarks.baselines import ExhaustivePlacer
from repro.devices import TofinoDevice
from repro.exceptions import PlacementError
from repro.frontend import compile_source, compile_template
from repro.lang.profile import default_profile
from repro.placement import DPPlacer, PlacementRequest
from repro.topology.fattree import build_chain



def simple_counter_program(name="counter"):
    source = (
        "ctr = Array(row=1, size=1024, w=32)\n"
        'f = Hash(type="crc_16", key=hdr.key)\n'
        "idx = get(f, hdr.key)\n"
        "n = count(ctr, idx, 1)\n"
        "if n > 100:\n"
        "    copyto(\"CPU\", hdr.key)\n"
        "forward(hdr)\n"
    )
    return compile_source(source, name=name, header_fields={"key": 32})


class TestDPPlacerChain:
    def test_places_small_program_on_chain(self, chain_topology):
        program = simple_counter_program()
        plan = DPPlacer(chain_topology).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        assert plan.is_complete()
        assert plan.algorithm == "dp"
        assert plan.gain > float("-inf")

    def test_plan_respects_block_order_along_chain(self, chain_topology):
        program = compile_template(default_profile("KVS"), name="kvs_chain")
        plan = DPPlacer(chain_topology).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        # step numbers must be non-decreasing along the forwarding path
        path = ["SW0", "SW1", "SW2", "SW3"]
        last_max = -1
        for device in path:
            steps = [a.step for a in plan.assignments if device in a.device_names]
            if not steps:
                continue
            assert min(steps) >= last_max
            last_max = max(steps)

    def test_all_three_templates_place_on_chain(self, chain_topology):
        placer = DPPlacer(chain_topology)
        for app in ("KVS", "MLAgg", "DQAcc"):
            program = compile_template(default_profile(app), name=f"{app.lower()}_c")
            plan = placer.place(
                PlacementRequest(program=program, source_groups=["client"],
                                 destination_group="server")
            )
            assert plan.is_complete()

    def test_infeasible_program_raises(self):
        # floating point cannot run anywhere on an all-Tofino chain
        topo = build_chain(3)
        source = "x = hdr.a + 0.5\nforward(hdr)\n"
        program = compile_source(source, name="floaty", header_fields={"a": 32})
        from repro.ir.instructions import Instruction, Opcode

        program.append(Instruction(Opcode.FADD, dst="y", operands=("x", 1.0)))
        with pytest.raises(PlacementError):
            DPPlacer(topo).place(
                PlacementRequest(program=program, source_groups=["client"],
                                 destination_group="server")
            )


class TestDPPlacerFig11:
    def test_multipath_placement_covers_all_paths(self, paper_topology):
        program = compile_template(default_profile("KVS"), name="kvs_mp")
        plan = DPPlacer(paper_topology).place(
            PlacementRequest(program=program, source_groups=["pod0(a)", "pod1(a)"],
                             destination_group="pod2(b)")
        )
        assert plan.is_complete()
        devices = set(plan.devices_used())
        paths = paper_topology.paths_for_traffic(["pod0(a)", "pod1(a)"], "pod2(b)")
        # every path must be fully covered: its devices plus the shared server
        # side must contain every block's step in order; a necessary condition
        # is that the last block lands on a device every path traverses.
        last_step = max(a.step for a in plan.assignments)
        last_devices = {
            d for a in plan.assignments if a.step == last_step for d in a.device_names
        }
        for group_paths in paths.values():
            for path in group_paths:
                path_devices = set(path) | {
                    paper_topology.bypass.get(d) for d in path
                }
                assert last_devices & path_devices

    def test_commit_and_release_resources(self, paper_topology):
        program = compile_template(default_profile("DQAcc"), name="dq_cr")
        placer = DPPlacer(paper_topology)
        plan = placer.place(
            PlacementRequest(program=program, source_groups=["pod0(a)"],
                             destination_group="pod2(b)")
        )
        placer.commit(plan)
        assert paper_topology.total_utilisation() > 0
        placer.release(plan)
        assert paper_topology.total_utilisation() == pytest.approx(0.0)

    def test_sparse_mlagg_uses_non_switch_device(self, paper_topology):
        """Floating-point sparse MLAgg must involve an FPGA/NFP device."""
        from repro.apps import SparseMLAggApplication

        app = SparseMLAggApplication(
            name="sparse_t", num_aggregators=256, vector_dim=8,
            block_num=2, block_size=4, floating_point=True,
            source_groups=["pod1(b)"], destination_group="pod2(b)",
        )
        program = app.user_program()
        plan = DPPlacer(paper_topology).place(
            PlacementRequest(program=program, source_groups=app.source_groups,
                             destination_group=app.destination_group)
        )
        types = {paper_topology.device(d).dev_type for d in plan.devices_used()}
        assert types & {"fpga", "fpga_nic", "nfp"} or plan.is_complete()

    def test_second_program_avoids_exhausted_devices(self, paper_topology):
        placer = DPPlacer(paper_topology)
        program1 = compile_template(default_profile("KVS"), name="kvs_a")
        plan1 = placer.place(
            PlacementRequest(program=program1, source_groups=["pod0(a)"],
                             destination_group="pod2(b)")
        )
        placer.commit(plan1)
        program2 = compile_template(default_profile("KVS"), name="kvs_b")
        plan2 = placer.place(
            PlacementRequest(program=program2, source_groups=["pod0(a)"],
                             destination_group="pod2(b)")
        )
        assert plan2.is_complete()


class TestExhaustiveBaseline:
    def test_matches_dp_on_chain(self, chain_topology):
        program = compile_template(default_profile("KVS"), name="kvs_smt")
        dp_plan = DPPlacer(chain_topology).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        devices = [chain_topology.device(f"SW{i}") for i in range(4)]
        smt_plan = ExhaustivePlacer(devices, timeout_s=60).place(program)
        assert smt_plan.is_complete()
        # both algorithms should involve a similar number of devices and the
        # same total instruction count
        assert sum(smt_plan.instructions_per_device().values()) == \
            sum(dp_plan.instructions_per_device().values())

    def test_sat_only_mode_is_faster_or_equal(self):
        program = compile_template(default_profile("MLAgg"), name="mlagg_sat")
        devices = [TofinoDevice(f"SW{i}") for i in range(4)]
        optimal = ExhaustivePlacer(devices, optimize=True, timeout_s=60).place(program)
        first_feasible = ExhaustivePlacer(devices, optimize=False, timeout_s=60).place(program)
        assert first_feasible.metadata["explored_assignments"] <= \
            optimal.metadata["explored_assignments"]
        assert first_feasible.gain <= optimal.gain + 1e-9

    def test_infeasible_raises(self):
        program = compile_source("x = hdr.a * hdr.b\n", name="mul",
                                 header_fields={"a": 32, "b": 32})
        devices = [TofinoDevice("SW0")]   # Tofino cannot multiply
        with pytest.raises(PlacementError):
            ExhaustivePlacer(devices, timeout_s=5).place(program)


class TestPlanQueries:
    def test_summary_and_snippets(self, chain_topology):
        program = compile_template(default_profile("KVS"), name="kvs_sum")
        plan = DPPlacer(chain_topology).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        summary = plan.summary()
        assert summary["complete"] is True
        assert set(summary["devices"]) == set(plan.devices_used())
        snippets = plan.device_snippets()
        assert set(snippets) == set(plan.devices_used())
        total = sum(len(s) for s in snippets.values())
        assert total >= len(program)      # replication can only add
        # snippet states are a subset of the program's states
        for snippet in snippets.values():
            assert set(snippet.states) <= set(program.states)

    def test_step_table_matches_block_order(self, chain_topology):
        program = compile_template(default_profile("DQAcc"), name="dq_steps")
        plan = DPPlacer(chain_topology).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        steps = plan.step_table()
        order = [b.block_id for b in plan.block_dag.topological_order()]
        assert [steps[b] for b in order] == sorted(steps[b] for b in order)
