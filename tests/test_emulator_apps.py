"""End-to-end tests: applications deployed through the controller and run on
the network emulator."""

import pytest

from repro.apps import DQAccApplication, KVSApplication, MLAggApplication
from repro.core import ClickINC
from repro.emulator.traffic import DQAccWorkload, KVSWorkload, MLAggWorkload
from repro.exceptions import DeploymentError


def expected_sum(workload, seq):
    """Ground-truth aggregated gradient of one MLAgg round."""
    total = [0] * workload.vector_dim
    for packet in workload.round_packets(seq):
        for i, v in enumerate(packet.fields["data"]):
            total[i] += v
    return total


def duplicates_filtered(sent, delivered, distinct):
    """Fraction of duplicate packets removed by the in-network filter."""
    duplicates = sent - distinct
    if duplicates <= 0:
        return 0.0
    removed = sent - delivered
    return max(0.0, min(1.0, removed / duplicates))


@pytest.fixture()
def controller(paper_topology):
    return ClickINC(paper_topology, generate_code=False)


class TestWorkloads:
    def test_zipf_keys_are_skewed_and_bounded(self):
        workload = KVSWorkload("a", "b", num_keys=1000, skew=1.2)
        keys = [p.fields["key"] for p in workload.packets(5000)]
        assert all(0 <= k < 1000 for k in keys)
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        top = sorted(counts.values(), reverse=True)
        assert top[0] > 5 * (len(keys) / 1000)   # head much hotter than average

    def test_kvs_workload_mix(self):
        packets = KVSWorkload("a", "b", read_ratio=0.8, num_keys=100).packets(200)
        reads = sum(1 for p in packets if p.fields["op"] == 1)
        assert 120 < reads < 200

    def test_mlagg_workload_bitmaps_unique_per_worker(self):
        wl = MLAggWorkload("a", "b", num_workers=4, vector_dim=4)
        round0 = wl.round_packets(0)
        assert len(round0) == 4
        assert {p.fields["bitmap"] for p in round0} == {1, 2, 4, 8}
        assert expected_sum(wl, 0) == [
            sum(vals) for vals in zip(*(p.fields["data"] for p in round0))
        ]

    def test_mlagg_sparsity_zeroes_entries(self):
        dense = MLAggWorkload("a", "b", vector_dim=50, sparsity=0.0).round_packets(0)
        sparse = MLAggWorkload("a", "b", vector_dim=50, sparsity=0.9).round_packets(0)
        dense_zeros = sum(v == 0 for p in dense for v in p.fields["data"])
        sparse_zeros = sum(v == 0 for p in sparse for v in p.fields["data"])
        assert sparse_zeros > dense_zeros

    def test_dqacc_workload_has_duplicates(self):
        packets = DQAccWorkload("a", "b", duplicate_ratio=0.7).packets(200)
        values = [p.fields["value"] for p in packets]
        assert len(set(values)) < len(values)


class TestKVSEndToEnd:
    def test_cache_hits_are_served_in_network(self, controller):
        app = KVSApplication(name="kvs_e2e", cache_depth=2000, num_keys=2000)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="kvs_e2e")
        app.name = "kvs_e2e"
        app.populate_cache(controller.emulator, fraction=0.2)
        metrics = controller.run_traffic(app.workload().packets(400))
        summary = metrics.summary()
        # cached hot keys are answered by the switch (reflected), so the
        # delivery ratio to the server drops well below 1
        assert metrics.packets_reflected > 0.4 * metrics.packets_sent
        assert summary["delivery_ratio"] < 0.6
        assert metrics.traffic_reduction() > 0.2

    def test_without_cache_population_everything_reaches_server(self, controller):
        app = KVSApplication(name="kvs_cold", cache_depth=500, num_keys=500)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="kvs_cold")
        app.name = "kvs_cold"
        workload = app.workload()
        packets = [p for p in workload.packets(200) if p.fields["op"] == 1]
        metrics = controller.run_traffic(packets)
        assert metrics.packets_reflected == 0
        assert metrics.packets_delivered == len(packets)

    def test_expected_hit_ratio_analytics(self):
        high = KVSApplication.expected_hit_ratio(1000, 0.2, 1.2)
        low = KVSApplication.expected_hit_ratio(1000, 0.01, 1.2)
        assert 0 < low < high < 1


class TestMLAggEndToEnd:
    def test_aggregation_reduces_traffic_and_sums_correctly(self, controller):
        app = MLAggApplication(name="agg_e2e", num_workers=4, vector_dim=8,
                               num_aggregators=128)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="agg_e2e")
        app.name = "agg_e2e"
        workload = app.workload()
        rounds = 6
        metrics = controller.run_traffic(workload.packets(rounds))
        # per round: workers-1 packets are absorbed, one result is reflected
        assert metrics.packets_reflected == rounds
        assert metrics.packets_dropped_innetwork == rounds * (app.num_workers - 1)
        assert metrics.packets_delivered == 0
        assert metrics.traffic_reduction() > 0.5

    def test_aggregated_values_match_software_reference(self, controller):
        app = MLAggApplication(name="agg_ref", num_workers=4, vector_dim=4,
                               num_aggregators=64)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="agg_ref")
        app.name = "agg_ref"
        workload = app.workload()
        packets = workload.round_packets(0)
        expected = expected_sum(workload, 0)
        # the last packet of the round carries the aggregate back; inspect the
        # aggregator state on the device that absorbed the first packets
        controller.run_traffic(packets[:-1])
        stored = None
        for device_name in controller.deployed["agg_ref"].devices():
            runtime = controller.emulator.runtime(device_name)
            for state_name, registers in runtime.state.registers.items():
                if "agg_data" in state_name and registers:
                    rows = {}
                    for (row, index), value in registers.items():
                        rows[row] = value
                    stored = [rows[r] for r in sorted(rows)]
        partial_expected = [
            sum(vals) for vals in zip(*(p.fields["data"] for p in packets[:-1]))
        ]
        assert stored is not None
        assert stored == partial_expected
        assert len(expected) == app.vector_dim


class TestDQAccEndToEnd:
    def test_duplicates_filtered(self, controller):
        app = DQAccApplication(name="dq_e2e", cache_depth=1024, cache_len=4)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="dq_e2e")
        app.name = "dq_e2e"
        packets = app.workload(duplicate_ratio=0.7).packets(300)
        distinct = len({p.fields["value"] for p in packets})
        metrics = controller.run_traffic(packets)
        # every distinct value must reach the server at least once, and a good
        # fraction of duplicates must be dropped in the network
        assert metrics.packets_delivered >= distinct
        filtered = duplicates_filtered(
            metrics.packets_sent, metrics.packets_delivered, distinct
        )
        assert filtered > 0.5


class TestControllerLifecycle:
    def test_deploy_remove_cycle(self, controller):
        app = KVSApplication(name="kvs_rm", cache_depth=500)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="kvs_rm")
        assert controller.deployed_programs() == ["kvs_rm"]
        assert controller.network_utilisation() > 0
        controller.remove("kvs_rm")
        assert controller.deployed_programs() == []
        assert controller.network_utilisation() == pytest.approx(0.0)

    def test_duplicate_deploy_rejected(self, controller):
        app = DQAccApplication(name="dq_dup", cache_depth=128)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name="dq_dup")
        with pytest.raises(DeploymentError):
            controller.deploy_profile(app.profile(), app.source_groups,
                                      app.destination_group, name="dq_dup")

    def test_remove_unknown_rejected(self, controller):
        with pytest.raises(DeploymentError):
            controller.remove("ghost")

    def test_multi_tenant_isolation_of_state(self, controller):
        """Two KVS tenants must not share cache state."""
        app_a = KVSApplication(name="kvs_A", cache_depth=256, num_keys=500,
                               source_groups=["pod0(a)"])
        app_b = KVSApplication(name="kvs_B", cache_depth=256, num_keys=500,
                               source_groups=["pod1(a)"])
        controller.deploy_profile(app_a.profile(), app_a.source_groups,
                                  app_a.destination_group, name="kvs_A")
        controller.deploy_profile(app_b.profile(), app_b.source_groups,
                                  app_b.destination_group, name="kvs_B")
        app_a.name, app_b.name = "kvs_A", "kvs_B"
        app_a.populate_cache(controller.emulator, fraction=0.5)
        # tenant B's traffic must not hit tenant A's cache entries
        packets_b = [p for p in app_b.workload("pod1(a)").packets(100)
                     if p.fields["op"] == 1]
        metrics_b = controller.run_traffic(packets_b)
        assert metrics_b.packets_reflected == 0

    def test_placement_summary_and_generated_code(self, paper_topology):
        controller = ClickINC(paper_topology, generate_code=True)
        app = DQAccApplication(name="dq_code", cache_depth=128)
        deployed = controller.deploy_profile(app.profile(), app.source_groups,
                                             app.destination_group, name="dq_code")
        summary = controller.placement_summary("dq_code")
        assert summary["complete"] is True
        device = deployed.devices()[0]
        code = controller.generated_code("dq_code", device)
        assert len(code.splitlines()) > 10
        with pytest.raises(DeploymentError):
            controller.generated_code("dq_code", "not_a_device")

    def test_deploy_source_program(self, controller):
        source = (
            "ctr = Array(row=1, size=64, w=32)\n"
            'f = Hash(type="crc_16", key=hdr.key)\n'
            "idx = get(f, hdr.key)\n"
            "n = count(ctr, idx, 1)\n"
            "forward(hdr)\n"
        )
        deployed = controller.deploy_source(
            source, source_groups=["pod0(a)"], destination_group="pod2(a)",
            name="custom_counter", header_fields={"key": 32},
        )
        assert deployed.plan.is_complete()
