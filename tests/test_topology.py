"""Unit tests for topologies, equivalence classes and the reduced tree."""

import itertools

import pytest
from invariants import allocation_fingerprint

from repro.devices import TofinoDevice, XilinxFPGADevice
from repro.exceptions import TopologyError
from repro.topology import (
    NetworkTopology,
    HostGroup,
    build_fattree,
    build_paper_emulation_topology,
    build_reduced_tree,
    build_spineleaf,
    compute_equivalence_classes,
)
from repro.topology.fattree import build_chain


def layer_devices(topo, layer):
    """Names of the devices *topo* places in *layer*."""
    return [name for name, at in topo.layers.items() if at == layer]


class TestNetworkTopology:
    def test_duplicate_device_rejected(self):
        topo = NetworkTopology()
        topo.add_device(TofinoDevice("a"), layer="tor")
        with pytest.raises(TopologyError):
            topo.add_device(TofinoDevice("a"), layer="tor")

    def test_link_requires_known_devices(self):
        topo = NetworkTopology()
        topo.add_device(TofinoDevice("a"), layer="tor")
        with pytest.raises(TopologyError):
            topo.add_link("a", "ghost")

    def test_host_group_requires_known_tor(self):
        topo = NetworkTopology()
        with pytest.raises(TopologyError):
            topo.add_host_group(HostGroup(name="g", tor="ghost"))

    def test_bypass_attachment(self):
        topo = NetworkTopology()
        topo.add_device(TofinoDevice("sw"), layer="agg", pod=0)
        topo.attach_bypass("sw", XilinxFPGADevice("acc"))
        assert topo.bypass["sw"] == "acc"
        assert topo.layers["acc"] == "accel"

    def test_path_bandwidth_is_bottleneck(self):
        topo = build_chain(3)
        paths = topo.paths_between_groups("client", "server")
        path = paths[0]
        assert min(topo.link(a, b).capacity_gbps
                   for a, b in zip(path, path[1:])) == 100.0

    def test_unknown_queries_raise(self):
        topo = build_chain(2)
        with pytest.raises(TopologyError):
            topo.device("nope")
        with pytest.raises(TopologyError):
            topo.host_group("nope")
        with pytest.raises(TopologyError):
            topo.link("SW0", "SW0")

    def test_reset_resources(self):
        topo = build_chain(2)
        topo.device("SW0").commit([(0, {"alu": 5.0})])
        for device in topo.devices.values():
            device.reset()
        assert topo.total_utilisation() == pytest.approx(0.0)

    def test_allocation_epoch_advances_on_any_change(self):
        topo = build_chain(2)
        before = topo.device("SW0").state
        topo.device("SW0").commit([(0, {"alu": 5.0})])
        assert topo.device("SW0").state is not before
        topo.device("SW0").release([(0, {"alu": 5.0})])
        assert topo.device("SW0").state is before  # a value: content, not history

    def test_allocation_fingerprint_memo_tracks_mutations(self):
        topo = build_chain(2)
        baseline = allocation_fingerprint(topo)
        assert allocation_fingerprint(topo) == baseline  # memoised
        topo.device("SW0").commit([(0, {"alu": 5.0})])
        changed = allocation_fingerprint(topo)
        assert changed != baseline
        topo.device("SW0").release([(0, {"alu": 5.0})])
        assert allocation_fingerprint(topo) == baseline  # content-addressed


class TestSubview:
    def test_subview_shares_devices_and_links(self):
        topo = build_fattree(k=4)
        view = topo.subview("pod0", ["ToR0_0", "ToR0_1", "Agg0_0", "Agg0_1"])
        assert view.devices["ToR0_0"] is topo.devices["ToR0_0"]
        assert view.link("ToR0_0", "Agg0_0") is topo.link("ToR0_0", "Agg0_0")
        assert sorted(view.host_groups) == ["pod0(a)", "pod0(b)"]
        # intra-view paths work without the rest of the fabric
        paths = view.paths_between_groups("pod0(a)", "pod0(b)")
        assert paths == topo.paths_between_groups("pod0(a)", "pod0(b)")

    def test_subview_epoch_scoped_to_view_devices(self):
        topo = build_fattree(k=4)
        view = topo.subview("pod0", ["ToR0_0", "ToR0_1", "Agg0_0", "Agg0_1"])
        states = {name: device.state for name, device in view.devices.items()}

        def changed():
            return [name for name, device in view.devices.items()
                    if device.state is not states[name]]

        topo.device("ToR1_0").commit([(0, {"alu": 1.0})])  # outside the view
        assert changed() == []
        topo.device("Agg0_0").commit([(0, {"alu": 1.0})])  # inside the view
        assert changed() == ["Agg0_0"]

    def test_remove_link_propagates_across_view_family(self):
        topo = build_fattree(k=4)
        view = topo.subview("pod0", ["ToR0_0", "ToR0_1", "Agg0_0", "Agg0_1"])
        sibling = topo.subview("pod0b", ["ToR0_0", "Agg0_0"])
        # removal on the parent disappears from every registered view
        topo.remove_link("ToR0_0", "Agg0_0")
        assert not view.graph.has_edge("ToR0_0", "Agg0_0")
        assert not sibling.graph.has_edge("ToR0_0", "Agg0_0")
        # and removal on a view propagates back to the parent + siblings
        view.remove_link("ToR0_0", "Agg0_1")
        assert not topo.graph.has_edge("ToR0_0", "Agg0_1")

    def test_subview_rejects_unknown_devices_and_foreign_groups(self):
        topo = build_fattree(k=4)
        with pytest.raises(TopologyError):
            topo.subview("bad", ["ToR0_0", "ghost"])
        with pytest.raises(TopologyError):
            topo.subview("bad", ["ToR0_0"], host_groups=["pod1(a)"])


class TestBuilders:
    def test_fattree_counts(self):
        topo = build_fattree(k=4)
        # k=4: 4 cores, 8 agg, 8 tor
        assert len(layer_devices(topo, "core")) == 4
        assert len(layer_devices(topo, "agg")) == 8
        assert len(layer_devices(topo, "tor")) == 8
        assert len(topo.host_groups) == 8

    def test_fattree_rejects_odd_k(self):
        with pytest.raises(TopologyError):
            build_fattree(k=3)

    def test_fattree_multipath(self):
        topo = build_fattree(k=4)
        paths = topo.paths_between_groups("pod0(a)", "pod2(a)")
        assert len(paths) >= 2
        assert all(path[0] == "ToR0_0" for path in paths)

    def test_spineleaf_structure(self):
        topo = build_spineleaf(num_spines=3, num_leaves=4)
        assert len(layer_devices(topo, "core")) == 3
        assert len(layer_devices(topo, "tor")) == 4
        paths = topo.paths_between_groups("rack0", "rack3")
        assert len(paths) == 3
        assert all(len(path) == 3 for path in paths)

    def test_spineleaf_validation(self):
        with pytest.raises(TopologyError):
            build_spineleaf(num_spines=0)

    def test_chain(self):
        topo = build_chain(5)
        paths = topo.paths_between_groups("client", "server")
        assert paths == [["SW0", "SW1", "SW2", "SW3", "SW4"]]

    def test_chain_needs_one_device(self):
        with pytest.raises(TopologyError):
            build_chain(0)

    def test_paper_topology_shape(self):
        topo = build_paper_emulation_topology()
        assert len(layer_devices(topo, "core")) == 4
        assert len(layer_devices(topo, "agg")) == 6
        assert len(layer_devices(topo, "tor")) == 6
        assert len(layer_devices(topo, "nic")) == 3
        assert len(layer_devices(topo, "accel")) == 2
        assert set(topo.host_groups) == {
            "pod0(a)", "pod0(b)", "pod1(a)", "pod1(b)", "pod2(a)", "pod2(b)"
        }

    def test_paper_topology_heterogeneity(self):
        topo = build_paper_emulation_topology()
        assert topo.device("ToR0").dev_type == "tofino"
        assert topo.device("Agg0").dev_type == "td4"
        assert topo.device("Agg4").dev_type == "tofino"
        assert topo.device("Core0").dev_type == "tofino2"
        assert topo.device("NIC_pod0b").dev_type == "nfp"
        assert topo.device("BypassFPGA0").dev_type == "fpga"


class TestEquivalenceClasses:
    def test_parallel_devices_merge(self):
        topo = build_paper_emulation_topology()
        classes = {frozenset(c.members) for c in compute_equivalence_classes(topo)}
        assert frozenset({"Core0", "Core1", "Core2", "Core3"}) in classes
        assert frozenset({"Agg0", "Agg1"}) in classes
        assert frozenset({"Agg4", "Agg5"}) in classes

    def test_serial_devices_do_not_merge(self):
        topo = build_chain(4)
        classes = compute_equivalence_classes(topo)
        assert all(len(c.members) == 1 for c in classes)

    def test_spineleaf_spines_merge(self):
        topo = build_spineleaf(num_spines=4, num_leaves=4)
        classes = compute_equivalence_classes(topo)
        spine_classes = [c for c in classes if c.layer == "core"]
        assert len(spine_classes) == 1 and spine_classes[0].size == 4

    def test_representative(self):
        topo = build_paper_emulation_topology()
        classes = compute_equivalence_classes(topo)
        core = next(c for c in classes if c.layer == "core")
        assert {topo.device(name).dev_type for name in core.members} == {"tofino2"}


class TestReducedTree:
    def test_tree_sides_and_leaves(self):
        topo = build_paper_emulation_topology()
        tree = build_reduced_tree(topo, ["pod0(a)", "pod1(a)"], "pod2(b)")
        assert tree.root.ec.layer == "core"
        assert len(tree.client_leaves) == 2
        assert len(tree.server_leaves) == 1
        sides = {node.side for node in tree.all_nodes()}
        assert sides == {"root", "client", "server"}

    def test_traffic_shares_sum_on_client_side(self):
        topo = build_paper_emulation_topology()
        tree = build_reduced_tree(
            topo, ["pod0(a)", "pod1(a)"], "pod2(b)",
            traffic_rates={"pod0(a)": 30.0, "pod1(a)": 10.0},
        )
        client_leaf_shares = sorted(
            round(n.traffic_share, 2)
            for n in tree.all_nodes()
            if n.name in tree.client_leaves
        )
        assert client_leaf_shares == [0.25, 0.75]

    def test_server_side_carries_all_traffic(self):
        topo = build_paper_emulation_topology()
        tree = build_reduced_tree(topo, ["pod0(a)", "pod1(a)"], "pod2(b)")
        for node in (n for n in tree.all_nodes() if n.side == "server"):
            assert node.traffic_share == pytest.approx(1.0)

    def test_bypass_attached_to_reduced_node(self):
        topo = build_paper_emulation_topology()
        tree = build_reduced_tree(topo, ["pod0(a)"], "pod2(b)")
        agg_server = [n for n in tree.all_nodes() if n.ec.members == ["Agg4", "Agg5"]]
        assert agg_server and set(agg_server[0].bypass) == {"BypassFPGA0", "BypassFPGA1"}

    def test_chain_reduces_to_path(self):
        topo = build_chain(4)
        tree = build_reduced_tree(topo, ["client"], "server")
        assert len({m for node in tree.all_nodes() for m in node.ec.members}) == 4

    def test_requires_sources(self):
        topo = build_chain(2)
        with pytest.raises(TopologyError):
            build_reduced_tree(topo, [], "server")

    @pytest.mark.parametrize("build, cyclic", [
        (build_paper_emulation_topology, 90),
        (lambda: build_fattree(k=4), 504),
    ], ids=["paper", "fattree4"])
    def test_every_shape_is_a_tree_or_a_typed_error(self, build, cyclic):
        """Every non-empty source subset x destination outside it either
        reduces to an acyclic tree or raises ``TopologyError`` — and it
        raises exactly when the sources include a group in the
        destination's pod and a group in another pod."""
        topo = build()
        groups = sorted(topo.host_groups)

        def pod(group):
            return topo.pods[topo.host_group(group).tor]

        raised = 0
        for destination in groups:
            others = [g for g in groups if g != destination]
            for size in range(1, len(others) + 1):
                for sources in itertools.combinations(others, size):
                    pods = {pod(g) for g in sources}
                    mixed = pod(destination) in pods and len(pods) > 1
                    try:
                        tree = build_reduced_tree(topo, sources, destination)
                    except TopologyError:
                        assert mixed, (sources, destination)
                        raised += 1
                        continue
                    assert not mixed, (sources, destination)
                    # terminates only on an acyclic graph
                    assert tree.root in tree.all_nodes()
        assert raised == cyclic

    def test_cyclic_shape_is_a_placement_failure(self):
        """The mixed shape fails fast and typed through every deploy entry
        point instead of recursing in the placer."""
        from repro.core import ClickINC, DeployRequest
        from repro.lang.profile import default_profile
        from repro.sharding import ShardCoordinator

        def request():
            return DeployRequest(
                source_groups=["pod0(a)", "pod1(a)"],
                destination_group="pod1(b)", name="kvs_mixed",
                profile=default_profile("KVS", user="mixed"))

        with ClickINC(build_paper_emulation_topology()) as inc:
            (report,) = inc.deploy_many([request()])
        with ShardCoordinator(build_paper_emulation_topology()) as coord:
            cross = coord.deploy(request())     # pod0 + pod1: the 2PC path
        for failed in (report, cross):
            assert not failed.succeeded
            assert failed.failed_stage == "placement"
            assert isinstance(failed.exception, TopologyError)


class TestOperationalStatus:
    def test_device_status_bumps_epoch_and_fingerprint(self):
        topo = build_fattree(k=4)
        state = topo.device("Agg0_0").state
        fingerprint = allocation_fingerprint(topo)
        device_fp = topo.device("Agg0_0").state.digest
        assert topo.set_device_status("Agg0_0", "down") is True
        assert topo.device("Agg0_0").state is not state
        assert allocation_fingerprint(topo) != fingerprint
        assert topo.device("Agg0_0").state.digest != device_fp
        # idempotent: setting the same status again changes nothing
        state = topo.device("Agg0_0").state
        assert topo.set_device_status("Agg0_0", "down") is False
        assert topo.device("Agg0_0").state is state

    def test_unknown_status_rejected(self):
        topo = build_fattree(k=4)
        with pytest.raises(ValueError):
            topo.set_device_status("Agg0_0", "sideways")
        with pytest.raises(TopologyError):
            topo.set_link_status("Agg0_0", "Core0_0", "sideways")

    def test_down_device_excluded_from_paths(self):
        topo = build_fattree(k=4)
        assert any("Agg0_0" in p
                   for p in topo.paths_between_groups("pod0(a)", "pod0(b)"))
        topo.set_device_status("Agg0_0", "down")
        paths = topo.paths_between_groups("pod0(a)", "pod0(b)")
        assert paths and all("Agg0_0" not in p for p in paths)

    def test_down_tor_makes_group_unreachable(self):
        topo = build_fattree(k=4)
        topo.set_device_status("ToR0_0", "down")
        with pytest.raises(TopologyError):
            topo.paths_between_groups("pod0(a)", "pod0(b)")

    def test_link_status_bumps_both_endpoints(self):
        topo = build_fattree(k=4)
        state_a = topo.device("ToR0_0").state
        state_b = topo.device("Agg0_0").state
        fp_a = topo.device("ToR0_0").state.digest
        fp_b = topo.device("Agg0_0").state.digest
        assert topo.set_link_status("ToR0_0", "Agg0_0", "down") is True
        assert topo.device("ToR0_0").state is not state_a
        assert topo.device("Agg0_0").state is not state_b
        assert topo.device("ToR0_0").state.digest != fp_a
        assert topo.device("Agg0_0").state.digest != fp_b
        paths = topo.paths_between_groups("pod0(a)", "pod0(b)")
        assert all(["ToR0_0", "Agg0_0"] != p[:2] for p in paths)
        assert topo.set_link_status("ToR0_0", "Agg0_0", "down") is False

    def test_remove_link_bumps_epoch_and_reroutes(self):
        topo = build_fattree(k=4)
        ends = ("ToR0_0", "Agg0_0")
        states = [topo.device(name).state for name in ends]
        topo.remove_link(*ends)
        assert all(topo.device(name).state is not state
                   for name, state in zip(ends, states))
        with pytest.raises(TopologyError):
            topo.link("ToR0_0", "Agg0_0")
        paths = topo.paths_between_groups("pod0(a)", "pod0(b)")
        assert paths and all("Agg0_0" not in p for p in paths)

    def test_repr_reflects_down_devices(self):
        topo = build_fattree(k=4)
        assert "down=" not in repr(topo)
        topo.set_device_status("Agg0_0", "down")
        assert "down=['Agg0_0']" in repr(topo)
        topo.set_device_status("Agg0_1", "drain")
        assert "draining=['Agg0_1']" in repr(topo)
        assert topo.down_devices() == ["Agg0_0"]   # drain is not a failure
        assert topo.unavailable_devices() == {"Agg0_0": "down",
                                              "Agg0_1": "drain"}

    def test_equivalence_classes_skip_unavailable_devices(self):
        topo = build_fattree(k=4)
        topo.set_device_status("Agg0_0", "drain")
        classes = compute_equivalence_classes(topo)
        members = {m for cls in classes for m in cls.members}
        assert "Agg0_0" not in members


class TestForwardingCache:
    """The forwarding graph and the path memo move with routing only."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the topologies whose forwarding graph was (re)built."""
        built = []
        build = NetworkTopology._build_forwarding_graph

        def counting(topology):
            built.append(topology.name)
            return build(topology)

        monkeypatch.setattr(NetworkTopology, "_build_forwarding_graph",
                            counting)
        return built

    @staticmethod
    def fabric():
        topo = build_fattree(k=4)
        view = topo.subview("pod0", [
            name for name in topo.devices
            if topo.pods[name] in (0, -1)])
        return topo, view

    @staticmethod
    def route(*topologies):
        for topology in topologies:
            topology.paths_between_groups("pod0(a)", "pod0(b)")

    def test_commit_release_cycles_rebuild_nothing(self, built):
        from repro.core import ClickINC
        from repro.lang.profile import default_profile

        topo, view = self.fabric()
        inc = ClickINC(topo)
        self.route(topo, view)
        assert built == [topo.name, "pod0"]
        epochs = topo.forwarding_epoch(), view.forwarding_epoch()
        for cycle in range(20):
            allocation = allocation_fingerprint(topo)
            inc.deploy_profile(default_profile("KVS", user=f"c{cycle}"),
                               ["pod0(a)"], "pod0(b)", name=f"kvs_c{cycle}")
            assert allocation_fingerprint(topo) != allocation
            self.route(topo, view)
            inc.remove(f"kvs_c{cycle}")
            self.route(topo, view)
        assert built == [topo.name, "pod0"]
        assert (topo.forwarding_epoch(), view.forwarding_epoch()) == epochs

    def test_each_routing_event_invalidates_once_on_root_and_view(self, built):
        topo, view = self.fabric()
        self.route(topo, view)
        events = [
            lambda: topo.set_device_status("Agg0_0", "down"),      # fail
            lambda: view.set_device_status("Agg0_0", "up"),        # restore
            lambda: topo.set_device_status("Agg0_1", "drain"),     # drain
            lambda: view.set_device_status("Agg0_1", "up"),
            lambda: topo.set_link_status("ToR0_0", "Agg0_0", "down"),
            lambda: view.set_link_status("ToR0_0", "Agg0_0", "up"),
            lambda: view.remove_link("ToR0_0", "Agg0_1"),
        ]
        for event in events:
            del built[:]
            event()
            self.route(topo, view)
            self.route(topo, view)                # the rebuilt graph is kept
            assert sorted(built) == sorted([topo.name, "pod0"])

    def test_adding_a_device_or_link_invalidates(self, built):
        from repro.devices.registry import make_device

        topo, _ = self.fabric()
        for add in (lambda: topo.add_device(make_device("tofino", "Extra"),
                                            layer="agg", pod=0),
                    lambda: topo.add_link("ToR0_0", "Extra")):
            self.route(topo)
            del built[:]
            epoch = topo.forwarding_epoch()
            add()
            assert topo.forwarding_epoch() != epoch
            self.route(topo)
            assert built == [topo.name]

    def test_no_op_flips_invalidate_nothing(self, built):
        topo, view = self.fabric()
        self.route(topo, view)
        del built[:]
        assert not topo.set_device_status("Agg0_0", "up")
        assert not topo.set_link_status("ToR0_0", "Agg0_0", "up")
        self.route(topo, view)
        assert built == []

    def test_paths_follow_the_rebuilt_graph(self):
        topo, view = self.fabric()
        before = view.paths_between_groups("pod0(a)", "pod0(b)")
        assert any("Agg0_0" in path for path in before)
        topo.set_device_status("Agg0_0", "down")
        for topology in (topo, view):
            paths = topology.paths_between_groups("pod0(a)", "pod0(b)")
            assert paths and not any("Agg0_0" in path for path in paths)
        # the outer list is the caller's: emptying it leaves the memo alone
        paths.clear()
        assert view.paths_between_groups("pod0(a)", "pod0(b)") != []
        view.set_device_status("Agg0_0", "up")
        assert topo.paths_between_groups("pod0(a)", "pod0(b)") == before
