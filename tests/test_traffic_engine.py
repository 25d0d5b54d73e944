"""Tests for the sustained traffic engine and overload detection.

The :class:`TrafficEngine` drives timed batch rounds through the emulator;
its per-round ``RunMetrics`` flow through the emulator's observers, so an
attached :class:`HealthMonitor` must raise ``DEVICE_OVERLOAD`` from
sustained load, stop flagging a device once its programs are drained away,
and stay silent below the minimum-packets floor.
"""

from __future__ import annotations

import pytest

from repro.apps import MLAggApplication
from repro.core import ClickINC
from repro.emulator.engine import TrafficEngine
from repro.emulator.traffic import KVSWorkload
from repro.lang.profile import default_profile
from repro.runtime import HealthMonitor
from repro.runtime import events as ev
from repro.topology import build_fattree, build_paper_emulation_topology


def deploy_kvs(controller, pod: int, name: str):
    profile = default_profile("KVS", user=name)
    profile.performance["depth"] = 1000
    return controller.deploy_profile(
        profile, [f"pod{pod}(a)"], f"pod{pod}(b)", name=name
    )


def kvs_source(name: str, pod: int = 0, num_keys: int = 200):
    return KVSWorkload(f"pod{pod}(a)", f"pod{pod}(b)",
                       num_keys=num_keys, owner=name)


@pytest.fixture()
def controller():
    return ClickINC(build_fattree(k=4), generate_code=False)


class TestTrafficEngineRounds:
    def test_rounds_accumulate_counters_and_rates(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=100)
        reports = engine.run(rounds=3)
        assert len(reports) == 3
        assert engine.stats.rounds == 3
        assert engine.stats.packets == 300
        assert engine.stats.instructions > 0
        assert all(r.packets == 100 for r in reports)
        assert all(r.pps > 0 and r.instructions > 0 for r in reports)
        assert reports[0].per_program_packets == {"kvs0": 100}
        rates = engine.rates()
        assert rates["pps"] > 0 and rates["ips"] > 0
        assert rates["programs"]["kvs0"]["pps"] > 0
        assert rates["devices"]          # per-device breakdown present
        assert all(entry["pps"] > 0 for entry in rates["devices"].values())

    def test_round_robin_interleaves_tenants(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        deploy_kvs(controller, 1, "kvs1")
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0", pod=0),
                          units_per_round=40)
        engine.add_source("kvs1", kvs_source("kvs1", pod=1),
                          units_per_round=40)
        report = engine.run_round()
        assert report.packets == 80
        assert report.per_program_packets == {"kvs0": 40, "kvs1": 40}
        rates = engine.rates()
        assert set(rates["programs"]) == {"kvs0", "kvs1"}

    def test_stop_when_predicate_ends_run_early(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=20)
        reports = engine.run(rounds=10, stop_when=lambda r: r.index >= 1)
        assert len(reports) == 2

    def test_scalar_mode_counts_match_batch_mode(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        batch = TrafficEngine(controller.emulator, use_batch=True)
        batch.add_source("kvs0", kvs_source("kvs0"), units_per_round=50)
        scalar = TrafficEngine(controller.emulator, use_batch=False)
        scalar.add_source("kvs0", kvs_source("kvs0"), units_per_round=50)
        rb = batch.run_round()
        rs = scalar.run_round()
        assert rb.packets == rs.packets == 50
        assert rb.metrics.packets_sent == rs.metrics.packets_sent


class TestResidentRegisterState:
    def test_steady_rounds_convert_no_register_cells(self):
        """The deterministic form of "no per-batch dict<->array conversion":
        after the first round promoted the files it touches, kernel-only
        rounds move no cell between backings however much state is live."""
        controller = ClickINC(build_paper_emulation_topology(),
                              generate_code=False)
        app = MLAggApplication(name="mlagg_resident")
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name=app.name)
        engine = TrafficEngine(controller.emulator)
        engine.add_source(app.name, app.workload(), units_per_round=16)
        stats = controller.emulator.dataplane_stats
        engine.run_round()
        assert stats.state_promotions > 0
        converted = stats.state_cells_converted
        engine.run(rounds=19)
        assert stats.packets_fallback == 0 and stats.kernel_bails == 0
        live = sum(len(registers)
                   for rt in controller.emulator.runtimes.values()
                   for registers in rt.state.registers.values())
        assert live > 1000
        # (a file first reached in a later round is promoted from empty)
        assert stats.state_cells_converted == converted


class TestSustainedOverload:
    def test_overload_flag_raised_each_round_under_sustained_load(
            self, controller):
        deploy_kvs(controller, 0, "kvs0")
        monitor = HealthMonitor(controller.topology,
                                overload_packet_share=0.3,
                                overload_min_packets=50)
        monitor.attach(controller.emulator)
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=100)
        engine.run(rounds=3)
        # every round pushes the whole stream through the program's devices,
        # so the hot devices are re-flagged each round
        assert monitor.event_counts().get(ev.DEVICE_OVERLOAD, 0) >= 3

    def test_stop_when_wires_overload_back_into_the_engine(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        monitor = HealthMonitor(controller.topology,
                                overload_packet_share=0.3,
                                overload_min_packets=50)
        monitor.attach(controller.emulator)
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=100)
        reports = engine.run(
            rounds=10,
            stop_when=lambda r: monitor.event_counts().get(
                ev.DEVICE_OVERLOAD, 0) > 0)
        assert len(reports) == 1          # first loaded round already trips

    def test_overload_clears_after_drain_migration(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        monitor = HealthMonitor(controller.topology,
                                overload_packet_share=0.3,
                                overload_min_packets=50)
        monitor.attach(controller.emulator)
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=100)
        engine.run(rounds=1)
        flagged = [e.device for e in monitor.events
                   if e.kind == ev.DEVICE_OVERLOAD]
        assert flagged
        manager = controller.runtime()
        # drain the first flagged device whose programs can migrate away
        # (edge ToRs next to the source hosts are unavoidable and roll back)
        victim = None
        for candidate in flagged:
            if not manager.owners_on_device(candidate):
                continue
            if manager.drain_device(candidate).succeeded:
                victim = candidate
                break
            manager.restore_device(candidate)   # rolled back: undo the drain
        assert victim is not None
        before = len(monitor.events)
        engine.run(rounds=2)
        after_drain = [e.device for e in list(monitor.events)[before:]
                       if e.kind == ev.DEVICE_OVERLOAD]
        # load still flags the remaining hot devices, but never the
        # drained one: its programs migrated away, so it processes nothing
        assert after_drain
        assert victim not in after_drain

    def test_min_packets_floor_suppresses_small_rounds(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        monitor = HealthMonitor(controller.topology,
                                overload_packet_share=0.0,
                                overload_min_packets=10_000)
        monitor.attach(controller.emulator)
        engine = TrafficEngine(controller.emulator)
        engine.add_source("kvs0", kvs_source("kvs0"), units_per_round=30)
        engine.run(rounds=2)
        assert monitor.event_counts().get(ev.DEVICE_OVERLOAD, 0) == 0
