"""Failure-injection benchmark for the runtime operations subsystem.

Deploys a fleet of disjoint tenants on a fat-tree, kills one aggregation
switch, and measures the runtime layer's recovery:

* **recovery latency** — wall-clock of ``fail_device`` (failure detection +
  live migration of every program the dead switch hosted);
* **migration precision** — exactly the programs whose committed plans
  occupied the victim are migrated, every other tenant keeps its plan
  (devices + fingerprints) byte-for-byte;
* **post-recovery traffic** — every migrated tenant's workload completes
  end-to-end on the surviving topology, never touching the dead switch;
* **rollback** — on a chain topology whose only path dies, the migration
  rolls back atomically to the pre-failure committed state.

Shape to preserve: precise affected sets, identical untouched plans, 100%
post-recovery completion, sub-second recovery for a handful of tenants.
"""

from __future__ import annotations

import time
from typing import Dict

from benchmarks.conftest import print_table, tenant_request
from repro.core import ClickINC
from repro.emulator.traffic import KVSWorkload
from repro.lang.profile import default_profile
from repro.topology import build_fattree
from repro.topology.fattree import build_chain

#: Pods in the benchmark fat-tree (k=8 -> pods 0..7).
POD_COUNT = 8

#: Tenants deployed before the failure (one per pod).
TENANTS = 6

#: The victim switch: an aggregation switch of pod 0.
VICTIM = "Agg0_0"

#: Packets per migrated tenant for the post-recovery traffic check.
PACKETS = 40


def _plan_signature(controller: ClickINC, name: str):
    deployed = controller.deployed[name]
    return (
        tuple(deployed.devices()),
        tuple(sorted((name, state.digest)
                     for name, state in deployed.plan.device_states.items())),
    )


def run_failure_recovery() -> Dict[str, object]:
    """Kill ``VICTIM`` under ``TENANTS`` tenants and measure the recovery."""
    controller = ClickINC(build_fattree(k=POD_COUNT), generate_code=False)
    reports = controller.deploy_many(
        [tenant_request(pod, f"t{pod}") for pod in range(TENANTS)]
    )
    assert all(r.succeeded for r in reports), "fleet deployment failed"
    manager = controller.runtime()

    expected = manager.owners_on_device(VICTIM)
    untouched_before = {
        name: _plan_signature(controller, name)
        for name in controller.deployed_programs()
        if name not in expected
    }

    start = time.perf_counter()
    report = manager.fail_device(VICTIM)
    recovery_s = time.perf_counter() - start

    untouched_after = {
        name: _plan_signature(controller, name)
        for name in controller.deployed_programs()
        if name not in expected
    }

    # post-recovery traffic: every migrated tenant completes its workload
    # on the surviving topology
    completed = 0
    victim_hits = 0
    for name in report.migrated:
        deployed = controller.deployed[name]
        workload = KVSWorkload(deployed.source_groups[0],
                               deployed.destination_group, num_keys=100)
        packets = workload.packets(PACKETS)
        for packet in packets:
            packet.owner = name
        metrics = controller.run_traffic(packets)
        finished = (metrics.packets_delivered + metrics.packets_reflected
                    + metrics.packets_dropped_innetwork)
        if finished == PACKETS:
            completed += 1
        victim_hits += metrics.per_device_packets.get(VICTIM, 0)

    controller.close()
    return {
        "tenants": TENANTS,
        "victim": VICTIM,
        "expected_affected": len(expected),
        "migrated": len(report.migrated),
        "exact_affected_set": sorted(report.migrated) == sorted(expected),
        "untouched_identical": untouched_before == untouched_after,
        "recovery_s": recovery_s,
        "traffic_complete": completed == len(report.migrated),
        "victim_hits_after": victim_hits,
        "rolled_back": report.rolled_back,
    }


def run_rollback() -> Dict[str, object]:
    """Kill the only path of a chain: the migration must roll back whole."""
    controller = ClickINC(build_chain(3), generate_code=False)
    profile = default_profile("KVS", user="solo")
    profile.performance["depth"] = 1000
    controller.deploy_profile(profile, ["client"], "server", name="kvs_solo")
    before = _plan_signature(controller, "kvs_solo")
    manager = controller.runtime()

    start = time.perf_counter()
    report = manager.fail_device("SW1")
    rollback_s = time.perf_counter() - start

    restored = (
        _plan_signature(controller, "kvs_solo") == before
        and "kvs_solo" in controller.synthesizer.plans
        and "kvs_solo" in controller.emulator.deployments
    )
    controller.close()
    return {
        "rolled_back": report.rolled_back,
        "restored_committed_state": restored,
        "rollback_s": rollback_s,
    }


def run_all() -> Dict[str, object]:
    return {
        "recovery": run_failure_recovery(),
        "rollback": run_rollback(),
    }


def test_runtime_migration(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    recovery = results["recovery"]
    print_table(
        "RuntimeManager — device failure under a deployed fleet",
        [
            "tenants",
            "victim",
            "affected",
            "migrated",
            "exact set",
            "untouched identical",
            "recovery s",
            "traffic ok",
        ],
        [
            (
                recovery["tenants"],
                recovery["victim"],
                recovery["expected_affected"],
                recovery["migrated"],
                recovery["exact_affected_set"],
                recovery["untouched_identical"],
                f"{recovery['recovery_s']:.3f}",
                recovery["traffic_complete"],
            )
        ],
    )
    rollback = results["rollback"]
    print_table(
        "RuntimeManager — un-placeable migration rolls back",
        ["rolled back", "committed state restored", "rollback s"],
        [
            (
                rollback["rolled_back"],
                rollback["restored_committed_state"],
                f"{rollback['rollback_s']:.3f}",
            )
        ],
    )

    # acceptance assertions (also enforced by regression_gate.py in CI)
    assert recovery["expected_affected"] >= 1
    assert recovery["exact_affected_set"]
    assert recovery["untouched_identical"]
    assert recovery["traffic_complete"]
    assert recovery["victim_hits_after"] == 0
    assert not recovery["rolled_back"]
    assert rollback["rolled_back"]
    assert rollback["restored_committed_state"]


if __name__ == "__main__":
    import json

    print(json.dumps(run_all(), indent=2))
