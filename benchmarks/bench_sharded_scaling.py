"""Sharded-controller scaling benchmark (controller sharding PR).

Two measurements on the 4-pod fat-tree:

1. **N shards vs 1 shard** — the same batch of intra-pod tenants (spread
   over all four pods) deployed through (a) the degenerate whole-fabric
   single shard — one controller over the fabric itself, which is also the
   coordinator's ``inter`` — and (b) one controller shard per pod (plus a
   separate ``inter``), whose lanes are
   threads under one GIL.  Sharding buys partitioned state, per-region
   commit locks and the 2PC, not throughput: the measurement bounds what it
   *costs* (``MIN_RATIO``), and placements must stay identical to the
   single-shard (= serial) result.

2. **Cross-shard commit latency** — one cross-pod tenant deployed through
   the two-phase commit (speculative place → per-shard prepare → commit
   wave) on the sharded coordinator, after the intra-pod batch: the
   latency is the protocol overhead on a warm fabric, and the prepare must
   commit without an abort when nothing races.

Shape to preserve: multi-shard throughput at least ``MIN_RATIO`` of
single-shard on any machine; placements identical across both
configurations; cross-shard commits succeed with zero aborted prepares.
"""

from __future__ import annotations

import time
from typing import Dict, List

from benchmarks.conftest import print_table, tenant_request
from repro.core.pipeline import DeployRequest
from repro.lang.profile import default_profile
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree, whole_fabric_partition

#: Pods in the benchmark fat-tree (k=4 -> pods 0..3, one shard each).
POD_COUNT = 4

#: Intra-pod tenants per pod in the scaling batch.
TENANTS_PER_POD = 2

#: Least multi-shard / single-shard throughput ratio (mirrored in
#: BENCH_baseline.json as ``min_sharded_ratio``; measured 0.75 on the
#: 2-vCPU reference box).
MIN_RATIO = 0.5


def intra_pod_requests() -> List[DeployRequest]:
    """TENANTS_PER_POD tenants in each of the four pods, interleaved."""
    return [
        tenant_request(pod, f"p{pod}t{index}")
        for index in range(TENANTS_PER_POD)
        for pod in range(POD_COUNT)
    ]


def cross_pod_request(user: str = "cross") -> DeployRequest:
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = 1000
    return DeployRequest(
        source_groups=["pod0(a)"],
        destination_group="pod2(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


def deployed_devices(coord: ShardCoordinator) -> Dict[str, List[str]]:
    return {
        name: coord.controller_for(name).deployed[name].devices()
        for name in coord.deployed_programs()
    }


def run_scaling() -> Dict[str, object]:
    requests = intra_pod_requests()
    topology = build_fattree(k=POD_COUNT)
    with ShardCoordinator(topology,
                          whole_fabric_partition(topology)) as single:
        start = time.perf_counter()
        single_reports = single.deploy_many(requests)
        single_s = time.perf_counter() - start
        single_devices = deployed_devices(single)

    with ShardCoordinator(build_fattree(k=POD_COUNT)) as multi:
        start = time.perf_counter()
        multi_reports = multi.deploy_many(requests)
        multi_s = time.perf_counter() - start
        multi_devices = deployed_devices(multi)
        shard_count = len(multi.shards)

    assert all(r.succeeded for r in single_reports)
    assert all(r.succeeded for r in multi_reports)
    return {
        "n": len(requests),
        "shards": shard_count,
        "single_s": single_s,
        "multi_s": multi_s,
        "ratio": single_s / multi_s,
        "single_rps": len(requests) / single_s,
        "multi_rps": len(requests) / multi_s,
        "identical_placements": multi_devices == single_devices,
    }


def run_cross_shard() -> Dict[str, object]:
    """Cross-shard 2PC latency on a fabric warmed by intra-pod tenants."""
    with ShardCoordinator(build_fattree(k=POD_COUNT)) as coord:
        warm_reports = coord.deploy_many(intra_pod_requests())
        assert all(r.succeeded for r in warm_reports)
        start = time.perf_counter()
        report = coord.deploy(cross_pod_request())
        commit_s = time.perf_counter() - start
        summary = coord.coordinator_summary()
        pods_used = sorted({
            coord.partition.region_of_device(d)
            for d in report.deployed.devices()
            if coord.partition.region_of_device(d) is not None
        }) if report.succeeded else []
    return {
        "succeeded": report.succeeded,
        "commit_s": commit_s,
        "cross_shard_commits": summary["cross_shard_commits"],
        "aborted_prepares": summary["aborted_prepares"],
        "pods_used": pods_used,
    }


def run_all() -> Dict[str, object]:
    return {"scaling": run_scaling(), "cross_shard": run_cross_shard()}


def test_sharded_scaling(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    scaling = results["scaling"]
    print_table(
        f"sharded controller — {scaling['n']} intra-pod tenants on a "
        f"{POD_COUNT}-pod fat-tree",
        ["tenants", "shards", "1-shard (s)",
         f"{scaling['shards']}-shard (s)", "multi/single rps", "identical"],
        [
            (
                scaling["n"],
                scaling["shards"],
                f"{scaling['single_s']:.3f}",
                f"{scaling['multi_s']:.3f}",
                f"{scaling['ratio']:.2f}x",
                scaling["identical_placements"],
            )
        ],
    )
    cross = results["cross_shard"]
    print_table(
        "cross-shard two-phase commit (pod0 -> pod2)",
        ["succeeded", "commit (s)", "commits", "aborted prepares", "pods"],
        [
            (
                cross["succeeded"],
                f"{cross['commit_s']:.4f}",
                cross["cross_shard_commits"],
                cross["aborted_prepares"],
                ",".join(cross["pods_used"]),
            )
        ],
    )

    assert scaling["identical_placements"]
    assert cross["succeeded"]
    assert cross["cross_shard_commits"] == 1
    assert cross["aborted_prepares"] == 0
    assert cross["pods_used"] == ["pod0", "pod2"]

    assert scaling["ratio"] >= MIN_RATIO, (
        f"{scaling['shards']} shards deploy at {scaling['ratio']:.2f}x "
        "the rate of one"
    )
