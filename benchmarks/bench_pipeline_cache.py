"""Pipeline caching and batched deployment benchmark.

Four service-shaped measurements on top of the staged compilation pipeline:

1. **Cold vs warm deploy** — deploying a template app from scratch versus
   re-deploying it after a removal.  The warm path hits the artifact cache
   for the compiled program, the placement plan (the DP search dominates the
   cold path) and the generated backend code, and must be at least 5× faster.

2. **Batch-of-N throughput** — ``deploy_many`` over 8 independent tenant
   apps versus the equivalent serial loop on a fresh controller.  The batch
   runs the pure compile stages first and commits sequentially, so it
   must produce *identical placements* while being no slower overall.

3. **Cold batch** — eight KVS tenants in the eight disjoint pods of a k=8
   fat-tree, one ``deploy_many`` on a fresh controller: the cold-deploy
   throughput the regression gate floors (``cold_batch_rps_serial``), with
   placements identical to the one-by-one loop.

4. **Warm-wave counts** — one body deployed under eight names, side by side,
   once its content has been seen twice.  Counts, not times: every one of
   the eight searches takes its per-content facts from the placer's store
   (``program_facts_derived`` moves by 0) and every commit materialises the
   plan's snippets once.  The regression gate reads them; they cannot flake
   on a noisy runner.

Shape to preserve: warm/cold speedup ≥ 5×; batched deployment within a small
scheduling-overhead margin of serial while placements match exactly.
"""

from __future__ import annotations

import time
from typing import Dict, List

from benchmarks.conftest import print_table, tenant_request
from repro.core import ClickINC, DeployRequest
from repro.lang.profile import default_profile
from repro.placement.plan import PlacementPlan
from repro.topology import build_fattree, build_paper_emulation_topology

#: Pods of the cold-batch fat-tree; one tenant per pod.
COLD_BATCH_PODS = 8

#: Eight independent tenants over the three template apps (distinct names,
#: shared template configurations so the program cache can amortise).
BATCH = [
    ("kvs_t0", "KVS", ["pod0(a)"], "pod2(b)"),
    ("kvs_t1", "KVS", ["pod0(b)"], "pod2(a)"),
    ("kvs_t2", "KVS", ["pod1(a)"], "pod2(b)"),
    ("mlagg_t0", "MLAgg", ["pod1(a)", "pod1(b)"], "pod2(b)"),
    ("mlagg_t1", "MLAgg", ["pod0(a)", "pod0(b)"], "pod2(a)"),
    ("dqacc_t0", "DQAcc", ["pod1(a)"], "pod2(b)"),
    ("dqacc_t1", "DQAcc", ["pod0(a)"], "pod2(a)"),
    ("kvs_t3", "KVS", ["pod1(b)"], "pod2(a)"),
]


def tenant_profile(app: str, user: str):
    """Deliberately modest per-tenant footprints so 8 tenants co-exist."""
    profile = default_profile(app, user=user)
    if app == "KVS":
        profile.performance["depth"] = 1000
    elif app == "MLAgg":
        profile.performance.update({"depth": 1000, "dim": 8})
    elif app == "DQAcc":
        profile.performance["c_depth"] = 1000
    return profile


def batch_requests() -> List[DeployRequest]:
    return [
        DeployRequest(source_groups=sources, destination_group=dest,
                      name=name, profile=tenant_profile(app, name))
        for name, app, sources, dest in BATCH
    ]


def run_cold_vs_warm() -> List[Dict[str, object]]:
    rows = []
    for app in ("KVS", "MLAgg"):
        inc = ClickINC(build_paper_emulation_topology())
        profile = tenant_profile(app, "bench")
        sources = ["pod0(a)"] if app == "KVS" else ["pod1(a)", "pod1(b)"]
        name = f"{app.lower()}_bench"

        start = time.perf_counter()
        cold = inc.deploy_profile(profile, sources, "pod2(b)", name=name)
        cold_s = time.perf_counter() - start
        cold_devices = cold.devices()
        inc.remove(name)

        # the warm window is a few milliseconds, so a single GC pause or
        # scheduler stall inside it would dominate the ratio when the whole
        # benchmark suite runs in one process — take the best of three
        # re-deploy cycles (each is a full cache-hit deploy after a removal)
        warm_s = float("inf")
        for cycle in range(3):
            start = time.perf_counter()
            warm = inc.deploy_profile(profile, sources, "pod2(b)", name=name)
            warm_s = min(warm_s, time.perf_counter() - start)
            if cycle < 2:
                inc.remove(name)

        rows.append({
            "app": app,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
            "warm_hits": ",".join(warm.report.cache_hits()),
            "same_placement": warm.devices() == cold_devices,
        })
    return rows


def run_batch_vs_serial() -> Dict[str, object]:
    serial = ClickINC(build_paper_emulation_topology())
    start = time.perf_counter()
    serial_devices = {}
    for request in batch_requests():
        report = serial.pipeline.run(request)
        serial.deployed[report.program_name] = report.deployed
        serial_devices[report.program_name] = report.deployed.devices()
    serial_s = time.perf_counter() - start

    batched = ClickINC(build_paper_emulation_topology())
    start = time.perf_counter()
    reports = batched.deploy_many(batch_requests())
    batch_s = time.perf_counter() - start

    assert all(report.succeeded for report in reports)
    identical = all(
        report.deployed.devices() == serial_devices[report.program_name]
        for report in reports
    )
    return {
        "n": len(BATCH),
        "serial_s": serial_s,
        "batch_s": batch_s,
        "ratio": batch_s / serial_s,
        "identical_placements": identical,
    }


def run_cold_batch() -> Dict[str, object]:
    def requests() -> List[DeployRequest]:
        return [tenant_request(pod, f"pod{pod}")
                for pod in range(COLD_BATCH_PODS)]

    serial = ClickINC(build_fattree(k=COLD_BATCH_PODS))
    serial_devices = [
        serial.deploy_many([request])[0].deployed.devices()
        for request in requests()
    ]

    batched = ClickINC(build_fattree(k=COLD_BATCH_PODS))
    start = time.perf_counter()
    reports = batched.deploy_many(requests())
    batch_s = time.perf_counter() - start

    assert all(report.succeeded for report in reports)
    return {
        "n": len(reports),
        "batch_s": batch_s,
        "rps": len(reports) / batch_s,
        "identical_placements": serial_devices == [
            report.deployed.devices() for report in reports],
    }


def run_warm_wave_counts() -> Dict[str, int]:
    inc = ClickINC(build_paper_emulation_topology())
    counters = inc.placer.profile.counters
    # two sights of the body, on paths no BATCH tenant uses and distinct from
    # each other (a plan-cache hit never reaches the placer): the second
    # admits its facts
    for sight, (source, destination) in enumerate(
            (("pod2(a)", "pod0(b)"), ("pod2(b)", "pod0(a)"))):
        inc.deploy_profile(tenant_profile("KVS", f"sight{sight}"), [source],
                           destination, name=f"sight{sight}")
        inc.remove(f"sight{sight}")
    derived, hits = counters.program_facts_derived, counters.program_facts_hits
    snippet_calls = []
    real_snippets = PlacementPlan.device_snippets

    def counted(plan):
        snippet_calls.append(plan.program_name)
        return real_snippets(plan)

    PlacementPlan.device_snippets = counted
    try:
        # the tenants stay deployed, so every request meets a new allocation
        # state and is searched, not served from the plan cache
        for name, _app, sources, destination in BATCH:
            inc.deploy_profile(tenant_profile("KVS", name), sources,
                               destination, name=name)
    finally:
        PlacementPlan.device_snippets = real_snippets
    return {
        "n": len(BATCH),
        "facts_derived": counters.program_facts_derived - derived,
        "facts_hits": counters.program_facts_hits - hits,
        "snippet_calls": len(snippet_calls),
    }


def run_all():
    return {"cold_warm": run_cold_vs_warm(), "batch": run_batch_vs_serial(),
            "cold_batch": run_cold_batch(),
            "warm_wave": run_warm_wave_counts()}


def test_pipeline_cache_and_batching(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (row["app"], f"{row['cold_s']*1e3:.1f}", f"{row['warm_s']*1e3:.1f}",
         f"{row['speedup']:.1f}x", row["warm_hits"], row["same_placement"])
        for row in results["cold_warm"]
    ]
    print_table(
        "Pipeline cache — cold vs warm re-deploy",
        ["app", "cold (ms)", "warm (ms)", "speedup", "warm cache hits",
         "same placement"],
        rows,
    )
    batch = results["batch"]
    print_table(
        "deploy_many — batch of 8 vs serial loop",
        ["tenants", "serial (s)", "batch (s)", "batch/serial",
         "identical placements"],
        [(batch["n"], f"{batch['serial_s']:.3f}", f"{batch['batch_s']:.3f}",
          f"{batch['ratio']:.3f}", batch["identical_placements"])],
    )

    cold = results["cold_batch"]
    print_table(
        "deploy_many — cold batch of 8 disjoint tenants (k=8 fat-tree)",
        ["tenants", "batch (s)", "req/s", "identical to one-by-one"],
        [(cold["n"], f"{cold['batch_s']:.3f}", f"{cold['rps']:.1f}",
          cold["identical_placements"])],
    )
    assert cold["identical_placements"]

    wave = results["warm_wave"]
    print_table(
        "warm wave — one body under eight names, after two sights",
        ["tenants", "facts derived", "facts hits", "device_snippets calls"],
        [(wave["n"], wave["facts_derived"], wave["facts_hits"],
          wave["snippet_calls"])],
    )
    assert wave["facts_derived"] == 0
    assert wave["facts_hits"] == wave["snippet_calls"] == wave["n"]

    for row in results["cold_warm"]:
        assert row["same_placement"]
        assert row["speedup"] >= 5.0, (
            f"warm re-deploy of {row['app']} only {row['speedup']:.1f}x faster"
        )
        assert "placement" in row["warm_hits"]
    assert batch["identical_placements"]
    # batching must not change the work, only order it (compiles first);
    # allow a small noise margin on top of "no slower"
    assert batch["ratio"] <= 1.15, (
        f"deploy_many was slower than the serial loop ({batch['ratio']:.2f}x)"
    )
