#!/usr/bin/env python3
"""CI benchmark-regression gate for the compilation pipeline.

Runs the cold-batch deployment benchmark
(:mod:`benchmarks.bench_pipeline_cache` ``run_cold_batch``), the async
service-runtime benchmark (:mod:`benchmarks.bench_async_service`), the
failure-injection benchmark (:mod:`benchmarks.bench_runtime_migration`) and
the sharded-controller benchmark (:mod:`benchmarks.bench_sharded_scaling`),
writes the measurements to a ``BENCH_pipeline.json`` artifact, and exits
non-zero when

* cold-batch throughput regresses more than ``tolerance`` (default 30%)
  below the committed numbers in ``benchmarks/BENCH_baseline.json``,
* a batch stops producing the placements of the equivalent serial loop,
* re-submissions after a removal stop hitting the plan cache, or
  interleaved submit/remove traffic diverges from the serial schedule,
* a device failure stops migrating exactly the programs the dead device
  hosted (or disturbs untouched tenants, or breaks post-recovery traffic),
  recovery latency exceeds ``max_migration_recovery_s``, or an un-placeable
  migration stops rolling back to the pre-failure committed state,
* the sharded controller's per-pod placements diverge from the
  single-shard (serial) result, a cross-shard two-phase commit stops
  succeeding cleanly (or exceeds ``max_cross_shard_commit_s``), or
  multi-shard intra-pod deploy throughput falls below
  ``min_sharded_ratio`` of single-shard (what sharding may cost; it is not
  sold as a speed-up — shard lanes are threads under one GIL),
* one body deployed under eight names, once its content has been seen
  twice, derives its per-content placement facts again (more than
  ``max_warm_wave_facts_derived`` times, i.e. at all), a search of the
  wave misses the facts store, or a commit materialises the plan's
  snippets more than once (:mod:`benchmarks.bench_pipeline_cache`
  ``run_warm_wave_counts`` — counts, so they cannot flake).

``--suite scaling`` instead runs the fabric-scale placement benchmark
(:mod:`benchmarks.bench_fig14_scaling` ``run_scaling``) and fails when

* the scenario shrinks below ``min_scaling_devices`` (the >= 1000-device
  fat-tree the incremental-DP work targets),
* the cold solve exceeds ``max_cold_solve_s`` or a warm placer's re-place
  after a single-device delta exceeds ``max_incremental_solve_s`` (the two
  times are gated, not their ratio: a faster cold solve must not read as a
  regression — the ratio is still reported),
* the incremental plan stops being byte-identical to the cold plan, or
  the warm run stops hitting the cross-epoch memo at all,
* a wave placed through one shared memo
  (:mod:`benchmarks.bench_shared_memo`) is less than
  ``min_shared_memo_speedup`` times faster than the same wave with a fresh
  memo per tenant, or its plans diverge from that baseline.

``--suite obs`` runs the telemetry-overhead benchmark
(:mod:`benchmarks.bench_obs_overhead`) and fails when

* the relative wall-clock overhead of live tracing + metrics on a warm
  ``deploy_many`` wave exceeds ``max_obs_overhead`` (default 5%), or
* the live side stops producing complete traces or a non-empty
  Prometheus exposition (an accidentally-inert hub must not "pass").

``--suite dataplane`` runs the vectorized data-plane benchmark
(:mod:`benchmarks.bench_dataplane`) and fails when

* any workload's batch/scalar throughput speedup falls below
  ``min_dataplane_speedup`` (vectorization silently degraded to ~1x),
* any workload's batch run stops being bit-identical to the scalar
  interpreter (per-packet state, device state or run metrics diverge),
* a supported-opcode workload triggers kernel bails or scalar fallback
  rows (the compiler stopped covering the paper workloads), or
* the sustained mixed-tenant :class:`TrafficEngine` round rate falls
  below ``min_engine_pps``, or
* the MLAgg engine rate over ~200k live register cells falls below
  ``min_sustained_pps_ratio`` of its rate from empty state (a batch is
  paying for what the device remembers again, not for its packets).

``--suite gateway`` runs the multi-tenant gateway QoS benchmark
(:mod:`benchmarks.bench_gateway_qos`) and fails when

* a saturated lane's dispatch shares drift more than
  ``max_gateway_share_error`` from the configured tenant weights,
* any fairness-phase submission fails in the pipeline,
* the overload phase stops producing at least ``min_gateway_shed`` sheds
  and ``min_gateway_backpressure`` backpressure rejections, or
* load-shedding drops a committed program (``dropped_committed`` must be
  zero, and a program committed before the storm must survive it).

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python benchmarks/regression_gate.py --output BENCH_pipeline.json
    python benchmarks/regression_gate.py --suite scaling \\
        --output BENCH_scaling.json
    python benchmarks/regression_gate.py --suite gateway \\
        --output BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# allow `python benchmarks/regression_gate.py` from the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_async_service import (  # noqa: E402
    run_all as run_async_service,
)
from benchmarks.bench_pipeline_cache import (  # noqa: E402
    run_cold_batch,
    run_warm_wave_counts,
)
from benchmarks.bench_runtime_migration import (  # noqa: E402
    run_all as run_runtime_migration,
)
from benchmarks.bench_fig14_scaling import (  # noqa: E402
    run_cold_place,
    run_scaling,
)
from benchmarks.bench_shared_memo import (  # noqa: E402
    run_shared_wave as run_shared_memo,
)
from benchmarks.bench_gateway_qos import (  # noqa: E402
    run_all as run_gateway_qos,
)
from benchmarks.bench_obs_overhead import (  # noqa: E402
    run_all as run_obs_overhead,
)
from benchmarks.bench_dataplane import (  # noqa: E402
    SUSTAINED_CELLS,
    run_all as run_dataplane,
)
from benchmarks.bench_sharded_scaling import (  # noqa: E402
    run_all as run_sharded_scaling,
)

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"


def usable_cores() -> int:
    """Reported next to the throughput numbers; no floor depends on it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def measure() -> dict:
    cold = run_cold_batch()
    service = run_async_service()
    sustained = service["sustained"]
    interleaved = service["interleaved"]
    migration = run_runtime_migration()
    recovery = migration["recovery"]
    rollback = migration["rollback"]
    sharded = run_sharded_scaling()
    scaling = sharded["scaling"]
    cross = sharded["cross_shard"]
    warm_wave = run_warm_wave_counts()
    return {
        "generated_unix_time": int(time.time()),
        "cores": usable_cores(),
        "cold_batch_size": cold["n"],
        "cold_batch_rps_serial": round(cold["rps"], 3),
        "identical_placements": bool(cold["identical_placements"]),
        "async_resubmit_hits": sustained["resubmit_hits"],
        "async_resubmit_n": sustained["resubmit_n"],
        "async_sustained_rps": round(sustained["sustained_rps"], 3),
        "async_identical_placements": bool(interleaved["identical_placements"]),
        "migration_affected": recovery["expected_affected"],
        "migration_migrated": recovery["migrated"],
        "migration_exact_set": bool(recovery["exact_affected_set"]),
        "migration_untouched_identical": bool(recovery["untouched_identical"]),
        "migration_traffic_complete": bool(recovery["traffic_complete"]),
        "migration_victim_hits_after": recovery["victim_hits_after"],
        "migration_recovery_s": round(recovery["recovery_s"], 4),
        "migration_rollback_ok": bool(
            rollback["rolled_back"] and rollback["restored_committed_state"]
        ),
        "sharded_n": scaling["n"],
        "sharded_shards": scaling["shards"],
        "sharded_rps_single": round(scaling["single_rps"], 3),
        "sharded_rps_multi": round(scaling["multi_rps"], 3),
        "sharded_ratio": round(scaling["ratio"], 3),
        "sharded_identical_placements": bool(scaling["identical_placements"]),
        "cross_shard_commit_ok": bool(
            cross["succeeded"]
            and cross["cross_shard_commits"] == 1
            and cross["aborted_prepares"] == 0
        ),
        "cross_shard_commit_s": round(cross["commit_s"], 4),
        "warm_wave_n": warm_wave["n"],
        "warm_wave_facts_derived": warm_wave["facts_derived"],
        "warm_wave_facts_hits": warm_wave["facts_hits"],
        "warm_wave_snippet_calls": warm_wave["snippet_calls"],
    }


def measure_scaling(reduced: bool = True) -> dict:
    result = run_scaling(reduced=reduced)
    cold_place = run_cold_place()
    warm = result["warm_counters"]
    wave = run_shared_memo(reduced=reduced)
    return {
        "generated_unix_time": int(time.time()),
        "scaling_reduced_workload": bool(result["reduced"]),
        "scaling_devices": result["devices"],
        "scaling_fattree_k": result["fattree_k"],
        "scaling_warmup_s": round(result["warmup_s"], 4),
        "scaling_cold_solve_s": round(result["cold_solve_s"], 4),
        "scaling_incremental_s": round(result["incremental_s"], 4),
        "scaling_incremental_speedup": round(result["incremental_speedup"], 3),
        "scaling_identical_plan": bool(result["identical_plan"]),
        "scaling_interval_memo_hits": warm["interval_memo_hits"],
        "scaling_interval_evals": warm["interval_evals"],
        "scaling_subtree_memo_hits": warm["subtree_memo_hits"],
        "scaling_device_checks_warm": warm["device_checks"],
        "scaling_device_checks_cold": result["cold_counters"]["device_checks"],
        # not gated: cold DPPlacer.place per template on the paper topology
        "cold_place_ms": {column: round(ms, 3)
                          for column, ms in cold_place["ms"].items()},
        "cold_place_packing_runs": cold_place["packing_runs"],
        "cold_place_packed_instructions": cold_place["packed_instructions"],
        "shared_memo_wave_n": wave["n"],
        "shared_memo_private_wave_s": round(wave["private_wave_s"], 4),
        "shared_memo_shared_wave_s": round(wave["shared_wave_s"], 4),
        "shared_memo_speedup": round(wave["shared_memo_speedup"], 3),
        "shared_memo_plans_identical": bool(wave["plans_identical"]),
    }


def measure_gateway() -> dict:
    results = run_gateway_qos()
    fairness = results["fairness"]
    overload = results["overload"]
    return {
        "generated_unix_time": int(time.time()),
        "gateway_tenants": len(fairness["tenants"]),
        "gateway_wave": fairness["wave"],
        "gateway_dispatch_window": fairness["window"],
        "gateway_shares": {tid: round(share, 4)
                           for tid, share in fairness["shares"].items()},
        "gateway_share_error": round(fairness["share_error"], 4),
        "gateway_fairness_submitted": fairness["submitted"],
        "gateway_fairness_committed": fairness["committed"],
        "gateway_fairness_failures": fairness["failures"],
        "gateway_fairness_rps": round(fairness["rps"], 3),
        "gateway_overload_offered": overload["offered"],
        "gateway_overload_capacity": overload["capacity"],
        "gateway_overload_committed": overload["committed"],
        "gateway_backpressure_rejections": overload["backpressure"],
        "gateway_shed": overload["shed"],
        "gateway_dropped_committed": overload["dropped_committed"],
        "gateway_precommitted_survived": bool(
            overload["precommitted_survived"]
        ),
    }


def measure_obs() -> dict:
    results = run_obs_overhead()
    overhead = results["overhead"]
    return {
        "generated_unix_time": int(time.time()),
        "obs_wave_size": overhead["n"],
        "obs_rounds": overhead["rounds"],
        "obs_disabled_wave_s": round(overhead["disabled_wave_s"], 4),
        "obs_live_wave_s": round(overhead["live_wave_s"], 4),
        "obs_relative_overhead": round(overhead["relative_overhead"], 4),
        "obs_traces_completed": overhead["traces_completed"],
        "obs_exposition_bytes": overhead["exposition_bytes"],
        "obs_stage_histogram_present": bool(
            overhead["stage_histogram_present"]
        ),
    }


def measure_dataplane() -> dict:
    results = run_dataplane()
    measured = {"generated_unix_time": int(time.time())}
    for kind, w in results["workloads"].items():
        measured[f"dataplane_{kind}_packets"] = w["packets"]
        measured[f"dataplane_{kind}_scalar_pps"] = round(w["scalar_pps"], 1)
        measured[f"dataplane_{kind}_batch_pps"] = round(w["batch_pps"], 1)
        measured[f"dataplane_{kind}_speedup"] = round(w["speedup"], 3)
        measured[f"dataplane_{kind}_identical"] = bool(w["identical"])
        measured[f"dataplane_{kind}_kernel_bails"] = w["kernel_bails"]
        measured[f"dataplane_{kind}_fallback_rows"] = w["packets_fallback"]
    aggregate = results["aggregate"]
    engine = results["engine"]
    sustained = results["sustained"]
    measured.update({
        "dataplane_min_speedup": round(aggregate["min_speedup"], 3),
        "dataplane_geomean_speedup": round(aggregate["geomean_speedup"], 3),
        "engine_rounds": engine["rounds"],
        "engine_round_packets": engine["round_packets"],
        "engine_pps": round(engine["pps"], 1),
        "engine_ips": round(engine["ips"], 1),
        "sustained_live_cells": sustained["live_cells"],
        "sustained_empty_pps": round(sustained["empty_pps"], 1),
        "sustained_loaded_pps": round(sustained["loaded_pps"], 1),
        "sustained_pps_ratio": round(sustained["ratio"], 3),
    })
    return measured


def check_dataplane(measured: dict, baseline: dict) -> list:
    failures = []
    min_speedup = float(baseline.get("min_dataplane_speedup", 3.0))
    for kind in ("kvs", "mlagg", "dqacc"):
        speedup = measured[f"dataplane_{kind}_speedup"]
        if speedup < min_speedup:
            failures.append(
                f"the batch engine is only {speedup:.2f}x faster than the"
                f" scalar interpreter on the {kind} workload (needs"
                f" >= {min_speedup:.1f}x:"
                f" scalar {measured[f'dataplane_{kind}_scalar_pps']:.0f} pps,"
                f" batch {measured[f'dataplane_{kind}_batch_pps']:.0f} pps)"
            )
        if not measured[f"dataplane_{kind}_identical"]:
            failures.append(
                f"the batch engine diverged from the scalar interpreter on"
                f" the {kind} workload — per-packet state, device state or"
                " run metrics are no longer bit-identical"
            )
        bails = measured[f"dataplane_{kind}_kernel_bails"]
        fallback = measured[f"dataplane_{kind}_fallback_rows"]
        if bails or fallback:
            failures.append(
                f"the {kind} workload hit {bails} kernel bails and"
                f" {fallback} scalar-fallback rows — the kernel compiler no"
                " longer covers the paper workloads"
            )
    min_pps = float(baseline.get("min_engine_pps", 5000.0))
    if measured["engine_pps"] < min_pps:
        failures.append(
            f"the sustained traffic engine pushed only"
            f" {measured['engine_pps']:.0f} packets/s through the mixed"
            f" tenant rounds (needs >= {min_pps:.0f})"
        )
    min_ratio = float(baseline.get("min_sustained_pps_ratio", 0.8))
    if measured["sustained_live_cells"] < SUSTAINED_CELLS:
        failures.append(
            f"the sustained-state scenario only reached"
            f" {measured['sustained_live_cells']} live register cells"
            f" (needs >= {SUSTAINED_CELLS}) — it no longer measures rounds"
            " over loaded devices"
        )
    elif measured["sustained_pps_ratio"] < min_ratio:
        failures.append(
            f"MLAgg rounds over {measured['sustained_live_cells']} live"
            f" register cells run at {measured['sustained_pps_ratio']:.2f}x"
            f" their rate from empty state (needs >= {min_ratio:.2f}:"
            f" empty {measured['sustained_empty_pps']:.0f} pps, loaded"
            f" {measured['sustained_loaded_pps']:.0f} pps) — a batch pays"
            " for the device's live cells, not for its packets"
        )
    return failures


def check_obs(measured: dict, baseline: dict) -> list:
    failures = []
    max_overhead = float(baseline.get("max_obs_overhead", 0.05))
    if measured["obs_relative_overhead"] > max_overhead:
        failures.append(
            f"live tracing + metrics add"
            f" {measured['obs_relative_overhead']:.1%} to a warm"
            f" deploy_many wave (must stay within {max_overhead:.0%}:"
            f" disabled {measured['obs_disabled_wave_s']:.4f}s, live"
            f" {measured['obs_live_wave_s']:.4f}s)"
        )
    expected_traces = measured["obs_wave_size"] * measured["obs_rounds"]
    if measured["obs_traces_completed"] < expected_traces:
        failures.append(
            f"the live side completed only"
            f" {measured['obs_traces_completed']}/{expected_traces} traces —"
            " the overhead number no longer measures real instrumentation"
        )
    if (measured["obs_exposition_bytes"] <= 0
            or not measured["obs_stage_histogram_present"]):
        failures.append(
            "the live side's Prometheus exposition is empty or lost the"
            " pipeline stage histogram — the hub was silently inert"
        )
    return failures


def check_gateway(measured: dict, baseline: dict) -> list:
    failures = []
    max_error = float(baseline.get("max_gateway_share_error", 0.10))
    if measured["gateway_share_error"] > max_error:
        failures.append(
            f"saturated-lane dispatch shares drift"
            f" {measured['gateway_share_error']:.3f} from the configured"
            f" weights (must stay within {max_error:.2f}):"
            f" {measured['gateway_shares']}"
        )
    if measured["gateway_fairness_failures"] > 0:
        failures.append(
            f"{measured['gateway_fairness_failures']}/"
            f"{measured['gateway_fairness_submitted']} fairness-phase"
            " submissions failed in the pipeline — the scenario no longer"
            " measures scheduling alone"
        )
    min_shed = int(baseline.get("min_gateway_shed", 1))
    if measured["gateway_shed"] < min_shed:
        failures.append(
            f"the overload phase shed only {measured['gateway_shed']}"
            f" submissions (needs >= {min_shed}) — load-shedding no longer"
            " triggers under saturation"
        )
    min_bp = int(baseline.get("min_gateway_backpressure", 1))
    if measured["gateway_backpressure_rejections"] < min_bp:
        failures.append(
            f"the overload phase pushed back only"
            f" {measured['gateway_backpressure_rejections']} submissions"
            f" (needs >= {min_bp}) — the bounded lane no longer"
            " backpressures"
        )
    if measured["gateway_dropped_committed"] != 0:
        failures.append(
            f"{measured['gateway_dropped_committed']} committed programs"
            " vanished during the load-shed storm — shedding must never"
            " touch committed work"
        )
    if not measured["gateway_precommitted_survived"]:
        failures.append(
            "the program committed before the overload storm is no longer"
            " deployed afterwards"
        )
    return failures


def check_scaling(measured: dict, baseline: dict) -> list:
    failures = []
    min_devices = int(baseline.get("min_scaling_devices", 1000))
    if measured["scaling_devices"] < min_devices:
        failures.append(
            f"the fabric-scale scenario covers only"
            f" {measured['scaling_devices']} devices (needs"
            f" >= {min_devices}) — it no longer exercises fabric scale"
        )
    max_cold = float(baseline["max_cold_solve_s"])
    if measured["scaling_cold_solve_s"] > max_cold:
        failures.append(
            f"the cold solve took {measured['scaling_cold_solve_s']:.3f}s on"
            f" a {measured['scaling_devices']}-device fat-tree (must stay"
            f" below {max_cold:.3f}s)"
        )
    max_incremental = float(baseline["max_incremental_solve_s"])
    if measured["scaling_incremental_s"] > max_incremental:
        failures.append(
            f"the incremental re-place after a single-device delta took"
            f" {measured['scaling_incremental_s']:.4f}s (must stay below"
            f" {max_incremental:.4f}s;"
            f" {measured['scaling_incremental_speedup']:.1f}x the cold"
            f" solve's {measured['scaling_cold_solve_s']:.3f}s)"
        )
    if not measured["scaling_identical_plan"]:
        failures.append(
            "the incremental plan diverged from the cold plan — the"
            " cross-epoch memo returned a stale or unsound sub-solution"
        )
    if measured["scaling_interval_memo_hits"] < 1:
        failures.append(
            "the warm re-place never hit the cross-epoch interval memo —"
            " incremental placement is silently solving from scratch"
        )
    min_shared = float(baseline.get("min_shared_memo_speedup", 1.5))
    if measured["shared_memo_speedup"] < min_shared:
        failures.append(
            f"a wave placed through one shared memo is only"
            f" {measured['shared_memo_speedup']:.2f}x faster than with a"
            f" memo per tenant (needs"
            f" >= {min_shared:.1f}x: private"
            f" {measured['shared_memo_private_wave_s']:.3f}s, shared"
            f" {measured['shared_memo_shared_wave_s']:.3f}s)"
        )
    if not measured["shared_memo_plans_identical"]:
        failures.append(
            "the shared-memo wave's plans diverged from the private-memo"
            " baseline — a shared entry leaked state between tenants"
        )
    return failures


def check(measured: dict, baseline: dict) -> list:
    tolerance = float(baseline.get("tolerance", 0.3))
    failures = []

    floor = float(baseline["cold_batch_rps_serial"]) * (1.0 - tolerance)
    if measured["cold_batch_rps_serial"] < floor:
        failures.append(
            f"cold-batch throughput regressed: {measured['cold_batch_rps_serial']}"
            f" req/s < floor {floor:.2f} req/s (baseline"
            f" {baseline['cold_batch_rps_serial']} req/s - {tolerance:.0%})"
        )
    if not measured["identical_placements"]:
        failures.append("batched placements no longer match the serial loop")

    # the async service runtime: plan-cache reuse + serial equivalence
    if measured["async_resubmit_hits"] < measured["async_resubmit_n"]:
        failures.append(
            f"only {measured['async_resubmit_hits']}/"
            f"{measured['async_resubmit_n']} re-submissions hit the"
            " plan cache"
        )
    if not measured["async_identical_placements"]:
        failures.append(
            "interleaved async submit/remove traffic no longer matches the"
            " equivalent serial schedule"
        )

    # the runtime operations layer: failure -> migration -> recovery
    if measured["migration_affected"] < 1:
        failures.append(
            "the failure-injection benchmark found no program on the victim"
            " device — the scenario no longer exercises migration"
        )
    if not measured["migration_exact_set"]:
        failures.append(
            f"migration no longer moves exactly the affected programs"
            f" ({measured['migration_migrated']} migrated,"
            f" {measured['migration_affected']} affected)"
        )
    if not measured["migration_untouched_identical"]:
        failures.append(
            "migrating one device's programs disturbed untouched tenants'"
            " plans or fingerprints"
        )
    if not measured["migration_traffic_complete"]:
        failures.append(
            "post-recovery traffic no longer completes for migrated tenants"
        )
    if measured["migration_victim_hits_after"] > 0:
        failures.append(
            f"{measured['migration_victim_hits_after']} packets still"
            " traversed the failed device after recovery"
        )
    max_recovery = float(baseline.get("max_migration_recovery_s", 2.0))
    if measured["migration_recovery_s"] > max_recovery:
        failures.append(
            f"failure recovery took {measured['migration_recovery_s']:.3f}s"
            f" (must stay below {max_recovery:.1f}s)"
        )
    if not measured["migration_rollback_ok"]:
        failures.append(
            "an un-placeable migration no longer rolls back to the"
            " pre-failure committed state"
        )

    # the sharded controller: per-pod shards + cross-shard 2PC
    if not measured["sharded_identical_placements"]:
        failures.append(
            "multi-shard placements no longer match the single-shard"
            " (serial) result"
        )
    if not measured["cross_shard_commit_ok"]:
        failures.append(
            "the cross-shard two-phase commit no longer commits cleanly"
            " (failed, uncounted, or spuriously aborted a prepare)"
        )
    max_cross = float(baseline.get("max_cross_shard_commit_s", 2.0))
    if measured["cross_shard_commit_s"] > max_cross:
        failures.append(
            f"a cross-shard commit took {measured['cross_shard_commit_s']:.3f}s"
            f" (must stay below {max_cross:.1f}s)"
        )
    min_sharded = float(baseline.get("min_sharded_ratio", 0.5))
    if measured["sharded_ratio"] < min_sharded:
        failures.append(
            f"{measured['sharded_shards']} controller shards deploy at"
            f" {measured['sharded_ratio']:.2f}x the rate of one shard"
            f" (sharding may cost at most {min_sharded:.2f}x)"
        )

    # counts of the warm wave: per-content facts and snippets, once each
    wave_n = measured["warm_wave_n"]
    max_derived = int(baseline.get("max_warm_wave_facts_derived", 0))
    if measured["warm_wave_facts_derived"] > max_derived:
        failures.append(
            f"a warm wave of {wave_n} re-derived the program facts of a"
            f" twice-seen body {measured['warm_wave_facts_derived']} times"
            f" (allowed: {max_derived})"
        )
    if measured["warm_wave_facts_hits"] != wave_n:
        failures.append(
            f"only {measured['warm_wave_facts_hits']}/{wave_n} searches of the"
            " warm wave took their program facts from the store"
        )
    if measured["warm_wave_snippet_calls"] != wave_n:
        failures.append(
            f"device_snippets() ran {measured['warm_wave_snippet_calls']}"
            f" times for {wave_n} deploys (must be once per commit)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the measured numbers (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline numbers to gate against",
    )
    parser.add_argument(
        "--suite",
        choices=("pipeline", "scaling", "gateway", "obs", "dataplane"),
        default="pipeline",
        help="pipeline: deploy/service/migration/sharding; scaling:"
             " fabric-scale; gateway: multi-tenant QoS; obs: telemetry"
             " overhead; dataplane: vectorized batch kernels",
    )
    parser.add_argument(
        "--full-workload",
        action="store_true",
        help="scaling suite: full workload instead of the CI-sized reduced one",
    )
    args = parser.parse_args(argv)

    if args.suite == "scaling":
        measured = measure_scaling(reduced=not args.full_workload)
    elif args.suite == "gateway":
        measured = measure_gateway()
    elif args.suite == "obs":
        measured = measure_obs()
    elif args.suite == "dataplane":
        measured = measure_dataplane()
    else:
        measured = measure()
    output = args.output or f"BENCH_{args.suite}.json"
    Path(output).write_text(json.dumps(measured, indent=2) + "\n")
    print(f"wrote {output}:")
    print(json.dumps(measured, indent=2))

    baseline = json.loads(Path(args.baseline).read_text())
    if args.suite == "scaling":
        failures = check_scaling(measured, baseline)
    elif args.suite == "gateway":
        failures = check_gateway(measured, baseline)
    elif args.suite == "obs":
        failures = check_obs(measured, baseline)
    elif args.suite == "dataplane":
        failures = check_dataplane(measured, baseline)
    else:
        failures = check(measured, baseline)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
