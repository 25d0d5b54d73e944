"""Data-plane throughput benchmark: batch kernels vs the scalar interpreter.

The vectorized batch engine (``NetworkEmulator.run_batch``) lowers each
deployed program's IR snippets into columnar numpy kernels and pushes whole
packet batches through them.  This benchmark measures the end-to-end packet
throughput of both execution paths on the three paper workloads — KVS
(reflect-heavy, populated cache), MLAgg (aggregation waves, 7/8 packets
dropped in-network) and DQAcc/DISTINCT (stateful dedup, ~94% dropped) — on
identical twin deployments, plus the sustained :class:`TrafficEngine`
round rate on a mixed-tenant stream and the same engine's MLAgg rate once
the devices remember ~200k register cells, relative to empty devices.

Bit-identical semantics are part of the measurement, not a separate test:
for every workload a small fresh-twin differential run compares per-packet
observable state, final device state and ``RunMetrics`` between the two
paths, and the resulting ``identical`` booleans are gated.

Shape to preserve (``BENCH_baseline.json``): every workload's batch/scalar
speedup stays above ``min_dataplane_speedup``, the sustained engine rate
above ``min_engine_pps``, and the loaded/empty MLAgg rate ratio above
``min_sustained_pps_ratio`` — register state is resident in columns, so a
round costs O(packets) however many cells are live (the ratio read ~0.4
when every batch converted the device's cells dict -> array -> dict).
The speedup floor is deliberately far
below the typically observed ratios (KVS ~8-12x, MLAgg/DQAcc ~6-9x): the
scalar baseline on shared CI hardware jitters by >25%, and the floor must
catch "vectorization silently stopped working" (ratio ~1x), not referee
machine noise.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List, Tuple

from benchmarks.conftest import print_table
from repro.apps import DQAccApplication, KVSApplication, MLAggApplication
from repro.core import ClickINC
from repro.emulator.engine import TrafficEngine
from repro.topology import build_paper_emulation_topology

#: Timed rounds per (workload, path); best-of damps scheduler noise.
ROUNDS = 3

#: Packets per measured round (MLAgg takes aggregation *units*; one unit
#: fans out to 8 worker packets).
SIZES = {"kvs": 8000, "mlagg": 1000, "dqacc": 8000}

#: Stream sizes for the bit-identity differential twins (kept small: the
#: differential is a correctness probe, not a timing).
DIFF_SIZES = {"kvs": 300, "mlagg": 20, "dqacc": 200}

APPS = {
    "kvs": (KVSApplication, dict(cache_depth=4000, num_keys=4000)),
    "mlagg": (MLAggApplication, {}),
    "dqacc": (DQAccApplication, {}),
}


def _build(kind: str) -> Tuple[ClickINC, object]:
    app_cls, kw = APPS[kind]
    controller = ClickINC(build_paper_emulation_topology(),
                          generate_code=False)
    app = app_cls(name=f"{kind}_bench", **kw)
    controller.deploy_profile(app.profile(), app.source_groups,
                              app.destination_group, name=app.name)
    if kind == "kvs":
        app.populate_cache(controller.emulator, fraction=1.0)
    return controller, app


def _time_rounds(run, stream) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        packets = copy.deepcopy(stream)
        start = time.perf_counter()
        run(packets)
        best = min(best, time.perf_counter() - start)
    return best


def _packet_view(p) -> dict:
    return {
        "fields": p.fields, "params": p.inc.params, "user_id": p.inc.user_id,
        "dropped": p.dropped, "reflected": p.reflected,
        "mirrored": p.mirrored, "copied": p.copied_to_cpu,
        "finished": p.finished_at_device, "hops": p.hops,
        "latency": p.latency_ns,
    }


def _state_view(emulator) -> dict:
    return {
        name: (rt.state.registers, rt.state.tables, rt.packets_processed,
               rt.instructions_executed)
        for name, rt in emulator.runtimes.items()
    }


def _identity_check(kind: str) -> bool:
    """Fresh twin deployments, same stream, scalar vs batch: bit-identical?"""
    ctl_s, app_s = _build(kind)
    ctl_b, _ = _build(kind)
    stream = app_s.workload().packets(DIFF_SIZES[kind])
    pkts_s = copy.deepcopy(stream)
    pkts_b = copy.deepcopy(stream)
    m_s = ctl_s.emulator.run(pkts_s)
    m_b = ctl_b.emulator.run_batch(pkts_b)
    packets_equal = all(
        _packet_view(a) == _packet_view(b)
        for a, b in zip(pkts_s, pkts_b))
    return (packets_equal
            and _state_view(ctl_s.emulator) == _state_view(ctl_b.emulator)
            and m_s == m_b)


def _measure_workload(kind: str) -> Dict[str, object]:
    ctl_s, app_s = _build(kind)
    ctl_b, app_b = _build(kind)
    stream = app_s.workload().packets(SIZES[kind])
    # warm the kernel cache (and both twins' first-touch state) with a
    # small prefix so neither timed path pays one-off compile cost
    ctl_s.emulator.run(copy.deepcopy(stream[:50]))
    ctl_b.emulator.run_batch(copy.deepcopy(stream[:50]))
    scalar_s = _time_rounds(ctl_s.emulator.run, stream)
    batch_s = _time_rounds(ctl_b.emulator.run_batch, stream)
    n = len(stream)
    stats = ctl_b.emulator.dataplane_stats.counters()
    return {
        "packets": n,
        "scalar_pps": n / scalar_s,
        "batch_pps": n / batch_s,
        "speedup": scalar_s / batch_s,
        "kernel_bails": stats.get("kernel_bails", 0),
        "packets_fallback": stats.get("packets_fallback", 0),
        "identical": _identity_check(kind),
    }


def _measure_engine() -> Dict[str, object]:
    """Sustained mixed-tenant rounds through the TrafficEngine."""
    controller = ClickINC(build_paper_emulation_topology(),
                          generate_code=False)
    apps = []
    for kind, (app_cls, kw) in APPS.items():
        app = app_cls(name=f"{kind}_engine", **kw)
        controller.deploy_profile(app.profile(), app.source_groups,
                                  app.destination_group, name=app.name)
        apps.append((kind, app))
        if kind == "kvs":
            app.populate_cache(controller.emulator, fraction=1.0)
    engine = TrafficEngine(controller.emulator)
    for kind, app in apps:
        engine.add_source(app.name, app.workload(),
                          units_per_round=512 if kind != "mlagg" else 64)
    engine.run_round()                      # warm kernels + caches
    reports = engine.run(rounds=ROUNDS)
    best = max(reports, key=lambda r: r.pps)
    return {
        "rounds": len(reports),
        "round_packets": best.packets,
        "pps": best.pps,
        "ips": best.ips,
        "device_rates": len(engine.rates()["devices"]),
    }


#: Live register cells the sustained row fills the devices to, the rounds
#: timed on either side of the fill, and how many such steps the fill may
#: take (it needs ~4; the bound keeps a program that stopped accumulating
#: state from spinning — the gate then fails on ``live_cells``).
SUSTAINED_CELLS = 200_000
SUSTAINED_ROUNDS = 40
SUSTAINED_FILL_STEPS = 12


def _measure_sustained() -> Dict[str, object]:
    """MLAgg engine rate over ~200k live cells vs from empty state."""
    controller, app = _build("mlagg")
    emulator = controller.emulator
    engine = TrafficEngine(emulator)
    engine.add_source(app.name, app.workload(), units_per_round=64)
    engine.run_round()                      # warm kernels + caches
    emulator.reset_state()

    def pps(reports) -> float:
        return (sum(r.packets for r in reports)
                / sum(r.duration_s for r in reports))

    def live_cells() -> int:
        return sum(len(registers) for rt in emulator.runtimes.values()
                   for registers in rt.state.registers.values())

    empty_pps = pps(engine.run(rounds=SUSTAINED_ROUNDS))
    for _ in range(SUSTAINED_FILL_STEPS):
        if live_cells() >= SUSTAINED_CELLS:
            break
        engine.run(rounds=SUSTAINED_ROUNDS)
    cells = live_cells()
    loaded_pps = pps(engine.run(rounds=SUSTAINED_ROUNDS))
    return {
        "live_cells": cells,
        "empty_pps": empty_pps,
        "loaded_pps": loaded_pps,
        "ratio": loaded_pps / empty_pps,
    }


def run_all() -> Dict[str, object]:
    workloads = {kind: _measure_workload(kind) for kind in APPS}
    speedups = [w["speedup"] for w in workloads.values()]
    product = 1.0
    for value in speedups:
        product *= value
    return {
        "workloads": workloads,
        "aggregate": {
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "geomean_speedup": product ** (1.0 / len(speedups)),
        },
        "engine": _measure_engine(),
        "sustained": _measure_sustained(),
    }


def test_dataplane_throughput(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows: List[tuple] = []
    for kind, w in results["workloads"].items():
        rows.append((kind, w["packets"], f"{w['scalar_pps']:.0f}",
                     f"{w['batch_pps']:.0f}", f"{w['speedup']:.1f}x",
                     "yes" if w["identical"] else "NO"))
    print_table(
        "Data plane — scalar interpreter vs vectorized batch kernels",
        ["workload", "packets", "scalar pps", "batch pps", "speedup",
         "bit-identical"],
        rows,
    )
    engine = results["engine"]
    print_table(
        "Sustained traffic engine — mixed tenants, best timed round",
        ["rounds", "packets/round", "pps", "ips"],
        [(engine["rounds"], engine["round_packets"],
          f"{engine['pps']:.0f}", f"{engine['ips']:.0f}")],
    )
    sustained = results["sustained"]
    print_table(
        "Sustained state — MLAgg engine rate, loaded vs empty devices",
        ["live cells", "empty pps", "loaded pps", "loaded/empty"],
        [(sustained["live_cells"], f"{sustained['empty_pps']:.0f}",
          f"{sustained['loaded_pps']:.0f}", f"{sustained['ratio']:.2f}")],
    )
    for w in results["workloads"].values():
        assert w["identical"]
        assert w["kernel_bails"] == 0 and w["packets_fallback"] == 0
        assert w["speedup"] > 1.0
    assert engine["pps"] > 0
    assert sustained["live_cells"] >= SUSTAINED_CELLS
