"""Telemetry-overhead benchmark: tracing + metrics must stay cheap.

The unified telemetry layer (``repro.obs``) instruments the hot deploy
path: per-stage histograms, per-wave phase timings, admission queue-wait
observations and per-submission span trees.  All of it is in-process
bookkeeping — a few dict updates and ``perf_counter`` reads per request —
so it must never meaningfully slow a deployment wave down.

The measurement compares warm ``deploy_many`` waves through two identical
controllers over the same topology: one wired to a fully *disabled*
:class:`~repro.obs.Observability` hub (inert registry, tracer and event
log — the no-telemetry baseline) and one to a live hub with a root trace
started per request.  The first wave per controller pays compilation and
placement cold; the measured waves re-deploy the same programs after
removal, so both sides run the same warm cache path and the delta is
telemetry alone.  Best-of-``ROUNDS`` damps scheduler noise.

Shape to preserve: relative overhead ``(live - disabled) / disabled``
bounded by ``max_obs_overhead`` in ``BENCH_baseline.json`` (5%), and the
live wave must actually produce complete traces and non-empty exposition
(no accidentally-disabled instrumentation "passing" the gate).
"""

from __future__ import annotations

import time
from typing import Dict, List

from benchmarks.conftest import print_table
from repro.core import ClickINC
from repro.core.pipeline import DeployRequest
from repro.lang.profile import default_profile
from repro.obs import Observability
from repro.topology import build_paper_emulation_topology

#: Requests per measured wave.
WAVE_SIZE = 6

#: Measured warm waves per side (best-of damps noise).
ROUNDS = 8


def _requests(obs: Observability, tag: str) -> List[DeployRequest]:
    requests = []
    for index in range(WAVE_SIZE):
        pod = index % 3
        trace = None
        if obs.enabled:
            trace = obs.tracer.start_trace("deploy",
                                           program=f"{tag}{index}")
        requests.append(DeployRequest(
            source_groups=[f"pod{pod}(a)", f"pod{(pod + 1) % 3}(a)"],
            destination_group=f"pod{(pod + 2) % 3}(b)",
            name=f"{tag}{index}",
            profile=default_profile("KVS" if index % 2 else "MLAgg"),
            trace=trace,
        ))
    return requests


def _one_wave(controller: ClickINC, obs: Observability,
              tag: str) -> float:
    requests = _requests(obs, tag)
    start = time.perf_counter()
    reports = controller.deploy_many(requests)
    elapsed = time.perf_counter() - start
    if not all(r.succeeded for r in reports):
        raise RuntimeError("overhead wave failed to deploy")
    for request in requests:
        if request.trace is not None:
            obs.tracer.finish(request.trace)
        controller.remove(request.name)
    return elapsed


def _set_enabled(obs: Observability, enabled: bool) -> None:
    obs.registry.enabled = enabled
    obs.tracer.enabled = enabled
    obs.events.enabled = enabled


def run_all() -> Dict[str, object]:
    # one controller, one hub, the hub toggled between alternating waves:
    # the identical workload state on both sides cancels placement and
    # scheduler noise that two separate controllers cannot (the per-wave
    # jitter on this path is larger than the telemetry cost being gated)
    live = Observability()
    base_times: List[float] = []
    live_times: List[float] = []
    with ClickINC(build_paper_emulation_topology(), obs=live) as controller:
        _set_enabled(live, False)
        _one_wave(controller, live, "warm_")        # cold warm-up round
        for round_index in range(ROUNDS):
            _set_enabled(live, False)
            base_times.append(
                _one_wave(controller, live, f"base{round_index}_"))
            _set_enabled(live, True)
            live_times.append(
                _one_wave(controller, live, f"live{round_index}_"))
    base = {"best_wave_s": min(base_times), "wave_times": base_times}
    instrumented = {"best_wave_s": min(live_times), "wave_times": live_times}
    overhead = (instrumented["best_wave_s"] - base["best_wave_s"]) \
        / base["best_wave_s"]
    completed = live.tracer.summaries()
    exposition = live.registry.render()
    return {
        "overhead": {
            "n": WAVE_SIZE,
            "rounds": ROUNDS,
            "disabled_wave_s": base["best_wave_s"],
            "live_wave_s": instrumented["best_wave_s"],
            "relative_overhead": overhead,
            "traces_completed": len(completed),
            "trace_span_counts": [t["spans"] for t in completed],
            "exposition_bytes": len(exposition),
            "stage_histogram_present":
                "clickinc_pipeline_stage_seconds_bucket" in exposition,
        },
    }


def test_obs_overhead(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    overhead = results["overhead"]
    print_table(
        "Telemetry overhead — warm deploy_many wave, live vs disabled hub",
        ["wave", "disabled s", "live s", "overhead", "traces", "expo bytes"],
        [(
            overhead["n"],
            f"{overhead['disabled_wave_s']:.4f}",
            f"{overhead['live_wave_s']:.4f}",
            f"{overhead['relative_overhead']:+.1%}",
            overhead["traces_completed"],
            overhead["exposition_bytes"],
        )],
    )
    assert overhead["traces_completed"] >= WAVE_SIZE * ROUNDS
    assert overhead["stage_histogram_present"]
    assert all(spans > 0 for spans in overhead["trace_span_counts"])
