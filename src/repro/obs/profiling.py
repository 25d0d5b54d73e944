"""Placement profiling primitives, folded into the metrics registry.

Every live :class:`PlacementProfile` — the
:class:`~repro.placement.dp.DPPlacer` creates one per placer — is tracked
in a weak set, and :func:`collect_placement_samples` sums counters and
stage timers across them at render time.
:class:`~repro.obs.Observability` installs that collector into its
registry, so ``GET /v1/metrics`` reports ``clickinc_placement_*`` series
without the placer knowing any metrics code exists.
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List

from repro.core.stats import CounterMixin
from repro.obs.metrics import MetricsRegistry, Sample

__all__ = [
    "PlacementCounters",
    "StageTimers",
    "PlacementProfile",
    "collect_placement_samples",
    "install_placement_collector",
]


@dataclass
class PlacementCounters(CounterMixin):
    """Running counters of the DP placer's optimised search path."""

    #: intervals evaluated (memo hits + misses)
    interval_evals: int = 0
    #: interval evaluations answered from the cross-epoch memo
    interval_memo_hits: int = 0
    #: per-device feasibility checks requested (memo hits + allocator runs)
    device_checks: int = 0
    #: feasibility checks answered from the memo without running Algorithm 2
    device_memo_hits: int = 0
    #: client/server sub-tree DP tables solved from scratch
    subtree_solves: int = 0
    #: sub-tree tables reused from the memo via signature correspondence
    subtree_memo_hits: int = 0
    #: batched objective rows computed by the vectorised scorer
    score_rows: int = 0
    #: individual interval gains served from those rows
    scored_intervals: int = 0
    #: candidate combinations enumerated by the deduplicated product
    product_combos: int = 0
    #: symmetric child groups whose permutations were collapsed
    product_symmetric_groups: int = 0
    #: Algorithm 2 runs (one device, one block interval) of search and
    #: plan materialisation — the feasibility checks no memo answered
    packing_runs: int = 0
    #: instruction rows those runs visited, feasible or not
    packed_instructions: int = 0
    #: searches whose per-content facts (block DAG, packing rows, scorer
    #: matrices) came from the memo's ProgramFactsStore
    program_facts_hits: int = 0
    #: searches that derived them (first and second sight of a content, or
    #: an evicted entry)
    program_facts_derived: int = 0


class StageTimers:
    """Named wall-clock accumulators: seconds and call counts per stage."""

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed
            self._calls[name] = self._calls.get(name, 0) + 1

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"seconds": round(self._seconds[name], 6),
                   "calls": self._calls[name]}
            for name in sorted(self._seconds)
        }

    def reset(self) -> None:
        self._seconds.clear()
        self._calls.clear()


#: every live PlacementProfile, for fabric-wide metric aggregation
_LIVE_PROFILES: "weakref.WeakSet[PlacementProfile]" = weakref.WeakSet()


class PlacementProfile:
    """Counters + timers for one :class:`~repro.placement.dp.DPPlacer`."""

    def __init__(self) -> None:
        self.counters = PlacementCounters()
        self.timers = StageTimers()
        _LIVE_PROFILES.add(self)

    def reset(self) -> None:
        self.counters = PlacementCounters()
        self.timers.reset()

    def summary(self) -> Dict[str, object]:
        return {"counters": self.counters.summary(),
                "timers": self.timers.summary()}


def collect_placement_samples() -> List[Sample]:
    """Sum counters and stage timers across every live placer profile."""
    counter_totals: Dict[str, int] = {}
    stage_seconds: Dict[str, float] = {}
    stage_calls: Dict[str, int] = {}
    for profile in list(_LIVE_PROFILES):
        for name in (f.name for f in fields(profile.counters)):
            counter_totals[name] = counter_totals.get(name, 0) \
                + getattr(profile.counters, name)
        for stage, cell in profile.timers.summary().items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) \
                + float(cell["seconds"])
            stage_calls[stage] = stage_calls.get(stage, 0) \
                + int(cell["calls"])
    samples = [
        Sample(f"clickinc_placement_{name}_total", {}, value, "counter",
               "DP placer search counters summed across live placers")
        for name, value in counter_totals.items()
    ]
    for stage in stage_seconds:
        samples.append(Sample(
            "clickinc_placement_stage_seconds_total", {"stage": stage},
            stage_seconds[stage], "counter",
            "Cumulative wall-clock seconds per placement stage"))
        samples.append(Sample(
            "clickinc_placement_stage_calls_total", {"stage": stage},
            stage_calls[stage], "counter",
            "Cumulative invocations per placement stage"))
    return samples


def install_placement_collector(registry: MetricsRegistry) -> None:
    """Expose the live placer profiles on *registry* (idempotent)."""
    registry.register_collector(collect_placement_samples,
                                key="placement-profiles")
