"""Shared counter plumbing for the service, runtime and memo statistics.

Every long-lived layer keeps a small dataclass of running integer counters
(:class:`ServiceStats`, :class:`~repro.runtime.manager.RuntimeStats`,
:class:`MemoCounters`).  They all update
through :meth:`CounterMixin.increment` — one internal helper instead of
ad-hoc ``stats.attr += 1`` scattered through the call sites — so a typo'd
counter name fails loudly instead of silently creating a new attribute,
and per-shard breakdowns (:class:`ShardCounters`) aggregate uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict

__all__ = [
    "CounterMixin",
    "DataplaneStats",
    "EngineCounters",
    "MemoCounters",
    "ServiceStats",
    "ShardCounters",
    "TenantCounters",
]


class CounterMixin:
    """Increment declared integer counters by name, loudly.

    Mixed into the stats dataclasses: ``stats.increment("removed")`` replaces
    ``stats.removed += 1``.  Only pre-declared int fields may be bumped —
    incrementing an unknown or non-integer attribute raises, which is the
    point: a silent ``+= 1`` on a mistyped name would mint a new attribute
    and the counter would never show up in any summary.
    """

    def increment(self, counter: str, by: int = 1) -> int:
        current = getattr(self, counter, None)
        if not isinstance(current, int) or isinstance(current, bool):
            raise AttributeError(
                f"{type(self).__name__} has no integer counter {counter!r}"
            )
        updated = current + int(by)
        setattr(self, counter, updated)
        return updated

    def counters(self) -> Dict[str, int]:
        """Every declared integer counter, in declaration order.

        This is the single enumeration the summaries *and* the metrics
        registry (:meth:`repro.obs.metrics.MetricsRegistry.register_counters`)
        read, so the wire views cannot drift from ``/v1/metrics``: a new
        counter field shows up everywhere at once.
        """
        if is_dataclass(self):
            names = [f.name for f in fields(self)]
        else:
            names = list(vars(self))
        out: Dict[str, int] = {}
        for name in names:
            value = getattr(self, name)
            if isinstance(value, int) and not isinstance(value, bool):
                out[name] = value
        return out

    def summary(self) -> Dict[str, int]:
        return self.counters()


@dataclass
class ShardCounters(CounterMixin):
    """Per-shard controller activity, aggregated by the coordinator/service.

    One instance per shard (plus one for the cross-shard coordinator role):
    deployments and removals the shard committed by itself, cross-shard
    commits it participated in, and prepares it voted to abort.
    """

    deploys: int = 0
    removed: int = 0
    #: cross-shard programs committed through a two-phase commit this shard
    #: participated in (for the coordinator's own counters: drove)
    cross_shard_commits: int = 0
    #: cross-shard prepares aborted because this shard's allocation state
    #: drifted from the epoch-tagged snapshot the plan was placed against
    aborted_prepares: int = 0
    #: programs migrated off this shard's devices by runtime events
    migrations: int = 0


@dataclass
class ServiceStats(CounterMixin):
    """Counters describing the service's batching behaviour.

    One bag per :class:`~repro.sharding.coordinator.ShardCoordinator`,
    shared with the :class:`~repro.core.service.INCService` in front of it.
    Running aggregates only — an always-on service processes an unbounded
    number of waves, so nothing here may grow with the wave count.  Every
    update goes through :meth:`CounterMixin.increment` (or the
    :meth:`record_wave` helper built on it).
    """

    submitted: int = 0
    removed: int = 0
    waves: int = 0
    max_wave: int = 0
    #: waves in which at least one request failed to deploy
    failed_waves: int = 0
    #: rolling updates swapped through the barrier path
    updates: int = 0
    #: programs live-migrated by device failures/drains
    migrations: int = 0
    #: cross-shard programs committed through the two-phase commit
    cross_shard_commits: int = 0
    #: cross-shard prepares aborted because a touched shard's allocation
    #: state drifted from the epoch-tagged snapshot placement ran against
    aborted_prepares: int = 0
    #: submissions that expired in the admission queue (deadline passed
    #: before their wave was dispatched)
    deadline_expired: int = 0
    #: cross-shard two-phase commits aborted because the submission's
    #: deadline passed between the speculative phase and the commit wave
    deadline_aborts: int = 0
    #: per-shard activity breakdown: each entry is the owning shard's own
    #: :class:`ShardCounters` bag, aliased in by the coordinator so the
    #: counters are incremented exactly once
    per_shard: Dict[str, ShardCounters] = field(default_factory=dict)

    def record_wave(self, size: int, failures: int = 0) -> None:
        self.increment("waves")
        self.increment("submitted", size)
        if size > self.max_wave:
            self.max_wave = size
        if failures:
            self.increment("failed_waves")

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "submitted": self.submitted,
            "removed": self.removed,
            "waves": self.waves,
            "max_wave": self.max_wave,
            "mean_wave": self.submitted / self.waves if self.waves else 0.0,
            "failed_waves": self.failed_waves,
            "updates": self.updates,
            "migrations": self.migrations,
            "cross_shard_commits": self.cross_shard_commits,
            "aborted_prepares": self.aborted_prepares,
            "deadline_expired": self.deadline_expired,
            "deadline_aborts": self.deadline_aborts,
        }
        if self.per_shard:
            summary["per_shard"] = {
                shard_id: counters.summary()
                for shard_id, counters in sorted(self.per_shard.items())
            }
        return summary



@dataclass
class MemoCounters(CounterMixin):
    """Activity of one :class:`~repro.placement.memo.PlacementMemo`.

    Tracks how lookups fared.  Surfaced
    through ``PlacementMemo.summary()`` into the service/gateway status
    responses.
    """

    #: lookups the memo answered, counting a ``plan`` cache lookup as the
    #: lookup of the memo's root entry (the whole search)
    hits: int = 0
    #: always 0: the memo is one store, so there is no second tier to be
    #: served from.  The key stays because ``benchmarks/e2e/trace.py`` (which
    #: only a ``[benchmark]`` PR may edit) and operators' dashboards index
    #: ``summary()["shared_hits"]`` by name.
    shared_hits: int = 0
    #: lookups that missed (the caller derives and stores), root included
    misses: int = 0
    #: memo-served sub-tree tables rejected by the DPPlacer's live
    #: allocation-state guard (should stay 0; see StaleMemoError)
    stale_rejections: int = 0



@dataclass
class DataplaneStats(CounterMixin):
    """Activity of the vectorized batch data plane, one bag per emulator.

    Maintained by :class:`~repro.emulator.engine.BatchRunner`, the compiled
    kernels it calls and the emulator's
    :class:`~repro.emulator.state.RegisterFile` objects; surfaced through
    ``TrafficEngine.bind_metrics`` as the ``clickinc_dataplane_*`` counter
    family.  The vectorized/fallback split is the first thing to read when
    throughput disappoints: fallback rows mean an owner group demoted to
    the scalar interpreter (heterogeneous batch, unsupported opcode, or a
    runtime bail — see ``kernel_bails``).
    """

    #: run_batch invocations
    batches: int = 0
    #: owner groups that attempted the vector path
    owner_groups: int = 0
    #: rows routed through compiled kernels end-to-end
    packets_vectorized: int = 0
    #: rows demoted to the scalar interpreter
    packets_fallback: int = 0
    #: kernel executions (one per device visit per owner group)
    kernel_calls: int = 0
    #: owner groups demoted after a compile/plan/runtime bail
    kernel_bails: int = 0
    #: conflict-free row slices executed across all kernel calls
    slices: int = 0
    #: register files moved from their dict into columns (first kernel touch)
    state_promotions: int = 0
    #: register cells moved between backings, either direction; flat under
    #: steady traffic — growth per batch means state is being re-converted
    state_cells_converted: int = 0



@dataclass
class EngineCounters(CounterMixin):
    """Lifetime totals of one :class:`~repro.emulator.engine.TrafficEngine`."""

    #: timed batch rounds emitted
    rounds: int = 0
    #: packets sent across all rounds
    packets: int = 0
    #: instructions executed across all rounds (from the run metrics)
    instructions: int = 0



@dataclass
class TenantCounters(CounterMixin):
    """Per-tenant activity at the gateway, one bag per authenticated tenant.

    The gateway (:mod:`repro.gateway`) maintains one instance per tenant and
    surfaces them through ``GET /v1/status``; every admission decision —
    committed, rejected for quota, pushed back, shed, expired — lands in
    exactly one of these counters, so a tenant's submitted total always
    equals the sum of its outcomes plus what is still queued or in flight.
    """

    #: submissions accepted into the admission scheduler
    submitted: int = 0
    #: submissions that committed a deployment
    committed: int = 0
    #: submissions whose deployment failed in the pipeline (compile,
    #: placement, resources) after being scheduled
    failed: int = 0
    #: submissions rejected before queueing: a per-tenant quota was full
    rejected_quota: int = 0
    #: submissions rejected with 429 + Retry-After: the lane's bounded
    #: admission queue was saturated and the tenant had no shedding claim
    rejected_backpressure: int = 0
    #: queued (never committed) submissions shed to admit heavier tenants
    shed: int = 0
    #: submissions that expired (deadline passed) before or during commit
    deadline_expired: int = 0
    #: programs removed by the tenant
    removed: int = 0

