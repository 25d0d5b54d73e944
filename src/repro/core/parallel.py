"""The pure phase of a deployment: ``compile_batch`` and its two executors.

Every deployment is ``compile_batch`` → commit
(:meth:`CompilationPipeline.run_many
<repro.core.pipeline.CompilationPipeline.run_many>`).  The
:class:`ParallelCompileService` owns the first half: frontend, IR
verification and — where it pays — a *speculative placement*, all of which
read nothing but the request and the shared artifact cache, so the phase
holds no lock.  It has two executors and picks between them from the size of
the dispatch wave it can see:

* **in-process** — a wave with fewer than two requests (every ``run()``,
  every serial client, every service built with ``workers <= 1``) compiles
  right here and leaves placement to the commit phase, which places through
  the plan cache under the caller's commit guard.  A wave of one never
  crosses a pickle boundary;
* **process pool** — a wave of two or more requests on a service built with
  ``workers=N`` runs in a ``ProcessPoolExecutor`` whose workers hold a
  snapshot of the live topology, sidestepping the GIL.  Placement is
  commit-free (the DP search never mutates device state), so a worker can
  safely place against its snapshot; the plan carries the allocation
  fingerprints of every device it consulted and the commit phase either
  applies it unchanged (fingerprints still match — provably the sequential
  result) or re-places on conflict.

The pool is **persistent**: it is forked by the first wave that needs it and
survives across batches (the service is owned by the pipeline, see
``CompilationPipeline.parallel_service``).  Workers re-synchronise through
an epoch-tagged fingerprint-delta protocol instead of being re-forked: the
parent tracks which devices drifted from the fork-time snapshot
(``NetworkTopology.fingerprint_delta``) and ships their absolute allocation
state with every pooled wave; a worker applies the delta once per epoch
(application is idempotent) and stamps the plans it produces with the synced
epoch, which lets the parent's commit phase validate an untouched world with
a single integer comparison.

When the pipeline's placer holds a
:class:`~repro.placement.memo.SharedPlacementMemo`, the same sync channel
also carries **memo deltas**: workers fork with a snapshot of the parent's
warm memo (device-feasibility bits, interval gains, sub-tree DP tables),
ship the entries they derive back on every
:class:`SpeculativeResult`, and receive other workers' entries — relayed
through the parent's memo log — batched alongside the fingerprint deltas.
Each sub-solution is thus derived once per *fabric* rather than once per
worker.  The memo channel is lossy-safe by design: keys are
content-addressed, so a worker that misses a delta (idle during a batch,
trimmed log) merely re-derives; it can never place from a stale entry.

The pool degrades to the in-process executor: when it cannot be created, or
for request payloads that cannot be pickled.  A worker-process crash
(``BrokenProcessPool``, which fails every in-flight future of the wave)
triggers an in-process retry of the affected requests — the compile stages
are pure, so this is safe — and only a genuine retry failure is recorded,
per-request, instead of aborting the batch; the broken pool is replaced
(with a fresh snapshot and baseline) by the next wave that needs it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import weakref
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cache import ArtifactCache
from repro.core.stats import CounterMixin
from repro.core.pipeline import (
    DeployRequest,
    StageRecord,
    build_placement_request,
    compile_request,
    rebrand_plan,
    single_flight_waves,
)
from repro.frontend.compiler import FrontendCompiler
from repro.ir.program import IRProgram
from repro.obs.trace import SpanCollector, SpanRecord
from repro.placement.dp import DPPlacer
from repro.placement.plan import PlacementPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pipeline import CompilationPipeline

__all__ = ["ParallelCompileService", "SpeculativeResult"]

#: A batch's snapshot re-sync payload: the parent topology's allocation
#: epoch, the absolute allocation state of every device that drifted from
#: the pool's fork-time baseline, and an optional shared-memo delta —
#: ``(log sequence, pickled entries)`` in the parent memo's sequence space.
SyncPayload = Tuple[
    int, Dict[str, Dict[str, object]], Optional[Tuple[int, bytes]]
]


@dataclass
class SpeculativeResult:
    """Outcome of the pure phase for one request.

    ``plan`` is the commit-free placement computed against a worker's
    topology snapshot (``None`` from the in-process executor, whose requests
    place during the commit phase instead).  ``error``/``failed_stage``
    capture failures; ``via`` records which executor produced the result.
    """

    index: int
    program: Optional[IRProgram] = None
    records: List[StageRecord] = field(default_factory=list)
    plan: Optional[PlacementPlan] = None
    error: Optional[str] = None
    failed_stage: Optional[str] = None
    #: the typed exception behind ``error`` — in-process results only (a
    #: worker's failure crosses the pickle boundary as strings)
    exception: Optional[BaseException] = None
    via: str = "process"
    #: True when ``plan`` was served from the shared plan cache (a previous
    #: committed speculative plan written back); the commit phase records it
    #: as a placement cache hit and skips the redundant write-back.
    plan_from_cache: bool = False
    #: pickled memo entries the worker derived for this task (the blob of
    #: ``SharedPlacementMemo.export_delta``); the parent merges them into
    #: its shared memo and relays them to the other workers, then clears
    #: the field before the result reaches the commit phase.
    memo_delta: Optional[bytes] = None
    #: spans the worker recorded while the request carried a trace context
    #: (:class:`~repro.obs.trace.SpanRecord` list); like ``memo_delta`` they
    #: ride the result across the pickle boundary and are detached by the
    #: parent, which stitches them into the live trace.
    trace_spans: Optional[List[SpanRecord]] = None


#: Per-worker state built once by the pool initializer (each worker process
#: owns a private topology snapshot, compiler and artifact cache).
_WORKER_CONTEXT: Dict[str, object] = {}


def _worker_init(topology, adaptive_weights: bool,
                 memo_init: Optional[Tuple[int, bytes]] = None) -> None:
    """Initialise one worker process with a snapshot of the topology.

    ``memo_init`` is the parent shared memo's ``export_snapshot()`` at pool
    creation: the worker starts with every sub-solution the parent already
    holds instead of a cold memo, and remembers the snapshot's sequence
    number so batched memo deltas are applied exactly once.  With
    ``memo_init=None`` the parent placer runs a private memo, so the worker
    gets a plain private memo too — no delta log, no export cost.
    """
    from repro.placement.memo import PlacementMemo, SharedPlacementMemo

    synced_seq = 0
    if memo_init is not None:
        memo = SharedPlacementMemo()
        synced_seq, blob = memo_init
        memo.apply_delta(blob)
    else:
        memo = PlacementMemo()
    _WORKER_CONTEXT["topology"] = topology
    _WORKER_CONTEXT["compiler"] = FrontendCompiler()
    _WORKER_CONTEXT["memo"] = memo
    _WORKER_CONTEXT["placer"] = DPPlacer(topology, memo=memo)
    _WORKER_CONTEXT["cache"] = ArtifactCache()
    _WORKER_CONTEXT["adaptive_weights"] = bool(adaptive_weights)
    _WORKER_CONTEXT["epoch"] = -1
    #: high-water mark of parent memo-log entries already applied
    _WORKER_CONTEXT["memo_synced_seq"] = synced_seq
    #: high-water mark of own memo-log entries already shipped back
    _WORKER_CONTEXT["memo_exported_seq"] = 0


def _worker_apply_sync(sync: Optional[SyncPayload]) -> None:
    """Bring the worker's topology snapshot up to the batch's epoch.

    The payload carries *absolute* device allocation states, so applying it
    is idempotent; the epoch guard merely avoids re-applying the same delta
    for every request of a wave.  The memo delta is applied outside the
    epoch guard — the memo can grow without any allocation changing.
    """
    if sync is None:
        return
    epoch, states, memo_sync = sync
    if epoch > _WORKER_CONTEXT["epoch"]:
        _WORKER_CONTEXT["topology"].apply_allocation_states(states)
        _WORKER_CONTEXT["epoch"] = epoch
    if memo_sync is not None:
        to_seq, blob = memo_sync
        if to_seq > _WORKER_CONTEXT.get("memo_synced_seq", 0):
            memo = _WORKER_CONTEXT.get("memo")
            if memo is not None:
                memo.apply_delta(blob)
            _WORKER_CONTEXT["memo_synced_seq"] = to_seq


def _worker_export_memo_delta() -> Optional[bytes]:
    """Package memo entries this worker derived since its last export.

    Parent-shipped entries never appear here: they are applied without
    being re-logged, so the worker's log holds only its own derivations.
    """
    memo = _WORKER_CONTEXT.get("memo")
    if memo is None or not hasattr(memo, "export_delta"):
        return None
    delta = memo.export_delta(_WORKER_CONTEXT.get("memo_exported_seq", 0))
    if delta is None:
        return None
    to_seq, blob = delta
    _WORKER_CONTEXT["memo_exported_seq"] = to_seq
    return blob


def _worker_compile_and_place(
    index: int,
    request: DeployRequest,
    precompiled: Optional[IRProgram],
    sync: Optional[SyncPayload] = None,
) -> SpeculativeResult:
    """Run frontend → ir-verify → speculative placement for one request.

    Never raises: failures come back as picklable ``error``/``failed_stage``
    fields so the parent can fill the request's ``PipelineReport``.
    """
    _worker_apply_sync(sync)
    # the parent's Tracer is unreachable from here; record spans into a
    # plain collector and ship them back on the result (like memo_delta)
    spans = SpanCollector(request.trace) if request.trace is not None else None

    def span(name: str, **attrs):
        return spans.span(name, **attrs) if spans is not None else nullcontext()

    result = SpeculativeResult(index=index)
    try:
        with span("worker.compile", single_flight=precompiled is not None):
            result.program, result.records = compile_request(
                request, _WORKER_CONTEXT["compiler"],
                _WORKER_CONTEXT["cache"], precompiled=precompiled,
            )
        with span("worker.place"):
            plan = _WORKER_CONTEXT["placer"].place(build_placement_request(
                result.program, request, _WORKER_CONTEXT["adaptive_weights"]
            ))
        # the worker's device versions are meaningless to the parent; stamp
        # the plan with the parent epoch its snapshot was synced to, so the
        # parent can epoch-validate it
        plan.epoch = _WORKER_CONTEXT["epoch"] if sync is not None else None
        result.plan = plan
    except Exception as exc:
        # with a program in hand the failure is the search's: the commit
        # phase retries placement against the live topology, so it is
        # advisory rather than final
        result.error = str(exc)
        result.failed_stage = ("placement" if result.program is not None
                               else getattr(exc, "pipeline_stage", "frontend"))
    if result.program is not None:
        # even a failed search derives reusable sub-solutions: ship them back
        result.memo_delta = _worker_export_memo_delta()
    if spans is not None:
        result.trace_spans = spans.records
    return result


def _default_context():
    """Prefer fork where available: cheap worker start-up, inherited imports."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _picklable(payload) -> bool:
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


class ParallelCompileService(CounterMixin):
    """Runs the pure phase of every deployment; owns the persistent pool.

    Responsibilities:

    * choosing the executor per dispatch wave: fewer than two requests (or
      ``workers <= 1``) compile in-process, two or more go to the pool;
    * the ``ProcessPoolExecutor`` whose workers hold a topology snapshot
      taken when the pool starts (fork) or shipped to them (spawn); the pool
      is started by the first wave that needs it, reused across batches, and
      every pooled wave carries an epoch-tagged re-sync payload (the
      allocation state of devices that drifted from the fork-time baseline)
      so worker snapshots track the live topology without re-forking;
    * single-flight deduplication shared with the pipeline's
      :class:`~repro.core.cache.ArtifactCache`: requests with equal compile
      keys ride on one leader compilation, leader programs are stored back
      into the shared cache, and followers receive them pre-compiled;
    * fallbacks — an unavailable pool or an unpicklable request payload use
      the in-process executor, and requests caught in a worker-process crash
      are retried in-process; a broken pool is replaced (fresh snapshot +
      baseline) by the next pooled wave.
    """

    def __init__(
        self,
        pipeline: "CompilationPipeline",
        workers: int,
        mp_context=None,
    ) -> None:
        self.pipeline = pipeline
        self.workers = max(1, int(workers))
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer = None
        self._pool_broken = False
        self._pool_unavailable = False
        #: fork-time per-device fingerprints (what the workers saw)
        self._baseline_fps: Dict[str, str] = {}
        #: devices that ever drifted from the baseline — they stay in every
        #: sync payload so a worker holding an intermediate state is always
        #: re-synced, even when the live state drifts *back* to baseline
        self._ever_dirty: Set[str] = set()
        #: parent memo-log entries already exported to the workers (the
        #: pool-init snapshot, then one batched delta per sync payload)
        self._memo_synced_seq = 0
        #: observability: batches served, pools created, and requests the
        #: in-process executor compiled over the lifetime
        self.batches_served = 0
        self.pool_generation = 0
        self.inline_fallbacks = 0

    # ------------------------------------------------------------------ #
    # shared-memo plumbing
    # ------------------------------------------------------------------ #
    def _shared_memo(self):
        """The pipeline placer's shared memo, or None for a private memo."""
        memo = getattr(self.pipeline.placer, "memo", None)
        if memo is not None and hasattr(memo, "export_delta"):
            return memo
        return None

    def _memo_init_payload(self) -> Optional[Tuple[int, bytes]]:
        """Snapshot handed to forked workers (None with a private memo)."""
        memo = self._shared_memo()
        if memo is None:
            return None
        snapshot = memo.export_snapshot()
        self._memo_synced_seq = snapshot[0]
        return snapshot

    def _memo_sync(self) -> Optional[Tuple[int, bytes]]:
        """Batched delta of memo entries the workers have not seen yet.

        Advances the export watermark: a worker idle for this batch misses
        these entries for good, which is safe (content-addressed keys, the
        worker re-derives) and keeps the per-batch payload proportional to
        *new* entries rather than the memo's lifetime.
        """
        memo = self._shared_memo()
        if memo is None:
            return None
        delta = memo.export_delta(self._memo_synced_seq)
        if delta is not None:
            self._memo_synced_seq = delta[0]
        return delta

    def _absorb_memo_delta(self, result: SpeculativeResult) -> None:
        """Merge one worker's shipped entries; relay them via the next sync.

        ``record=True`` re-logs the merged entries in the parent's memo log,
        which is exactly what routes worker A's derivations to worker B in
        the next batched delta.  The blob is detached from the result so
        downstream consumers (commit phase, reports) never see it.
        """
        blob = result.memo_delta
        if blob is None:
            return
        result.memo_delta = None
        memo = self._shared_memo()
        if memo is not None:
            memo.apply_delta(blob, record=True)

    def _absorb_trace_spans(self, result: SpeculativeResult) -> None:
        """Stitch worker-recorded spans into the live trace.

        Same shape as the memo-delta absorption: the records crossed the
        pickle boundary on the result and are detached here so the commit
        phase never sees them.
        """
        records = result.trace_spans
        if records is None:
            return
        result.trace_spans = None
        self.pipeline.obs.tracer.add_spans(records)

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def _start_pool(self) -> None:
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context or _default_context(),
                initializer=_worker_init,
                initargs=(
                    self.pipeline.topology,
                    self.pipeline.adaptive_weights,
                    self._memo_init_payload(),
                ),
            )
        except (OSError, ValueError):  # no usable multiprocessing
            self._pool = None
            self._pool_unavailable = True
            return
        # safety net for callers that never close(): reap the workers when
        # the service itself is collected (the bound method keeps the pool
        # alive, not the service, so the finalizer cannot leak `self`)
        self._detach_finalizer()
        self._finalizer = weakref.finalize(
            self, self._pool.shutdown, wait=False
        )
        self._pool_broken = False
        self.increment("pool_generation")
        # With fork, workers inherit the parent's memory when they are
        # actually spawned (first submit), which can only be *later* than
        # this baseline — the delta protocol then over-syncs harmlessly
        # (absolute states, idempotent application), never under-syncs.
        self._baseline_fps = self.pipeline.topology.device_fingerprints()
        self._ever_dirty = set()

    def _detach_finalizer(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _ensure_pool(self) -> None:
        """Start the pool, or replace one whose workers crashed; never
        resurrect an environment where pools cannot be created at all."""
        if self._pool_unavailable:
            return
        if self._pool is None or self._pool_broken:
            if self._pool is not None:
                self._detach_finalizer()
                self._pool.shutdown(wait=False)
                self._pool = None
            self._start_pool()

    def __enter__(self) -> "ParallelCompileService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down deterministically (idempotent)."""
        self._detach_finalizer()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    # snapshot re-sync
    # ------------------------------------------------------------------ #
    def _sync_payload(self) -> Optional[SyncPayload]:
        """The epoch + drifted-device states the workers need this batch.

        Every task of the batch carries the payload (an idle worker may not
        have seen any earlier batch, so per-task delivery with the worker's
        epoch guard is what keeps snapshots correct).  The dirty set only
        grows while a pool lives — devices that drift back to the baseline
        must stay in it, since a worker may hold the intermediate state —
        so once more than half the topology has drifted the pool is
        replaced instead: a fresh fork re-snapshots everything and resets
        the delta to empty, keeping the per-task payload bounded for
        always-on services.
        """
        if self._pool is None:
            return None
        topology = self.pipeline.topology
        self._ever_dirty.update(topology.fingerprint_delta(self._baseline_fps))
        if len(self._ever_dirty) > max(8, len(topology.devices) // 2):
            self._detach_finalizer()
            self._pool.shutdown(wait=False)
            self._pool = None
            self._start_pool()
            if self._pool is None:  # pragma: no cover - mp became unusable
                return None
        return (
            topology.allocation_epoch(),
            topology.allocation_states(sorted(self._ever_dirty)),
            self._memo_sync(),
        )

    # ------------------------------------------------------------------ #
    def _pooled(self, size: int) -> bool:
        """The executor rule: only a wave of two or more requests is worth
        a pickle round trip — a wave of one gains no parallelism from it."""
        return self.workers > 1 and size > 1 and not self._pool_unavailable

    def compile_batch(
        self, requests: Sequence[DeployRequest]
    ) -> List[SpeculativeResult]:
        """Run the pure phase of a batch; results in request order."""
        requests = list(requests)
        results: List[Optional[SpeculativeResult]] = [None] * len(requests)
        compile_start = time.perf_counter()
        cache = self.pipeline.cache
        # compile keys pair up requests that can share one compilation; a
        # batch of one has nobody to share with
        keys = ([self.pipeline.program_cache_key(request)
                 for request in requests]
                if len(requests) > 1 else [None] * len(requests))

        # warm path: requests whose compiled program *and* placement (under
        # the live allocation state) are already in the shared cache — e.g.
        # a re-submission after a removal restored the state a committed
        # speculative plan was written back against — skip the pool; the
        # commit phase validates the cached plan like any other speculative
        # plan, so serial equivalence is preserved.  The lookup exists to
        # save a pool round trip, so it only runs for requests that could be
        # dispatched to the pool: an in-process request makes the identical
        # lookup at commit (_place_cached), once.
        warm: set = set()
        if self._pooled(len(requests)):
            for index, request in enumerate(requests):
                result = self._warm_lookup(index, request, keys[index])
                if result is not None:
                    results[index] = result
                    warm.add(index)

        leaders, followers = single_flight_waves(keys, skip=warm)

        # the executor is chosen from the wave the service can see: what is
        # left to dispatch goes to the pool only when there are two or more
        sync: Optional[SyncPayload] = None
        if self._pooled(len(leaders) + len(followers)):
            self._ensure_pool()
            sync = self._sync_payload()  # None: the pool could not start

        self._run_wave(requests, leaders, {}, results, sync)
        precompiled: Dict[int, Optional[IRProgram]] = {}
        if sync is not None:
            for index in leaders:
                result = results[index]
                # a program is only set once it passed ir-verify, so it is
                # cacheable even when the leader's speculative placement
                # failed (the in-process executor stores its own)
                if (keys[index] and result.program is not None
                        and result.via == "process"):
                    cache.store(keys[index], result.program)
            for index in followers:
                hit, cached = cache.lookup(keys[index])
                precompiled[index] = cached if hit else None
            sync = self._refresh_memo_sync(sync)
        self._run_wave(requests, followers, precompiled, results, sync)
        self.increment("batches_served")
        self.pipeline._phase_hist.labels("compile").observe(
            time.perf_counter() - compile_start)
        return results

    def _refresh_memo_sync(self, sync: SyncPayload) -> SyncPayload:
        """Re-export the memo part of a batch's sync payload mid-batch.

        The leaders' memo deltas were merged as their futures resolved, so
        the follower wave starts from the leaders' sub-solutions (same
        program → same context digest, so the reuse is near-total) instead
        of re-deriving them.  The epoch/state part is untouched —
        allocations do not move between the speculative waves — and when
        nothing new was logged the previous memo part is kept (workers that
        already applied it skip it by watermark; an idle worker waking up
        late still gets it).
        """
        epoch, states, memo_sync = sync
        fresh = self._memo_sync()
        return (epoch, states, fresh if fresh is not None else memo_sync)

    # ------------------------------------------------------------------ #
    def _warm_lookup(
        self, index: int, request: DeployRequest, program_key: Optional[str]
    ) -> Optional[SpeculativeResult]:
        """Serve one request from the shared caches, or None to dispatch it.

        A warm hit needs the compiled program (request-supplied or in the
        ``program`` namespace) *and* a plan stored under the live allocation
        state (``plan`` namespace — populated by ``_place_cached`` and by
        the commit phase's speculative write-back).
        """
        pipeline = self.pipeline
        cache = pipeline.cache
        if not cache.namespace_len("plan"):
            # nothing was ever written back to the plan namespace, so a warm
            # hit is impossible — skip the plan-key computation, which
            # fingerprints every device of the fabric per request
            return None
        if request.program is None and program_key not in cache:
            return None
        try:
            # served from the program namespace: no frontend run
            program, records = pipeline.compile_stages(request)
        except Exception:
            # an unverifiable program falls back to the normal dispatch
            # path, which reports errors per-request
            return None
        plan_key = pipeline.plan_cache_key(
            pipeline.placement_request(program, request)
        )
        if plan_key not in cache:
            return None
        hit, cached_plan = cache.lookup(plan_key)
        if not hit:  # pragma: no cover - raced out by LRU eviction
            return None
        try:
            plan = rebrand_plan(cached_plan, program)
        except Exception:  # mismatched plan: dispatch normally
            return None
        # the plan key embeds the live topology fingerprint: a hit proves
        # the allocation state is content-identical to placement time
        plan.epoch = pipeline.topology.allocation_epoch()
        return SpeculativeResult(
            index=index,
            program=program,
            records=records,
            plan=plan,
            via="warm-cache",
            plan_from_cache=True,
        )

    # ------------------------------------------------------------------ #
    def _run_wave(
        self,
        requests: List[DeployRequest],
        indices: List[int],
        precompiled: Dict[int, Optional[IRProgram]],
        results: List[Optional[SpeculativeResult]],
        sync: Optional[SyncPayload],
    ) -> None:
        """Run one single-flight wave: on the pool when the batch shipped a
        *sync* payload, in-process otherwise."""
        pool = self._pool if sync is not None else None
        futures = {}
        for index in indices:
            payload = precompiled.get(index)
            if pool is None or not _picklable((requests[index], payload)):
                results[index] = self._compile_inline(index, requests[index])
                continue
            try:
                futures[index] = pool.submit(
                    _worker_compile_and_place,
                    index,
                    requests[index],
                    payload,
                    sync,
                )
            except Exception:
                # the pool broke (e.g. a worker crashed in an earlier wave)
                self._pool_broken = True
                results[index] = self._compile_inline(index, requests[index])
        for index, future in futures.items():
            try:
                result = future.result()
            except Exception as exc:
                # a worker crash (BrokenProcessPool) fails every in-flight
                # future of the wave, not just the culprit; the compile
                # stages are pure, so retry in-process and surface only a
                # genuine failure, annotated with the crash
                self._pool_broken = True
                retried = self._compile_inline(index, requests[index])
                retried.via = "inline-after-crash"
                if retried.error is not None:
                    retried.error = (
                        f"{retried.error} (retried in-process after a worker"
                        f" process crash: {exc!r})"
                    )
                results[index] = retried
            else:
                self._absorb_memo_delta(result)
                self._absorb_trace_spans(result)
                results[index] = result

    def _compile_inline(self, index: int, request: DeployRequest) -> SpeculativeResult:
        """The in-process executor: pure compile only, placement at commit."""
        self.increment("inline_fallbacks")
        try:
            program, records = self.pipeline.compile_stages(request)
        except Exception as exc:
            return SpeculativeResult(
                index=index,
                error=str(exc),
                failed_stage=getattr(exc, "pipeline_stage", "frontend"),
                exception=exc,
                via="inline",
            )
        return SpeculativeResult(
            index=index, program=program, records=records, via="inline"
        )
