"""The asyncio service runtime: ClickINC as an always-on service.

The paper's pitch is in-network computing **as a service**: many tenants
continuously submit, update and remove programs against one shared network.
:class:`INCService` is that front-end — an asyncio API over the staged
pipeline::

    async with INCService(topology) as svc:
        report = await svc.submit(request)        # deploy
        ...
        await svc.remove(report.program_name)     # undeploy
        await svc.drain()                         # quiesce

Requests enter an **admission queue** and are drained by a single dispatcher
task into *waves*, and a wave is deployed the one way anything is deployed
(:meth:`CompilationPipeline.run_many
<repro.core.pipeline.CompilationPipeline.run_many>`): a lock-free pure phase
in this process, then commits in admission order.

Batching is **natural**: a wave is whatever queued while the previous wave
ran (bounded by ``max_wave``).  There is no coalescing timer — a serial
client can never fill a wave, so a timer only adds its timeout to every
submit, while concurrent clients fill waves by themselves as soon as a
wave's execution makes them queue.

``remove()`` is serialised through the same queue: a removal closes the wave
being collected, runs only after every earlier submission committed, and
blocks later submissions until the capacity it frees is released.  The
resulting history — placements, failures, cache effects — is therefore
identical to the equivalent serial schedule of the admitted operations, no
matter how the callers interleave.

**Sharded mode.** Handing the service a
:class:`~repro.sharding.coordinator.ShardCoordinator` (or a topology plus
``sharded=True`` / an explicit ``partition=``) replaces the single admission
queue with one **lane per controller shard**: intra-shard submissions queue
and wave inside their own lane, so shards compile and commit concurrently,
and a barrier (remove, update) blocks only the lane of the shard owning the
program.  Submissions whose traffic spans shards skip the lanes entirely
and run through the coordinator's cross-shard two-phase commit, which takes
exactly the touched shards' commit locks — a cross-shard wave is a barrier
for the shards it touches and invisible to the rest.  Its serialisation
point is lock acquisition, not admission order: untouched lanes keep
flowing throughout.

Everything blocking (compiles, commits) runs on the event loop's default
thread-pool executor, so the loop itself never stalls on a wave.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.core.controller import ClickINC
from repro.core.pipeline import DeployRequest, PipelineReport
from repro.core.stats import CounterMixin, ShardCounters
from repro.exceptions import DeploymentError
from repro.obs import Observability
from repro.synthesis.incremental import SynthesisDelta
from repro.topology.network import NetworkTopology

__all__ = ["INCService", "deadline_report"]


def deadline_report(name: str, detail: str) -> PipelineReport:
    """A failed :class:`PipelineReport` for a deadline-expired submission.

    Deadline expiry is an admission outcome, not a pipeline error, so it is
    reported (``failed_stage="deadline"``) exactly like any other
    per-request failure — never raised — and carries no partial state:
    nothing was compiled or committed on its behalf.
    """
    return PipelineReport(program_name=name, error=detail,
                          failed_stage="deadline")


@dataclass
class _Admission:
    """One queued operation: a submission or a barrier.

    Barriers (``remove``, ``update``, ``fail-device``, ``drain-device``,
    ``stop``) close the wave being collected and run alone, after every
    earlier admission committed — so their effects are atomic with respect
    to concurrently admitted submissions.
    """

    kind: str                     # "submit" | "remove" | "update" | ...
    future: "asyncio.Future"
    request: Optional[DeployRequest] = None
    name: Optional[str] = None
    lazy: bool = True
    payload: Optional[Dict[str, object]] = None
    #: absolute ``time.monotonic()`` deadline: a submission still queued
    #: when it passes fails fast (stage ``deadline``) without compiling
    deadline: Optional[float] = None
    #: ``time.monotonic()`` at admission, for the queue-wait histogram
    enqueued_at: float = 0.0


@dataclass
class ServiceStats(CounterMixin):
    """Counters describing the service's batching behaviour.

    Running aggregates only — an always-on service processes an unbounded
    number of waves, so nothing here may grow with the wave count.  Every
    update goes through :meth:`~repro.core.stats.CounterMixin.increment`
    (or the :meth:`record_wave` helper built on it), never through ad-hoc
    attribute arithmetic at the call sites.
    """

    submitted: int = 0
    removed: int = 0
    waves: int = 0
    max_wave: int = 0
    #: waves in which at least one request failed to deploy
    failed_waves: int = 0
    #: rolling updates swapped through the barrier path
    updates: int = 0
    #: programs live-migrated by fail/drain barriers
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


class INCService:
    """Long-lived asyncio front-end over a :class:`ClickINC` controller.

    Parameters
    ----------
    controller_or_topology:
        An existing :class:`ClickINC` controller to serve (shared pipeline,
        cache and deployed-program registry), or a
        :class:`~repro.topology.network.NetworkTopology` from which the
        service builds — and then owns — a controller.
    max_wave:
        Upper bound on submissions batched into one compile wave.
    max_pending:
        Admission-queue capacity; beyond it, ``submit``/``remove`` apply
        backpressure (the awaiting caller blocks until the queue drains).
        ``0`` means unbounded.
    """

    def __init__(self, controller_or_topology, *,
                 max_wave: int = 8, max_pending: int = 0,
                 sharded: bool = False, partition=None,
                 obs: Optional[Observability] = None,
                 **controller_kwargs) -> None:
        from repro.sharding.coordinator import ShardCoordinator

        if obs is not None:
            controller_kwargs.setdefault("obs", obs)
        self.coordinator: Optional[ShardCoordinator] = None
        if isinstance(controller_or_topology, ShardCoordinator):
            if controller_kwargs or sharded or partition is not None:
                raise DeploymentError(
                    "construction keyword arguments are only valid when the "
                    "service builds its own coordinator from a topology"
                )
            self.coordinator = controller_or_topology
            self.controller = self.coordinator.inter
            self._owns_controller = False
        elif isinstance(controller_or_topology, ClickINC):
            if controller_kwargs or sharded or partition is not None:
                raise DeploymentError(
                    "controller keyword arguments are only valid when the "
                    "service builds its own controller from a topology"
                )
            self.controller = controller_or_topology
            self._owns_controller = False
        elif isinstance(controller_or_topology, NetworkTopology):
            if sharded or partition is not None:
                self.coordinator = ShardCoordinator(
                    controller_or_topology, partition, **controller_kwargs)
                self.controller = self.coordinator.inter
            else:
                self.controller = ClickINC(controller_or_topology,
                                           **controller_kwargs)
            self._owns_controller = True
        else:
            raise DeploymentError(
                "INCService needs a ClickINC controller, a ShardCoordinator "
                "or a NetworkTopology"
            )
        self.max_wave = max(1, int(max_wave))
        self.max_pending = max(0, int(max_pending))
        # sharded mode shares the coordinator's counter bag, so cross-shard
        # commits / aborted prepares / per-shard breakdowns show up in the
        # service-level summary without any double counting
        self.stats = (ServiceStats() if self.coordinator is None
                      else self.coordinator.stats)
        # one hub for the whole stack: adopt the controller's unless the
        # caller handed us a different one explicitly
        self.obs = obs if obs is not None else getattr(
            self.controller, "obs", None) or Observability.default()
        registry = self.obs.registry
        self._queue_wait_hist = registry.histogram(
            "clickinc_admission_wait_seconds",
            "Seconds a submission waited in its admission lane before "
            "its compile wave dispatched", ("lane",))
        registry.register_counters("clickinc_service", self.stats)
        self._queue: Optional["asyncio.Queue[_Admission]"] = None
        self._dispatcher: Optional["asyncio.Task"] = None
        #: sharded mode: one admission lane (queue + dispatcher) per shard
        self._lanes: Dict[str, "asyncio.Queue[_Admission]"] = {}
        self._lane_tasks: List["asyncio.Task"] = []
        #: sharded mode: lane of every submission admitted but not yet
        #: committed (``name -> (lane id, admitting future)``), so a
        #: barrier on a name the coordinator does not know yet still
        #: queues behind the submission that will create it
        self._pending_lane: Dict[str, tuple] = {}
        #: completion markers of direct-path operations (cross-shard
        #: submits, device events) that bypass the lanes; drain()/close()
        #: wait on them so the coordinator is never shut down mid-2PC
        self._direct: set = set()
        self._outstanding: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "INCService":
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    def _ensure_started(self) -> None:
        if self._closed:
            raise DeploymentError("the INC service is closed")
        if self._queue is not None or self._lanes:
            return
        loop = asyncio.get_running_loop()
        if self.coordinator is not None:
            for shard_id in sorted(self.coordinator.shards):
                queue: "asyncio.Queue[_Admission]" = asyncio.Queue(
                    maxsize=self.max_pending
                )
                self._lanes[shard_id] = queue
                self._lane_tasks.append(loop.create_task(
                    self._dispatch_loop(queue, shard_id=shard_id)
                ))
        else:
            self._queue = asyncio.Queue(maxsize=self.max_pending)
            self._dispatcher = loop.create_task(
                self._dispatch_loop(self._queue)
            )

    async def drain(self) -> None:
        """Wait until every operation admitted so far has completed."""
        pending = [f for f in (self._outstanding | self._direct)
                   if not f.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self, drain: bool = True) -> None:
        """Stop the service: drain (by default), stop the dispatcher, and —
        when the service owns its controller — close it.

        Close is idempotent.  Operations already admitted always complete
        (the stop sentinel queues behind them); ``drain=False`` merely skips
        waiting on in-flight futures before enqueueing the sentinel.
        """
        if self._closed:
            return
        self._closed = True
        queues = ([self._queue] if self._queue is not None
                  else list(self._lanes.values()))
        if queues:
            if drain:
                await self.drain()
            loop = asyncio.get_running_loop()
            stops: List["asyncio.Future"] = []
            for queue in queues:
                stop: "asyncio.Future" = loop.create_future()
                await queue.put(_Admission(kind="stop", future=stop))
                stops.append(stop)
            await asyncio.gather(*stops)
            self._dispatcher = None
            self._queue = None
            self._lanes = {}
            self._lane_tasks = []
        # direct-path operations cannot be cancelled (they run on executor
        # threads against the coordinator's shared state), so completing
        # them is the only safe way to close — even with drain=False
        pending_direct = [f for f in self._direct if not f.done()]
        if pending_direct:
            await asyncio.gather(*pending_direct, return_exceptions=True)
        for future in list(self._outstanding):
            if not future.done():
                future.set_exception(
                    DeploymentError("the INC service closed before this "
                                    "operation was dispatched")
                )
        self._outstanding.clear()
        if self._owns_controller:
            if self.coordinator is not None:
                self.coordinator.close()
            else:
                self.controller.close()

    # ------------------------------------------------------------------ #
    # the service API
    # ------------------------------------------------------------------ #
    async def submit(self, request: DeployRequest,
                     deadline: Optional[float] = None) -> PipelineReport:
        """Admit one deployment request; resolves once it has committed.

        The returned :class:`PipelineReport` carries the outcome —
        per-request failures (``succeeded=False``, ``error``,
        ``failed_stage``) are reported, not raised, exactly as in
        ``deploy_many``.

        *deadline* is an absolute ``time.monotonic()`` instant.  A
        submission still queued when it passes fails fast with
        ``failed_stage="deadline"`` — no compile work is spent on it — and
        a cross-shard submission checks it again inside the two-phase
        commit: a deadline passing between the speculative phase and the
        commit wave aborts the prepare (residue-free, nothing was
        committed) instead of committing late.

        In sharded mode the request queues in its shard's own lane; a
        request whose traffic spans shards runs through the coordinator's
        cross-shard two-phase commit instead, serialising against exactly
        the touched shards' commit locks.
        """
        self._ensure_started()
        tracer = self.obs.tracer
        owns_trace = False
        if tracer.enabled and request.trace is None:
            # the gateway starts the trace when the submission came over
            # the wire; a direct service submit roots it here instead, and
            # only the creator finishes it into the completed ring
            request.trace = tracer.start_trace(
                "submit", program=request.resolved_name())
            owns_trace = True
        queue = self._queue
        if self.coordinator is not None:
            touched, route_error = self.coordinator._route(request)
            if route_error is not None:
                self.stats.record_wave(1, failures=1)
                if owns_trace:
                    tracer.finish(request.trace, status="error")
                return route_error
            if len(touched) > 1:
                # register the in-flight cross submission (lane None) so a
                # racing barrier on the same name waits for it instead of
                # failing on a name the coordinator does not know yet
                name = request.resolved_name()
                marker: "asyncio.Future" = (
                    asyncio.get_running_loop().create_future()
                )
                self._pending_lane[name] = (None, marker)
                try:
                    report = await self._run_direct(
                        partial(self.coordinator.deploy, request,
                                deadline=deadline)
                    )
                finally:
                    entry = self._pending_lane.get(name)
                    if entry is not None and entry[1] is marker:
                        del self._pending_lane[name]
                    if not marker.done():
                        marker.set_result(None)
                self.stats.record_wave(
                    1, failures=0 if report.succeeded else 1
                )
                if owns_trace:
                    tracer.finish(request.trace,
                                  status="ok" if report.succeeded
                                  else "error")
                return report
            queue = self._lanes[touched[0]]
        admission = self._admit(_Admission(
            kind="submit",
            future=asyncio.get_running_loop().create_future(),
            request=request,
            deadline=deadline,
            enqueued_at=time.monotonic(),
        ))
        if owns_trace:
            admission.future.add_done_callback(
                self._trace_finisher(request.trace))
        if self.coordinator is not None:
            name = request.resolved_name()
            token = admission.future
            self._pending_lane[name] = (touched[0], token)

            def clear_pending(_future, name=name, token=token):
                # only the admission that owns the entry may remove it: an
                # earlier same-name submission completing must not strip a
                # later one's lane mapping
                entry = self._pending_lane.get(name)
                if entry is not None and entry[1] is token:
                    del self._pending_lane[name]

            admission.future.add_done_callback(clear_pending)
        await queue.put(admission)
        return await admission.future

    async def remove(self, name: str, lazy: bool = True) -> SynthesisDelta:
        """Admit a removal; resolves once the resources are released.

        The removal is serialised through the commit phase: it runs after
        every submission admitted before it has committed, and before any
        admitted after it — so racing ``submit``/``remove`` histories stay
        identical to the equivalent serial schedule.  Removing an unknown
        (or not-yet-committed, per admission order) program raises
        :class:`DeploymentError`.

        In sharded mode the removal barriers only the owning shard's lane;
        cross-shard programs release under the touched shards' commit locks
        without blocking any lane.
        """
        await self._await_pending_cross(name)
        queue = self._barrier_queue(name)
        if queue is None:
            return await self._run_direct(
                partial(self.coordinator.remove, name, lazy=lazy)
            )
        admission = self._admit(_Admission(
            kind="remove",
            future=asyncio.get_running_loop().create_future(),
            name=name,
            lazy=lazy,
        ))
        await queue.put(admission)
        return await admission.future

    async def update(self, name: str, **kwargs) -> PipelineReport:
        """Admit a rolling program update; resolves once the swap committed.

        Keyword arguments are those of :meth:`ClickINC.update_program
        <repro.core.controller.ClickINC.update_program>` (``source`` /
        ``profile`` / ``program`` plus compile options).  The update is a
        wave barrier: it runs after every submission admitted before it has
        committed and before anything admitted after it, so concurrent
        ``submit``/``remove`` callers observe either the old version or the
        new one — never an interleaving.
        """
        await self._await_pending_cross(name)
        queue = self._barrier_queue(name)
        if queue is None:
            return await self._run_direct(
                partial(self.coordinator.update, name, **kwargs)
            )
        admission = self._admit(_Admission(
            kind="update",
            future=asyncio.get_running_loop().create_future(),
            name=name,
            payload=dict(kwargs),
        ))
        await queue.put(admission)
        return await admission.future

    async def fail_device(self, name: str):
        """Admit a device failure; resolves with the migration report.

        Runs as a wave barrier through the controller's
        :class:`~repro.runtime.manager.RuntimeManager`: the device is marked
        down and every program whose committed plan occupied it is
        live-migrated (or everything rolls back if one cannot be re-placed).

        In sharded mode the event routes through the coordinator: only the
        shards that can see the device do migration work (under their
        locks); shard migrations that cannot re-place inside their view
        escalate to the coordinator's full-fabric controller.
        """
        self._ensure_started()
        if self.coordinator is not None:
            # the coordinator counts the migrations in the shared stats bag
            return await self._run_direct(
                partial(self.coordinator.fail_device, name)
            )
        admission = self._admit(_Admission(
            kind="fail-device",
            future=asyncio.get_running_loop().create_future(),
            name=name,
        ))
        await self._queue.put(admission)
        return await admission.future

    async def drain_device(self, name: str):
        """Admit a maintenance drain; like :meth:`fail_device` but the
        drained device's register/table state is carried to the new
        placement."""
        self._ensure_started()
        if self.coordinator is not None:
            return await self._run_direct(
                partial(self.coordinator.drain_device, name)
            )
        admission = self._admit(_Admission(
            kind="drain-device",
            future=asyncio.get_running_loop().create_future(),
            name=name,
        ))
        await self._queue.put(admission)
        return await admission.future

    def _trace_finisher(self, ctx):
        """A future callback closing a service-rooted trace."""
        def finish(future: "asyncio.Future") -> None:
            status = "error"
            if not future.cancelled() and future.exception() is None:
                report = future.result()
                status = ("ok" if getattr(report, "succeeded", False)
                          else "error")
            self.obs.tracer.finish(ctx, status=status)
        return finish

    def _admit(self, admission: _Admission) -> _Admission:
        self._ensure_started()
        self._outstanding.add(admission.future)
        admission.future.add_done_callback(self._outstanding.discard)
        return admission

    def _barrier_queue(self, name: str) -> Optional["asyncio.Queue"]:
        """The lane a barrier on *name* must queue in, or None for the
        coordinator's direct (lock-serialised) path.

        Unsharded services always use the single queue.  Sharded services
        route a barrier to the lane of the shard owning the program — or,
        for a name whose submission is admitted but not yet committed, the
        lane that submission went to, so the barrier queues behind it
        exactly as in the unsharded serial schedule.  Cross-shard-owned
        and unknown programs take the direct path (the coordinator raises
        for unknown names).
        """
        self._ensure_started()
        if self.coordinator is None:
            return self._queue
        owner = self.coordinator.owner_of(name)
        if owner in self._lanes:
            return self._lanes[owner]
        pending = self._pending_lane.get(name)
        if pending is not None and pending[0] in self._lanes:
            return self._lanes[pending[0]]
        return None

    async def _await_pending_cross(self, name: str) -> None:
        """Wait out an in-flight cross-shard submission of *name*.

        Cross submissions bypass the lanes, so a barrier cannot queue
        behind them; waiting for the submission's completion marker
        restores the serial schedule (submit committed, then the barrier).
        """
        if self.coordinator is None:
            return
        entry = self._pending_lane.get(name)
        if entry is not None and entry[0] is None:
            await asyncio.shield(entry[1])

    async def _run_direct(self, fn):
        """Run a coordinator operation on the executor, tracked for drain.

        Direct-path operations bypass the admission lanes (they serialise
        on the coordinator's locks instead), so they leave a completion
        marker that :meth:`drain` and :meth:`close` wait on — the
        coordinator must never be shut down while a 2PC or migration is
        still running on an executor thread.  The coordinator does its own
        counting, so no service-side stats are touched here.
        """
        loop = asyncio.get_running_loop()
        marker: "asyncio.Future" = loop.create_future()
        self._direct.add(marker)
        marker.add_done_callback(self._direct.discard)
        try:
            return await loop.run_in_executor(None, fn)
        finally:
            if not marker.done():
                marker.set_result(None)

    def lane_of(self, request: DeployRequest) -> Optional[str]:
        """The admission-lane key *request* would queue in.

        The gateway's weighted-fair scheduler maps tenant weight onto the
        service's admission lanes, so it needs the same routing decision the
        service itself makes: the owning shard's id in sharded mode,
        ``"default"`` for the unsharded single queue, and ``"cross"`` for a
        submission whose traffic spans shards (those bypass the lanes and
        serialise on the coordinator's locks instead).  Returns ``None``
        when the request cannot be routed at all (unknown host groups) —
        submitting it would fail with the same routing error.
        """
        if self.coordinator is None:
            return "default"
        touched, route_error = self.coordinator._route(request)
        if route_error is not None:
            return None
        return touched[0] if len(touched) == 1 else "cross"

    def lane_keys(self) -> List[str]:
        """Every lane key :meth:`lane_of` can return (sans ``None``)."""
        if self.coordinator is None:
            return ["default"]
        return sorted(self.coordinator.shards) + ["cross"]

    def deployed_programs(self) -> List[str]:
        if self.coordinator is not None:
            return self.coordinator.deployed_programs()
        return self.controller.deployed_programs()

    def service_summary(self) -> Dict[str, object]:
        """Batching counters, memo counters, and runtime-layer activity."""
        summary = self.stats.summary()
        # in sharded mode ``self.controller`` is the coordinator's
        # full-fabric controller, whose memo is the one shared with every
        # shard, so this covers both deployments.  Flows into the gateway's
        # /v1/status via gateway_summary().
        summary["memo"] = self.controller.memo.summary()
        runtime = getattr(self.controller, "_runtime", None)
        if runtime is not None:
            summary["runtime"] = runtime.runtime_summary()
        if self.coordinator is not None:
            summary["coordinator"] = self.coordinator.coordinator_summary()
        return summary

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self, queue: "asyncio.Queue[_Admission]",
                             shard_id: Optional[str] = None) -> None:
        """Drain one admission queue into compile waves, forever.

        The submissions already queued form one wave (bounded by
        ``max_wave``); a removal — or the stop sentinel — closes the wave
        being collected and runs after it commits.  Unsharded services run
        one instance over the single queue; sharded services run one per
        shard lane (*shard_id* names the shard the lane serves).
        """
        loop = asyncio.get_running_loop()
        while True:
            admission = await queue.get()
            barrier: Optional[_Admission] = None
            wave: List[_Admission] = []
            if admission.kind == "submit":
                wave.append(admission)
                while len(wave) < self.max_wave:
                    try:
                        nxt = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt.kind == "submit":
                        wave.append(nxt)
                    else:
                        barrier = nxt
                        break
            else:
                barrier = admission

            if wave:
                await self._run_wave(loop, wave, shard_id=shard_id)
            if barrier is not None:
                if barrier.kind == "stop":
                    barrier.future.set_result(None)
                    return
                await self._run_barrier(loop, barrier)

    async def _run_wave(self, loop, wave: List[_Admission],
                        shard_id: Optional[str] = None) -> None:
        # expired submissions fail before any compile work is spent on them;
        # the rest of the wave proceeds untouched
        live: List[_Admission] = []
        expired = 0
        now = time.monotonic()
        lane = shard_id if shard_id is not None else "default"
        tracer = self.obs.tracer
        for admission in wave:
            if admission.deadline is not None and now > admission.deadline:
                expired += 1
                self.stats.increment("deadline_expired")
                self.obs.events.emit(
                    "deadline_expired", where="admission-queue", lane=lane,
                    program=admission.request.resolved_name())
                if not admission.future.done():
                    admission.future.set_result(
                        deadline_report(admission.request.resolved_name(),
                                        "the submission's deadline passed "
                                        "while it was queued for admission")
                    )
            else:
                if admission.enqueued_at:
                    waited = now - admission.enqueued_at
                    self._queue_wait_hist.labels(lane).observe(waited)
                    tracer.emit(admission.request.trace, "queue.wait",
                                waited, lane=lane)
                live.append(admission)
        if not live:
            if expired:
                self.stats.record_wave(expired, failures=expired)
            return
        total, wave = len(wave), live
        requests = [admission.request for admission in wave]
        if shard_id is not None:
            # shard lane: the wave runs on the shard's own pipeline,
            # holding only that shard's commit lock
            run = partial(self.coordinator.deploy_wave, shard_id, requests)
        else:
            run = partial(self.controller.deploy_many, requests)
        wave_start = time.perf_counter()
        try:
            reports = await loop.run_in_executor(None, run)
        except Exception as exc:  # defensive: deploy_many captures per-request
            for admission in wave:
                if not admission.future.done():
                    admission.future.set_exception(exc)
            return
        wave_s = time.perf_counter() - wave_start
        for admission in wave:
            tracer.emit(admission.request.trace, "wave.execute", wave_s,
                        lane=lane, wave_size=len(wave))
        self.stats.record_wave(
            total,
            failures=expired + sum(1 for report in reports
                                   if not report.succeeded),
        )
        for admission, report in zip(wave, reports):
            if not admission.future.done():
                admission.future.set_result(report)

    async def _run_barrier(self, loop, admission: _Admission) -> None:
        """Run one barrier operation (remove/update/fail/drain) serially."""
        try:
            if admission.kind == "remove":
                if self.coordinator is not None:
                    run = partial(self.coordinator.remove, admission.name,
                                  lazy=admission.lazy)
                else:
                    run = partial(self.controller.remove, admission.name,
                                  lazy=admission.lazy)
                result = await loop.run_in_executor(None, run)
                if self.coordinator is None:
                    self.stats.increment("removed")
            elif admission.kind == "update":
                # routed through the runtime manager so its update counters
                # stay consistent with the fail/drain accounting
                if self.coordinator is not None:
                    run = partial(self.coordinator.update, admission.name,
                                  **(admission.payload or {}))
                else:
                    run = partial(self.controller.runtime().update_program,
                                  admission.name,
                                  **(admission.payload or {}))
                result = await loop.run_in_executor(None, run)
                if self.coordinator is None:
                    self.stats.increment("updates")
            elif admission.kind == "fail-device":
                result = await loop.run_in_executor(
                    None,
                    partial(self.controller.runtime().fail_device,
                            admission.name),
                )
                self.stats.increment("migrations", len(result.migrated))
            elif admission.kind == "drain-device":
                result = await loop.run_in_executor(
                    None,
                    partial(self.controller.runtime().drain_device,
                            admission.name),
                )
                self.stats.increment("migrations", len(result.migrated))
            else:  # pragma: no cover - defensive
                raise DeploymentError(
                    f"unknown admission kind {admission.kind!r}"
                )
        except Exception as exc:
            if not admission.future.done():
                admission.future.set_exception(exc)
            return
        if not admission.future.done():
            admission.future.set_result(result)
