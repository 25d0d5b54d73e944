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

There is one service mode.  Every service runs over a
:class:`~repro.sharding.coordinator.ShardCoordinator`: ``INCService(topology)``
builds one over :func:`~repro.topology.partition.whole_fabric_partition`,
whose only shard *is* the full-fabric controller; ``sharded=True`` (one shard
per pod) or an explicit ``partition=`` only choose another partition.

Each shard has its own **admission lane**, drained by one dispatcher task
into *waves*, and a wave is deployed the one way anything is deployed
(:meth:`CompilationPipeline.run_many
<repro.core.pipeline.CompilationPipeline.run_many>`): a lock-free pure phase
in this process, then commits in admission order under the shard's commit
lock — so shards compile and commit concurrently.

Batching is **natural**: a wave is whatever queued while the previous wave
ran (bounded by ``max_wave``).  There is no coalescing timer — a serial
client can never fill a wave, so a timer only adds its timeout to every
submit, while concurrent clients fill waves by themselves as soon as a
wave's execution makes them queue.

``remove()`` and ``update()`` are barriers in the lane of the shard owning
the program: a barrier closes the wave being collected, runs only after
every earlier submission of its lane committed, and blocks later ones until
it is done.  The resulting history — placements, failures, cache effects —
is therefore identical to the equivalent serial schedule of the admitted
operations, no matter how the callers interleave.

Submissions whose traffic spans shards skip the lanes and run through the
coordinator's cross-shard two-phase commit, which takes exactly the touched
shards' commit locks — a barrier for the shards it touches and invisible to
the rest; its serialisation point is lock acquisition, not admission order.
Device failures and drains are serialised the same way, on the
coordinator's locks.  Everything blocking (compiles, commits) runs on the
event loop's default thread-pool executor, so the loop itself never stalls.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.controller import ClickINC
from repro.core.pipeline import DeployRequest, PipelineReport, deadline_report
from repro.exceptions import DeploymentError
from repro.obs import Observability
from repro.sharding.coordinator import ShardCoordinator, ShardedEventReport
from repro.synthesis.incremental import SynthesisDelta
from repro.topology.network import NetworkTopology
from repro.topology.partition import whole_fabric_partition

__all__ = ["INCService"]


@dataclass
class _Admission:
    """One queued operation: a submission, a barrier or the stop sentinel.

    Barriers (``remove``, ``update``) close the wave being collected and run
    alone, after every earlier admission of their lane committed — so their
    effects are atomic with respect to concurrently admitted submissions.
    """

    kind: str                     # "submit" | "barrier" | "stop"
    future: "asyncio.Future"
    request: Optional[DeployRequest] = None
    #: the coordinator operation a barrier runs
    run: Optional[Callable[[], object]] = None
    #: absolute ``time.monotonic()`` deadline: a submission still queued
    #: when it passes fails fast (stage ``deadline``) without compiling
    deadline: Optional[float] = None
    #: ``time.monotonic()`` at admission, for the queue-wait histogram
    enqueued_at: float = 0.0


class INCService:
    """Long-lived asyncio front-end over a shard coordinator.

    Parameters
    ----------
    controller_or_topology:
        A :class:`~repro.topology.network.NetworkTopology` from which the
        service builds — and then owns — its coordinator; an existing
        :class:`~repro.sharding.coordinator.ShardCoordinator`; or an
        existing :class:`ClickINC` controller, served as the one shard of
        its fabric (shared pipeline, cache and deployed programs).  A
        coordinator or controller handed in is not closed by the service.
    max_wave:
        Upper bound on submissions batched into one compile wave.  The
        per-shard admission lanes are unbounded: on the wire, the gateway's
        scheduler (``queue_capacity``) bounds what is admitted.
    sharded, partition:
        The partition a topology is served under: ``partition`` when given,
        else one shard per pod when ``sharded``, else the whole fabric as
        one shard.
    """

    def __init__(self, controller_or_topology, *,
                 max_wave: int = 8,
                 sharded: bool = False, partition=None,
                 obs: Optional[Observability] = None,
                 **controller_kwargs) -> None:
        if obs is not None:
            controller_kwargs.setdefault("obs", obs)
        if isinstance(controller_or_topology, NetworkTopology):
            topology = controller_or_topology
            if partition is None and not sharded:
                partition = whole_fabric_partition(topology)
            # partition None: the coordinator's default, one shard per pod
            self.coordinator = ShardCoordinator(topology, partition,
                                                **controller_kwargs)
            self._owns_controller = True
        elif isinstance(controller_or_topology,
                        (ShardCoordinator, ClickINC)):
            if controller_kwargs or sharded or partition is not None:
                raise DeploymentError(
                    "construction keyword arguments are only valid when the "
                    "service builds its own coordinator from a topology"
                )
            self.coordinator = (
                controller_or_topology
                if isinstance(controller_or_topology, ShardCoordinator)
                else ShardCoordinator.serving(controller_or_topology)
            )
            self._owns_controller = False
        else:
            raise DeploymentError(
                "INCService needs a ClickINC controller, a ShardCoordinator "
                "or a NetworkTopology"
            )
        #: the coordinator's full-fabric controller (the only shard's
        #: controller when the partition has one region)
        self.controller = self.coordinator.inter
        self.max_wave = max(1, int(max_wave))
        # the coordinator's counter bag, already on the metrics registry:
        # cross-shard commits / aborted prepares / per-shard breakdowns show
        # up in the service-level summary without any double counting
        self.stats = self.coordinator.stats
        self.obs = self.coordinator.obs
        self._queue_wait_hist = self.obs.registry.histogram(
            "clickinc_admission_wait_seconds",
            "Seconds a submission waited in its admission lane before "
            "its compile wave dispatched", ("lane",))
        #: one admission lane (queue + dispatcher) per shard
        self._lanes: Dict[str, "asyncio.Queue[_Admission]"] = {}
        self._lane_tasks: List["asyncio.Task"] = []
        #: lane of every submission admitted but not yet committed
        #: (``name -> (lane id, admitting future)``), so a barrier on a name
        #: the coordinator does not know yet still queues behind the
        #: submission that will create it
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
        if self._lanes:
            return
        loop = asyncio.get_running_loop()
        for shard_id in sorted(self.coordinator.shards):
            queue: "asyncio.Queue[_Admission]" = asyncio.Queue()
            self._lanes[shard_id] = queue
            self._lane_tasks.append(loop.create_task(
                self._dispatch_loop(queue, shard_id)
            ))

    async def drain(self) -> None:
        """Wait until every operation admitted so far has completed."""
        pending = [f for f in (self._outstanding | self._direct)
                   if not f.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self, drain: bool = True) -> None:
        """Stop the service: drain (by default), stop the dispatchers, and —
        when the service built its coordinator — close it.

        Close is idempotent.  Operations already admitted always complete
        (the stop sentinel queues behind them); ``drain=False`` merely skips
        waiting on in-flight futures before enqueueing the sentinel.
        """
        if self._closed:
            return
        self._closed = True
        if self._lanes:
            if drain:
                await self.drain()
            loop = asyncio.get_running_loop()
            stops: List["asyncio.Future"] = []
            for queue in self._lanes.values():
                stop: "asyncio.Future" = loop.create_future()
                await queue.put(_Admission(kind="stop", future=stop))
                stops.append(stop)
            await asyncio.gather(*stops)
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
            self.coordinator.close()

    # ------------------------------------------------------------------ #
    # the service API
    # ------------------------------------------------------------------ #
    async def submit(self, request: DeployRequest,
                     deadline: Optional[float] = None) -> PipelineReport:
        """Admit one deployment request; resolves once it has committed.

        The returned :class:`PipelineReport` carries the outcome —
        per-request failures (``succeeded=False``, ``error``,
        ``failed_stage``) are reported, not raised, exactly as in
        ``deploy_many``; a request naming unknown host groups fails at
        ``validation`` without being queued.

        *deadline* is an absolute ``time.monotonic()`` instant.  A
        submission still queued when it passes fails fast with
        ``failed_stage="deadline"`` — no compile work is spent on it — and
        a cross-shard submission checks it again inside the two-phase
        commit: a deadline passing between the speculative phase and the
        commit wave aborts the prepare (residue-free, nothing was
        committed) instead of committing late.

        The request queues in its shard's lane; a request whose traffic
        spans shards runs through the coordinator's cross-shard two-phase
        commit instead, serialising against exactly the touched shards'
        commit locks.
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
        touched, route_error = self.coordinator._route(request)
        if route_error is not None:
            self.stats.record_wave(1, failures=1)
            if owns_trace:
                tracer.finish(request.trace, status="error")
            return route_error
        name = request.resolved_name()
        if len(touched) > 1:
            # register the in-flight cross submission (lane None) so a
            # racing barrier on the same name waits for it instead of
            # failing on a name the coordinator does not know yet
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
        await self._lanes[touched[0]].put(admission)
        return await admission.future

    async def remove(self, name: str, lazy: bool = True) -> SynthesisDelta:
        """Admit a removal; resolves once the resources are released.

        The removal is a barrier in the lane of the shard owning *name*: it
        runs after every submission admitted there before it has committed,
        and before any admitted after it — so racing ``submit``/``remove``
        histories stay identical to the equivalent serial schedule.
        Cross-shard programs release under the touched shards' commit
        locks without blocking any lane.  Removing an unknown (or
        not-yet-committed, per admission order) program raises
        :class:`DeploymentError`.
        """
        return await self._barrier(
            name, partial(self.coordinator.remove, name, lazy=lazy))

    async def update(self, name: str, **kwargs) -> PipelineReport:
        """Admit a rolling program update; resolves once the swap committed.

        Keyword arguments are those of :meth:`ClickINC.update_program
        <repro.core.controller.ClickINC.update_program>` (``source`` /
        ``profile`` / ``program`` plus compile options).  The update is a
        barrier exactly like :meth:`remove`, so concurrent
        ``submit``/``remove`` callers observe either the old version or the
        new one — never an interleaving.
        """
        return await self._barrier(
            name, partial(self.coordinator.update, name, **kwargs))

    async def fail_device(self, name: str) -> ShardedEventReport:
        """Fail a device; resolves with the migration report.

        The event routes through the coordinator, serialised on its locks:
        only the shards that can see the device do migration work; shard
        migrations that cannot re-place inside their view escalate to the
        coordinator's full-fabric controller.
        """
        self._ensure_started()
        return await self._run_direct(
            partial(self.coordinator.fail_device, name))

    async def drain_device(self, name: str) -> ShardedEventReport:
        """Drain a device for maintenance; like :meth:`fail_device` but the
        drained device's register/table state is carried to the new
        placement."""
        self._ensure_started()
        return await self._run_direct(
            partial(self.coordinator.drain_device, name))

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

    async def _barrier(self, name: str, run: Callable[[], object]):
        """Run the coordinator operation *run* on *name* as a barrier in
        the lane :meth:`_barrier_queue` picks, or directly without one."""
        await self._await_pending_cross(name)
        queue = self._barrier_queue(name)
        if queue is None:
            return await self._run_direct(run)
        admission = self._admit(_Admission(
            kind="barrier",
            future=asyncio.get_running_loop().create_future(),
            run=run,
        ))
        await queue.put(admission)
        return await admission.future

    def _barrier_queue(self, name: str) -> Optional["asyncio.Queue"]:
        """The lane a barrier on *name* must queue in, or None for the
        coordinator's direct (lock-serialised) path.

        A barrier goes to the lane of the shard owning the program — or,
        for a name whose submission is admitted but not yet committed, the
        lane that submission went to, so the barrier queues behind it
        exactly as in the serial schedule.  Cross-shard-owned and unknown
        programs take the direct path (the coordinator raises for unknown
        names).
        """
        self._ensure_started()
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
        service itself makes: the owning shard's id, or ``"cross"`` for a
        submission whose traffic spans shards (those bypass the lanes and
        serialise on the coordinator's locks instead).  Returns ``None``
        when the request cannot be routed at all (unknown host groups) —
        submitting it would fail with the same routing error.
        """
        touched, route_error = self.coordinator._route(request)
        if route_error is not None:
            return None
        return touched[0] if len(touched) == 1 else "cross"

    def deployed_programs(self) -> List[str]:
        return self.coordinator.deployed_programs()

    def service_summary(self) -> Dict[str, object]:
        """Batching counters, memo counters, and runtime-layer activity."""
        summary = self.stats.summary()
        # one memo is shared by every controller of the coordinator.  Flows
        # into the gateway's /v1/status via gateway_summary().
        summary["memo"] = self.coordinator.memo.summary()
        runtime = getattr(self.controller, "_runtime", None)
        if runtime is not None:
            summary["runtime"] = runtime.runtime_summary()
        summary["coordinator"] = self.coordinator.coordinator_summary()
        return summary

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self, queue: "asyncio.Queue[_Admission]",
                             shard_id: str) -> None:
        """Drain shard *shard_id*'s admission lane into compile waves,
        forever.

        The submissions already queued form one wave (bounded by
        ``max_wave``); a barrier — or the stop sentinel — closes the wave
        being collected and runs after it commits.
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
                await self._run_wave(loop, wave, shard_id)
            if barrier is not None:
                if barrier.kind == "stop":
                    barrier.future.set_result(None)
                    return
                await self._run_barrier(loop, barrier)

    async def _run_wave(self, loop, wave: List[_Admission],
                        lane: str) -> None:
        # expired submissions fail before any compile work is spent on them;
        # the rest of the wave proceeds untouched
        live: List[_Admission] = []
        expired = 0
        now = time.monotonic()
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
        # the wave runs on the shard's own pipeline, holding only that
        # shard's commit lock
        run = partial(self.coordinator.deploy_wave, lane,
                      [admission.request for admission in wave])
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

    @staticmethod
    async def _run_barrier(loop, admission: _Admission) -> None:
        """Run one barrier operation (remove/update) alone."""
        try:
            result = await loop.run_in_executor(None, admission.run)
        except Exception as exc:
            if not admission.future.done():
                admission.future.set_exception(exc)
            return
        if not admission.future.done():
            admission.future.set_result(result)
