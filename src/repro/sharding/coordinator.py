"""The shard coordinator: routing, cross-shard 2PC, runtime escalation.

The :class:`ShardCoordinator` is the control-plane scale-out story: it
partitions a fabric into regions (:mod:`repro.topology.partition`), runs
one :class:`~repro.sharding.shard.ControllerShard` per region — each with
its own plan cache and runtime manager — and keeps the whole
thing serial-equivalent with a deliberately small commit protocol:

* **Intra-shard programs** (all traffic endpoints in one region) compile,
  place and commit entirely inside their shard, holding only that shard's
  commit lock — shards proceed in parallel with no global lock.
* **Cross-shard programs** go through a **two-phase commit**: the
  speculative phase compiles and places commit-free against a snapshot
  of the consulted devices' allocation states (no locks held); the
  prepare phase then takes exactly the touched shards' locks in
  deterministic order and asks each shard whether the states the plan
  recorded for its devices are still the live ones, and whether routing
  has moved.  Any conflict **aborts** the speculative plan —
  nothing was committed, so the abort leaves no residue by construction —
  and the commit wave falls back to a serial re-place under the held
  locks, which is exactly what the equivalent serial schedule would have
  produced.  The commit wave itself is the pipeline's existing
  validate-or-replace machinery (:meth:`CompilationPipeline
  .commit_speculative_result`), so the cross-shard path adds protocol, not
  new commit code.
* **Runtime events** route to the shards that can see the subject device
  (one shard for region-local devices, every shard for border devices);
  untouched shards see no migration work, no state changes and no cache
  invalidation.  A migration the owning shard cannot re-place inside its
  own view **escalates to the coordinator**, which retries on the full
  fabric — the program becomes coordinator-owned (cross-shard) if that
  succeeds.

Because every shard view shares ``Device`` objects with the full-fabric
topology the coordinator's own controller uses, resource accounting needs
no reconciliation: a commit anywhere is immediately visible to every
placement that can see the device.

**A one-region partition is the fabric.**  A partition with one region and
no border (:func:`~repro.topology.partition.whole_fabric_partition`) gets
exactly one :class:`ClickINC`, over the topology itself: it is both the
only shard's controller and :attr:`ShardCoordinator.inter`.  Every request
then routes to that one shard, nothing is cross-shard, and a shard
migration has nothing larger to escalate to.  This is the stack the
default :class:`~repro.core.service.INCService` runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.controller import ClickINC
from repro.core.pipeline import DeployRequest, PipelineReport, deadline_report
from repro.core.stats import ServiceStats
from repro.exceptions import DeploymentError
from repro.placement.memo import PlacementMemo
from repro.runtime.manager import MigrationReport, RuntimeManager
from repro.sharding.shard import ControllerShard
from repro.synthesis.incremental import SynthesisDelta
from repro.topology.network import NetworkTopology
from repro.topology.partition import (
    PartitionMap,
    partition_by_pod,
    whole_fabric_partition,
)

__all__ = ["ShardCoordinator", "ShardedEventReport", "CROSS_SHARD"]

#: Owner tag for programs committed through the cross-shard path.
CROSS_SHARD = "<cross-shard>"
#: Owner tag of a name claimed by a submission that has not committed yet.
PENDING = "<pending>"


@dataclass
class ShardedEventReport:
    """Outcome of one fabric event (fail/drain) across the shards it hit."""

    kind: str
    subject: str
    #: per-shard migration outcomes, only for shards that see the device
    shard_reports: Dict[str, MigrationReport] = field(default_factory=dict)
    #: migration of coordinator-owned (cross-shard) programs
    cross_report: Optional[MigrationReport] = None
    #: programs a shard could not re-place inside its own view that the
    #: coordinator successfully re-homed on the full fabric
    escalated: List[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Every shard's migration and the cross-shard one succeeded."""
        reports = list(self.shard_reports.values()) + [self.cross_report]
        return all(r.succeeded for r in reports if r is not None)

    def migrated(self) -> List[str]:
        """Every program that ended up on new devices, coordinator-wide."""
        moved: List[str] = []
        for report in self.shard_reports.values():
            moved.extend(report.migrated)
        if self.cross_report is not None:
            moved.extend(self.cross_report.migrated)
        moved.extend(self.escalated)
        return sorted(set(moved))

    def summary(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "shards": {sid: report.summary()
                       for sid, report in sorted(self.shard_reports.items())},
            "cross": (self.cross_report.summary()
                      if self.cross_report is not None else None),
            "escalated": list(self.escalated),
            "migrated": self.migrated(),
        }


class ShardCoordinator:
    """Partitioned controller shards plus the cross-shard commit protocol.

    Parameters
    ----------
    topology:
        The full fabric.  Shard views are derived from it and share its
        ``Device``/``Link`` objects.
    partition:
        An explicit :class:`PartitionMap`; defaults to
        :func:`partition_by_pod` (one shard per pod, cores on the border —
        degenerating to a single whole-fabric shard on unlabelled
        topologies).  A partition with one region and no border builds one
        controller, over *topology* itself, which is also :attr:`inter`.
    memo:
        A :class:`~repro.placement.memo.PlacementMemo` shared by
        every shard *and* the coordinator's own full-fabric controller; one
        is created when omitted.  Memo keys are name-blind sub-tree
        signatures over shared ``Device`` content, so shard A's pod table
        warms the isomorphic pods of every other shard, and the memo's
        per-key single-flight guard keeps concurrent shard threads from
        deriving the same table twice.
    controller_kwargs:
        Forwarded to every shard's (and the coordinator's own)
        :class:`ClickINC` controller.
    """

    def __init__(self, topology: NetworkTopology,
                 partition: Optional[PartitionMap] = None, *,
                 memo: Optional[PlacementMemo] = None,
                 **controller_kwargs) -> None:
        partition = partition or partition_by_pod(topology)
        memo = memo if memo is not None else PlacementMemo()
        controllers = {
            shard_id: ClickINC(view, memo=memo, **controller_kwargs)
            for shard_id, view in partition.shard_views(topology).items()
        }
        # a one-region partition's only view is the fabric itself, so its
        # controller already is the full-fabric one
        inter = next((controller for controller in controllers.values()
                      if controller.topology is topology), None)
        if inter is None:
            inter = ClickINC(topology, memo=memo, **controller_kwargs)
        self._assemble(topology, partition, controllers, inter)

    @classmethod
    def serving(cls, controller: ClickINC) -> "ShardCoordinator":
        """A one-shard coordinator whose only shard — and full-fabric
        controller — is the existing *controller*, so the programs it
        already deployed are the coordinator's."""
        partition = whole_fabric_partition(controller.topology)
        (region,) = partition.regions
        coordinator = cls.__new__(cls)
        coordinator._assemble(controller.topology, partition,
                              {region: controller}, controller)
        return coordinator

    def _assemble(self, topology: NetworkTopology, partition: PartitionMap,
                  controllers: Dict[str, ClickINC], inter: ClickINC) -> None:
        self.topology = topology
        self.partition = partition
        self.memo = inter.memo
        self.shards: Dict[str, ControllerShard] = {
            shard_id: ControllerShard(shard_id, controller)
            for shard_id, controller in controllers.items()
        }
        #: the coordinator's own full-fabric controller: cross-shard
        #: programs compile, commit and run through it
        self.inter = inter
        self.stats = ServiceStats()
        # one counter bag per shard, shared between the shard object and the
        # coordinator's per-shard breakdown — incremented exactly once
        for shard_id, shard in self.shards.items():
            self.stats.per_shard[shard_id] = shard.stats
        self.obs = self.inter.obs
        registry = self.obs.registry
        registry.register_counters("clickinc_service", self.stats)
        for shard_id, shard in self.shards.items():
            registry.register_counters("clickinc_shard", shard.stats,
                                       labels={"shard": shard_id})
        self._2pc_hist = registry.histogram(
            "clickinc_2pc_phase_seconds",
            "Seconds per cross-shard two-phase-commit phase",
            ("phase",))
        #: names claimed by submissions that have not committed yet
        self._pending: Set[str] = set()
        self._registry_lock = threading.Lock()
        #: serialises every mutation of the coordinator's own full-fabric
        #: controller (two cross-shard commits touching *disjoint* shard
        #: sets would otherwise race on the shared ``inter`` synthesizer /
        #: emulator).  Always acquired *before* any shard lock, and never
        #: from intra-shard paths, so the global acquisition order
        #: (inter lock -> sorted shard locks) stays deadlock-free.
        self._inter_lock = threading.RLock()
        #: test hook: called between the speculative phase and the prepare
        #: phase of a cross-shard commit (the window in which a concurrent
        #: intra-shard commit forces an aborted prepare)
        self._pre_prepare_hook = None
        #: test hook: called between a clean prepare vote and the commit
        #: wave, with the touched shards' locks held (the window in which a
        #: passing deadline must abort instead of committing late)
        self._post_prepare_hook = None

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def shards_for_request(self, request: DeployRequest) -> List[str]:
        """Sorted shard ids the request's traffic endpoints touch.

        Raises :class:`~repro.exceptions.TopologyError` for unknown host
        groups or groups hanging off border devices; the deploy entry
        points catch that and report it per-request (:meth:`_route`).
        """
        groups = list(request.source_groups) + [request.destination_group]
        return self.partition.regions_of_groups(self.topology, groups)

    @staticmethod
    def _failed_report(name: str, error: str) -> PipelineReport:
        return PipelineReport(program_name=name, error=error,
                              failed_stage="validation")

    def _route(self, request: DeployRequest):
        """``(touched shards, None)`` or ``(None, failed report)``.

        Un-routable requests (unknown host groups, groups on the border)
        fail like any other bad request — captured in a report, never
        raised — so one of them cannot abort a whole batch.
        """
        try:
            return self.shards_for_request(request), None
        except Exception as exc:
            return None, self._failed_report(request.resolved_name(),
                                             str(exc))

    def owner_of(self, name: str) -> Optional[str]:
        """The shard owning *name*, :data:`CROSS_SHARD`, :data:`PENDING`
        or None.

        Read from the controllers' ``deployed`` registries — the shards'
        first, then :attr:`inter`'s as cross-shard — so there is no second
        copy of ownership to keep in agreement.  Only a name no registry
        shows falls back to the pending claims.
        """
        for shard_id, shard in self.shards.items():
            if name in shard.controller.deployed:
                return shard_id
        if name in self.inter.deployed:
            return CROSS_SHARD
        return PENDING if name in self._pending else None

    def controller_for(self, name: str) -> ClickINC:
        """The controller actually hosting a deployed program."""
        return self._host(name)[1]

    def _host(self, name: str):
        """``(owner, hosting controller, shard ids guarding it)``.

        A shard-owned program is guarded by its shard's lock; a cross-shard
        one by the locks of every shard seeing one of its devices.
        """
        owner = self.owner_of(name)
        if owner is None or owner == PENDING:
            raise DeploymentError(f"program {name!r} is not deployed")
        if owner != CROSS_SHARD:
            return owner, self.shards[owner].controller, (owner,)
        deployed = self.inter.deployed.get(name)
        if deployed is None:    # removed since owner_of: the re-read settles
            return owner, self.inter, tuple(sorted(self.shards))
        return owner, self.inter, tuple(sorted({
            shard_id for device in deployed.devices()
            for shard_id in self.shards_seeing_device(device)}))

    @contextmanager
    def _hosting(self, name: str):
        """Hold the locks guarding *name*; yields ``(owner, controller)``.

        The owner is read without a lock, then again under the locks it
        named: a device event holding them may have moved the program
        meanwhile (an escalation makes it cross-shard), and then the
        operation follows it to its new host instead of failing.
        """
        while True:
            host = self._host(name)
            owner, controller, shard_ids = host
            inter_lock = (self._inter_lock if owner == CROSS_SHARD
                          else nullcontext())
            with inter_lock, self._locks(shard_ids):
                if self._host(name) == host:
                    yield owner, controller
                    return

    def shards_seeing_device(self, device: str) -> List[str]:
        """Sorted ids of every shard whose view contains *device*."""
        return sorted(sid for sid, shard in self.shards.items()
                      if shard.sees_device(device))

    @contextmanager
    def _locks(self, shard_ids: Sequence[str]):
        """Hold the commit locks of *shard_ids*, acquired in sorted order.

        Deterministic ordering is the deadlock-freedom argument: every
        multi-shard operation acquires the same global order, so two
        overlapping lock sets can never wait on each other cyclically.
        """
        acquired: List[ControllerShard] = []
        try:
            for shard_id in sorted(set(shard_ids)):
                shard = self.shards[shard_id]
                shard.lock.acquire()
                acquired.append(shard)
            yield
        finally:
            for shard in reversed(acquired):
                shard.lock.release()

    def _claim(self, name: str) -> Optional[str]:
        """Reserve *name* coordinator-wide; returns an error string if taken."""
        with self._registry_lock:
            if self.owner_of(name) is not None:
                return f"program {name!r} is already deployed"
            self._pending.add(name)
            return None

    def _release_claim(self, name: str) -> None:
        """Drop a pending claim: the commit registered the name, or failed."""
        with self._registry_lock:
            self._pending.discard(name)

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def deploy(self, request: DeployRequest,
               deadline: Optional[float] = None) -> PipelineReport:
        """Deploy one request, routed to its shard or the cross-shard path.

        Failures are captured in the returned report (``succeeded=False``,
        ``error``, ``failed_stage``), exactly as in ``deploy_many``.

        *deadline* (absolute ``time.monotonic()``) applies to cross-shard
        requests: a deadline passing inside the two-phase commit — before
        the prepare, or between a clean prepare vote and the commit wave —
        **aborts** the commit instead of landing it late.  Nothing has been
        committed at either abort point, so the abort is residue-free by the
        same construction as a conflict abort.
        """
        touched, route_error = self._route(request)
        if route_error is not None:
            return route_error
        if len(touched) == 1:
            return self.deploy_wave(touched[0], [request])[0]
        return self._deploy_cross_claimed(request, touched, deadline=deadline)

    def _deploy_cross_claimed(self, request: DeployRequest,
                              touched: Sequence[str],
                              deadline: Optional[float] = None
                              ) -> PipelineReport:
        """Claim the name, run the 2PC, release the claim."""
        name = request.resolved_name()
        claim_error = self._claim(name)
        if claim_error is not None:
            return self._failed_report(name, claim_error)
        try:
            return self._deploy_cross(request, touched, deadline=deadline)
        finally:
            self._release_claim(name)

    def deploy_wave(self, shard_id: str, requests: Sequence[DeployRequest]
                    ) -> List[PipelineReport]:
        """Deploy one shard's wave: claim names, dispatch, release claims.

        The caller has already routed *requests* to *shard_id* (all traffic
        endpoints inside that region).  The pure phase runs outside any
        lock; only the commit phase holds the shard's commit lock, which
        keeps it exactly the window cross-shard prepares ever wait on — so
        waves of different shards run concurrently.  Each commit registers
        its program in the shard controller's ``deployed`` before the lock
        is released.  Reports come back in request order; duplicates of an
        already-deployed name fail at the ``validation`` stage without
        dispatch.
        """
        requests = list(requests)
        reports: List[Optional[PipelineReport]] = [None] * len(requests)
        dispatch: List[int] = []
        for index, request in enumerate(requests):
            name = request.resolved_name()
            claim_error = self._claim(name)
            if claim_error is not None:
                reports[index] = self._failed_report(name, claim_error)
            else:
                dispatch.append(index)
        if dispatch:
            shard = self.shards[shard_id]
            try:
                wave = shard.controller.deploy_many(
                    [requests[i] for i in dispatch], commit_guard=shard.lock)
            finally:
                # a dispatch crash must not strand pending claims — they
                # would block the names forever
                for i in dispatch:
                    self._release_claim(requests[i].resolved_name())
            shard.stats.increment("deploys",
                                  sum(1 for r in wave if r.succeeded))
            for i, report in zip(dispatch, wave):
                reports[i] = report
        return reports  # type: ignore[return-value]

    def deploy_many(self, requests: Sequence[DeployRequest]
                    ) -> List[PipelineReport]:
        """Deploy a batch: per-shard waves in parallel, then cross-shard.

        Requests are grouped by owning shard; each group runs as one wave
        through its shard's own pipeline, concurrently
        with the other shards' waves — the commit phases hold only their
        own shard's lock.  Requests spanning shards run afterwards, in
        request order, through the two-phase commit.  Reports come back in
        request order; per-request failures are captured, not raised.
        """
        requests = list(requests)
        reports: List[Optional[PipelineReport]] = [None] * len(requests)
        by_shard: Dict[str, List[int]] = {}
        cross: List[tuple] = []                  # (index, touched shards)
        for index, request in enumerate(requests):
            touched, route_error = self._route(request)
            if route_error is not None:
                reports[index] = route_error
            elif len(touched) == 1:
                by_shard.setdefault(touched[0], []).append(index)
            else:
                cross.append((index, touched))

        def run_shard_wave(shard_id: str, indices: List[int]) -> None:
            wave = [requests[i] for i in indices]
            for i, report in zip(indices, self.deploy_wave(shard_id, wave)):
                reports[i] = report

        if len(by_shard) > 1:
            with ThreadPoolExecutor(max_workers=len(by_shard)) as pool:
                # re-raises the first failed wave, in shard order
                list(pool.map(run_shard_wave, by_shard, by_shard.values()))
        else:
            for shard_id, indices in by_shard.items():
                run_shard_wave(shard_id, indices)

        for index, touched in cross:
            reports[index] = self._deploy_cross_claimed(requests[index],
                                                        touched)

        self.stats.record_wave(
            len(requests),
            failures=sum(1 for r in reports if r is not None and not r.succeeded),
        )
        return reports  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # the cross-shard two-phase commit
    # ------------------------------------------------------------------ #
    def _deploy_cross(self, request: DeployRequest,
                      touched: Sequence[str],
                      deadline: Optional[float] = None) -> PipelineReport:
        """Speculative place → per-shard prepare → atomic commit wave."""
        started = time.perf_counter()
        pipeline = self.inter.pipeline
        tracer = self.obs.tracer
        ctx = request.trace
        report = PipelineReport(program_name=request.resolved_name())

        # phase 1 (no locks): the pure phase, then a commit-free placement
        # — served by the inter pipeline's plan cache when it can be —
        # against a snapshot of the consulted devices' allocation states,
        # which the plan records.  The routing it was reduced under is read
        # first: a status flip that re-routes must abort even where no
        # consulted device changed.  The one placement request travels on
        # to the commit wave.
        spec_start = time.perf_counter()
        routing = pipeline.topology.forwarding_epoch()
        result = pipeline.compile_batch([request])[0]
        if result.program is not None:
            result.placement = pipeline.placement_request(result.program,
                                                          request)
            try:
                plan, result.plan_hit = pipeline.place_cached(
                    result.placement, store=False)
            except Exception:
                # advisory: without a plan the commit wave places under the
                # locks, and reports the failure if that fails too
                pass
            else:
                result.plan = plan
        spec_s = time.perf_counter() - spec_start
        self._2pc_hist.labels("speculative").observe(spec_s)
        tracer.emit(ctx, "2pc.speculative", spec_s, shards=list(touched))

        if self._pre_prepare_hook is not None:
            self._pre_prepare_hook()

        # the deadline gates lock acquisition: a 2PC already past it must
        # not take the touched shards' locks just to commit late
        if deadline is not None and time.monotonic() > deadline:
            self.stats.increment("deadline_aborts")
            self.obs.events.emit("deadline_abort", where="pre-prepare",
                                 program=report.program_name,
                                 shards=list(touched))
            return deadline_report(
                report.program_name,
                "the submission's deadline passed before the cross-shard "
                "prepare; the two-phase commit was aborted (nothing was "
                "committed)",
            )

        # phase 2 (inter lock + touched shards' locks only): validate-or-
        # abort prepare, then the commit wave.  Untouched shards keep
        # committing throughout.
        with self._inter_lock, self._locks(touched):
            if result.plan is not None:
                prepare_start = time.perf_counter()
                conflicts = self._prepare(result.plan, touched, routing)
                prepare_s = time.perf_counter() - prepare_start
                self._2pc_hist.labels("prepare").observe(prepare_s)
                tracer.emit(ctx, "2pc.prepare", prepare_s,
                            shards=list(touched),
                            conflicts=sorted(conflicts))
                if conflicts:
                    # abort the speculative plan.  Nothing has been
                    # committed anywhere, so the abort leaves every shard's
                    # allocation state and plan cache untouched by
                    # construction; the commit wave below re-places
                    # serially under the held locks instead.
                    self.stats.increment("aborted_prepares")
                    for shard_id in conflicts:
                        self.shards[shard_id].stats.increment("aborted_prepares")
                    self.obs.events.emit(
                        "aborted_prepare", program=report.program_name,
                        conflicts={shard: list(devs)
                                   for shard, devs in conflicts.items()})
                    result.plan = None
            if self._post_prepare_hook is not None:
                self._post_prepare_hook()
            if deadline is not None and time.monotonic() > deadline:
                # the deadline passed between the prepare vote and the
                # commit wave.  Every shard voted, but nothing has been
                # committed yet, so aborting here is as residue-free as a
                # conflict abort — the locks release with every shard's
                # allocation state and plan cache byte-identical.
                self.stats.increment("deadline_aborts")
                self.obs.events.emit("deadline_abort", where="post-prepare",
                                     program=report.program_name,
                                     shards=list(touched))
                return deadline_report(
                    report.program_name,
                    "the submission's deadline passed between the prepare "
                    "vote and the commit wave; the two-phase commit was "
                    "aborted (nothing was committed)",
                )
            commit_start = time.perf_counter()
            report = pipeline.commit_speculative_result(
                request, result, report, started
            )
            commit_s = time.perf_counter() - commit_start
            self._2pc_hist.labels("commit").observe(commit_s)
            tracer.emit(ctx, "2pc.commit", commit_s,
                        shards=list(touched), succeeded=report.succeeded)
            if report.succeeded:
                self.inter.deployed[report.program_name] = report.deployed
                self.stats.increment("cross_shard_commits")
                for shard_id in touched:
                    self.shards[shard_id].stats.increment("cross_shard_commits")
        return report

    def _prepare(self, plan, touched: Sequence[str],
                 routing: tuple) -> Dict[str, List[str]]:
        """Ask every touched shard to vote on *plan*: commit or abort.

        A shard votes to commit when every device of its view the search
        consulted still holds the state the plan recorded
        (:meth:`DPPlacer.validate`, one ``is`` per device).  Under the held
        locks that proves the plan is what a serial placement would make
        now, even if the lock-free snapshot mixed states from before and
        after a commit (a mixed state is not the live one).  A moved fabric
        forwarding epoch (*routing*, read before the search) aborts every
        shard: a status flip may route through devices the search never
        consulted.  Returns ``shard id -> drifted devices``; empty means
        every shard voted to commit.
        """
        if self.inter.pipeline.topology.forwarding_epoch() != routing:
            return {shard_id: ["<routing>"] for shard_id in sorted(touched)}
        conflicts: Dict[str, List[str]] = {}
        for shard_id in sorted(touched):
            shard = self.shards[shard_id]
            changed = shard.controller.placer.validate(
                plan, restrict=set(shard.view.devices)
            )
            if changed:
                conflicts[shard_id] = changed
        return conflicts

    # ------------------------------------------------------------------ #
    # removal
    # ------------------------------------------------------------------ #
    def remove(self, name: str, lazy: bool = True) -> SynthesisDelta:
        """Remove a program from whichever controller hosts it."""
        with self._hosting(name) as (owner, controller):
            delta = controller.remove(name, lazy=lazy)
        self.stats.increment("removed")
        if owner in self.shards:
            self.shards[owner].stats.increment("removed")
        return delta

    # ------------------------------------------------------------------ #
    # rolling updates
    # ------------------------------------------------------------------ #
    def update(self, name: str, **kwargs) -> PipelineReport:
        """Atomically swap a program's version on its hosting controller."""
        with self._hosting(name) as (_owner, controller):
            report = controller.runtime().update_program(name, **kwargs)
        self.stats.increment("updates")
        return report

    # ------------------------------------------------------------------ #
    # runtime event routing
    # ------------------------------------------------------------------ #
    def fail_device(self, name: str) -> ShardedEventReport:
        """Fail a device: route migration to the shards that see it.

        Each shard seeing the device migrates its own programs inside its
        view; coordinator-owned (cross-shard) programs migrate through the
        full-fabric controller; shards that cannot see the device do no
        work at all — no migrations, no state changes, no cache
        invalidation.  A shard migration that rolls back (no capacity left
        inside the view) escalates to the coordinator, which re-homes the
        affected programs on the full fabric.
        """
        return self._device_event(name, kind="fail", state_lost=True)

    def drain_device(self, name: str) -> ShardedEventReport:
        """Drain a device for maintenance; register/table state is kept."""
        return self._device_event(name, kind="drain", state_lost=False)

    def restore_device(self, name: str) -> bool:
        """Bring a failed/drained device back, refreshing every watcher."""
        seeing = self.shards_seeing_device(name)
        with self._inter_lock, self._locks(seeing):
            # always refresh the inter controller's monitor too: a shard's
            # restore already flipped the shared device, and a stale inter
            # baseline would re-report the recovery on its next poll()
            changed = [controller.runtime().restore_device(name)
                       for controller in self._controllers(seeing)]
        return any(changed)

    def _controllers(self, shard_ids) -> List[ClickINC]:
        """The controllers of *shard_ids*, then :attr:`inter` — each once
        (a one-region partition's shard controller *is* ``inter``)."""
        controllers = [self.shards[shard_id].controller
                       for shard_id in shard_ids]
        if self.inter not in controllers:
            controllers.append(self.inter)
        return controllers

    def _device_event(self, name: str, kind: str,
                      state_lost: bool) -> ShardedEventReport:
        seeing = self.shards_seeing_device(name)
        if not seeing and name not in self.topology.devices:
            raise DeploymentError(f"unknown device {name!r}")
        event = ShardedEventReport(kind=kind, subject=name)
        # migration *work* routes to the shards seeing the device, but the
        # lock set is every shard: re-placing a cross-shard program (and
        # escalation) searches the full fabric, so it may allocate on
        # devices of shards that never see the failed one — committing
        # there without their lock would race their intra-shard waves.
        # Untouched shards are only paused, never worked: no migrations,
        # no state changes, no cache invalidation.
        # The whole-fabric shard of a one-region partition is ``inter``
        # itself: it migrates once, and has nothing larger to escalate to.
        migrate = (RuntimeManager.fail_device if state_lost
                   else RuntimeManager.drain_device)
        with self._inter_lock, self._locks(self.shards):
            seen_by = {shard_id: self.shards[shard_id].controller
                       for shard_id in seeing}
            for shard_id, controller in seen_by.items():
                event.shard_reports[shard_id] = migrate(
                    controller.runtime(), name)
            if self.inter not in seen_by.values():
                event.cross_report = migrate(self.inter.runtime(), name)
            for shard_id in seeing:
                report = event.shard_reports[shard_id]
                if (report.rolled_back and report.affected
                        and seen_by[shard_id] is not self.inter):
                    event.escalated.extend(
                        self._escalate(shard_id, report, name, state_lost)
                    )
        migrated = event.migrated()
        self.stats.increment("migrations", len(migrated))
        for shard_id in seeing:
            self.shards[shard_id].stats.increment(
                "migrations", len(event.shard_reports[shard_id].migrated)
            )
        return event

    def _escalate(self, shard_id: str, report: MigrationReport,
                  subject: str, state_lost: bool) -> List[str]:
        """Re-home programs a shard could not re-place inside its view.

        The shard rolled its migration back, so every affected program is
        committed exactly as before the event (possibly still occupying the
        failed device).  Each one, in turn, is swapped from the shard's
        pipeline into the coordinator's full-fabric one — devices the shard
        view cannot see may still have capacity and paths.  On success the
        program becomes coordinator-owned (registered with :attr:`inter`
        before the shard drops it, so it never reads as undeployed); on
        failure the swap left the shard's committed state as it was.
        """
        source = self.shards[shard_id].controller
        escalated: List[str] = []
        for name in report.affected:
            deployed = source.deployed.get(name)
            if deployed is None:
                continue
            try:
                (moved,) = source.pipeline.swap(
                    [deployed], [deployed.request()],
                    into=self.inter.pipeline,
                    lost=(subject,) if state_lost else ())
            except Exception:
                continue
            self.inter.deployed[name] = moved.deployed
            del source.deployed[name]
            escalated.append(name)
        return escalated

    # ------------------------------------------------------------------ #
    # traffic + inspection
    # ------------------------------------------------------------------ #
    def run_traffic(self, name: str, packets, **kwargs):
        """Run packets through the emulator of the controller hosting
        *name* (each controller emulates the programs it committed)."""
        return self.controller_for(name).run_traffic(packets, **kwargs)

    def deployed_programs(self) -> List[str]:
        """Every program the controllers' registries hold."""
        return sorted(set().union(
            *(controller.deployed
              for controller in self._controllers(self.shards))))

    def placement_summary(self, name: str) -> Dict[str, object]:
        return self.controller_for(name).placement_summary(name)

    def coordinator_summary(self) -> Dict[str, object]:
        """Coordinator-wide counters plus every shard's breakdown."""
        summary = self.stats.summary()
        summary["shards"] = {shard_id: shard.summary()
                             for shard_id, shard in sorted(self.shards.items())}
        summary["cross_shard_programs"] = sum(
            1 for name in self.deployed_programs()
            if self.owner_of(name) == CROSS_SHARD)
        summary["memo"] = self.memo.summary()
        return summary

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every shard's controller and the coordinator's own (each
        once)."""
        for controller in self._controllers(self.shards):
            controller.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(shards={sorted(self.shards)}, "
            f"programs={len(self.deployed_programs())})"
        )
