"""The staged compilation pipeline behind the ClickINC controller.

A deployment is an explicit sequence of named stages::

    frontend -> ir-verify -> placement -> synthesis -> emulator-install -> codegen

and there is **one** way a request travels through them
(:meth:`CompilationPipeline.run_many`):

1. the *pure phase* — :meth:`CompilationPipeline.compile_batch` — runs
   ``frontend`` and ``ir-verify`` for every request of the batch, in request
   order, in this process.  It reads nothing but the request and the shared
   :class:`~repro.core.cache.ArtifactCache`, so it holds no lock; a verified
   program is stored as it is compiled, so requests of one batch with equal
   content compile once;
2. the *commit phase* — :meth:`CompilationPipeline.commit_speculative_result`
   per request, in admission order, under the caller's commit guard — places
   through the plan cache (:meth:`CompilationPipeline.place_cached`) against
   the live topology, then synthesises, installs and generates code.  A
   caller that placed *speculatively* between the two phases (the
   cross-shard two-phase commit, through the same plan cache) hands its
   plan in: it commits untouched when no consulted device changed and is
   re-placed on conflict.

A batch therefore yields exactly the placements of the equivalent serial
loop.  :meth:`CompilationPipeline.run` is a batch of one that re-raises the
failure its report captured.  :meth:`CompilationPipeline.swap` is the one
way a committed program changes — rolling update, migration, escalation.

Every stage appends a :class:`StageRecord` (duration, cache-hit flag,
diagnostics) to the deployment's :class:`PipelineReport`.  If a commit stage
fails, the stages already committed are rolled back in reverse order, so a
mid-pipeline failure leaves the placer, synthesizer and emulator exactly as
they were before the deployment started.
"""

from __future__ import annotations

import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backend.codegen import generate_for_device
from repro.core.cache import ArtifactCache
from repro.devices import AllocState
from repro.emulator.network import NetworkEmulator
from repro.exceptions import DeploymentError
from repro.frontend.compiler import (
    FrontendCompiler,
    profile_compile_key,
    source_compile_key,
)
from repro.ir.program import IRProgram
from repro.ir.verify import verify_program
from repro.lang.profile import Profile
from repro.obs import Observability
from repro.obs.trace import TraceContext
from repro.placement.blocks import BlockDAG
from repro.placement.dp import DPPlacer, PlacementRequest, RoutedTree
from repro.placement.plan import BlockAssignment, PlacementPlan
from repro.synthesis.incremental import IncrementalSynthesizer, SynthesisDelta
from repro.topology.network import NetworkTopology

#: Canonical stage order of one deployment.
STAGE_ORDER = (
    "frontend",
    "ir-verify",
    "placement",
    "synthesis",
    "emulator-install",
    "codegen",
)


@dataclass
class DeployRequest:
    """One tenant's deployment request, in any of the three input forms.

    Exactly one of ``profile`` (template app), ``source`` (hand-written
    ClickINC program) or ``program`` (pre-compiled IR) must be given.
    """

    source_groups: Sequence[str]
    destination_group: str
    name: Optional[str] = None
    profile: Optional[Profile] = None
    source: Optional[str] = None
    program: Optional[IRProgram] = None
    constants: Optional[Dict[str, object]] = None
    header_fields: Optional[Dict[str, int]] = None
    traffic_rates: Optional[Dict[str, float]] = None
    #: Distributed-tracing context.  Attached by whoever started the trace
    #: (gateway or service), propagated through admission queues and
    #: executor hops, and deliberately excluded from every cache key (keys
    #: derive from program content and placement state).
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        inputs = [x is not None for x in (self.profile, self.source, self.program)]
        if sum(inputs) != 1:
            raise DeploymentError(
                "a DeployRequest needs exactly one of profile/source/program"
            )
        if self.source is not None and not self.name:
            raise DeploymentError("source-based requests must carry a name")

    def resolved_name(self) -> str:
        if self.name:
            return self.name
        if self.profile is not None:
            return f"{self.profile.app.lower()}_{self.profile.user}"
        return self.program.name  # program path; source path always has a name


@dataclass
class StageRecord:
    """Timing + diagnostics of one pipeline stage of one deployment."""

    name: str
    duration_s: float
    cache_hit: bool = False
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class DeployedProgram:
    """Book-keeping for one deployed user program."""

    name: str
    plan: PlacementPlan
    delta: SynthesisDelta
    source_groups: List[str]
    destination_group: str
    device_sources: Dict[str, str] = field(default_factory=dict)
    deploy_time_s: float = 0.0
    report: Optional["PipelineReport"] = None
    #: The request's per-source traffic rates, retained so the runtime layer
    #: can re-place the program with identical parameters after a failure.
    traffic_rates: Optional[Dict[str, float]] = None

    def devices(self) -> List[str]:
        return self.plan.devices_used()

    def request(self, **version) -> DeployRequest:
        """The request that deploys this program again under its name,
        routing and traffic rates.

        Without *version* it carries the committed IR (a re-placement);
        otherwise *version* — ``source`` / ``profile`` / ``program`` plus
        compile options — describes the new version.  ``traffic_rates``
        left ``None`` keeps the committed rates.
        """
        fields: Dict[str, object] = (
            {} if version else {"program": self.plan.block_dag.program})
        fields["traffic_rates"] = (dict(self.traffic_rates)
                                   if self.traffic_rates else None)
        fields.update((key, value) for key, value in version.items()
                      if value is not None)
        return DeployRequest(source_groups=list(self.source_groups),
                             destination_group=self.destination_group,
                             name=self.name, **fields)


@dataclass
class PipelineReport:
    """Per-deployment result: stage records plus the outcome."""

    program_name: str
    stages: List[StageRecord] = field(default_factory=list)
    total_s: float = 0.0
    succeeded: bool = False
    error: Optional[str] = None
    failed_stage: Optional[str] = None
    deployed: Optional[DeployedProgram] = None
    #: the typed exception behind ``error``;
    #: :meth:`CompilationPipeline.run` re-raises it
    exception: Optional[BaseException] = field(default=None, repr=False,
                                               compare=False)

    def stage(self, name: str) -> StageRecord:
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(f"no stage record named {name!r}")

    def cache_hits(self) -> List[str]:
        return [record.name for record in self.stages if record.cache_hit]

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "succeeded": self.succeeded,
            "total_s": round(self.total_s, 4),
            "failed_stage": self.failed_stage,
            "stages": {
                record.name: {
                    "duration_s": round(record.duration_s, 6),
                    "cache_hit": record.cache_hit,
                }
                for record in self.stages
            },
        }


def complete_report(report: PipelineReport, started: float,
                    deployed: Optional[DeployedProgram] = None, *,
                    exception: Optional[BaseException] = None
                    ) -> PipelineReport:
    """Fill in the outcome of *report*: success with *deployed*, else the
    failure *exception* (whose ``pipeline_stage`` names the failed stage)."""
    report.total_s = time.perf_counter() - started
    report.succeeded = deployed is not None
    if deployed is not None:
        report.deployed = deployed
        deployed.deploy_time_s = report.total_s
        deployed.report = report
    else:
        report.error = str(exception)
        report.failed_stage = getattr(exception, "pipeline_stage", None)
        report.exception = exception
    return report


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
class SpeculativeResult:
    """Outcome of the pure phase for one request.

    Either ``program`` and its stage ``records``, or the ``exception`` that
    stopped it (annotated with ``pipeline_stage``).  ``plan`` is a
    commit-free placement the caller computed before the commit phase (the
    cross-shard two-phase commit does) for ``placement``, which the commit
    phase reuses; ``plan_hit`` says the plan cache served it.  When ``plan``
    is ``None`` the commit phase places against the live topology.
    """

    program: Optional[IRProgram] = None
    records: List[StageRecord] = field(default_factory=list)
    plan: Optional[PlacementPlan] = None
    exception: Optional[BaseException] = None
    placement: Optional[PlacementRequest] = None
    plan_hit: bool = False


def program_cache_key(request: DeployRequest, cache: ArtifactCache) -> Optional[str]:
    """The ``program`` cache address of *request*, or None if precompiled."""
    if request.program is not None:
        return None
    if request.profile is not None:
        return cache.make_key("program", profile_compile_key(request.profile))
    return cache.make_key(
        "program",
        source_compile_key(request.source, request.constants,
                           request.header_fields),
    )


def rebrand_plan(plan: PlacementPlan, program: IRProgram) -> PlacementPlan:
    """Re-own a cached placement plan for *program*.

    The cached plan was computed for an identical program content under a
    (possibly) different name; block instruction uids are assigned
    sequentially by compilation order, so they transfer unchanged.  The
    returned plan shares the immutable search artifacts (blocks, DAG edges,
    stage assignments) but carries the new owner, so the snippets it
    materialises are annotated for the new tenant.
    """
    dag = plan.block_dag
    if len(program) != len(dag.program):
        raise DeploymentError(
            f"cached plan for {dag.program.name!r} does not match program "
            f"{program.name!r} ({len(dag.program)} vs {len(program)} instructions)"
        )
    new_dag = BlockDAG(
        program=program,
        blocks=list(dag.blocks),
        graph=dag.graph,
    )
    return PlacementPlan(
        program_name=program.name,
        block_dag=new_dag,
        assignments=[
            BlockAssignment(a.block_id, a.ec_id, list(a.device_names),
                            a.step, dict(a.stage_assignments), a.replicated)
            for a in plan.assignments
        ],
        gain=plan.gain,
        algorithm=plan.algorithm,
        compile_time_s=plan.compile_time_s,
        served_traffic_fraction=plan.served_traffic_fraction,
        transfer_bits=plan.transfer_bits,
        metadata=dict(plan.metadata),
        program_fingerprint=plan.program_fingerprint,
        device_states=dict(plan.device_states),
    )


class CompilationPipeline:
    """Runs deployments as an explicit staged pipeline over shared backends."""

    def __init__(
        self,
        topology: NetworkTopology,
        compiler: FrontendCompiler,
        placer: DPPlacer,
        synthesizer: IncrementalSynthesizer,
        emulator: NetworkEmulator,
        cache: Optional[ArtifactCache] = None,
        generate_code: bool = True,
        adaptive_weights: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        self.topology = topology
        self.compiler = compiler
        self.placer = placer
        self.synthesizer = synthesizer
        self.emulator = emulator
        self.cache = cache if cache is not None else ArtifactCache()
        self.generate_code = generate_code
        self.adaptive_weights = adaptive_weights
        #: content fingerprint -> the program the stored plans of that
        #: content are owned by (see :meth:`_admit`)
        self._plan_programs: "weakref.WeakValueDictionary[str, IRProgram]" = (
            weakref.WeakValueDictionary())
        self.obs = obs if obs is not None else Observability.default()
        registry = self.obs.registry
        self._stage_hist = registry.histogram(
            "clickinc_pipeline_stage_seconds",
            "Wall-clock seconds per pipeline stage per deployment",
            ("stage",))
        self._phase_hist = registry.histogram(
            "clickinc_wave_phase_seconds",
            "Seconds per deployment-wave phase (compile / commit)",
            ("phase",))
        self._memo_hit_hist = registry.histogram(
            "clickinc_memo_hit_seconds",
            "Service time of plan-cache / placement-memo warm hits")

    # ------------------------------------------------------------------ #
    # pure stages (safe to run concurrently across requests)
    # ------------------------------------------------------------------ #
    def compile_stages(self, request: DeployRequest
                       ) -> Tuple[IRProgram, List[StageRecord]]:
        """Run the pure ``frontend`` and ``ir-verify`` stages of one request.

        A verified program enters the content-addressed ``program``
        namespace as soon as it is compiled, so the next request with equal
        content — in the same batch or a later one — only re-owns it.
        Exceptions are annotated with a ``pipeline_stage`` attribute naming
        the failing stage.
        """
        records: List[StageRecord] = []
        name = request.resolved_name()

        start = time.perf_counter()
        stage = "frontend"
        try:
            hit = False
            key = None
            if request.program is not None:
                program = request.program
                if program.name != name:
                    program = program.rebrand(name)
                detail: Dict[str, object] = {"kind": "precompiled"}
            else:
                kind = "profile" if request.profile is not None else "source"
                key = program_cache_key(request, self.cache)
                hit, cached = self.cache.lookup(key)
                if hit:
                    program = cached.rebrand(name)
                elif request.profile is not None:
                    program = self.compiler.compile_profile(request.profile,
                                                            name=name)
                else:
                    program = self.compiler.compile_source(
                        request.source, name=name, constants=request.constants,
                        header_fields=request.header_fields,
                    )
                detail = {"kind": kind, "instructions": len(program)}
            records.append(StageRecord(stage, time.perf_counter() - start,
                                       cache_hit=hit, detail=detail))

            stage = "ir-verify"
            start = time.perf_counter()
            verify_program(program)
            records.append(StageRecord(stage, time.perf_counter() - start))
            if key is not None and not hit:
                # only verified programs enter the content-addressed store
                self.cache.store(key, program)
        except Exception as exc:
            setattr(exc, "pipeline_stage", stage)
            raise
        return program, records

    def compile_batch(self, requests: Sequence[DeployRequest]
                      ) -> List[SpeculativeResult]:
        """Run the pure phase of a batch; results in request order.

        Never raises for a request's own failure: it comes back on the
        request's result so the rest of the batch proceeds.
        """
        compile_start = time.perf_counter()
        results: List[SpeculativeResult] = []
        for request in requests:
            try:
                program, records = self.compile_stages(request)
            except Exception as exc:
                results.append(SpeculativeResult(exception=exc))
            else:
                results.append(SpeculativeResult(program=program,
                                                 records=records))
        self._phase_hist.labels("compile").observe(
            time.perf_counter() - compile_start)
        return results

    def placement_request(self, program: IRProgram,
                          request: DeployRequest) -> PlacementRequest:
        """The placement search input for *program* deployed as *request*."""
        return PlacementRequest(
            program=program,
            source_groups=list(request.source_groups),
            destination_group=request.destination_group,
            traffic_rates=dict(request.traffic_rates)
            if request.traffic_rates else None,
            adaptive_weights=self.adaptive_weights,
        )

    def plan_cache_key(self, placement_request: PlacementRequest,
                       routed: Optional[RoutedTree] = None,
                       states: Optional[Dict[str, AllocState]] = None) -> str:
        """Content address of a placement under the live topology state.

        The key covers the name-normalised program content, every placement
        parameter, the structural signature of the request's reduced tree
        and the allocation-state digests of exactly the devices a search
        over that tree consults (:meth:`DPPlacer.routed_tree`, memoised per
        forwarding epoch).  The search reads nothing else, so a hit is the
        plan it would make; a status or link flip moves the tree or a
        consulted state, and with it the key.  *routed* and *states* default
        to the live tree and ``routed.states()``; a caller that must know
        which states the key describes takes that snapshot and passes both.
        """
        if routed is None:
            routed = self.placer.routed_tree(placement_request)
        if states is None:
            states = routed.states()
        return self.cache.make_key(
            "plan",
            placement_request.program_fingerprint(),
            list(placement_request.source_groups),
            placement_request.destination_group,
            placement_request.traffic_rates or {},
            placement_request.max_block_size,
            placement_request.use_blocks,
            placement_request.adaptive_weights,
            placement_request.prune,
            routed.signature,
            [state.digest for state in states.values()],
        )

    # ------------------------------------------------------------------ #
    # commit stages (sequential; mutate shared placer/synth/emulator state)
    # ------------------------------------------------------------------ #
    def commit_stages(self, program: IRProgram, request: DeployRequest,
                      records: List[StageRecord],
                      speculative_plan: Optional[PlacementPlan] = None, *,
                      placement_request: Optional[PlacementRequest] = None,
                      speculative_hit: bool = False) -> DeployedProgram:
        """Run placement → synthesis → emulator-install → codegen.

        When a *speculative_plan* (a commit-free placement computed against
        an earlier snapshot of device allocations) is given, it is validated
        against the live topology first: if no consulted device changed, the
        plan commits as-is; otherwise the request is re-placed sequentially,
        which reproduces exactly what a serial loop would have computed.
        *placement_request* is the search input the caller already built
        (one per deployment); *speculative_hit* says the plan cache served
        the speculative plan, so there is nothing to write back.

        On failure every already-committed stage is rolled back in reverse
        order before the original exception is re-raised (annotated with a
        ``pipeline_stage`` attribute naming the failing stage).
        """
        name = program.name
        undo: List = []
        stage = "validation"
        try:
            if (name in self.synthesizer.plans
                    or name in self.emulator.deployments):
                # checked for both layers up front: their rollbacks below
                # scrub by name, so they must never see a live namesake
                raise DeploymentError(f"program {name!r} is already deployed")
            stage = "placement"
            start = time.perf_counter()
            if placement_request is None:
                placement_request = self.placement_request(program, request)
            plan: Optional[PlacementPlan] = None
            hit = False
            speculative_detail: Dict[str, object] = {}
            if speculative_plan is not None:
                conflicts = self.placer.validate(speculative_plan)
                if conflicts:
                    speculative_detail = {"speculative": False,
                                          "replaced_on_conflict": True,
                                          "conflicts": conflicts}
                else:
                    plan, hit = speculative_plan, speculative_hit
                    speculative_detail = {
                        "speculative": True,
                        "speculative_place_s": speculative_plan.compile_time_s,
                    }
                    # plan-cache write-back: a validated speculative plan is
                    # exactly what the sequential DP search would produce
                    # against the live (pre-commit) topology, so it may be
                    # stored under the address place_cached would use —
                    # keyed here, under the commit guard, not before the
                    # lock-free search
                    if not hit and self._admit(
                            self.plan_cache_key(placement_request),
                            placement_request, plan):
                        speculative_detail["plan_write_back"] = True
            if plan is None:
                plan, hit = self.place_cached(placement_request)
            self.placer.commit(plan)
            undo.append(lambda: self.placer.release(plan))
            detail: Dict[str, object] = {"devices": plan.devices_used(),
                                         "gain": round(plan.gain, 4)}
            detail.update(speculative_detail)
            records.append(StageRecord(
                stage, time.perf_counter() - start, cache_hit=hit,
                detail=detail,
            ))

            stage = "synthesis"
            start = time.perf_counter()
            # one materialisation per commit, read by synthesis, the
            # emulator install and codegen alike
            snippets = plan.device_snippets()
            # registered first: a merge that dies part-way is scrubbed too
            undo.append(lambda: self.synthesizer.rollback_add(name))
            delta = self.synthesizer.add_program(plan, snippets=snippets)
            records.append(StageRecord(
                stage, time.perf_counter() - start,
                detail={"affected_devices": delta.num_affected_devices},
            ))

            stage = "emulator-install"
            start = time.perf_counter()
            undo.append(lambda: self.emulator.rollback_deploy(name))
            self.emulator.deploy(plan, request.source_groups,
                                 request.destination_group,
                                 snippets=snippets)
            records.append(StageRecord(stage, time.perf_counter() - start))

            stage = "codegen"
            start = time.perf_counter()
            device_sources: Dict[str, str] = {}
            hits_before = self.cache.hits("codegen")
            if self.generate_code:
                blocks = plan.device_blocks()
                for device_name, snippet in snippets.items():
                    device = self.topology.device(device_name)
                    key = None
                    if plan.program_fingerprint is not None:
                        # the snippet is a function of the program content
                        # and name, the device and the blocks it hosts
                        # (their instruction uids pin the block partition)
                        key = self.cache.make_key(
                            "codegen", device.dev_type, device_name,
                            plan.program_name, plan.program_fingerprint,
                            blocks[device_name])
                    device_sources[device_name] = generate_for_device(
                        device, snippet, cache=self.cache, key=key
                    )
            hits_after = self.cache.hits("codegen")
            all_hit = bool(device_sources) and (
                hits_after - hits_before == len(device_sources)
            )
            records.append(StageRecord(
                stage, time.perf_counter() - start, cache_hit=all_hit,
                detail={"devices": sorted(device_sources)},
            ))
        except Exception as exc:
            rollback_errors = []
            for action in reversed(undo):
                try:
                    action()
                except Exception as rollback_exc:  # keep the original error
                    rollback_errors.append(repr(rollback_exc))
            setattr(exc, "pipeline_stage", stage)
            if rollback_errors:
                setattr(exc, "pipeline_rollback_errors", rollback_errors)
            raise

        return DeployedProgram(
            name=name,
            plan=plan,
            delta=delta,
            source_groups=list(request.source_groups),
            destination_group=request.destination_group,
            device_sources=device_sources,
            traffic_rates=dict(request.traffic_rates)
            if request.traffic_rates else None,
        )

    def place_cached(self, placement_request: PlacementRequest, *,
                     store: bool = True) -> Tuple[PlacementPlan, bool]:
        """Placement memoised under :meth:`plan_cache_key`; ``(plan, hit)``.

        A miss places and, with *store*, offers the plan to the cache.  A
        caller searching without the commit guard (the cross-shard
        speculative phase) passes ``store=False``: allocations may move under
        its search, so only the commit phase's write-back may store.
        """
        routed = self.placer.routed_tree(placement_request)
        states = routed.states()
        key = self.plan_cache_key(placement_request, routed, states)
        lookup_start = time.perf_counter()
        hit, cached = self.cache.lookup(key)
        # a plan entry is the root entry of the placement memo — a hit
        # answers the whole search — so its lookups count with the memo's
        self.placer.memo.counters.increment("hits" if hit else "misses")
        if hit:
            plan = rebrand_plan(cached, placement_request.program)
            # the key embeds the digests of the states in *states*, so a
            # hit proves those are content-identical to placement time: the
            # plan records exactly them.  A commit that landed since (the
            # cross-shard speculative phase holds no lock) replaced a live
            # state, so validation sees the drift
            plan.device_states = dict(states)
            self._memo_hit_hist.observe(time.perf_counter() - lookup_start)
            return plan, True
        plan = self.placer.place(placement_request)
        if store:
            self._admit(key, placement_request, plan)
        return plan, False

    def _admit(self, key: str, placement_request: PlacementRequest,
               plan: PlacementPlan) -> bool:
        """Store *plan* under *key* if its content has been seen before.

        Admission on second sight reuses the placement memo's rule for
        program facts: the content's facts are admitted from its second
        search on.  A stream of never-repeating programs therefore stores
        no plans.  Returns whether the plan was stored.
        """
        if key in self.cache or not self.placer.facts_admitted(
                placement_request):
            return False
        # a hit re-owns the plan with the requester's program, so the
        # entries of one content share one program instead of each pinning
        # its tenant's copy; it is dropped with the last of them
        program = self._plan_programs.setdefault(
            placement_request.program_fingerprint(), plan.block_dag.program)
        self.cache.store(key, rebrand_plan(plan, program))
        return True

    # ------------------------------------------------------------------ #
    # removal (the reverse commit phase)
    # ------------------------------------------------------------------ #
    def remove(self, name: str, deployed: DeployedProgram,
               lazy: bool = True) -> SynthesisDelta:
        """Release *deployed* from every layer, atomically.

        The removal order is synthesis → placement → emulator; a failure
        mid-removal re-installs the already-released layers before
        re-raising, so no resources are stranded without a record.  No
        cache is touched: plan-cache and memo keys embed the allocation
        states of the devices they consulted, the release just restored
        them, and the entries stamped against the restored state are the
        next ones asked for.
        """
        delta = self.synthesizer.remove_program(name, lazy=lazy)
        try:
            self.placer.release(deployed.plan)
        except Exception:
            self.synthesizer.add_program(deployed.plan)
            raise
        try:
            self.emulator.undeploy(name)
        except Exception:
            self.placer.commit(deployed.plan)
            self.synthesizer.add_program(deployed.plan)
            raise
        return delta

    # ------------------------------------------------------------------ #
    # changing committed programs: update, migration, escalation
    # ------------------------------------------------------------------ #
    def reinstall(self, deployed: DeployedProgram) -> None:
        """Re-commit a previously removed program's exact plan.

        The reverse of :meth:`remove`: placement resources, the synthesised
        executables and the emulator installs are restored unchanged, with
        no placement search and no validation — :meth:`swap` undoes a failed
        swap with it.  A failure mid-reinstall unwinds the layers already
        restored before re-raising, so the operation is atomic either way.
        """
        plan = deployed.plan
        self.placer.commit(plan)
        try:
            self.synthesizer.add_program(plan)
        except Exception:
            self.placer.release(plan)
            raise
        try:
            self.emulator.deploy(plan, deployed.source_groups,
                                 deployed.destination_group)
        except Exception:
            self.synthesizer.rollback_add(plan.program_name)
            self.placer.release(plan)
            raise

    def swap(self, olds: Sequence[DeployedProgram],
             requests: Sequence[DeployRequest], *,
             into: Optional["CompilationPipeline"] = None,
             lost: Sequence[str] = ()) -> List[PipelineReport]:
        """Replace the committed *olds* by *requests*, atomically.

        The one way a committed program changes — a rolling update, a
        migration, an escalation to the full fabric:

        1. compile every request (the pure stages: nothing is touched yet);
        2. snapshot each old program's register/table state, skipping the
           *lost* devices (a failed switch's memory is gone);
        3. release every old program, in order, through :meth:`remove`;
        4. commit the replacements in order, into *into* (default: this
           pipeline);
        5. carry each snapshot into the replacement at its position.

        On any failure the replacements committed so far are removed
        again, the originals reinstalled with their state, and the error
        re-raised, its ``swap_program`` naming the program whose step failed
        (a failed release is annotated ``pipeline_stage="removal"``).
        Registries are the caller's: the swap reads none and writes none,
        so a program stays registered under its old record until the caller
        settles the outcome.  Returns one report per replacement.
        """
        into = into if into is not None else self
        started = time.perf_counter()
        compiled: List[Tuple[IRProgram, List[StageRecord]]] = []
        snapshots: List[Dict[str, Dict]] = []
        released: List[DeployedProgram] = []
        reports: List[PipelineReport] = []
        subject = None
        try:
            for request in requests:
                subject = request.resolved_name()
                compiled.append(into.compile_stages(request))
            snapshots = [self.emulator.snapshot_owner_state(
                old.name, skip_devices=lost) for old in olds]
            for old in olds:
                subject = old.name
                try:
                    self.remove(old.name, old)
                except Exception as exc:
                    if not hasattr(exc, "pipeline_stage"):
                        exc.pipeline_stage = "removal"
                    raise
                released.append(old)
            for request, (program, records) in zip(requests, compiled):
                subject = program.name
                report = into.commit_speculative_result(
                    request, SpeculativeResult(program=program,
                                               records=records),
                    PipelineReport(program_name=program.name), started)
                if not report.succeeded:
                    raise report.exception or DeploymentError(report.error)
                reports.append(report)
        except Exception as exc:
            exc.swap_program = subject
            for report in reversed(reports):
                into.remove(report.program_name, report.deployed)
            for old, snapshot in zip(released, snapshots):
                self.reinstall(old)
                self.emulator.restore_owner_state(old.name, snapshot)
            raise
        for report, snapshot in zip(reports, snapshots):
            into.emulator.restore_owner_state(report.program_name, snapshot)
        return reports

    def update(self, name: str, deployed: DeployedProgram,
               request: DeployRequest) -> PipelineReport:
        """Swap *deployed* for the new version described by *request*.

        A :meth:`swap` of one: the new version compiles before the shared
        network is touched, then the old version is removed and the new one
        committed back-to-back through the serial commit phase — one wave
        barrier, so callers serialised through it (the asyncio service, a
        shard's commit lock) never observe a half-updated network.
        Compatible register/table state is carried across.  If the new
        version cannot be placed or installed, the old version is
        reinstalled unchanged and the error re-raised — the update either
        fully happens or leaves no trace.
        """
        if request.resolved_name() != name:
            request = replace(request, name=name)
        try:
            (report,) = self.swap([deployed], [request])
        except Exception as exc:
            if getattr(exc, "pipeline_stage", None) is None:
                exc.pipeline_stage = "update"
            raise
        return report

    # ------------------------------------------------------------------ #
    # the one deploy path
    # ------------------------------------------------------------------ #
    def run(self, request: DeployRequest) -> PipelineReport:
        """Deploy one request: a batch of one that raises instead of reporting.

        The failure the report captured is re-raised as the original typed
        exception (annotated with ``pipeline_stage``), after rollback.
        """
        report = self.run_many([request])[0]
        if not report.succeeded:
            raise report.exception or DeploymentError(report.error)
        return report

    def run_many(self, requests: Sequence[DeployRequest],
                 commit_guard=None,
                 registry: Optional[Dict[str, DeployedProgram]] = None
                 ) -> List[PipelineReport]:
        """Deploy a batch: lock-free pure phase, then commits in request order.

        The pure phase (:meth:`compile_batch`) runs outside *commit_guard* —
        it touches nothing but the artifact cache, so commits landing
        meanwhile are harmless.  The commit phase holds the guard (any
        context manager; a shard passes its commit lock) and records each
        committed program in *registry* before releasing it, so the caller's
        book-keeping never lags a commit.

        Reports are returned in request order.  A failing request is captured
        in its report (``succeeded=False``, ``error``, ``failed_stage``) and
        does not abort the remainder of the batch; its partial commits are
        rolled back.
        """
        requests = list(requests)
        if not requests:
            return []
        started = time.perf_counter()
        results = self.compile_batch(requests)
        reports: List[PipelineReport] = []
        with commit_guard if commit_guard is not None else nullcontext():
            for request, result in zip(requests, results):
                report = self.commit_speculative_result(
                    request, result,
                    PipelineReport(program_name=request.resolved_name()),
                    started,
                )
                if report.succeeded and registry is not None:
                    registry[report.program_name] = report.deployed
                reports.append(report)
        return reports

    def commit_speculative_result(self, request: DeployRequest,
                                  result: SpeculativeResult,
                                  report: PipelineReport,
                                  started: float) -> PipelineReport:
        """Drive the commit phase for one result of the pure phase.

        *result* comes from :meth:`compile_batch`, optionally carrying a
        speculative plan its caller placed since.  This method serialises
        its outcome into the shared topology — validating that plan, or
        placing against the live state — and fills in *report*.  Callers
        must invoke it sequentially, in admission order, holding their
        commit guard.
        """
        commit_start = time.perf_counter()
        report.stages = list(result.records)
        try:
            if result.exception is not None:
                return complete_report(report, started,
                                       exception=result.exception)
            report.program_name = result.program.name
            try:
                deployed = self.commit_stages(
                    result.program, request, report.stages,
                    speculative_plan=result.plan,
                    placement_request=result.placement,
                    speculative_hit=result.plan_hit,
                )
            except Exception as exc:
                return complete_report(report, started, exception=exc)
            return complete_report(report, started, deployed)
        finally:
            self._phase_hist.labels("commit").observe(
                time.perf_counter() - commit_start)
            self._finish_report(request, report)

    def _finish_report(self, request: DeployRequest,
                       report: PipelineReport) -> None:
        """Telemetry at report completion (exactly once per deployment).

        Observes every stage duration into the stage histogram and, when
        the request carries a trace context, emits one span per stage.
        Stage spans are duration-faithful but end-aligned: the records only
        store durations, so spans are stacked back from now — exact for the
        just-committed stages, shifted for the compile stages, which ran
        before the rest of the batch compiled.
        """
        tracer = self.obs.tracer
        ctx = request.trace
        emit = ctx is not None and tracer.enabled
        if not emit and not self.obs.registry.enabled:
            return
        cursor = time.time() - sum(r.duration_s for r in report.stages)
        for record in report.stages:
            self._stage_hist.labels(record.name).observe(record.duration_s)
            if emit:
                cursor += record.duration_s
                tracer.emit(ctx, record.name, record.duration_s,
                            end_s=cursor, cache_hit=record.cache_hit)
        if emit and not report.succeeded:
            tracer.emit(ctx, "pipeline-error", 0.0, error=report.error,
                        failed_stage=report.failed_stage)
