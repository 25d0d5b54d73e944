"""The ClickINC controller: compile → place → synthesise → deploy.

This is the user-facing entry point of the library.  A typical session:

.. code-block:: python

    from repro.core import ClickINC
    from repro.topology import build_paper_emulation_topology
    from repro.apps import KVSApplication

    topo = build_paper_emulation_topology()
    inc = ClickINC(topo)
    app = KVSApplication(name="kvs_0")
    deployed = inc.deploy_profile(app.profile(),
                                  source_groups=app.source_groups,
                                  destination_group=app.destination_group)
    metrics = inc.run_traffic(app.workload().packets(1000))
    inc.remove("kvs_0")

Deployment itself is delegated to the staged
:class:`~repro.core.pipeline.CompilationPipeline`, which memoises compiled
programs, placement plans and generated backend code in a shared
:class:`~repro.core.cache.ArtifactCache` and rolls back mid-pipeline
failures.  Every ``deploy_*`` call is the same path — a lock-free pure phase
(frontend and IR verification, in this process) followed by commits in
request order — so a ``deploy_many`` batch is deterministic and produces the
placements of the equivalent serial loop of single deploys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cache import ArtifactCache
from repro.core.pipeline import (
    CompilationPipeline,
    DeployedProgram,
    DeployRequest,
    PipelineReport,
)
from repro.emulator.metrics import RunMetrics
from repro.emulator.network import NetworkEmulator
from repro.emulator.packet import Packet
from repro.exceptions import DeploymentError
from repro.frontend.compiler import FrontendCompiler
from repro.ir.program import IRProgram
from repro.lang.profile import Profile
from repro.obs import Observability
from repro.placement.dp import DPPlacer
from repro.placement.memo import PlacementMemo
from repro.synthesis.incremental import IncrementalSynthesizer, SynthesisDelta
from repro.topology.network import NetworkTopology

__all__ = ["ClickINC", "DeployedProgram"]


class ClickINC:
    """The ClickINC in-network-computing service controller."""

    def __init__(self, topology: NetworkTopology, incremental: bool = True,
                 adaptive_weights: bool = True, generate_code: bool = True,
                 cache: Optional[ArtifactCache] = None,
                 memo: Optional[PlacementMemo] = None,
                 obs: Optional["Observability"] = None) -> None:
        self.topology = topology
        self.compiler = FrontendCompiler()
        # pass ``memo=`` to share one store between controllers (the
        # ShardCoordinator does)
        self.memo = memo if memo is not None else PlacementMemo()
        self.placer = DPPlacer(topology, memo=self.memo)
        self.synthesizer = IncrementalSynthesizer(topology, incremental=incremental)
        self.emulator = NetworkEmulator(topology)
        self.adaptive_weights = adaptive_weights
        self.generate_code = generate_code
        self.cache = cache if cache is not None else ArtifactCache()
        self.obs = obs if obs is not None else Observability.default()
        self.pipeline = CompilationPipeline(
            topology=topology,
            compiler=self.compiler,
            placer=self.placer,
            synthesizer=self.synthesizer,
            emulator=self.emulator,
            cache=self.cache,
            generate_code=generate_code,
            adaptive_weights=adaptive_weights,
            obs=self.obs,
        )
        # expose the memo's live counter bag on the registry (a memo shared
        # between controllers registers once: registration is identity-keyed)
        self.obs.registry.register_counters("clickinc_memo",
                                            self.memo.counters)
        self.deployed: Dict[str, DeployedProgram] = {}
        self._runtime = None   # lazily-created RuntimeManager (see runtime())

    # ------------------------------------------------------------------ #
    # compile + deploy
    # ------------------------------------------------------------------ #
    def deploy_profile(self, profile: Profile, source_groups: Sequence[str],
                       destination_group: str,
                       name: Optional[str] = None,
                       traffic_rates: Optional[Dict[str, float]] = None
                       ) -> DeployedProgram:
        """Deploy a template-based program described by *profile*."""
        return self._deploy(DeployRequest(
            source_groups=list(source_groups),
            destination_group=destination_group,
            name=name,
            profile=profile,
            traffic_rates=traffic_rates,
        ))

    def deploy_source(self, source: str, source_groups: Sequence[str],
                      destination_group: str, name: str,
                      constants: Optional[Dict[str, object]] = None,
                      header_fields: Optional[Dict[str, int]] = None,
                      traffic_rates: Optional[Dict[str, float]] = None
                      ) -> DeployedProgram:
        """Deploy a hand-written ClickINC program."""
        return self._deploy(DeployRequest(
            source_groups=list(source_groups),
            destination_group=destination_group,
            name=name,
            source=source,
            constants=constants,
            header_fields=header_fields,
            traffic_rates=traffic_rates,
        ))

    def deploy_program(self, program: IRProgram, source_groups: Sequence[str],
                       destination_group: str,
                       traffic_rates: Optional[Dict[str, float]] = None,
                       name: Optional[str] = None) -> DeployedProgram:
        """Place, synthesise, and install an already-compiled IR program.

        When *name* is given the program is deployed under it (the IR is
        re-owned accordingly); otherwise the program's own name is used.
        """
        return self._deploy(DeployRequest(
            source_groups=list(source_groups),
            destination_group=destination_group,
            name=name,
            program=program,
            traffic_rates=traffic_rates,
        ))

    def _deploy(self, request: DeployRequest) -> DeployedProgram:
        report = self.pipeline.run(request)
        self.deployed[report.program_name] = report.deployed
        return report.deployed

    def deploy_many(self, requests: Sequence[DeployRequest],
                    commit_guard=None) -> List[PipelineReport]:
        """Deploy a batch of independent requests.

        The pure phase (frontend, IR verification) runs first, without any
        lock; placement, synthesis and emulator installs then commit
        sequentially in request order — holding *commit_guard*, when the
        caller serialises commits on one — so the batch produces exactly
        the placements (and name-collision behaviour) of a serial loop over
        the same requests.

        Returns one :class:`PipelineReport` per request, in request order;
        failed requests carry ``succeeded=False`` and an ``error`` instead
        of aborting the batch.  A duplicate name fails at the ``validation``
        stage only if the earlier holder of the name actually deployed.
        """
        return self.pipeline.run_many(requests, commit_guard=commit_guard,
                                      registry=self.deployed)

    def update_program(self, name: str,
                       source: Optional[str] = None,
                       profile: Optional[Profile] = None,
                       program: Optional[IRProgram] = None,
                       constants: Optional[Dict[str, object]] = None,
                       header_fields: Optional[Dict[str, int]] = None,
                       traffic_rates: Optional[Dict[str, float]] = None
                       ) -> PipelineReport:
        """Atomically swap a deployed program for a new version.

        Exactly one of *source* / *profile* / *program* describes the new
        version; routing (source groups, destination, traffic rates) is
        inherited from the running deployment unless *traffic_rates*
        overrides it.  The swap is :meth:`CompilationPipeline.update
        <repro.core.pipeline.CompilationPipeline.update>`: old and new never
        coexist, compatible register/table state carries across, and on any
        failure the old version is reinstalled unchanged and the error
        re-raised.
        """
        deployed = self.deployed.get(name)
        if deployed is None:
            raise DeploymentError(f"program {name!r} is not deployed")
        request = deployed.request(
            source=source, profile=profile, program=program,
            constants=constants, header_fields=header_fields,
            traffic_rates=traffic_rates)
        report = self.pipeline.update(name, deployed, request)
        self.deployed[name] = report.deployed
        return report

    def remove(self, name: str, lazy: bool = True) -> SynthesisDelta:
        """Remove a deployed program, releasing its resources.

        Removal is atomic with respect to the controller's book-keeping: the
        program stays registered until every layer released it, and a failure
        mid-removal re-installs the already-released layers before
        re-raising, so no resources are stranded without a record.
        """
        deployed = self.deployed.get(name)
        if deployed is None:
            raise DeploymentError(f"program {name!r} is not deployed")
        delta = self.pipeline.remove(name, deployed, lazy=lazy)
        del self.deployed[name]
        return delta

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Nothing to release: the controller holds no file or thread.

        Kept so a controller and a coordinator shut down alike (``with``
        blocks, :meth:`INCService.close`).  Safe to call multiple times.
        """

    def __enter__(self) -> "ClickINC":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def runtime(self, auto_migrate: Optional[bool] = None):
        """The :class:`~repro.runtime.manager.RuntimeManager` over this
        controller (created on first use, then shared).

        The manager owns a health monitor over the topology and reacts to
        device failures/drains by live-migrating exactly the programs the
        event affects; see :mod:`repro.runtime`.  *auto_migrate* configures
        that reaction: ``None`` (the default) leaves the existing manager's
        setting untouched (managers are created with it enabled), while an
        explicit True/False applies to the shared manager even when it
        already exists.
        """
        if getattr(self, "_runtime", None) is None:
            from repro.runtime.manager import RuntimeManager

            self._runtime = RuntimeManager(
                self,
                auto_migrate=True if auto_migrate is None else auto_migrate,
            )
        elif auto_migrate is not None:
            self._runtime.auto_migrate = auto_migrate
        return self._runtime

    # ------------------------------------------------------------------ #
    # runtime
    # ------------------------------------------------------------------ #
    def run_traffic(self, packets: Sequence[Packet], **kwargs) -> RunMetrics:
        """Send packets through the emulated network."""
        return self.emulator.run(packets, **kwargs)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def deployed_programs(self) -> List[str]:
        return sorted(self.deployed)

    def placement_summary(self, name: str) -> Dict[str, object]:
        deployed = self.deployed.get(name)
        if deployed is None:
            raise DeploymentError(f"program {name!r} is not deployed")
        return deployed.plan.summary()

    def network_utilisation(self) -> float:
        return self.topology.total_utilisation()

    def generated_code(self, name: str, device_name: str) -> str:
        deployed = self.deployed.get(name)
        if deployed is None:
            raise DeploymentError(f"program {name!r} is not deployed")
        try:
            return deployed.device_sources[device_name]
        except KeyError as exc:
            raise DeploymentError(
                f"program {name!r} has no snippet on device {device_name!r}"
            ) from exc
