"""Tests for batch deployment: the pure phase, then commits in request order.

Covers the commit-free place → validate → commit protocol (what the
cross-shard two-phase commit runs on), picklability of programs, plans and
requests, serial-equivalence of ``deploy_many``, what a batch shares (one
frontend run per distinct content) and per-request failure capture.
"""

from __future__ import annotations

import pickle

import pytest
from invariants import (
    allocation_fingerprint,
    device_fingerprints,
    plan_fingerprints,
)

from repro.core import ClickINC, DeployRequest, PipelineReport
from repro.exceptions import (
    LanguageError,
    PlacementConflictError,
    PlacementError,
)
from repro.frontend import compile_template
from repro.frontend.compiler import FrontendCompiler
from repro.lang.profile import default_profile
from repro.placement.dp import DPPlacer, PlacementRequest
from repro.topology import build_fattree


def tenant_request(pod: int, user: str, depth: int = 1000) -> DeployRequest:
    """An intra-pod KVS tenant: pod<pod>(a) -> pod<pod>(b)."""
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = depth
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


def disjoint_requests(pods: int = 3):
    return [tenant_request(pod, f"p{pod}") for pod in range(pods)]


def colliding_requests():
    """Two tenants whose placements land on the same pod-0 devices."""
    return [tenant_request(0, "c0"), tenant_request(0, "c1")]


# --------------------------------------------------------------------- #
# picklability (programs, plans and requests are plain data)
# --------------------------------------------------------------------- #
class TestPickling:
    def test_ir_program_round_trip(self, kvs_program):
        clone = pickle.loads(pickle.dumps(kvs_program))
        assert clone.name == kvs_program.name
        assert len(clone) == len(kvs_program)
        assert [i.opcode for i in clone] == [i.opcode for i in kvs_program]
        assert sorted(clone.states) == sorted(kvs_program.states)

    def test_placement_plan_round_trip(self):
        topology = build_fattree(k=4)
        program = compile_template(default_profile("KVS"), name="kvs_pkl")
        placer = DPPlacer(topology)
        plan = placer.place(PlacementRequest(
            program=program, source_groups=["pod0(a)"],
            destination_group="pod0(b)",
        ))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.program_name == plan.program_name
        assert clone.devices_used() == plan.devices_used()
        assert clone.gain == plan.gain
        assert plan_fingerprints(clone) == plan_fingerprints(plan)
        assert clone.program_fingerprint == plan.program_fingerprint
        assert clone.step_table() == plan.step_table()
        # the clone is committable on an equivalent topology
        DPPlacer(topology).commit(clone, validate=True)

    def test_deploy_request_round_trip(self):
        for request in (
            tenant_request(0, "rt"),
            DeployRequest(source_groups=["pod0(a)"],
                          destination_group="pod0(b)", name="src_rt",
                          source="x = pkt.f + 1", constants={"c": 3},
                          header_fields={"f": 32},
                          traffic_rates={"pod0(a)": 2.5e6}),
        ):
            clone = pickle.loads(pickle.dumps(request))
            assert clone.resolved_name() == request.resolved_name()
            assert clone.source_groups == list(request.source_groups)
            assert clone.traffic_rates == request.traffic_rates


# --------------------------------------------------------------------- #
# the speculative place -> validate -> commit protocol
# --------------------------------------------------------------------- #
class TestSpeculativePlacement:
    def _place(self, placer, topology, user):
        program = compile_template(default_profile("KVS"), name=f"kvs_{user}")
        return placer.place(PlacementRequest(
            program=program, source_groups=["pod0(a)"],
            destination_group="pod0(b)",
        ))

    def test_place_is_commit_free(self):
        topology = build_fattree(k=4)
        baseline = allocation_fingerprint(topology)
        placer = DPPlacer(topology)
        plan = self._place(placer, topology, "free")
        assert allocation_fingerprint(topology) == baseline
        assert plan_fingerprints(plan) == device_fingerprints(
            topology, plan.device_states)
        assert placer.validate(plan) == []

    def test_conflicting_commit_raises_and_leaves_state_clean(self):
        topology = build_fattree(k=4)
        placer = DPPlacer(topology)
        plan_a = self._place(placer, topology, "a")
        plan_b = self._place(placer, topology, "b")
        placer.commit(plan_a, validate=True)
        conflicts = placer.validate(plan_b)
        assert conflicts  # both tenants consulted the same pod-0 devices
        fingerprint = allocation_fingerprint(topology)
        with pytest.raises(PlacementConflictError) as excinfo:
            placer.commit(plan_b, validate=True)
        assert excinfo.value.conflicts == conflicts
        # validation failed before any allocation happened
        assert allocation_fingerprint(topology) == fingerprint

    def test_release_restores_fingerprints(self):
        topology = build_fattree(k=4)
        placer = DPPlacer(topology)
        plan_a = self._place(placer, topology, "a")
        plan_b = self._place(placer, topology, "b")
        placer.commit(plan_a)
        assert placer.validate(plan_b)
        placer.release(plan_a)
        assert placer.validate(plan_b) == []
        placer.commit(plan_b, validate=True)

    def test_legacy_plan_without_fingerprints_validates(self):
        topology = build_fattree(k=4)
        placer = DPPlacer(topology)
        plan = self._place(placer, topology, "legacy")
        plan.device_states = {}
        assert placer.validate(plan) == []
        placer.commit(plan, validate=True)


# --------------------------------------------------------------------- #
# deploy_many
# --------------------------------------------------------------------- #
class TestParallelDeployMany:
    def test_matches_serial_placements_when_disjoint(self):
        serial = ClickINC(build_fattree(k=4))
        serial_reports = [serial.deploy_many([request])[0]
                          for request in disjoint_requests()]
        batch = ClickINC(build_fattree(k=4))
        reports = batch.deploy_many(disjoint_requests())
        assert all(r.succeeded for r in serial_reports)
        assert all(r.succeeded for r in reports)
        for ref, got in zip(serial_reports, reports):
            assert got.deployed.devices() == ref.deployed.devices()
            # a batch places at commit time: nothing speculates for it
            assert "speculative" not in got.stage("placement").detail
        assert batch.deployed_programs() == serial.deployed_programs()

    def test_conflicting_plans_one_commits_one_replaces(self):
        """Two plans placed against the same snapshot: the first validates
        and commits untouched, the second is re-placed — to exactly the
        serial loop's placement."""
        serial = ClickINC(build_fattree(k=4))
        serial_reports = serial.deploy_many(colliding_requests())

        speculative = ClickINC(build_fattree(k=4))
        pipeline = speculative.pipeline
        requests = colliding_requests()
        results = pipeline.compile_batch(requests)
        for request, result in zip(requests, results):
            result.plan = pipeline.placer.place(
                pipeline.placement_request(result.program, request))
        reports = [
            pipeline.commit_speculative_result(
                request, result,
                PipelineReport(program_name=request.resolved_name()), 0.0)
            for request, result in zip(requests, results)
        ]
        assert all(r.succeeded for r in reports)
        first, second = (r.stage("placement").detail for r in reports)
        assert first.get("speculative") is True
        assert first.get("plan_write_back") is True
        assert second.get("replaced_on_conflict") is True
        assert second.get("conflicts")
        for ref, got in zip(serial_reports, reports):
            assert got.deployed.devices() == ref.deployed.devices()

    def test_single_flight_shares_leader_compilation(self):
        controller = ClickINC(build_fattree(k=4))
        twins = [tenant_request(0, "t0"), tenant_request(1, "t1")]
        reports = controller.deploy_many(twins)
        assert all(r.succeeded for r in reports)
        assert not reports[0].stage("frontend").cache_hit
        assert reports[1].stage("frontend").cache_hit

    def test_a_wave_compiles_each_distinct_content_once(self, monkeypatch):
        """Eight requests, three contents: three frontend runs (the program
        cache is the single-flight), reports in request order."""
        compiled = []
        compile_profile = FrontendCompiler.compile_profile

        def counting(self, profile, name=None):
            compiled.append(name)
            return compile_profile(self, profile, name=name)

        monkeypatch.setattr(FrontendCompiler, "compile_profile", counting)
        depths = [1000, 2000, 3000]
        wave = [tenant_request(index % 4, f"w{index}",
                               depth=depths[index % 3])
                for index in range(8)]
        controller = ClickINC(build_fattree(k=4))
        reports = controller.deploy_many(wave)
        assert compiled == ["kvs_w0", "kvs_w1", "kvs_w2"]
        assert [r.program_name for r in reports] == [
            request.name for request in wave]
        assert all(r.succeeded for r in reports)
        assert [r.stage("frontend").cache_hit for r in reports] == (
            [False] * 3 + [True] * 5)

    def test_duplicate_names_fail_validation_without_aborting(self):
        controller = ClickINC(build_fattree(k=4))
        requests = [tenant_request(0, "dup"), tenant_request(1, "dup")]
        reports = controller.deploy_many(requests)
        assert reports[0].succeeded
        assert not reports[1].succeeded
        assert reports[1].failed_stage == "validation"
        assert controller.deployed_programs() == ["kvs_dup"]

    def test_compile_error_is_captured_per_request(self):
        controller = ClickINC(build_fattree(k=4))
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod0(b)", name="bad",
                            source="this is ( not a program")
        reports = controller.deploy_many([bad, tenant_request(1, "ok")])
        assert not reports[0].succeeded
        assert reports[0].failed_stage == "frontend"
        assert reports[1].succeeded

    def test_uncompilable_and_unplaceable_are_reported_per_request(self):
        """Each failure carries its stage and its typed exception; the rest
        of the wave commits, and nothing of the failed ones stays behind."""
        controller = ClickINC(build_fattree(k=4))
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod0(b)", name="bad",
                            source="this is ( not a program")
        reports = controller.deploy_many([
            tenant_request(0, "ok0"), bad,
            tenant_request(1, "huge", depth=10 ** 9),
            tenant_request(2, "ok2"),
        ])
        assert [r.succeeded for r in reports] == [True, False, False, True]
        assert reports[1].failed_stage == "frontend"
        assert isinstance(reports[1].exception, LanguageError)
        assert reports[1].error == str(reports[1].exception)
        assert reports[2].failed_stage == "placement"
        assert isinstance(reports[2].exception, PlacementError)
        assert controller.deployed_programs() == ["kvs_ok0", "kvs_ok2"]

    def test_unpicklable_request_deploys(self):
        """Nothing on the deploy path crosses a pickle boundary."""
        def local_closure():  # local functions cannot be pickled
            return None

        request = tenant_request(0, "np")
        request.profile.not_picklable = local_closure
        with pytest.raises(Exception):
            pickle.dumps(request)
        controller = ClickINC(build_fattree(k=4))
        reports = controller.deploy_many([request, tenant_request(1, "pk")])
        assert [r.succeeded for r in reports] == [True, True]
        assert controller.deployed_programs() == ["kvs_np", "kvs_pk"]
