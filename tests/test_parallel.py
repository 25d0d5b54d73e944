"""Tests for process-pool parallel compilation and speculative placement.

Covers the commit-free place → validate → commit protocol, picklability of
the artifacts that cross process boundaries, serial-equivalence of
``deploy_many(workers=N)``, conflict handling, and the fallback paths
(unpicklable payloads, worker-process crashes, ``workers<=1``).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core import ClickINC, DeployRequest
from repro.core.parallel import ParallelCompileService
from repro.exceptions import PlacementConflictError
from repro.frontend import compile_template
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
# picklability (requests, programs and plans cross process boundaries)
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
        assert clone.device_fingerprints == plan.device_fingerprints
        assert clone.topology_fingerprint == plan.topology_fingerprint
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
        baseline = topology.allocation_fingerprint()
        placer = DPPlacer(topology)
        plan = self._place(placer, topology, "free")
        assert topology.allocation_fingerprint() == baseline
        assert plan.topology_fingerprint == baseline
        assert plan.device_fingerprints
        assert placer.validate(plan) == []

    def test_conflicting_commit_raises_and_leaves_state_clean(self):
        topology = build_fattree(k=4)
        placer = DPPlacer(topology)
        plan_a = self._place(placer, topology, "a")
        plan_b = self._place(placer, topology, "b")
        placer.commit(plan_a, validate=True)
        conflicts = placer.validate(plan_b)
        assert conflicts  # both tenants consulted the same pod-0 devices
        fingerprint = topology.allocation_fingerprint()
        with pytest.raises(PlacementConflictError) as excinfo:
            placer.commit(plan_b, validate=True)
        assert excinfo.value.conflicts == conflicts
        # validation failed before any allocation happened
        assert topology.allocation_fingerprint() == fingerprint

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
        plan.device_fingerprints = {}
        plan.topology_fingerprint = None
        assert placer.validate(plan) == []
        placer.commit(plan, validate=True)


# --------------------------------------------------------------------- #
# deploy_many(workers=N)
# --------------------------------------------------------------------- #
class TestParallelDeployMany:
    def test_matches_serial_placements_when_disjoint(self):
        serial = ClickINC(build_fattree(k=4))
        serial_reports = serial.deploy_many(disjoint_requests(), workers=1)
        parallel = ClickINC(build_fattree(k=4))
        reports = parallel.deploy_many(disjoint_requests(), workers=2)
        parallel.close()
        assert all(r.succeeded for r in serial_reports)
        assert all(r.succeeded for r in reports)
        for ref, got in zip(serial_reports, reports):
            assert got.deployed.devices() == ref.deployed.devices()
            assert got.stage("placement").detail.get("speculative") is True
        assert parallel.deployed_programs() == serial.deployed_programs()

    def test_conflicting_plans_one_commits_one_replaces(self):
        serial = ClickINC(build_fattree(k=4))
        serial_reports = serial.deploy_many(colliding_requests(), workers=1)
        parallel = ClickINC(build_fattree(k=4))
        reports = parallel.deploy_many(colliding_requests(), workers=2)
        parallel.close()
        assert all(r.succeeded for r in reports)
        first, second = (r.stage("placement").detail for r in reports)
        assert first.get("speculative") is True
        assert second.get("replaced_on_conflict") is True
        assert second.get("conflicts")
        # both ended up deployed, with exactly the serial loop's placements
        for ref, got in zip(serial_reports, reports):
            assert got.deployed.devices() == ref.deployed.devices()
        assert parallel.deployed_programs() == ["kvs_c0", "kvs_c1"]

    def test_single_flight_shares_leader_compilation(self):
        parallel = ClickINC(build_fattree(k=4))
        twins = [tenant_request(0, "t0"), tenant_request(1, "t1")]
        reports = parallel.deploy_many(twins, workers=2)
        parallel.close()
        assert all(r.succeeded for r in reports)
        assert not reports[0].stage("frontend").cache_hit
        assert reports[1].stage("frontend").cache_hit

    def test_duplicate_names_fail_validation_without_aborting(self):
        parallel = ClickINC(build_fattree(k=4))
        requests = [tenant_request(0, "dup"), tenant_request(1, "dup")]
        reports = parallel.deploy_many(requests, workers=2)
        parallel.close()
        assert reports[0].succeeded
        assert not reports[1].succeeded
        assert reports[1].failed_stage == "validation"
        assert parallel.deployed_programs() == ["kvs_dup"]

    def test_compile_error_is_captured_per_request(self):
        parallel = ClickINC(build_fattree(k=4))
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod0(b)", name="bad",
                            source="this is ( not a program")
        reports = parallel.deploy_many([bad, tenant_request(1, "ok")],
                                       workers=2)
        parallel.close()
        assert not reports[0].succeeded
        assert reports[0].failed_stage == "frontend"
        assert reports[1].succeeded

    def test_workers_one_uses_thread_path(self):
        controller = ClickINC(build_fattree(k=4))
        reports = controller.deploy_many(disjoint_requests(2), workers=1)
        assert all(r.succeeded for r in reports)
        # the in-process executor places at commit time: no speculative marker
        for report in reports:
            assert "speculative" not in report.stage("placement").detail


# --------------------------------------------------------------------- #
# the persistent pool: reuse across batches + snapshot re-sync
# --------------------------------------------------------------------- #
class TestPersistentPool:
    # every batch here carries two requests: a batch of one compiles
    # in-process and never reaches the pool (tests/test_entry_points.py)
    def test_pool_survives_across_batches(self):
        with ClickINC(build_fattree(k=4)) as controller:
            controller.deploy_many(
                [tenant_request(0, "b1"), tenant_request(2, "b1x")], workers=2)
            service = controller.pipeline.parallel
            assert service is not None
            controller.deploy_many(
                [tenant_request(1, "b2"), tenant_request(3, "b2x")], workers=2)
            assert controller.pipeline.parallel is service
            assert service.pool_generation == 1
            assert service.batches_served == 2

    def test_later_batch_speculates_against_resynced_snapshot(self):
        """A second-batch tenant colliding with a first-batch commit must
        still speculate cleanly: the worker snapshot is re-synced via the
        fingerprint delta, so its plan is computed against the live
        allocations rather than the stale fork-time state."""
        with ClickINC(build_fattree(k=4)) as controller:
            first = controller.deploy_many(
                [tenant_request(0, "r1"), tenant_request(1, "r1x")],
                workers=2)
            assert first[0].stage("placement").detail.get("speculative")
            second = controller.deploy_many(
                [tenant_request(0, "r2"), tenant_request(2, "r2x")],
                workers=2)
            detail = second[0].stage("placement").detail
            assert detail.get("speculative") is True
            assert not detail.get("replaced_on_conflict")
        # and it matches the serial schedule exactly
        serial = ClickINC(build_fattree(k=4))
        serial.deploy_many([tenant_request(0, "r1")], workers=1)
        ref = serial.deploy_many([tenant_request(0, "r2")], workers=1)
        assert (second[0].deployed.devices()
                == ref[0].deployed.devices())

    def test_resync_covers_removals(self):
        """Capacity freed by remove() between batches must be visible to
        the workers (the ever-dirty set keeps restored devices in the
        payload), so a re-submission speculates to the serial placement."""
        with ClickINC(build_fattree(k=4)) as controller:
            controller.deploy_many(
                [tenant_request(0, "a"), tenant_request(0, "b")], workers=2
            )
            controller.remove("kvs_a")
            report = controller.deploy_many(
                [tenant_request(0, "c"), tenant_request(1, "cx")],
                workers=2)[0]
            assert report.succeeded
        serial = ClickINC(build_fattree(k=4))
        serial.deploy_many([tenant_request(0, "a")], workers=1)
        serial.deploy_many([tenant_request(0, "b")], workers=1)
        serial.remove("kvs_a")
        ref = serial.deploy_many([tenant_request(0, "c")], workers=1)[0]
        assert report.deployed.devices() == ref.deployed.devices()

    def test_close_releases_pool_and_next_batch_recreates(self):
        controller = ClickINC(build_fattree(k=4))
        controller.deploy_many(
            [tenant_request(0, "c1"), tenant_request(2, "c1x")], workers=2)
        service = controller.pipeline.parallel
        controller.close()
        assert controller.pipeline.parallel is None
        assert service._pool is None
        # the controller stays usable: a later batch starts a fresh pool
        reports = controller.deploy_many(
            [tenant_request(1, "c2"), tenant_request(3, "c2x")], workers=2)
        assert reports[0].succeeded
        assert controller.pipeline.parallel is not service
        controller.close()

    def test_unclosed_pool_is_reaped_when_the_service_is_collected(self):
        """Callers that never close() must not leak worker processes: a
        finalizer shuts the executor down when the service is collected."""
        import gc
        import weakref

        controller = ClickINC(build_fattree(k=4))
        controller.deploy_many(
            [tenant_request(0, "gc"), tenant_request(1, "gcx")], workers=2)
        service = controller.pipeline.parallel
        pool = service._pool
        ref = weakref.ref(service)
        del controller, service
        gc.collect()
        assert ref() is None
        with pytest.raises(RuntimeError):  # shut down by the finalizer
            pool.submit(int)

    def test_changing_worker_count_replaces_the_pool(self):
        with ClickINC(build_fattree(k=4)) as controller:
            controller.deploy_many(
                [tenant_request(0, "w1"), tenant_request(2, "w1x")], workers=2)
            first = controller.pipeline.parallel
            controller.deploy_many(
                [tenant_request(1, "w2"), tenant_request(3, "w2x")], workers=3)
            second = controller.pipeline.parallel
            assert second is not first
            assert second.workers == 3

    def test_warm_cache_resubmission_skips_the_pool(self):
        """After remove() restores a written-back plan's keyed state, the
        re-submission is served from the shared caches (via='warm-cache')
        and reported as a placement cache hit."""
        with ClickINC(build_fattree(k=4)) as controller:
            controller.deploy_many(
                [tenant_request(pod, f"u{pod}") for pod in range(3)],
                workers=2,
            )
            controller.remove("kvs_u2")
            service = controller.pipeline.parallel
            results = service.compile_batch(
                [tenant_request(2, "u2b"), tenant_request(3, "u3b")])
            assert results[0].via == "warm-cache"
            assert results[0].plan is not None
            assert results[0].plan_from_cache
            report = controller.deploy_many(
                [tenant_request(2, "u2c"), tenant_request(3, "u3c")],
                workers=2)[0]
            placement = report.stage("placement")
            assert placement.cache_hit
            assert placement.detail.get("speculative") is True


# --------------------------------------------------------------------- #
# fallbacks
# --------------------------------------------------------------------- #
def _crash_worker(index, request, precompiled, sync=None):  # pragma: no cover
    os._exit(13)


class TestFallbacks:
    def test_unpicklable_request_falls_back_in_process(self):
        def local_closure():  # local functions cannot be pickled
            return None

        request = tenant_request(0, "np")
        request.profile.not_picklable = local_closure
        with pytest.raises(Exception):
            pickle.dumps(request)
        controller = ClickINC(build_fattree(k=4))
        # the second request makes this a pooled wave (a wave of one
        # compiles in-process whether or not it pickles)
        reports = controller.deploy_many(
            [request, tenant_request(1, "pk")], workers=2)
        controller.close()
        assert reports[0].succeeded
        assert reports[0].stage("placement").detail.get("speculative") is None
        assert reports[1].stage("placement").detail.get("speculative") is True
        assert controller.deployed_programs() == ["kvs_np", "kvs_pk"]

    def test_worker_crash_does_not_abort_the_batch(self, monkeypatch):
        """A crashed worker fails every in-flight future of its wave; the
        pure compile stages are retried in-process, so the batch survives
        and every request still deploys."""
        monkeypatch.setattr(
            "repro.core.parallel._worker_compile_and_place", _crash_worker
        )
        controller = ClickINC(build_fattree(k=4))
        reports = controller.deploy_many(
            [tenant_request(0, "boom"), tenant_request(1, "ok2")], workers=2
        )
        assert [r.succeeded for r in reports] == [True, True]
        assert controller.deployed_programs() == ["kvs_boom", "kvs_ok2"]
        monkeypatch.undo()
        # the controller survives and the next batch deploys normally
        reports = controller.deploy_many([tenant_request(2, "after")],
                                         workers=2)
        controller.close()
        assert reports[0].succeeded

    def test_worker_crash_with_failing_retry_is_per_request(self, monkeypatch):
        """When the in-process retry after a crash also fails, the failure is
        captured per-request (annotated with the crash) without aborting."""
        monkeypatch.setattr(
            "repro.core.parallel._worker_compile_and_place", _crash_worker
        )
        controller = ClickINC(build_fattree(k=4))
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod0(b)", name="bad",
                            source="this is ( not a program")
        reports = controller.deploy_many([bad, tenant_request(1, "ok")],
                                         workers=2)
        controller.close()
        assert not reports[0].succeeded
        assert reports[0].failed_stage == "frontend"
        assert "worker" in reports[0].error and "crash" in reports[0].error
        assert reports[1].succeeded

    def test_pool_unavailable_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.parallel.ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no mp")),
        )
        controller = ClickINC(build_fattree(k=4))
        reports = controller.deploy_many(disjoint_requests(2), workers=4)
        assert all(r.succeeded for r in reports)

    def test_service_workers_one_runs_inline(self):
        controller = ClickINC(build_fattree(k=4))
        with ParallelCompileService(controller.pipeline, workers=1) as service:
            results = service.compile_batch([tenant_request(0, "inline")])
        assert results[0].via == "inline"
        assert results[0].plan is None
        assert results[0].error is None
