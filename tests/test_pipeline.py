"""Tests for the staged compilation pipeline, batching and rollback."""

from __future__ import annotations

import pytest
from invariants import allocation_fingerprint

from repro.apps import KVSApplication
from repro.core import ArtifactCache, ClickINC, DeployRequest
from repro.core.pipeline import STAGE_ORDER
from repro.emulator.interpreter import DeviceRuntime
from repro.exceptions import BackendError, DeploymentError, EmulationError
from repro.lang.profile import default_profile
from repro.placement.plan import PlacementPlan
from repro.topology import build_paper_emulation_topology


@pytest.fixture()
def controller(paper_topology):
    return ClickINC(paper_topology)


def kvs_request(name: str, depth: int = 2000) -> DeployRequest:
    app = KVSApplication(name=name, cache_depth=depth)
    return DeployRequest(
        source_groups=app.source_groups,
        destination_group=app.destination_group,
        name=name,
        profile=app.profile(),
    )


class TestStagedDeploy:
    def test_report_covers_every_stage(self, controller):
        deployed = controller.deploy_profile(
            default_profile("KVS"), ["pod0(a)"], "pod2(b)", name="kvs_stages"
        )
        report = deployed.report
        assert [record.name for record in report.stages] == list(STAGE_ORDER)
        assert report.succeeded
        assert report.deployed is deployed
        assert report.cache_hits() == []          # cold: nothing memoised yet
        assert report.total_s > 0
        assert all(record.duration_s >= 0 for record in report.stages)
        summary = report.summary()
        assert summary["program"] == "kvs_stages"
        assert set(summary["stages"]) == set(STAGE_ORDER)

    def test_warm_redeploy_hits_cache_and_matches_cold(self, controller):
        profile = default_profile("KVS")
        cold = controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                         name="kvs_warm")
        cold_devices = cold.devices()
        cold_summary = controller.placement_summary("kvs_warm")
        controller.remove("kvs_warm")
        # a plan enters the cache on its content's second sight
        second = controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                           name="kvs_warm")
        assert "placement" not in second.report.cache_hits()
        stored_summary = controller.placement_summary("kvs_warm")
        controller.remove("kvs_warm")

        warm = controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                         name="kvs_warm")
        hits = warm.report.cache_hits()
        assert "frontend" in hits
        assert "placement" in hits
        assert "codegen" in hits
        assert warm.devices() == cold_devices
        # the stored plan itself, which is the cold search's plan
        assert controller.placement_summary("kvs_warm") == stored_summary
        stored_summary.pop("compile_time_s")
        cold_summary.pop("compile_time_s")
        assert stored_summary == cold_summary
        assert warm.device_sources == cold.device_sources

    def test_tenants_share_compiled_template(self, controller):
        profile_a = default_profile("KVS", user="alice")
        profile_b = default_profile("KVS", user="bob")
        controller.deploy_profile(profile_a, ["pod0(a)"], "pod2(b)")
        second = controller.deploy_profile(profile_b, ["pod1(a)"], "pod2(a)")
        assert second.report.stage("frontend").cache_hit
        assert controller.deployed_programs() == ["kvs_alice", "kvs_bob"]
        # ownership metadata was re-branded per tenant, not shared
        snippets = second.plan.device_snippets()
        assert all(
            instr.owner == "kvs_bob"
            for snippet in snippets.values() for instr in snippet
        )

    def test_distinct_traffic_rates_are_distinct_plan_keys(self, controller):
        profile = default_profile("KVS")
        controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                  name="kvs_tr",
                                  traffic_rates={"pod0(a)": 1e6})
        controller.remove("kvs_tr")
        redo = controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                         name="kvs_tr",
                                         traffic_rates={"pod0(a)": 9e6})
        assert not redo.report.stage("placement").cache_hit
        controller.remove("kvs_tr")
        again = controller.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                                          name="kvs_tr",
                                          traffic_rates={"pod0(a)": 9e6})
        assert again.report.stage("placement").cache_hit

    def test_deploy_program_accepts_name(self, controller, kvs_program):
        deployed = controller.deploy_program(
            kvs_program, ["pod0(a)"], "pod2(b)", name="renamed_kvs"
        )
        assert deployed.name == "renamed_kvs"
        assert "renamed_kvs" in controller.deployed_programs()
        snippets = deployed.plan.device_snippets()
        assert all(
            instr.owner == "renamed_kvs"
            for snippet in snippets.values() for instr in snippet
        )
        # the fixture program itself must stay untouched
        assert kvs_program.name == "kvs_fixture"
        controller.remove("renamed_kvs")

    def test_duplicate_deploy_rejected(self, controller):
        controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                  "pod2(b)", name="dup")
        with pytest.raises(DeploymentError):
            controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                      "pod2(b)", name="dup")

    def test_request_validation(self):
        with pytest.raises(DeploymentError):
            DeployRequest(source_groups=["pod0(a)"], destination_group="pod2(b)")
        with pytest.raises(DeploymentError):
            DeployRequest(source_groups=["pod0(a)"], destination_group="pod2(b)",
                          profile=default_profile("KVS"),
                          source="x = 1")
        with pytest.raises(DeploymentError):
            DeployRequest(source_groups=["pod0(a)"], destination_group="pod2(b)",
                          source="x = 1")   # source needs a name


class TestDeployMany:
    def test_reports_in_request_order(self, controller):
        requests = [kvs_request(f"kvs_{i}") for i in range(3)]
        reports = controller.deploy_many(requests)
        assert [r.program_name for r in reports] == ["kvs_0", "kvs_1", "kvs_2"]
        assert all(r.succeeded for r in reports)
        assert controller.deployed_programs() == ["kvs_0", "kvs_1", "kvs_2"]

    def test_batch_matches_serial_placements(self):
        def requests():
            return [kvs_request(f"kvs_{i}") for i in range(3)] + [
                DeployRequest(
                    source_groups=["pod1(a)", "pod1(b)"],
                    destination_group="pod2(b)",
                    name="mlagg_0",
                    profile=default_profile("MLAgg"),
                )
            ]

        serial = ClickINC(build_paper_emulation_topology())
        serial_devices = {}
        for request in requests():
            deployed = serial.pipeline.run(request).deployed
            serial.deployed[deployed.name] = deployed
            serial_devices[deployed.name] = deployed.devices()

        batched = ClickINC(build_paper_emulation_topology())
        reports = batched.deploy_many(requests())
        assert all(r.succeeded for r in reports)
        for report in reports:
            assert report.deployed.devices() == serial_devices[report.program_name]

    def test_batch_determinism_across_runs(self):
        runs = []
        for _ in range(2):
            controller = ClickINC(build_paper_emulation_topology())
            reports = controller.deploy_many(
                [kvs_request(f"kvs_{i}") for i in range(3)]
            )
            runs.append([r.deployed.devices() for r in reports])
        assert runs[0] == runs[1]

    def test_duplicate_names_fail_validation_without_aborting(self, controller):
        requests = [kvs_request("kvs_a"), kvs_request("kvs_a"),
                    kvs_request("kvs_b")]
        reports = controller.deploy_many(requests)
        assert reports[0].succeeded
        assert not reports[1].succeeded
        assert reports[1].failed_stage == "validation"
        assert "already deployed" in reports[1].error
        assert reports[2].succeeded
        assert controller.deployed_programs() == ["kvs_a", "kvs_b"]

    def test_failed_request_releases_its_name(self, controller):
        """Serial-loop equivalence: a name is only taken by a *successful*
        deployment, so a request after a failed same-name request deploys."""
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod2(b)",
                            name="kvs_x",
                            source="this is ( not a program")
        reports = controller.deploy_many([bad, kvs_request("kvs_x")])
        assert not reports[0].succeeded
        assert reports[0].failed_stage == "frontend"
        assert reports[1].succeeded
        assert controller.deployed_programs() == ["kvs_x"]

    def test_failed_request_is_captured_not_raised(self, controller):
        bad = DeployRequest(source_groups=["pod0(a)"],
                            destination_group="pod2(b)",
                            name="bad_source",
                            source="this is ( not a program")
        reports = controller.deploy_many([bad, kvs_request("kvs_ok")])
        assert not reports[0].succeeded
        assert reports[0].failed_stage == "frontend"
        assert reports[1].succeeded
        assert controller.deployed_programs() == ["kvs_ok"]

    def test_empty_batch(self, controller):
        assert controller.deploy_many([]) == []


class TestRollback:
    def _assert_clean(self, controller, fingerprint):
        assert allocation_fingerprint(controller.topology) == fingerprint
        assert controller.synthesizer.deployed_programs() == []
        assert controller.emulator.deployments == {}
        assert controller.deployed == {}
        for runtime in controller.emulator.runtimes.values():
            assert runtime.installed_owners() == []

    def test_emulator_failure_rolls_back_placer_and_synth(self, controller,
                                                          monkeypatch):
        fingerprint = allocation_fingerprint(controller.topology)
        monkeypatch.setattr(
            controller.emulator, "deploy",
            lambda *a, **k: (_ for _ in ()).throw(EmulationError("injected")),
        )
        with pytest.raises(EmulationError):
            controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                      "pod2(b)", name="kvs_fail")
        self._assert_clean(controller, fingerprint)
        monkeypatch.undo()
        deployed = controller.deploy_profile(default_profile("KVS"),
                                             ["pod0(a)"], "pod2(b)",
                                             name="kvs_fail")
        assert deployed.name == "kvs_fail"

    def test_snippets_once_per_commit_and_partial_install_rolls_back(
            self, controller, monkeypatch):
        """One ``device_snippets()`` per deploy feeds synthesis, install and
        codegen; an install that dies on its second device — the first one
        already holding a snippet of the shared dict — leaves no residue."""
        calls = []
        real_snippets = PlacementPlan.device_snippets

        def counted(plan):
            calls.append(plan.program_name)
            return real_snippets(plan)

        monkeypatch.setattr(PlacementPlan, "device_snippets", counted)
        fingerprint = allocation_fingerprint(controller.topology)
        installs = []
        real_install = DeviceRuntime.install_snippet

        def second_install_fails(runtime, owner, snippet, steps=None):
            installs.append(runtime.device.name)
            if len(installs) == 2:
                raise EmulationError("injected on the second device")
            return real_install(runtime, owner, snippet, steps)

        monkeypatch.setattr(DeviceRuntime, "install_snippet",
                            second_install_fails)
        with pytest.raises(EmulationError):
            controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                      "pod2(b)", name="kvs_half")
        assert len(installs) == 2 and calls == ["kvs_half"]
        self._assert_clean(controller, fingerprint)

        monkeypatch.setattr(DeviceRuntime, "install_snippet", real_install)
        deployed = controller.deploy_profile(default_profile("KVS"),
                                             ["pod0(a)"], "pod2(b)",
                                             name="kvs_whole")
        assert calls == ["kvs_half", "kvs_whole"]
        assert len(deployed.devices()) >= 2
        assert sorted(deployed.device_sources) == sorted(deployed.devices())

    def test_codegen_failure_rolls_back_everything(self, controller,
                                                   monkeypatch):
        fingerprint = allocation_fingerprint(controller.topology)
        monkeypatch.setattr(
            "repro.core.pipeline.generate_for_device",
            lambda *a, **k: (_ for _ in ()).throw(BackendError("injected")),
        )
        with pytest.raises(BackendError) as excinfo:
            controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                      "pod2(b)", name="kvs_cg")
        assert getattr(excinfo.value, "pipeline_stage") == "codegen"
        self._assert_clean(controller, fingerprint)

    def test_batch_rollback_leaves_other_requests_deployable(self, controller,
                                                             monkeypatch):
        calls = {"n": 0}
        real_deploy = controller.emulator.deploy

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EmulationError("injected mid-batch")
            return real_deploy(*args, **kwargs)

        monkeypatch.setattr(controller.emulator, "deploy", flaky)
        reports = controller.deploy_many(
            [kvs_request(f"kvs_{i}") for i in range(3)]
        )
        assert [r.succeeded for r in reports] == [True, False, True]
        assert reports[1].failed_stage == "emulator-install"
        assert controller.deployed_programs() == ["kvs_0", "kvs_2"]

    def test_remove_is_atomic(self, controller, monkeypatch):
        controller.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                  "pod2(b)", name="kvs_rm")
        fingerprint = allocation_fingerprint(controller.topology)
        monkeypatch.setattr(
            controller.emulator, "undeploy",
            lambda *a, **k: (_ for _ in ()).throw(EmulationError("injected")),
        )
        with pytest.raises(EmulationError):
            controller.remove("kvs_rm")
        # the program is still fully recorded and resources re-installed
        assert "kvs_rm" in controller.deployed
        assert controller.synthesizer.deployed_programs() == ["kvs_rm"]
        assert allocation_fingerprint(controller.topology) == fingerprint
        monkeypatch.undo()
        controller.remove("kvs_rm")
        assert controller.deployed == {}
        assert controller.synthesizer.deployed_programs() == []

    def test_remove_then_redeploy_round_trips(self, controller):
        baseline = allocation_fingerprint(controller.topology)
        for _ in range(2):
            controller.deploy_profile(default_profile("MLAgg"),
                                      ["pod1(a)", "pod1(b)"], "pod2(b)",
                                      name="mlagg_rt")
            controller.remove("mlagg_rt")
        assert allocation_fingerprint(controller.topology) == baseline


class TestSharedCache:
    def test_cache_can_be_shared_between_controllers(self):
        cache = ArtifactCache()
        first = ClickINC(build_paper_emulation_topology(), cache=cache)
        for _ in range(2):      # the second sight stores the plan
            first.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                 "pod2(b)", name="kvs_shared")
            first.remove("kvs_shared")
        assert cache.namespace_len("plan") == 1
        second = ClickINC(build_paper_emulation_topology(), cache=cache)
        deployed = second.deploy_profile(default_profile("KVS"), ["pod0(a)"],
                                         "pod2(b)", name="kvs_shared")
        hits = deployed.report.cache_hits()
        assert "frontend" in hits
        # same reduced tree, same (fresh) state of its devices ⇒ same key
        assert "placement" in hits
        assert second.cache.summary()["program"]["hits"] >= 1
