"""Emulator deployment-lifecycle edge paths.

The migration logic of :mod:`repro.runtime` leans on the emulator's
``rollback_deploy``/``undeploy`` semantics and on ``reset_state`` behaving
after partial deploys — previously untested interleavings.  Also covers the
owner-state snapshot/restore used for live state carry.
"""

import gc

import pytest

from repro.apps import MLAggApplication
from repro.core import ClickINC
from repro.emulator.kernels import DEFAULT_KERNEL_CACHE, KernelCache
from repro.exceptions import EmulationError
from repro.ir.instructions import Opcode
from repro.ir.program import IRProgram
from repro.lang.profile import default_profile
from repro.topology import build_fattree, build_paper_emulation_topology


@pytest.fixture()
def controller():
    return ClickINC(build_fattree(k=4), generate_code=False)


def deploy_kvs(controller, pod: int, name: str):
    profile = default_profile("KVS", user=name)
    profile.performance["depth"] = 1000
    return controller.deploy_profile(
        profile, [f"pod{pod}(a)"], f"pod{pod}(b)", name=name
    )


def stateful_device(controller, owner: str):
    """A ``(device, state_name)`` pair where *owner*'s snippet holds state."""
    plan = controller.deployed[owner].plan
    for device_name, snippet in plan.device_snippets().items():
        if snippet.states:
            return device_name, sorted(snippet.states)[0]
    raise AssertionError(f"{owner} declares no persistent state anywhere")


class TestRollbackUndeployInterleavings:
    def test_rollback_after_partial_install_scrubs_every_runtime(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        plan = deployed.plan
        # simulate a partial install of a second tenant: snippets land on
        # some runtimes but no deployment context is registered
        snippets = plan.device_snippets()
        partial = dict(list(snippets.items())[:1])
        for device_name, snippet in partial.items():
            emulator.runtimes[device_name].install_snippet(
                "ghost", snippet, plan.step_table()
            )
        cleaned = emulator.rollback_deploy("ghost")
        assert sorted(cleaned) == sorted(partial)
        for runtime in emulator.runtimes.values():
            assert "ghost" not in runtime.installed_owners()
        # the committed tenant is untouched
        for device_name in plan.devices_used():
            assert "kvs_a" in emulator.runtimes[device_name].installed_owners()

    def test_rollback_then_undeploy_raises_for_unknown(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        emulator.rollback_deploy("kvs_a")
        # rollback removed the context, so a second removal must fail loudly
        with pytest.raises(EmulationError):
            emulator.undeploy("kvs_a")

    def test_undeploy_then_rollback_is_idempotent(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        emulator.undeploy("kvs_a")
        # rollback after a clean undeploy is a no-op, not an error
        assert emulator.rollback_deploy("kvs_a") == []
        for device_name in deployed.plan.devices_used():
            assert "kvs_a" not in emulator.runtimes[device_name].installed_owners()

    def test_rollback_only_touches_named_owner(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        deploy_kvs(controller, 1, "kvs_b")
        emulator = controller.emulator
        emulator.rollback_deploy("kvs_a")
        assert "kvs_b" in emulator.deployments
        installed = {
            owner
            for runtime in emulator.runtimes.values()
            for owner in runtime.installed_owners()
        }
        assert "kvs_a" not in installed
        assert "kvs_b" in installed

    def test_redeploy_after_rollback_succeeds(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        emulator.rollback_deploy("kvs_a")
        context = emulator.deploy(
            deployed.plan, deployed.source_groups, deployed.destination_group
        )
        assert context.plan is deployed.plan
        assert "kvs_a" in emulator.deployments


class TestResetStateAfterPartialDeploy:
    def test_reset_state_reinstalls_only_registered_owners(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        plan = deployed.plan
        # a partial install (no context) plus a registered deployment
        snippets = plan.device_snippets()
        ghost_device = plan.devices_used()[0]
        emulator.runtimes[ghost_device].install_snippet(
            "ghost", snippets[ghost_device], plan.step_table()
        )
        # dirty some state so the reset is observable
        emulator.runtimes[ghost_device].state.reg_write("scratch", 0, 42)
        emulator.reset_state()
        runtime = emulator.runtimes[ghost_device]
        assert runtime.state.reg_read("scratch", 0) == 0
        # the registered owner's snippet survives the reset; the orphan
        # (context-less) install is dropped with its state
        assert "kvs_a" in runtime.installed_owners()
        assert "ghost" not in runtime.installed_owners()

    def test_reset_state_clears_program_registers(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        device_name, state_name = stateful_device(controller, "kvs_a")
        runtime = emulator.runtimes[device_name]
        runtime.state.reg_write(state_name, 3, 99)
        emulator.reset_state()
        assert emulator.runtimes[device_name].state.reg_read(
            state_name, 3) == 0


class TestOwnerStateCarry:
    def test_snapshot_merges_and_restore_rehydrates(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        device_name, state_name = stateful_device(controller, "kvs_a")
        emulator.runtimes[device_name].state.reg_write(state_name, 7, 1234)
        snapshot = emulator.snapshot_owner_state("kvs_a")
        assert snapshot[state_name]["registers"][(0, 7)] == 1234
        # wipe and restore
        emulator.reset_state()
        emulator.restore_owner_state("kvs_a", snapshot)
        restored = [
            emulator.runtimes[d].state.reg_read(state_name, 7)
            for d, snippet in deployed.plan.device_snippets().items()
            if state_name in snippet.states
        ]
        assert 1234 in restored

    def test_snapshot_skips_named_devices(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        device_name, state_name = stateful_device(controller, "kvs_a")
        emulator.runtimes[device_name].state.reg_write(state_name, 1, 77)
        snapshot = emulator.snapshot_owner_state(
            "kvs_a", skip_devices=[device_name]
        )
        assert (0, 1) not in snapshot.get(
            state_name, {"registers": {}})["registers"]

    def test_snapshot_unknown_owner_raises(self, controller):
        with pytest.raises(EmulationError):
            controller.emulator.snapshot_owner_state("nobody")


class TestEmulatorObservers:
    def test_observers_see_every_run(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        seen = []
        controller.emulator.add_observer(seen.append)
        metrics = controller.run_traffic([])
        assert seen == [metrics]
        controller.emulator.observers.remove(seen.append)
        controller.run_traffic([])
        assert len(seen) == 1


class TestStateDiesWithItsProgram:
    """``install_snippet`` promises states "created empty": a removed
    program's cells must not be inherited by the next one using its names."""

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    def test_redeploy_after_remove_starts_from_empty_state(self, batch):
        controller = ClickINC(build_paper_emulation_topology(),
                              generate_code=False)
        emulator = controller.emulator
        run = emulator.run_batch if batch else emulator.run
        app = MLAggApplication(name="agg_tenant")

        def deploy():
            controller.deploy_profile(app.profile(), app.source_groups,
                                      app.destination_group, name=app.name)

        def cells():
            return sum(len(registers) + sum(map(len, rt.state.tables.values()))
                       for rt in emulator.runtimes.values()
                       for registers in rt.state.registers.values())

        deploy()
        # seven of eight workers: the aggregators are left half-filled
        run(app.workload().round_packets(0)[:-1])
        assert cells() > 0
        controller.remove(app.name)
        for runtime in emulator.runtimes.values():
            assert not runtime.state.decls
            assert not runtime.state.registers and not runtime.state.tables
        deploy()
        assert cells() == 0
        # the new tenant's gradients differ; it must aggregate them from
        # zero, not find its workers' bitmap bits already set
        workload = app.workload()
        workload.seed += 1
        packets = workload.round_packets(0)[:-1]
        run(packets)
        stored = {}
        for runtime in emulator.runtimes.values():
            for state_name, registers in runtime.state.registers.items():
                if "agg_data" in state_name:
                    for (row, _index), value in registers.items():
                        stored[row] = value
        assert [stored[row] for row in sorted(stored)] == [
            sum(vals) for vals in zip(*(p.fields["data"] for p in packets))]

    def test_state_shared_with_an_installed_snippet_survives(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs_a")
        emulator = controller.emulator
        device_name, state_name = stateful_device(controller, "kvs_a")
        runtime = emulator.runtimes[device_name]
        snippet = deployed.plan.device_snippets()[device_name]
        runtime.install_snippet("ghost", snippet, deployed.plan.step_table())
        runtime.state.reg_write(state_name, 2, 7)
        runtime.remove_snippet("ghost")
        assert state_name in runtime.state.decls
        assert runtime.state.reg_read(state_name, 2) == 7
        runtime.remove_snippet("kvs_a")
        assert state_name not in runtime.state.decls
        assert runtime.state.reg_read(state_name, 2) == 0


class TestKernelCacheDoesNotPinPrograms:
    """The kernel cache is process-wide and outlives every program: it may
    keep compiled kernels (bounded), never the snippets that carried
    packets."""

    def test_deploy_run_remove_cycles_leave_no_residue(self):
        controller = ClickINC(build_paper_emulation_topology(),
                              generate_code=False)
        app = MLAggApplication(name="agg_tenant")
        cache = DEFAULT_KERNEL_CACHE

        def cycle():
            controller.deploy_profile(app.profile(), app.source_groups,
                                      app.destination_group, name=app.name)
            controller.emulator.run_batch(app.workload().round_packets(0))
            controller.remove(app.name)

        def census():
            gc.collect()
            programs = sum(isinstance(obj, IRProgram)
                           for obj in gc.get_objects())
            return programs, len(cache._by_id), len(cache._by_digest)

        # the content caches now hold their one copy (the plan cache
        # admits a content on its second sight)
        cycle()
        cycle()
        baseline = census()
        for _ in range(50):
            cycle()
        assert census() == baseline

    def test_identity_check_survives_id_reuse_and_lru_is_bounded(self):
        cache = KernelCache(max_entries=2)

        def snippet(name):
            program = IRProgram(name)
            program.emit(Opcode.MOV, "x", 1)
            return program

        first = snippet("a")
        kernel = cache.get(first)
        assert cache.get(first) is kernel and cache.hits == 1
        # an equal snippet shares the kernel through the digest map
        assert cache.get(snippet("a")) is kernel and cache.compiled == 1
        gc.collect()
        assert len(cache._by_id) == 1          # the twin died, its entry too
        # a stale entry under a recycled id must not answer for a new object
        other = snippet("b")
        cache._by_id[id(other)] = cache._by_id[id(first)]
        assert cache.get(other) is not kernel
        cache.get(snippet("c"))
        assert len(cache._by_digest) == 2 and cache.compiled == 3
        recent, seen = cache.compile_seconds_since(1)
        assert len(recent) == 2 and seen == 3
        assert cache.stats()["compile_seconds_total"] >= sum(recent)
