"""Tests for a device's allocation state as an interned value.

Covers :class:`~repro.devices.base.AllocState`: equal content is one
object, a state is frozen and pickles to itself, its digest and
availability are derived once, a plan's commit makes one new state per
device, and — the property that makes the float usages safe — deploying
and then removing any template or application returns every device to the
very state object it had, because every demand is a multiple of 1/8192 KB
or a count.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.apps import (
    DQAccApplication,
    KVSApplication,
    MLAggApplication,
    SparseMLAggApplication,
)
from repro.core import ClickINC
from repro.devices import AllocState, Tofino2Device, TofinoDevice
from repro.devices import base
from repro.lang.profile import default_profile


def workloads():
    """``(name, deploy(controller, name))`` for every template and
    application."""
    for app in ("KVS", "MLAgg", "DQAcc"):
        yield f"tpl_{app.lower()}", (
            lambda controller, name, app=app: controller.deploy_profile(
                default_profile(app, user=name), ["pod0(a)", "pod1(a)"],
                "pod2(b)", name=name))
    for app in (KVSApplication(), MLAggApplication(), DQAccApplication()):
        yield app.name, (
            lambda controller, name, app=app: controller.deploy_profile(
                app.profile(), app.source_groups, app.destination_group,
                name=name))
    sparse = SparseMLAggApplication()
    yield sparse.name, (
        lambda controller, name: controller.deploy_program(
            sparse.user_program(), sparse.source_groups,
            sparse.destination_group, name=name))


class TestInterning:
    def test_equal_content_is_one_object(self):
        a, b = TofinoDevice("a"), TofinoDevice("b")
        assert a.state is b.state
        assert a.state is not Tofino2Device("c").state    # another model
        a.commit([(3, {"alu": 2.0})])
        assert a.state is not b.state
        b.commit([(3, {"alu": 2.0})])
        assert a.state is b.state

    def test_a_state_is_frozen_and_pickles_to_itself(self):
        device = TofinoDevice("a")
        device.commit([(0, {"alu": 1.0})])
        state = device.state
        with pytest.raises(AttributeError):
            state.status = "down"
        assert pickle.loads(pickle.dumps(state)) is state

    def test_digest_and_availability_are_derived_once(self, monkeypatch):
        device = TofinoDevice("a")
        device.commit([(5, {"sram_kb": 3 / 8192})])   # a fresh state
        renders = []
        dumps = base.json.dumps
        monkeypatch.setattr(base.json, "dumps",
                            lambda *a, **k: renders.append(1) or dumps(*a, **k))
        state = device.state
        assert {state.digest for _ in range(3)} == {
            device.state.digest}
        assert len(renders) == 1
        assert state.stage_availability() is state.stage_availability()

    def test_racing_threads_intern_equal_content_as_one_object(self):
        """Eight threads walk the same allocation sequence on their own
        devices under a 1 µs switch interval; a lost update in the intern
        table would hand two of them different objects for one content."""
        walks = [[] for _ in range(8)]

        def walk(states):
            device = TofinoDevice("t")
            for step in range(1200):
                device.commit([(step % 12, {"alu": 0.25})])
                states.append(device.state)

        threads = [threading.Thread(target=walk, args=(states,))
                   for states in walks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for states in zip(*walks):
            assert all(state is states[0] for state in states)

    def test_a_commit_makes_one_state_per_device(self, monkeypatch,
                                                 paper_topology):
        controller = ClickINC(paper_topology, generate_code=False)
        deployed = controller.deploy_profile(
            default_profile("KVS", user="one"), ["pod0(a)"], "pod0(b)",
            name="one")
        plan = deployed.plan
        controller.placer.release(plan)
        made = []
        new = AllocState.__new__
        monkeypatch.setattr(AllocState, "__new__",
                            lambda cls, *a: made.append(1) or new(cls, *a))
        controller.placer.commit(plan)
        touched = {name for assignment in plan.assignments
                   for name in assignment.stage_assignments}
        assert len(made) == len(touched)


class TestRecurrence:
    def test_deploy_then_remove_returns_every_state(self, paper_topology):
        controller = ClickINC(paper_topology, generate_code=False)
        devices = paper_topology.devices
        before = {name: device.state for name, device in devices.items()}
        for name, deploy in workloads():
            deployed = deploy(controller, name)
            assert any(devices[device].state is not before[device]
                       for device in deployed.devices()), name
            # exact floats: every demand is a multiple of 1/8192 KB or a
            # count, so usages add and subtract without rounding
            for assignment in deployed.plan.assignments:
                for placed in assignment.stage_assignments.values():
                    for demand in placed.stage_demands.values():
                        assert all((amount * 8192).is_integer()
                                   for amount in demand.values()), name
            controller.remove(name)
            assert [device for device in devices
                    if devices[device].state is not before[device]] == [], name
