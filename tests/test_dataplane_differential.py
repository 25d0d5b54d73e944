"""Differential tests: the vectorized batch engine vs the scalar interpreter.

``NetworkEmulator.run_batch`` must be *bit-identical* to ``run`` — same
per-packet observable state (fields, params, flags, hops, latency), same
final device state (registers, tables, counters) and the same
``RunMetrics`` — on every workload, including streams that force the
scalar fallback path.
"""

from __future__ import annotations

import copy

import pytest

from repro.apps import DQAccApplication, KVSApplication, MLAggApplication
from repro.core import ClickINC
from repro.emulator.kernels import UndoScope
from repro.emulator.packet import Packet
from repro.ir.instructions import Instruction, Opcode, StateDecl, StateKind
from repro.topology import build_paper_emulation_topology


def _deploy(app_cls, name, **kw):
    ctl = ClickINC(build_paper_emulation_topology(), generate_code=False)
    app = app_cls(name=name, **kw)
    ctl.deploy_profile(app.profile(), app.source_groups,
                       app.destination_group, name=name)
    app.name = name
    return ctl, app


def _packet_view(p):
    return {
        "fields": p.fields,
        "params": p.inc.params,
        "user_id": p.inc.user_id,
        "step": p.inc.step,
        "dropped": p.dropped,
        "reflected": p.reflected,
        "mirrored": p.mirrored,
        "copied": p.copied_to_cpu,
        "finished": p.finished_at_device,
        "hops": p.hops,
        "latency": p.latency_ns,
    }


def _state_view(emu):
    return {
        name: {
            "registers": rt.state.registers,
            "tables": rt.state.tables,
            "packets_processed": rt.packets_processed,
            "instructions_executed": rt.instructions_executed,
        }
        for name, rt in emu.runtimes.items()
    }


def _assert_identical(scalar_pkts, batch_pkts, m_s, m_b, emu_s, emu_b):
    for i, (a, b) in enumerate(zip(scalar_pkts, batch_pkts)):
        assert _packet_view(a) == _packet_view(b), f"packet {i} diverged"
    assert _state_view(emu_s) == _state_view(emu_b)
    assert m_s == m_b


def _run_both(ctl_s, ctl_b, stream):
    pkts_s = copy.deepcopy(stream)
    pkts_b = copy.deepcopy(stream)
    m_s = ctl_s.emulator.run(pkts_s)
    m_b = ctl_b.emulator.run_batch(pkts_b)
    _assert_identical(pkts_s, pkts_b, m_s, m_b,
                      ctl_s.emulator, ctl_b.emulator)


class TestSingleWorkloadDifferential:
    @pytest.mark.parametrize("app_cls,name,count,kw,populate", [
        (KVSApplication, "kvs_diff", 400,
         dict(cache_depth=1000, num_keys=1000), 0.3),
        (MLAggApplication, "mlagg_diff", 30, {}, None),
        (DQAccApplication, "dqacc_diff", 300, {}, None),
    ])
    def test_bit_identical(self, app_cls, name, count, kw, populate):
        ctl_s, app_s = _deploy(app_cls, name, **kw)
        ctl_b, app_b = _deploy(app_cls, name, **kw)
        if populate:
            app_s.populate_cache(ctl_s.emulator, fraction=populate)
            app_b.populate_cache(ctl_b.emulator, fraction=populate)
        _run_both(ctl_s, ctl_b, app_s.workload().packets(count))
        stats = ctl_b.emulator.dataplane_stats.counters()
        assert stats["packets_vectorized"] > 0
        assert stats["packets_fallback"] == 0
        assert stats["kernel_bails"] == 0


class TestMixedTenantsDifferential:
    def _build(self):
        ctl = ClickINC(build_paper_emulation_topology(), generate_code=False)
        apps = []
        for cls, name, kw in [
            (KVSApplication, "kvs_mix", dict(cache_depth=1000, num_keys=1000)),
            (MLAggApplication, "mlagg_mix", {}),
            (DQAccApplication, "dqacc_mix", {}),
        ]:
            app = cls(name=name, **kw)
            ctl.deploy_profile(app.profile(), app.source_groups,
                               app.destination_group, name=name)
            app.name = name
            apps.append(app)
        apps[0].populate_cache(ctl.emulator, fraction=0.3)
        return ctl, apps

    def test_multi_round_carried_state_bit_identical(self):
        ctl_s, apps_s = self._build()
        ctl_b, _ = self._build()
        workloads = [a.workload() for a in apps_s]
        for _ in range(2):
            stream = []
            for wl, n in zip(workloads, (150, 5, 100)):
                stream.extend(wl.packets(n))
            _run_both(ctl_s, ctl_b, stream)
        stats = ctl_b.emulator.dataplane_stats.counters()
        assert stats["owner_groups"] >= 6          # 3 tenants x 2 rounds
        assert stats["packets_fallback"] == 0


class TestFallbackDifferential:
    def test_unknown_owner_routes_scalar_and_identical(self):
        ctl_s, app_s = _deploy(KVSApplication, "kvs_fb",
                               cache_depth=500, num_keys=500)
        ctl_b, _ = _deploy(KVSApplication, "kvs_fb",
                           cache_depth=500, num_keys=500)
        stream = app_s.workload().packets(60)
        for packet in stream[::3]:
            packet.owner = "not_deployed"
        _run_both(ctl_s, ctl_b, stream)
        stats = ctl_b.emulator.dataplane_stats.counters()
        assert stats["packets_fallback"] == 20
        assert stats["packets_vectorized"] == 40

    def test_unsupported_opcode_bails_to_scalar_bit_identical(self):
        """A snippet opcode the kernel compiler cannot lower (hdr_remove
        mutates the vector layout) must push the whole owner group through
        the scalar interpreter — and still match it bit-for-bit."""
        ctl_s, app_s = _deploy(KVSApplication, "kvs_op",
                               cache_depth=500, num_keys=500)
        ctl_b, _ = _deploy(KVSApplication, "kvs_op",
                           cache_depth=500, num_keys=500)
        for ctl in (ctl_s, ctl_b):
            injected = False
            for dev in sorted(ctl.emulator.runtimes):
                runtime = ctl.emulator.runtimes[dev]
                for owner, snippet, _steps in runtime.snippets:
                    if owner == "kvs_op":
                        # removing a header field no device declares is a
                        # scalar no-op, but the opcode itself is outside
                        # the vector subset
                        snippet.append(Instruction(
                            opcode=Opcode.HDR_REMOVE,
                            operands=("hdr.__not_declared__", 0)))
                        injected = True
                        break
                if injected:
                    break
            assert injected
        _run_both(ctl_s, ctl_b, app_s.workload().packets(80))
        stats = ctl_b.emulator.dataplane_stats.counters()
        assert stats["kernel_bails"] >= 1
        assert stats["packets_fallback"] == 80
        assert stats["packets_vectorized"] == 0


class TestInterleavedExecutionDifferential:
    """Scalar and batch runs share one resident copy of register state."""

    def test_alternating_paths_on_one_emulator_match_all_scalar_twin(self):
        build = TestMixedTenantsDifferential()._build
        ctl_s, apps_s = build()
        ctl_m, _ = build()
        workloads = [a.workload() for a in apps_s]

        def step(batch: bool):
            stream = []
            for wl, n in zip(workloads, (120, 4, 80)):
                stream.extend(wl.packets(n))
            pkts_s = copy.deepcopy(stream)
            pkts_m = copy.deepcopy(stream)
            m_s = ctl_s.emulator.run(pkts_s)
            run = ctl_m.emulator.run_batch if batch else ctl_m.emulator.run
            _assert_identical(pkts_s, pkts_m, m_s, run(pkts_m),
                              ctl_s.emulator, ctl_m.emulator)

        step(batch=True)        # promotes the touched register files
        step(batch=False)       # scalar accessors on columnar backings
        step(batch=True)
        # carry state through a wipe, as a live migration does
        snapshots = []
        for ctl in (ctl_s, ctl_m):
            emu = ctl.emulator
            snaps = {a.name: emu.snapshot_owner_state(a.name)
                     for a in apps_s}
            emu.reset_state()
            for name, snap in snaps.items():
                emu.restore_owner_state(name, snap)
            snapshots.append(snaps)
        assert snapshots[0] == snapshots[1]
        assert _state_view(ctl_s.emulator) == _state_view(ctl_m.emulator)
        step(batch=False)       # restored (sparse) state, scalar first
        step(batch=True)        # ... then promoted with live cells
        for ctl in (ctl_s, ctl_m):
            ctl.emulator.reset_state()
        step(batch=True)
        step(batch=False)
        stats = ctl_m.emulator.dataplane_stats.counters()
        assert stats["packets_vectorized"] > 0
        assert stats["kernel_bails"] == 0


_BAILER_SOURCE = """\
from Funclib import *
seen = Array(row=1, size=64, w=32)
n = count(seen, hdr.slot, 1)
forward(hdr)
"""


class TestMidKernelBailDifferential:
    def _build(self):
        ctl = ClickINC(build_paper_emulation_topology(), generate_code=False)
        ctl.deploy_source(_BAILER_SOURCE, ["pod0(a)"], "pod2(b)",
                          name="bailer",
                          header_fields={"slot": 32, "val": 32})
        # after the count: log what the table held for hdr.val, then store
        # hdr.val in it.  Neither write is idempotent under a replay — a
        # count left behind doubles, a table entry left behind turns the
        # replay's miss into a hit — so residue of a bail cannot hide.  The
        # table is keyed by another column than the registers, which rules
        # out wave scheduling: a repeated hdr.val starts a new slice.
        for runtime in ctl.emulator.runtimes.values():
            for owner, snippet, _steps in runtime.snippets:
                if owner != "bailer" or not snippet.states:
                    continue
                for decl in (
                        StateDecl("probe_tab", StateKind.EXACT_TABLE, size=64),
                        StateDecl("probe_log", StateKind.REGISTER_ARRAY,
                                  size=64)):
                    runtime.state.ensure(snippet.declare_state(decl))
                snippet.append(Instruction(
                    opcode=Opcode.SEMT_LOOKUP, dst="probe_hit",
                    state="probe_tab", operands=("hdr.val",)))
                snippet.append(Instruction(
                    opcode=Opcode.REG_WRITE, state="probe_log",
                    operands=("hdr.slot", "probe_hit")))
                snippet.append(Instruction(
                    opcode=Opcode.SEMT_WRITE, state="probe_tab",
                    operands=("hdr.val", "hdr.slot")))
        app = MLAggApplication(name="mlagg_co")
        ctl.deploy_profile(app.profile(), app.source_groups,
                           app.destination_group, name=app.name)
        return ctl, app

    @staticmethod
    def _bailer_packets(cells):
        # no seq/key/value field: one flow, so one path and one device
        return [Packet(src_group="pod0(a)", dst_group="pod2(b)",
                       owner="bailer", fields={"slot": slot, "val": val})
                for slot, val in cells]

    def test_bail_after_first_slice_wrote_leaves_no_residue(self, monkeypatch):
        """Negative register index in the *second* slice: the first slice's
        in-place register and table writes are undone, the owner re-routes
        through the scalar interpreter, the co-resident owner stays
        vectorized — and everything matches the all-scalar twin."""
        ctl_s, app = self._build()
        ctl_b, _ = self._build()
        workload = app.workload()
        # a clean batch first, so the bail happens over live state
        _run_both(ctl_s, ctl_b,
                  self._bailer_packets([(4, 40), (5, 50)])
                  + workload.packets(3))
        undone = []
        rollback = UndoScope.rollback

        def spy(scope):
            undone.append((len(scope._files), len(scope._table_writes)))
            rollback(scope)

        monkeypatch.setattr(UndoScope, "rollback", spy)
        before = ctl_b.emulator.dataplane_stats.counters()
        mlagg = workload.packets(3)
        # vals 10, 20, 30 form the first slice; the repeated 10 opens the
        # second, whose negative slot makes the count bail
        bailer = self._bailer_packets(
            [(1, 10), (2, 20), (3, 30), (7, 10), (-1, 5)])
        _run_both(ctl_s, ctl_b, bailer[:3] + mlagg + bailer[3:])
        assert undone == [(2, 3)]   # two register files, three table writes
        after = ctl_b.emulator.dataplane_stats.counters()
        assert after["kernel_bails"] - before["kernel_bails"] == 1
        assert after["packets_fallback"] - before["packets_fallback"] == 5
        assert (after["packets_vectorized"] - before["packets_vectorized"]
                == len(mlagg))
        # and the state keeps working on both paths afterwards
        _run_both(ctl_s, ctl_b,
                  self._bailer_packets([(6, 60)]) + workload.packets(2))
