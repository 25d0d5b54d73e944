"""Batched data-plane execution and the sustained traffic engine.

Two layers close the gap between the per-packet scalar interpreter and the
throughput the paper's evaluation needs:

* :class:`BatchRunner` — routes a whole packet batch through the deployed
  programs using the compiled vector kernels of
  :mod:`repro.emulator.kernels`.  ``NetworkEmulator.run_batch`` delegates
  here.  The contract is **bit-identical equivalence** with the scalar
  ``NetworkEmulator.run``: same final device state (registers including
  presence of explicit zeros, tables), same per-packet outcomes (flags,
  latency, hops, header fields, params, ``finished_at_device``) and same
  :class:`~repro.emulator.metrics.RunMetrics`.  Rows are grouped per owner
  (programs rename their states per owner, so owners never share state),
  each owner group is lowered to columns once, and every device is visited
  exactly once in an order that merges all ECMP paths topologically — rows
  reach each device in stream order, which is all the scalar semantics
  require.  Any vectorization obstacle (heterogeneous columns, unsupported
  opcode, a plan or runtime bail, paths that revisit a device) demotes the
  *whole owner group* to the scalar interpreter with its in-place state
  writes undone, so mixing vector and scalar owners in one batch stays exact.

* :class:`TrafficEngine` — sustained load: per-tenant workload generators
  (:mod:`repro.emulator.traffic`) emitted in timed batch rounds through
  ``run_batch``, producing per-device / per-program packet and instruction
  *rates*.  Every round's ``RunMetrics`` flows through the emulator's
  observer hook, so an attached
  :class:`~repro.runtime.health.HealthMonitor` sees sustained traffic and
  its overload detector fires from real load rather than one functional
  run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import DataplaneStats, EngineCounters
from repro.emulator.kernels import (
    DEFAULT_KERNEL_CACHE,
    BatchColumns,
    KernelCache,
    UndoScope,
    VectorBail,
)
from repro.emulator.metrics import RunMetrics
from repro.obs.metrics import Sample

__all__ = ["BatchReport", "BatchRunner", "RoundReport", "TrafficEngine"]


class _OwnerBail(Exception):
    """Internal: demote one owner group to the scalar interpreter."""


@dataclass
class BatchReport:
    """What one ``run_batch`` did, for rate accounting and diagnostics."""

    packets: int = 0
    vector_rows: int = 0
    fallback_rows: int = 0
    per_owner_packets: Dict[str, int] = field(default_factory=dict)
    per_owner_instructions: Dict[str, int] = field(default_factory=dict)


class _OwnerRun:
    """Buffered outcome of one owner group's vectorized traversal.

    Nothing here touches the packets or the metrics until the owner group
    completes — a mid-path :class:`VectorBail` just drops this object, rolls
    back the owner's :class:`~repro.emulator.kernels.UndoScope` (kernels
    write device state in place) and the rows re-route through the scalar
    interpreter.
    """

    def __init__(self, owner: str, rows: List[int], cols: BatchColumns,
                 user_id: int, group) -> None:
        n = len(rows)
        self.owner = owner
        self.rows = rows
        self.cols = cols
        self.user_id = user_id
        self.lat = np.array([p.latency_ns for p in group], dtype=np.float64)
        payload = np.array([p.payload_bytes for p in group], dtype=np.int64)
        field_bits = sum(
            32 * (col.shape[1] if col.ndim == 2 else 1)
            for col in cols.fields.values())
        #: per-row size in bits once params are cleared (16-bit INC base)
        self.base_bits = payload * 8 + 16 + field_bits
        sent = self.base_bits.copy()
        for name, col in cols.params.items():
            width = col.shape[1] if col.ndim == 2 else 1
            sent = sent + 32 * width * \
                cols.params_present[name].astype(np.int64)
        #: per-row size in bits as offered (present params included)
        self.sent_bits = sent
        #: 0 = still routing / delivered, 1 = dropped, 2 = reflected
        self.finished = np.zeros(n, dtype=np.int8)
        self.finish_dev: List[Optional[str]] = [None] * n
        self.finish_target: List[Optional[str]] = [None] * n
        self.finish_hop = np.zeros(n, dtype=np.int64)
        self.dropped_f = np.zeros(n, dtype=bool)
        self.reflected_f = np.zeros(n, dtype=bool)
        self.mirrored_f = np.zeros(n, dtype=bool)
        self.copied_f = np.zeros(n, dtype=bool)
        #: per-target record_device aggregates (packets, instructions)
        self.dev_packets: Dict[str, int] = {}
        self.dev_instructions: Dict[str, int] = {}
        #: per-hop final-result mirror / copy-to-cpu counts
        self.mirror_hops = 0
        self.cpu_hops = 0
        self.instructions_total = 0
        #: routing shape, filled by the runner (hops are reconstructed per
        #: row from its path and finish position at materialization)
        self.row_path: List[tuple] = []
        self.path_targets: Dict[tuple, List[str]] = {}
        self.path_pos: Dict[tuple, Dict[str, int]] = {}

    def finalize(self, link_latency_ns: float,
                 end_host_latency_ns: float) -> None:
        """Fold finish kinds into final latencies and python-side views.

        The reflect hop-return and end-host latency additions commute with
        the per-hop additions (all operands are dyadic rationals, so float
        addition is exact), which lets them apply as one vector op here.
        """
        refl = self.finished == 2
        deliv = self.finished == 0
        self.final_arr = (self.lat
                          + refl * (self.finish_hop * link_latency_ns)
                          + deliv * end_host_latency_ns)
        self.final_lat = self.final_arr.tolist()
        self.kinds = self.finished.tolist()
        self.dropped_l = self.dropped_f.tolist()
        self.reflected_l = self.reflected_f.tolist()
        self.mirrored_l = self.mirrored_f.tolist()
        self.copied_l = self.copied_f.tolist()
        # sparse column write-back: untouched columns (and untouched rows
        # of written columns) still match the source packets, so only the
        # rows a kernel actually wrote need python-side values.  Delivered
        # and reflected rows clear their params, so param updates matter
        # only where the row dropped.
        self.field_updates = []
        for name, mask in self.cols.dirty_fields.items():
            idx = np.flatnonzero(mask)
            if idx.size:
                self.field_updates.append(
                    (name, idx.tolist(),
                     self.cols.fields[name][idx].tolist()))
        self.param_groups = []
        dropped = self.finished == 1
        if dropped.any():
            # params written on the same row set share one columnar group,
            # applied as a single update(zip(names, row)) per row
            grouped: Dict[bytes, list] = {}
            for name, mask in self.cols.dirty_params.items():
                idx = np.flatnonzero(mask & dropped)
                if not idx.size:
                    continue
                entry = grouped.setdefault(idx.tobytes(), [idx, [], []])
                entry[1].append(name)
                entry[2].append(self.cols.params[name][idx].tolist())
            for idx, names, columns in grouped.values():
                self.param_groups.append(
                    (idx.tolist(), tuple(names), list(zip(*columns))))


    def apply_updates(self, packets: Sequence) -> None:
        """Patch kernel-written column values onto the source packets.

        Runs after per-row materialization: field writes apply to every
        outcome (the scalar path never clears fields), param writes only to
        dropped rows (delivered / reflected rows cleared their params).
        """
        rows = self.rows
        for name, idx, values in self.field_updates:
            for local, value in zip(idx, values):
                packets[rows[local]].fields[name] = value
        for locals_, names, rowvals in self.param_groups:
            for local, row in zip(locals_, rowvals):
                packets[rows[local]].inc.params.update(zip(names, row))


class BatchRunner:
    """Vectorized batch router over a :class:`NetworkEmulator`."""

    def __init__(self, emulator, kernel_cache: Optional[KernelCache] = None,
                 stats: Optional[DataplaneStats] = None) -> None:
        self.emulator = emulator
        self.cache = kernel_cache or DEFAULT_KERNEL_CACHE
        self.stats = stats if stats is not None \
            else getattr(emulator, "dataplane_stats", None)

    # ------------------------------------------------------------------ #
    def run(self, packets: Sequence, link_latency_ns: float = 1000.0,
            end_host_latency_ns: float = 5000.0) -> RunMetrics:
        """Route *packets*; returns metrics bit-identical to ``run()``."""
        packets = list(packets)
        metrics = RunMetrics()
        stats = self.stats
        if stats is not None:
            stats.increment("batches")
        # per-run path caches: the topology cannot change mid-batch, so the
        # ECMP path set and the NIC prefix are fixed per (src, dst) pair /
        # per source group — only the per-row flow hash picks among them
        self._pair_paths: Dict[Tuple[str, str], List] = {}
        self._nic_prefix: Dict[str, Optional[str]] = {}
        groups: Dict[str, List[int]] = {}
        for i, packet in enumerate(packets):
            groups.setdefault(packet.owner, []).append(i)
        handled: Dict[int, Tuple[_OwnerRun, int]] = {}
        owner_runs: List[_OwnerRun] = []
        report = BatchReport(packets=len(packets))
        for owner, idxs in groups.items():
            report.per_owner_packets[owner] = len(idxs)
            orun = None
            if owner and owner in self.emulator.deployments:
                if stats is not None:
                    stats.increment("owner_groups")
                orun = self._run_owner(owner, idxs, packets, link_latency_ns)
            if orun is None:
                report.fallback_rows += len(idxs)
                if stats is not None:
                    stats.increment("packets_fallback", len(idxs))
                continue
            owner_runs.append(orun)
            for local, gi in enumerate(orun.rows):
                handled[gi] = (orun, local)
            report.vector_rows += len(idxs)
            if stats is not None:
                stats.increment("packets_vectorized", len(idxs))
        # owner-level aggregates: every RunMetrics field is a commutative
        # sum (integer counts, dyadic-rational bytes and latencies whose
        # float addition is exact), so applying them grouped instead of
        # interleaved per packet cannot diverge from the scalar accumulation
        for orun in owner_runs:
            orun.finalize(link_latency_ns, end_host_latency_ns)
            for dev, count in orun.dev_packets.items():
                metrics.per_device_packets[dev] = (
                    metrics.per_device_packets.get(dev, 0) + count)
                self.emulator.runtimes[dev].packets_processed += count
            for dev, count in orun.dev_instructions.items():
                metrics.per_device_instructions[dev] = (
                    metrics.per_device_instructions.get(dev, 0) + count)
                self.emulator.runtimes[dev].instructions_executed += count
            metrics.packets_mirrored += orun.mirror_hops
            metrics.packets_to_cpu += orun.cpu_hops
            report.per_owner_instructions[orun.owner] = (
                report.per_owner_instructions.get(orun.owner, 0)
                + orun.instructions_total)
            n_rows = len(orun.rows)
            dropped_ct = int((orun.finished == 1).sum())
            reflected_ct = int((orun.finished == 2).sum())
            metrics.packets_sent += n_rows
            metrics.bytes_sent += float(int(orun.sent_bits.sum())) / 8.0
            metrics.packets_dropped_innetwork += dropped_ct
            metrics.packets_reflected += reflected_ct
            metrics.packets_delivered += n_rows - dropped_ct - reflected_ct
            if dropped_ct or reflected_ct:
                metrics.bump("served_in_network",
                             float(dropped_ct + reflected_ct))
            metrics.total_latency_ns += float(orun.final_arr.sum())
            metrics.bytes_delivered += float(
                int(orun.base_bits[orun.finished == 0].sum())) / 8.0
            metrics.bytes_reflected += float(
                int(orun.base_bits[orun.finished == 2].sum())) / 8.0
        # materialize per packet in stream order; fallback rows run the
        # ordinary scalar path (their owner's state is as the batch found it)
        for i, packet in enumerate(packets):
            hit = handled.get(i)
            if hit is None:
                before = sum(metrics.per_device_instructions.values())
                self.emulator._route_packet(
                    packet, metrics, link_latency_ns, end_host_latency_ns)
                after = sum(metrics.per_device_instructions.values())
                report.per_owner_instructions[packet.owner] = (
                    report.per_owner_instructions.get(packet.owner, 0)
                    + after - before)
                continue
            orun, local = hit
            self._materialize(packet, orun, local)
        for orun in owner_runs:
            orun.apply_updates(packets)
        self.emulator.last_batch = report
        return metrics

    # ------------------------------------------------------------------ #
    def _run_owner(self, owner: str, idxs: List[int], packets,
                   link_latency_ns: float) -> Optional[_OwnerRun]:
        context = self.emulator.deployments[owner]
        group = [packets[i] for i in idxs]
        undo = UndoScope()
        try:
            orun = self._run_owner_inner(owner, idxs, group, context,
                                         undo, link_latency_ns)
        except (_OwnerBail, VectorBail):
            undo.rollback()
            if self.stats is not None:
                self.stats.increment("kernel_bails")
            return None
        undo.commit()
        return orun

    def _run_owner_inner(self, owner: str, idxs: List[int], group,
                         context, undo: UndoScope,
                         link_latency_ns: float) -> _OwnerRun:
        emu = self.emulator
        cols = BatchColumns.from_packets(group)
        if cols is None:
            raise _OwnerBail("heterogeneous columns")
        devices_with = set(context.plan.devices_used())
        bypass_of = emu.topology.bypass
        # group rows by chosen ECMP path: the station sequence — the switch
        # itself, then its bypass accelerator when the plan uses it
        # (network.py targets loop) — is a property of the path, so all
        # per-path work happens once, not once per row
        path_rows: Dict[tuple, List[int]] = {}
        row_path: List[tuple] = []
        for packet in group:
            key = tuple(self._fast_path(packet))
            row_path.append(key)
            rows_for = path_rows.get(key)
            if rows_for is None:
                path_rows[key] = rows_for = []
            rows_for.append(len(row_path) - 1)
        seq_of: Dict[tuple, List[Tuple[int, str, str]]] = {}
        for key in path_rows:
            seq: List[Tuple[int, str, str]] = []
            for h, dev in enumerate(key):
                seq.append((h, dev, dev))
                bypass = bypass_of.get(dev)
                if bypass is not None and bypass in devices_with:
                    seq.append((h, dev, bypass))
            targets = [t for _, _, t in seq]
            if len(set(targets)) != len(targets):
                # a revisit breaks the one-kernel-call-per-device ordering
                raise _OwnerBail("path revisits a device")
            seq_of[key] = seq
        order = _merge_order(list(seq_of.values()))
        if order is None:
            raise _OwnerBail("ECMP paths disagree on device order")
        orun = _OwnerRun(owner, idxs, cols, context.user_id, group)
        orun.row_path = row_path
        orun.path_targets = {
            key: [t for _, _, t in seq] for key, seq in seq_of.items()}
        orun.path_pos = {
            key: {t: i for i, t in enumerate(targets)}
            for key, targets in orun.path_targets.items()}
        all_targets: set = set()
        for targets in orun.path_targets.values():
            all_targets.update(targets)
        installed = {
            target: owner in emu.runtimes[target].installed_owners()
            for target in all_targets
        }
        snippets = {}
        for target, is_in in installed.items():
            if not is_in:
                continue
            runtime = emu.runtimes[target]
            matching = [s for o, s, _ in runtime.snippets if o == owner]
            if len(matching) != 1:
                raise _OwnerBail("ambiguous snippet for owner")
            snippets[target] = matching[0]

        # per-station row/hop/role columns, precomputed from the per-path
        # chunks (everything below is constant per chunk) and merged back
        # into stream order
        chunk_lists: Dict[str, List[Tuple[np.ndarray, int, str]]] = {}
        for key, rows_for in path_rows.items():
            arr = np.asarray(rows_for, dtype=np.int64)
            for h, hop_dev, target in seq_of[key]:
                chunk_lists.setdefault(target, []).append((arr, h, hop_dev))
        stations = []
        for target in order:
            clist = chunk_lists.get(target)
            if not clist:
                continue
            devnames: List[str] = []
            dev_code: Dict[str, int] = {}
            p_rows, p_hop, p_role, p_last, p_code = [], [], [], [], []
            for arr, h, hop_dev in clist:
                m = arr.size
                is_hop = hop_dev == target
                # per-hop mirror/copy counting follows the final result of
                # the hop's targets loop: the switch's result counts when no
                # installed bypass follows; otherwise the bypass's (always
                # its hop's last target) counts
                last = (not is_hop) or not self._installed_bypass(
                    hop_dev, devices_with, installed)
                code = dev_code.get(hop_dev)
                if code is None:
                    dev_code[hop_dev] = code = len(devnames)
                    devnames.append(hop_dev)
                p_rows.append(arr)
                p_hop.append(np.full(m, h, dtype=np.int64))
                p_role.append(np.full(m, is_hop, dtype=bool))
                p_last.append(np.full(m, last, dtype=bool))
                p_code.append(np.full(m, code, dtype=np.int64))
            if len(clist) == 1:
                rows_all, hop_all = p_rows[0], p_hop[0]
                role_all, last_all, code_all = p_role[0], p_last[0], p_code[0]
            else:
                rows_all = np.concatenate(p_rows)
                # rows must reach every device in stream order
                perm = np.argsort(rows_all)
                rows_all = rows_all[perm]
                hop_all = np.concatenate(p_hop)[perm]
                role_all = np.concatenate(p_role)[perm]
                last_all = np.concatenate(p_last)[perm]
                code_all = np.concatenate(p_code)[perm]
            stations.append((target, rows_all, hop_all, role_all, last_all,
                             code_all, devnames))

        for (target, rows_all, hop_all, role_all, last_all, code_all,
                devnames) in stations:
            runtime = emu.runtimes[target]
            alive = orun.finished[rows_all] == 0
            if not alive.any():
                continue
            if alive.all():
                sel, hop_arr = rows_all, hop_all
                role_hop, last_target, codes = role_all, last_all, code_all
            else:
                sel = rows_all[alive]
                hop_arr = hop_all[alive]
                role_hop = role_all[alive]
                last_target = last_all[alive]
                codes = code_all[alive]
            # link latency is charged when the packet enters the hop — i.e.
            # at the switch station, never at the bypass accelerator
            entering = role_hop & (hop_arr > 0)
            if entering.any():
                orun.lat[sel[entering]] += link_latency_ns
            if not installed[target]:
                orun.lat[sel] += runtime.device.processing_latency_ns * 0.25
                continue
            kernel = self.cache.get(snippets[target])
            if self.stats is not None:
                self.stats.increment("kernel_calls")
            result = kernel.execute(runtime, cols, sel, undo, self.stats)
            if result is None:
                raise _OwnerBail("kernel bailed")
            orun.lat[sel] += runtime.device.processing_latency_ns
            count = sel.size
            executed = int(result.executed.sum())
            orun.dev_packets[target] = orun.dev_packets.get(target, 0) + count
            orun.dev_instructions[target] = (
                orun.dev_instructions.get(target, 0) + executed)
            orun.instructions_total += executed
            orun.dropped_f[sel] |= result.dropped
            orun.reflected_f[sel] |= result.reflected
            orun.mirrored_f[sel] |= result.mirrored
            orun.copied_f[sel] |= result.copied_to_cpu
            ended = result.dropped | result.reflected
            # hops that drop or reflect never count mirror/copy: the scalar
            # path returns before those checks
            final_here = ~ended & last_target
            orun.mirror_hops += int((result.mirrored & final_here).sum())
            orun.cpu_hops += int((result.copied_to_cpu & final_here).sum())
            end_idx = np.flatnonzero(ended)
            if end_idx.size:
                end_rows = sel[end_idx]
                orun.finished[end_rows] = np.where(
                    result.dropped[end_idx], 1, 2)
                orun.finish_hop[end_rows] = hop_arr[end_idx]
                for r, c in zip(end_rows.tolist(),
                                codes[end_idx].tolist()):
                    orun.finish_dev[r] = devnames[c]
                    orun.finish_target[r] = target
        return orun

    def _fast_path(self, packet) -> List[str]:
        """``NetworkEmulator._choose_path`` with the per-run caches applied.

        Identical selection: same ECMP path list (via the topology's own
        memoized ``paths_between_groups``), same flow-key hash, same NIC
        prefix — only the pair/group lookups are hoisted out of the row loop.
        """
        emu = self.emulator
        pair = (packet.src_group, packet.dst_group)
        paths = self._pair_paths.get(pair)
        if paths is None:
            paths = emu.topology.paths_between_groups(*pair)
            if not paths:
                # let the scalar path raise its EmulationError for this row
                raise _OwnerBail("no path between groups")
            self._pair_paths[pair] = paths
        flow_key = (
            packet.owner,
            packet.get_field("seq", None),
            packet.get_field("key", None),
            packet.get_field("value", None),
        )
        path = list(paths[hash(flow_key) % len(paths)])
        src = packet.src_group
        if src not in self._nic_prefix:
            nic = None
            group = emu.topology.host_group(src)
            if group.nic_type is not None:
                for name, layer in emu.topology.layers.items():
                    if layer == "nic" and emu.topology.pods.get(name) == \
                            emu.topology.pods.get(group.tor) and \
                            group.tor in emu.topology.neighbors(name):
                        nic = name
                        break
            self._nic_prefix[src] = nic
        nic = self._nic_prefix[src]
        if nic is not None:
            path.insert(0, nic)
        return path

    def _installed_bypass(self, hop_dev: str, devices_with: set,
                          installed: Dict[str, bool]) -> bool:
        bypass = self.emulator.topology.bypass.get(hop_dev)
        return (bypass is not None and bypass in devices_with
                and installed.get(bypass, False))

    # ------------------------------------------------------------------ #
    def _materialize(self, packet, orun: _OwnerRun, local: int) -> None:
        """Write one vector row's buffered outcome back onto its packet.

        All RunMetrics contributions were applied as group-level sums in
        :meth:`run`; only the per-packet observable state lands here.
        """
        packet.inc.user_id = orun.user_id
        packet.latency_ns = orun.final_lat[local]
        if orun.dropped_l[local]:
            packet.dropped = True
        if orun.reflected_l[local]:
            packet.reflected = True
        if orun.mirrored_l[local]:
            packet.mirrored = True
        if orun.copied_l[local]:
            packet.copied_to_cpu = True
        key = orun.row_path[local]
        targets = orun.path_targets[key]
        kind = orun.kinds[local]
        if kind == 0:
            # delivered: the full station sequence was visited
            packet.hops.extend(targets)
            packet.inc.params.clear()
            return
        position = orun.path_pos[key][orun.finish_target[local]]
        packet.hops.extend(targets[:position + 1])
        packet.finished_at_device = orun.finish_dev[local]
        if kind != 1:
            # dropped packets keep their params (the scalar path returns
            # without clearing); their kernel-written values land in the
            # apply_updates pass after materialization
            packet.inc.params.clear()


def _merge_order(seqs: List[List[Tuple[int, str, str]]]) -> Optional[List[str]]:
    """Topological device order consistent with every row's station order."""
    nodes: Dict[str, None] = {}
    succ: Dict[str, List[str]] = {}
    indeg: Dict[str, int] = {}
    edges: set = set()
    for seq in seqs:
        prev = None
        for _, _, target in seq:
            if target not in nodes:
                nodes[target] = None
                succ[target] = []
                indeg[target] = 0
            if prev is not None and (prev, target) not in edges:
                edges.add((prev, target))
                succ[prev].append(target)
                indeg[target] += 1
            prev = target
    queue = deque(n for n in nodes if indeg[n] == 0)
    order: List[str] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if len(order) != len(nodes):
        return None
    return order


# --------------------------------------------------------------------------- #
# sustained traffic
# --------------------------------------------------------------------------- #
@dataclass
class TrafficSource:
    """One tenant's workload generator attached to the engine."""

    name: str
    workload: object
    units_per_round: int = 256


@dataclass
class RoundReport:
    """One timed round of sustained traffic."""

    index: int
    packets: int
    instructions: int
    duration_s: float
    pps: float
    ips: float
    per_program_packets: Dict[str, int]
    metrics: RunMetrics


class TrafficEngine:
    """Sustained per-tenant traffic in timed batch rounds.

    Every round draws the next slice of each attached workload's resumable
    stream, interleaves the tenants round-robin into one batch, pushes the
    batch through ``NetworkEmulator.run_batch`` (or the scalar ``run`` when
    ``use_batch=False``) and times it.  The round's
    :class:`~repro.emulator.metrics.RunMetrics` reaches every emulator
    observer — attach a :class:`~repro.runtime.health.HealthMonitor` and
    overload flags fire from sustained load.  Per-device and per-program
    packet / instruction rates from the last round are kept for
    :meth:`rates` and, after :meth:`bind_metrics`, surface as gauges next
    to the data-plane counter and histogram families on ``/v1/metrics``.
    """

    def __init__(self, emulator, *, link_latency_ns: float = 1000.0,
                 end_host_latency_ns: float = 5000.0,
                 use_batch: bool = True) -> None:
        self.emulator = emulator
        self.link_latency_ns = link_latency_ns
        self.end_host_latency_ns = end_host_latency_ns
        self.use_batch = use_batch
        self.sources: List[TrafficSource] = []
        self.stats = EngineCounters()
        self.reports: "deque[RoundReport]" = deque(maxlen=256)
        self._device_pps: Dict[str, float] = {}
        self._device_ips: Dict[str, float] = {}
        self._program_pps: Dict[str, float] = {}
        self._program_ips: Dict[str, float] = {}
        self._last_pps = 0.0
        self._last_ips = 0.0
        self._batch_hist = None
        self._compile_hist = None
        self._compile_seen = 0

    # ------------------------------------------------------------------ #
    def add_source(self, name: str, workload,
                   units_per_round: int = 256) -> TrafficSource:
        """Attach a workload; ``units_per_round`` is passed to ``packets()``."""
        source = TrafficSource(name, workload, units_per_round)
        self.sources.append(source)
        return source

    # ------------------------------------------------------------------ #
    def run_round(self) -> RoundReport:
        """Emit one timed batch round and return its report."""
        per_source: List[List] = []
        per_program: Dict[str, int] = {}
        for source in self.sources:
            pkts = source.workload.packets(source.units_per_round)
            per_source.append(pkts)
            owner = getattr(source.workload, "owner", source.name)
            per_program[owner] = per_program.get(owner, 0) + len(pkts)
        batch = _interleave(per_source)
        started = time.perf_counter()
        if self.use_batch:
            metrics = self.emulator.run_batch(
                batch, link_latency_ns=self.link_latency_ns,
                end_host_latency_ns=self.end_host_latency_ns)
        else:
            metrics = self.emulator.run(
                batch, link_latency_ns=self.link_latency_ns,
                end_host_latency_ns=self.end_host_latency_ns)
        duration = max(time.perf_counter() - started, 1e-9)
        instructions = sum(metrics.per_device_instructions.values())
        self.stats.increment("rounds")
        self.stats.increment("packets", len(batch))
        self.stats.increment("instructions", instructions)
        self._last_pps = len(batch) / duration
        self._last_ips = instructions / duration
        self._device_pps = {
            dev: count / duration
            for dev, count in metrics.per_device_packets.items()}
        self._device_ips = {
            dev: count / duration
            for dev, count in metrics.per_device_instructions.items()}
        self._program_pps = {
            owner: count / duration for owner, count in per_program.items()}
        last_batch = getattr(self.emulator, "last_batch", None)
        if self.use_batch and last_batch is not None:
            self._program_ips = {
                owner: count / duration
                for owner, count in last_batch.per_owner_instructions.items()}
        if self._batch_hist is not None:
            self._batch_hist.observe(len(batch))
        if self._compile_hist is not None:
            recent, self._compile_seen = (
                DEFAULT_KERNEL_CACHE.compile_seconds_since(self._compile_seen))
            for value in recent:
                self._compile_hist.observe(value)
        report = RoundReport(
            index=self.stats.rounds - 1, packets=len(batch),
            instructions=instructions, duration_s=duration,
            pps=self._last_pps, ips=self._last_ips,
            per_program_packets=per_program, metrics=metrics)
        self.reports.append(report)
        return report

    def run(self, rounds: Optional[int] = None,
            duration_s: Optional[float] = None,
            stop_when=None) -> List[RoundReport]:
        """Run rounds until a count, a wall-clock budget, or a predicate.

        ``stop_when`` is called with each :class:`RoundReport`; returning a
        truthy value ends the run (e.g. "a device tripped overload").
        """
        if rounds is None and duration_s is None and stop_when is None:
            raise ValueError("need rounds, duration_s or stop_when")
        reports: List[RoundReport] = []
        started = time.perf_counter()
        while True:
            if rounds is not None and len(reports) >= rounds:
                break
            if duration_s is not None and \
                    time.perf_counter() - started >= duration_s:
                break
            report = self.run_round()
            reports.append(report)
            if stop_when is not None and stop_when(report):
                break
        return reports

    # ------------------------------------------------------------------ #
    def rates(self) -> Dict[str, object]:
        """Last-round packet/instruction rates, overall and broken down."""
        return {
            "pps": self._last_pps,
            "ips": self._last_ips,
            "devices": {
                dev: {"pps": self._device_pps.get(dev, 0.0),
                      "ips": self._device_ips.get(dev, 0.0)}
                for dev in sorted(self._device_pps)
            },
            "programs": {
                owner: {"pps": self._program_pps.get(owner, 0.0),
                        "ips": self._program_ips.get(owner, 0.0)}
                for owner in sorted(self._program_pps)
            },
        }

    def bind_metrics(self, obs) -> None:
        """Expose engine + data-plane telemetry on an Observability hub.

        Registers the engine's round counters and the emulator's
        :class:`~repro.core.stats.DataplaneStats` bag (vectorized vs
        fallback rows, kernel calls/bails, slices), batch-size and
        kernel-compile-latency histograms, and render-time gauges for the
        last round's packets/sec + instructions/sec overall, per device and
        per program.  Everything lands in the hub's registry, i.e. on the
        gateway's ``GET /v1/metrics``.
        """
        registry = obs.registry
        registry.register_counters("clickinc_traffic_engine", self.stats)
        dataplane = getattr(self.emulator, "dataplane_stats", None)
        if dataplane is not None:
            registry.register_counters("clickinc_dataplane", dataplane)
        self._batch_hist = registry.histogram(
            "clickinc_dataplane_batch_size",
            "Packets per data-plane batch round",
            buckets=(16, 64, 256, 1024, 4096, 16384))
        self._compile_hist = registry.histogram(
            "clickinc_dataplane_kernel_compile_seconds",
            "Latency of compiling one vector kernel from an IR snippet")

        def _samples():
            samples = [
                Sample("clickinc_dataplane_pps", {}, self._last_pps,
                       "gauge", "Last-round packets per second"),
                Sample("clickinc_dataplane_ips", {}, self._last_ips,
                       "gauge", "Last-round executed instructions per second"),
            ]
            for dev, rate in sorted(self._device_pps.items()):
                samples.append(Sample(
                    "clickinc_dataplane_device_pps", {"device": dev}, rate,
                    "gauge", "Last-round per-device packets per second"))
            for dev, rate in sorted(self._device_ips.items()):
                samples.append(Sample(
                    "clickinc_dataplane_device_ips", {"device": dev}, rate,
                    "gauge", "Last-round per-device instructions per second"))
            for owner, rate in sorted(self._program_pps.items()):
                samples.append(Sample(
                    "clickinc_dataplane_program_pps", {"program": owner},
                    rate, "gauge", "Last-round per-program packets per second"))
            for owner, rate in sorted(self._program_ips.items()):
                samples.append(Sample(
                    "clickinc_dataplane_program_ips", {"program": owner},
                    rate, "gauge",
                    "Last-round per-program instructions per second"))
            cache = DEFAULT_KERNEL_CACHE.stats()
            samples.append(Sample(
                "clickinc_dataplane_kernels_compiled_total", {},
                cache["compiled"], "counter", "Vector kernels compiled"))
            samples.append(Sample(
                "clickinc_dataplane_kernel_cache_hits_total", {},
                cache["hits"], "counter", "Compiled-kernel cache hits"))
            return samples

        registry.register_collector(_samples, key=("traffic-engine", id(self)))


def _interleave(per_source: List[List]) -> List:
    """Round-robin merge of the per-tenant packet slices into one batch."""
    out: List = []
    iters = [iter(pkts) for pkts in per_source]
    while iters:
        still = []
        for it in iters:
            try:
                out.append(next(it))
            except StopIteration:
                continue
            still.append(it)
        iters = still
    return out
