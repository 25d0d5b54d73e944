"""Run a script's laps against a live stack and check what came back.

One thread does everything the load generator does: wire ops over the
single client connection, probe batches through freshly committed
programs, and ``TrafficEngine`` rounds (one engine per hosting
controller).  Nothing is retried or filtered: a non-200, a
``succeeded: false`` or a raising traffic round is a failure, is counted
by stage, and contributes no sample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from collections import Counter
from typing import Dict, List, Tuple

from benchmarks.e2e.scripts import (KVS_KEYS, PROBE_UNITS, Model,
                                    internal_name)
from benchmarks.e2e.stack import TENANTS, Client, Stack


def make_workload(kind: str, program: str, src: str, dst: str, seed: int):
    """The packet generator that exercises a program of *kind*."""
    from repro.emulator.traffic import (DQAccWorkload, KVSWorkload,
                                        MLAggWorkload)

    if kind == "KVS":
        return KVSWorkload(src, dst, num_keys=KVS_KEYS, owner=program,
                           seed=seed)
    if kind == "DQAcc":
        return DQAccWorkload(src, dst, owner=program, seed=seed)
    sparsity = 0.5 if kind == "SparseMLAgg" else 0.0
    return MLAggWorkload(src, dst, sparsity=sparsity, owner=program,
                         seed=seed)


def metrics_digest(metrics_list, exact: bool = True) -> str:
    """Content hash of a sequence of ``RunMetrics``.

    ``exact=False`` keeps only the offered packet counts — what must agree
    between laps whose programs differ in a knob.
    """
    if exact:
        payload = [dataclasses.asdict(m) for m in metrics_list]
    else:
        payload = [m.packets_sent for m in metrics_list]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Traffic:
    """The attached sources: one ``TrafficEngine`` per hosting controller."""

    def __init__(self, stack: Stack, use_batch: bool = True) -> None:
        self._stack = stack
        self._use_batch = use_batch
        self.engines: list = []
        #: (source spec, workload, emulator) per attached source
        self.sources: List[Tuple[dict, object, object]] = []

    def attach(self, sources: List[dict]) -> None:
        """Bind *sources* and put the data plane in its lap-start state.

        Workload streams start over, every hosting emulator loses its
        register/table state and KVS caches are repopulated: each lap pushes
        identical packets through identical device state.
        """
        from repro.apps import KVSApplication
        from repro.emulator.engine import TrafficEngine

        by_emulator: Dict[int, object] = {}
        self.sources = []
        for spec in sources:
            controller = self._stack.coordinator.controller_for(
                spec["program"])
            emulator = controller.emulator
            engine = by_emulator.get(id(emulator))
            if engine is None:
                engine = by_emulator[id(emulator)] = TrafficEngine(
                    emulator, use_batch=self._use_batch)
            workload = make_workload(spec["kind"], spec["program"],
                                     spec["src"], spec["dst"], spec["seed"])
            engine.add_source(spec["program"], workload, spec["units"])
            self.sources.append((spec, workload, emulator))
        self.engines = list(by_emulator.values())
        for engine in self.engines:
            engine.emulator.reset_state()
        for spec, _workload, emulator in self.sources:
            if spec["kind"] == "KVS":
                KVSApplication(name=spec["program"], num_keys=KVS_KEYS) \
                    .populate_cache(emulator, fraction=1.0)

    def round(self) -> Tuple[int, float, list, Counter]:
        """One round on every engine.

        Returns ``(packets, seconds, [RunMetrics], dataplane)``; the last is
        what the round added to the hosting emulators' ``DataplaneStats``.
        """
        before = self._dataplane()
        started = time.perf_counter()
        reports = [engine.run_round() for engine in self.engines]
        seconds = time.perf_counter() - started
        after = self._dataplane()
        after.subtract(before)
        return (sum(r.packets for r in reports), seconds,
                [r.metrics for r in reports], after)

    def _dataplane(self) -> Counter:
        total: Counter = Counter()
        for engine in self.engines:
            total.update(engine.emulator.dataplane_stats.counters())
        return total

    def probe(self, op: dict) -> int:
        """Push the first packets through a freshly committed program."""
        program = internal_name(op["tenant"], op["name"])
        workload = make_workload(op["kind"], program, op["src"], op["dst"],
                                 seed=1)
        packets = workload.packets(PROBE_UNITS[op["kind"]])
        emulator = self._stack.coordinator.controller_for(program).emulator
        run = emulator.run_batch if self._use_batch else emulator.run
        return run(packets).packets_sent


@dataclasses.dataclass
class LapStats:
    """Samples and totals of one lap."""

    submit_s: List[float] = dataclasses.field(default_factory=list)
    first_packet_s: List[float] = dataclasses.field(default_factory=list)
    remove_s: List[float] = dataclasses.field(default_factory=list)
    update_s: List[float] = dataclasses.field(default_factory=list)
    #: client-observed time of every submit/remove/update of the lap
    control_s: float = 0.0
    committed: int = 0
    #: wall time of the run_round() calls, and the packets they carried
    traffic_s: float = 0.0
    packets: int = 0
    round_metrics: list = dataclasses.field(default_factory=list)
    #: what the rounds added to the hosting emulators' DataplaneStats
    dataplane: Counter = dataclasses.field(default_factory=Counter)
    attempted: int = 0
    failures: Counter = dataclasses.field(default_factory=Counter)
    examples: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: (op index, op type, started, ended, ok) of every timed op, for traces
    log: List[tuple] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy_s(self) -> float:
        """Time inside timed ops: wire round trips, probes, rounds."""
        return sum(ended - started
                   for _i, _kind, started, ended, _ok in self.log)

    def fail(self, stage: str, detail: str) -> None:
        self.failures[stage] += 1
        self.examples.setdefault(stage, detail[:200])


class Runner:
    """Executes script ops on one stack, keeping the script's model."""

    def __init__(self, stack: Stack, use_batch: bool = True) -> None:
        self.client = Client(stack.port)
        self.traffic = Traffic(stack, use_batch=use_batch)
        self.model = Model()

    def close(self) -> None:
        self.client.close()

    def run(self, ops: List[dict]) -> LapStats:
        """Run *ops* in order."""
        stats = LapStats()
        for index, op in enumerate(ops):
            kind = op["op"]
            if kind == "attach":
                self.traffic.attach(op["sources"])
            elif kind == "round":
                self._round(index, stats)
            else:
                self.model.apply(op)
                self._wire(index, op, stats)
        return stats

    def revive(self, ops: List[dict], sources: List[dict]) -> List[dict]:
        """Resubmit the programs of *sources* that *ops* deployed and removed.

        Returns the submits it ran, for the caller to remove again.
        """
        wanted = {spec["program"] for spec in sources}
        revived = [dict(op, probe=False) for op in ops
                   if op["op"] == "submit"
                   and (op["tenant"], op["name"]) not in self.model.live
                   and internal_name(op["tenant"], op["name"]) in wanted]
        self.run(revived)
        return revived

    def _round(self, index: int, stats: LapStats) -> None:
        stats.attempted += 1
        started = time.perf_counter()
        try:
            packets, seconds, metrics, dataplane = self.traffic.round()
        except Exception as exc:  # a failed round is a result, not a crash
            stats.fail(f"round:{type(exc).__name__}", str(exc))
            stats.log.append((index, "round", started,
                              time.perf_counter(), False))
            return
        stats.traffic_s += seconds
        stats.packets += packets
        stats.round_metrics.extend(metrics)
        stats.dataplane.update(dataplane)
        stats.log.append((index, "round", started, started + seconds, True))

    def _wire(self, index: int, op: dict, stats: LapStats) -> None:
        kind = op["op"]
        stats.attempted += 1
        if kind == "submit":
            status, body, started, ended = self.client.call(
                "POST", "/v1/programs", op["tenant"],
                dict(op["body"], name=op["name"]))
        elif kind == "remove":
            status, body, started, ended = self.client.call(
                "DELETE", f"/v1/programs/{op['name']}", op["tenant"])
        else:
            status, body, started, ended = self.client.call(
                "POST", f"/v1/programs/{op['name']}/update", op["tenant"],
                op["body"])
        stats.control_s += ended - started
        ok = status == 200 and body.get("succeeded", True)
        stats.log.append((index, kind, started, ended, ok))
        if status != 200:
            stats.fail(f"{kind}:http_{status}:{body.get('error')}",
                       str(body.get("message")))
            return
        if not ok:
            stats.fail(f"{kind}:{body.get('failed_stage')}",
                       str(body.get("error")))
            return
        if kind == "remove":
            stats.remove_s.append(ended - started)
        elif kind == "update":
            stats.update_s.append(ended - started)
        else:
            stats.committed += 1
            stats.submit_s.append(ended - started)
            if op["probe"]:
                self._probe(index, op, started, stats)

    def _probe(self, index: int, op: dict, written_at: float,
               stats: LapStats) -> None:
        stats.attempted += 1
        started = time.perf_counter()
        try:
            sent = self.traffic.probe(op)
        except Exception as exc:
            stats.fail(f"probe:{type(exc).__name__}", str(exc))
            stats.log.append((index, "probe", started,
                              time.perf_counter(), False))
            return
        ended = time.perf_counter()
        stats.log.append((index, "probe", started, ended, True))
        if sent != 64:
            stats.fail("probe:short_batch", f"{sent} of 64 packets sent")
            return
        stats.first_packet_s.append(ended - written_at)

    # ------------------------------------------------------------------ #
    def state_errors(self) -> List[str]:
        """Where the wire's view of the service departs from the model."""
        errors = []
        for tenant, (tenant_id, _key) in enumerate(TENANTS):
            status, body, _, _ = self.client.call(
                "GET", "/v1/programs", tenant)
            expected = self.model.programs(tenant)
            if status != 200 or sorted(body["programs"]) != expected:
                errors.append(f"{tenant_id}: programs {body} != {expected}")
            status, body, _, _ = self.client.call("GET", "/v1/status", tenant)
            want = self.model.counters[tenant]
            got = body.get("counters", {})
            if status != 200 or any(got.get(k) != v for k, v in want.items()):
                errors.append(f"{tenant_id}: counters {got} != {want}")
            elif body["usage"]["programs"] != len(expected):
                errors.append(f"{tenant_id}: usage {body['usage']}")
        return errors


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
