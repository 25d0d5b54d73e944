"""Per-layer tracing for the traced run (``--trace 1``).

:func:`install` wraps the public callables in :data:`TARGETS` with timing
wrappers for the duration of one lap.  Spans stay in memory as
``(name, start, end, thread, value, failed)``; nothing is computed while
the lap runs.  Afterwards every span is assigned to the client op whose
interval contains its start, and a span's parent is the innermost span of
the same op that encloses it — on the same thread where there is one,
otherwise across the hand-offs (HTTP task -> scheduler -> dispatcher ->
executor thread -> compile pool).  That is sound because the load
generator is serial: one op is in flight at a time, so an op's spans nest
in time.  A layer's *self time* is its spans' duration minus the part
their children cover.

The wrappers live here, in the benchmark; ``src/`` is not instrumented.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.e2e.laps import LapStats, Runner, metrics_digest
from benchmarks.e2e.stack import Stack

#: (module, class or None, attribute, span name, value-of-result or None)
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.gateway.server", "Gateway", "handle", "gateway.handle", None),
    ("repro.gateway.server", None, "parse_submit_payload", "gateway.parse",
     None),
    ("repro.gateway.scheduler", "WeightedFairScheduler", "enqueue",
     "gateway.enqueue", None),
    ("repro.core.service", "INCService", "submit", "core.service.submit",
     None),
    ("repro.core.service", "INCService", "remove", "core.service.barrier",
     None),
    ("repro.core.service", "INCService", "update", "core.service.barrier",
     None),
    ("repro.sharding.coordinator", "ShardCoordinator", "deploy_wave",
     "sharding.deploy_wave", None),
    ("repro.sharding.coordinator", "ShardCoordinator", "deploy",
     "sharding.twopc", None),
    ("repro.sharding.coordinator", "ShardCoordinator", "remove",
     "sharding.barrier", None),
    ("repro.sharding.coordinator", "ShardCoordinator", "update",
     "sharding.barrier", None),
    ("repro.core.pipeline", "CompilationPipeline", "compile_stages",
     "core.pipeline.compile", lambda result: len(result[0])),
    ("repro.core.pipeline", "CompilationPipeline", "commit_stages",
     "core.pipeline.commit", None),
    ("repro.core.pipeline", "CompilationPipeline",
     "commit_speculative_result", "core.pipeline.commit", None),
    ("repro.core.pipeline", "CompilationPipeline", "remove",
     "core.pipeline.remove", None),
    ("repro.core.pipeline", "CompilationPipeline", "update",
     "core.pipeline.update", None),
    ("repro.core.cache", "ArtifactCache", "lookup", "core.cache.lookup_store",
     None),
    ("repro.core.cache", "ArtifactCache", "store", "core.cache.lookup_store",
     None),
    ("repro.core.pipeline", None, "program_cache_key", "core.cache.key", None),
    ("repro.core.pipeline", "CompilationPipeline", "plan_cache_key",
     "core.cache.key", None),
    ("repro.frontend.compiler", "FrontendCompiler", "compile_profile",
     "frontend.compile", None),
    ("repro.frontend.compiler", "FrontendCompiler", "compile_source",
     "frontend.compile", None),
    ("repro.frontend.compiler", None, "verify_program", "ir.verify", None),
    ("repro.core.pipeline", None, "verify_program", "ir.verify", None),
    ("repro.placement.dp", "DPPlacer", "place", "placement.place", None),
    ("repro.placement.dp", "DPPlacer", "validate", "placement.validate",
     None),
    ("repro.placement.dp", "DPPlacer", "commit", "placement.commit_release",
     None),
    ("repro.placement.dp", "DPPlacer", "release", "placement.commit_release",
     None),
    ("repro.placement.plan", "PlacementPlan", "device_snippets",
     "placement.snippets", None),
    ("repro.synthesis.incremental", "IncrementalSynthesizer", "add_program",
     "synthesis.add", lambda delta: delta.num_affected_devices),
    ("repro.synthesis.incremental", "IncrementalSynthesizer",
     "remove_program", "synthesis.remove", None),
    ("repro.core.pipeline", None, "generate_for_device", "backend.codegen",
     None),
    ("repro.emulator.network", "NetworkEmulator", "deploy", "emulator.deploy",
     None),
    ("repro.emulator.network", "NetworkEmulator", "undeploy",
     "emulator.undeploy", None),
    ("repro.emulator.network", "NetworkEmulator", "run_batch",
     "emulator.run_batch", None),
    ("repro.runtime.manager", "RuntimeManager", "update_program",
     "runtime.update", None),
    ("repro.emulator.engine", "TrafficEngine", "run_round",
     "emulator.run_round", None),
    ("repro.emulator.traffic", "KVSWorkload", "packets", "emulator.generate",
     None),
    ("repro.emulator.traffic", "MLAggWorkload", "packets",
     "emulator.generate", None),
    ("repro.emulator.traffic", "DQAccWorkload", "packets",
     "emulator.generate", None),
]

#: ops whose spans count towards the control-plane ``*_ms`` metrics
CONTROL_OPS = ("submit", "remove", "update")

#: spans that only hold other layers' work.  What is left of them after
#: their named children is where a layer nobody wrapped would hide.
CONTAINERS = ("gateway.handle", "core.service.submit", "sharding.deploy_wave",
              "sharding.twopc", "core.pipeline.compile",
              "core.pipeline.commit")


def _wrapped(fn, name: str, value_of, spans: list):
    if inspect.iscoroutinefunction(fn):
        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            failed = True
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                spans.append((name, started, time.perf_counter(),
                              threading.get_ident(), None, failed))
    else:
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            value, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                spans.append((name, started, time.perf_counter(),
                              threading.get_ident(), value, failed))
    wrapper.__wrapped__ = fn
    return wrapper


def install(spans: list) -> Callable[[], None]:
    """Wrap every target so it appends to *spans*; returns the undo."""
    originals = []
    for module_name, class_name, attr, name, value_of in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrapped(original, name, value_of, spans))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------- #
# span math
# ---------------------------------------------------------------------- #
class SpanTree:
    """Spans of one lap, assigned to ops and nested by enclosure."""

    def __init__(self, spans: list, log: List[tuple]) -> None:
        #: client ops sorted by start: (index, type, started, ended, ok)
        self.ops = sorted(log, key=lambda entry: entry[2])
        starts = [entry[2] for entry in self.ops]
        by_op: Dict[int, list] = defaultdict(list)
        for span in spans:
            slot = bisect.bisect_right(starts, span[1]) - 1
            if slot >= 0 and span[1] <= self.ops[slot][3]:
                by_op[slot].append(span)
        #: per op slot: [(span, self seconds, parent position or None)]
        self.nested: Dict[int, list] = {}
        for slot, members in by_op.items():
            members.extend(_waits(members))
            self.nested[slot] = _nest(members)

    def self_seconds(self, op_types: Tuple[str, ...]) -> Dict[str, float]:
        """Total self time per span name over ops of *op_types*."""
        totals: Dict[str, float] = defaultdict(float)
        for slot, entries in self.nested.items():
            if self.ops[slot][1] in op_types:
                for span, self_s, _parent in entries:
                    totals[span[0]] += self_s
        return totals

    def spans_named(self, name: str, op_types: Tuple[str, ...]) -> list:
        return [span for slot, entries in self.nested.items()
                if self.ops[slot][1] in op_types
                for span, _self_s, _parent in entries if span[0] == name]

    def submit_shares(self) -> List[Tuple[float, float, float]]:
        """Per committed submit: seconds outside every span, seconds of
        container self time, client-observed seconds."""
        rows = []
        for slot, (_i, kind, started, ended, ok) in enumerate(self.ops):
            if kind != "submit" or not ok:
                continue
            entries = self.nested.get(slot, [])
            covered = sum(min(span[2], ended) - span[1]
                          for span, _s, parent in entries if parent is None)
            held = sum(self_s for span, self_s, _parent in entries
                       if span[0] in CONTAINERS)
            rows.append((max(0.0, (ended - started) - covered), held,
                         ended - started))
        return rows


def _waits(members: list) -> list:
    """Synthetic spans for the two places a submit waits to be picked up.

    ``gateway.queue_wait``: scheduler enqueue returned -> service submit
    entered.  ``core.service.dispatch_wait``: service submit entered -> the
    coordinator starts on it (admission queue, the coalescing window, the
    hand-off to an executor thread).
    """
    def first(*names: str):
        found = [s for s in members if s[0] in names]
        return min(found, key=lambda s: s[1]) if found else None

    waits = []
    enqueue, submit = first("gateway.enqueue"), first("core.service.submit")
    deploy = first("sharding.deploy_wave", "sharding.twopc")
    if enqueue and submit and enqueue[2] <= submit[1]:
        waits.append(("gateway.queue_wait", enqueue[2], submit[1],
                      enqueue[3], None, False))
    if submit and deploy and submit[1] <= deploy[1] <= submit[2]:
        waits.append(("core.service.dispatch_wait", submit[1], deploy[1],
                      submit[3], None, False))
    return waits


def _nest(members: list) -> list:
    """Nest one op's spans by enclosure; returns (span, self, parent)."""
    order = sorted(members, key=lambda s: (s[1], -s[2]))
    entries = []
    stack: List[int] = []
    for position, span in enumerate(order):
        while stack and order[stack[-1]][2] <= span[1]:
            stack.pop()
        parent = stack[-1] if stack else None
        entries.append([span, span[2] - span[1], parent])
        if parent is not None:
            # a child that outlives its parent (a hand-off returning late)
            # only takes the part the parent actually covers
            covered = min(span[2], order[parent][2]) - span[1]
            entries[parent][1] -= covered
        stack.append(position)
    return [tuple(entry) for entry in entries]


# ---------------------------------------------------------------------- #
# counters read at the same boundaries
# ---------------------------------------------------------------------- #
def counters(stack) -> Dict[str, float]:
    """A flat snapshot of the live counter bags the layers keep."""
    from repro.emulator.kernels import DEFAULT_KERNEL_CACHE

    coordinator = stack.coordinator
    controllers = [shard.controller for shard in coordinator.shards.values()]
    controllers.append(coordinator.inter)
    flat: Dict[str, float] = defaultdict(float)
    for controller in controllers:
        for namespace, stats in controller.cache.stats().items():
            flat[f"cache.{namespace}.hits"] += stats.hits
            flat[f"cache.{namespace}.lookups"] += stats.lookups
    memo = coordinator.memo.summary()
    flat["memo.served"] = memo["hits"] + memo["shared_hits"]
    flat["memo.lookups"] = flat["memo.served"] + memo["misses"]
    service = coordinator.stats
    flat["service.submitted"] = service.submitted
    flat["service.waves"] = service.waves
    flat["service.aborted_prepares"] = service.aborted_prepares
    kernels = DEFAULT_KERNEL_CACHE.stats()
    flat["kernels.compiled"] = kernels["compiled"]
    flat["kernels.compile_s"] = kernels["compile_seconds_total"]
    return flat


def _ratio(delta, part: str, whole: str) -> float:
    return delta[part] / delta[whole] if delta[whole] else 0.0


def layer_metrics(tree: SpanTree, stats: LapStats,
                  delta: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The traced lap's per-layer metrics as ``name -> (value, unit)``."""
    submits = max(1, stats.committed)
    packets = max(1, stats.packets)
    control = tree.self_seconds(CONTROL_OPS)
    rounds = tree.self_seconds(("round",))

    def per_submit_ms(*names: str) -> Tuple[float, str]:
        return sum(control[n] for n in names) / submits * 1e3, "ms"

    def whole_span_ms(name: str) -> Tuple[float, str]:
        spans = tree.spans_named(name, CONTROL_OPS)
        return mean([span[2] - span[1] for span in spans]) * 1e3, "ms"

    def per_packet_us(name: str) -> Tuple[float, str]:
        return rounds[name] / packets * 1e6, "us"

    def median_ms(samples: List[float]) -> Tuple[float, str]:
        return (statistics.median(samples) * 1e3 if samples else 0.0), "ms"

    def values(name: str) -> List[float]:
        return [span[4] for span in tree.spans_named(name, CONTROL_OPS)
                if span[4] is not None]

    def mean(numbers: List[float]) -> float:
        return statistics.fmean(numbers) if numbers else 0.0

    shares = tree.submit_shares()
    places = tree.spans_named("placement.place", CONTROL_OPS)
    twopc = tree.spans_named("sharding.twopc", ("submit",))
    wire_ops = [entry for entry in tree.ops if entry[1] in CONTROL_OPS]
    return {
        "gateway.http_ms": (mean([out for out, _, _ in shares]) * 1e3, "ms"),
        "gateway.handle_self_ms": per_submit_ms("gateway.handle",
                                                "gateway.enqueue"),
        "gateway.parse_ms": per_submit_ms("gateway.parse"),
        "gateway.queue_wait_ms": per_submit_ms("gateway.queue_wait"),
        "gateway.remove_p50_ms": median_ms(stats.remove_s),
        "gateway.update_p50_ms": median_ms(stats.update_s),
        "gateway.requests": (len(wire_ops), "count"),
        "gateway.non_200": (sum(count for key, count in stats.failures.items()
                                if ":http_" in key), "count"),
        "core.service.dispatch_wait_ms": per_submit_ms(
            "core.service.dispatch_wait"),
        "core.service.submit_self_ms": per_submit_ms("core.service.submit"),
        "core.service.barrier_self_ms": per_submit_ms("core.service.barrier",
                                                      "runtime.update"),
        "core.service.wave_size_mean": (
            _ratio(delta, "service.submitted", "service.waves"), "count"),
        "sharding.deploy_wave_self_ms": per_submit_ms(
            "sharding.deploy_wave", "sharding.twopc", "sharding.barrier"),
        "sharding.twopc_ms": whole_span_ms("sharding.twopc"),
        "sharding.cross_share": (len(twopc) / submits, "ratio"),
        "sharding.aborted_prepares": (delta["service.aborted_prepares"],
                                      "count"),
        "core.pipeline.compile_self_ms": per_submit_ms(
            "core.pipeline.compile"),
        "core.pipeline.commit_self_ms": per_submit_ms(
            "core.pipeline.commit", "core.pipeline.update"),
        "core.pipeline.remove_self_ms": per_submit_ms("core.pipeline.remove"),
        "core.cache.program_hit_ratio": (
            _ratio(delta, "cache.program.hits", "cache.program.lookups"),
            "ratio"),
        "core.cache.plan_hit_ratio": (
            _ratio(delta, "cache.plan.hits", "cache.plan.lookups"), "ratio"),
        "core.cache.codegen_hit_ratio": (
            _ratio(delta, "cache.codegen.hits", "cache.codegen.lookups"),
            "ratio"),
        "core.cache.lookup_store_ms": per_submit_ms(
            "core.cache.lookup_store"),
        "core.cache.key_ms": per_submit_ms("core.cache.key"),
        "frontend.compile_ms": per_submit_ms("frontend.compile"),
        "frontend.ir_instructions_mean": (
            mean(values("core.pipeline.compile")), "count"),
        "ir.verify_ms": per_submit_ms("ir.verify"),
        "placement.place_ms": per_submit_ms("placement.place"),
        "placement.validate_ms": per_submit_ms("placement.validate"),
        "placement.commit_release_ms": per_submit_ms(
            "placement.commit_release"),
        "placement.snippets_ms": per_submit_ms("placement.snippets"),
        "placement.memo_hit_ratio": (
            _ratio(delta, "memo.served", "memo.lookups"), "ratio"),
        "placement.places": (len(places), "count"),
        "placement.failed": (sum(1 for span in places if span[5]), "count"),
        "synthesis.add_ms": per_submit_ms("synthesis.add"),
        "synthesis.remove_ms": per_submit_ms("synthesis.remove"),
        "synthesis.affected_devices_mean": (mean(values("synthesis.add")),
                                            "count"),
        "backend.codegen_ms": per_submit_ms("backend.codegen"),
        "backend.codegen_calls": (
            len(tree.spans_named("backend.codegen", CONTROL_OPS)), "count"),
        "emulator.deploy_ms": per_submit_ms("emulator.deploy"),
        "emulator.undeploy_ms": per_submit_ms("emulator.undeploy"),
        "runtime.update_ms": whole_span_ms("runtime.update"),
        "emulator.generate_us_per_pkt": per_packet_us("emulator.generate"),
        "emulator.run_batch_us_per_pkt": per_packet_us("emulator.run_batch"),
        "emulator.engine_self_us_per_pkt": per_packet_us(
            "emulator.run_round"),
        "emulator.slices_per_kernel_call": (
            _ratio(stats.dataplane, "slices", "kernel_calls"), "slices/call"),
        "emulator.fallback_packet_ratio": (
            stats.dataplane["packets_fallback"] / packets, "ratio"),
        "emulator.kernel_bails": (stats.dataplane["kernel_bails"], "count"),
        "emulator.kernel_compiles": (delta["kernels.compiled"], "count"),
        "emulator.kernel_compile_ms": (delta["kernels.compile_s"] * 1e3,
                                       "ms"),
        # what the containers keep for themselves, in the median submit: a
        # layer inside the server that nothing here wraps is in every
        # submit, a collector pause or a late wake-up in a few
        "harness.unattributed_ratio": (
            statistics.median(held / whole for _out, held, whole in shares)
            if shares else 0.0, "x"),
    }


def write_chrome_trace(path, tree: SpanTree) -> None:
    """The lap as Chrome trace-event JSON (chrome://tracing, Perfetto).

    Client ops sit on thread 0; every span carries its op index, its self
    time and the position of its parent within the op.
    """
    events = []
    origin = tree.ops[0][2] if tree.ops else 0.0

    def event(name, started, ended, tid, args):
        events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                       "ts": round((started - origin) * 1e6, 1),
                       "dur": round((ended - started) * 1e6, 1),
                       "args": args})

    for slot, (index, kind, started, ended, ok) in enumerate(tree.ops):
        event(f"client.{kind}", started, ended, 0, {"op": index, "ok": ok})
        for position, (span, self_s, parent) in enumerate(
                tree.nested.get(slot, [])):
            event(span[0], span[1], span[2], span[3],
                  {"op": index, "position": position, "parent": parent,
                   "self_us": round(self_s * 1e6, 1), "failed": span[5]})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


# ---------------------------------------------------------------------- #
# data-plane extras of the traced run
# ---------------------------------------------------------------------- #
def _alone(runner: Runner, spec: dict, rounds: int
           ) -> List[Tuple[int, float]]:
    """``(packets, seconds)`` of *rounds* rounds with only *spec* attached."""
    runner.traffic.attach([spec])
    return [runner.traffic.round()[:2] for _ in range(rounds)]


def isolation_pps(runner: Runner, sources: List[dict], rounds: int
                  ) -> Dict[str, float]:
    """Packets/s of each attached program running alone, by kind."""
    out = {}
    for spec in sources:
        taken = _alone(runner, spec, rounds)
        out[spec["kind"]] = (sum(sent for sent, _ in taken)
                             / sum(took for _, took in taken))
    return out


def mlagg_decay_ratio(runner: Runner, sources: List[dict],
                      rounds: int) -> float:
    """MLAgg alone, no reset: pps of the last fifth over the first fifth."""
    spec = next(s for s in sources if s["kind"] == "MLAgg")
    rates = [sent / took for sent, took in _alone(runner, spec, rounds)]
    fifth = max(1, rounds // 5)
    return statistics.fmean(rates[-fifth:]) / statistics.fmean(rates[:fifth])


def twin_errors(script: dict, lap: List[dict], reference: LapStats,
                rounds: int) -> List[str]:
    """Replay the lap's first traffic rounds on a fresh scalar twin stack.

    The twin deploys the traffic programs over its own wire and pushes the
    first *rounds* rounds through ``TrafficEngine(use_batch=False)``: the
    ``RunMetrics`` must equal the batch path's byte for byte.  Then every
    dense MLAgg program gets all but the last worker's packet of one more
    aggregation, and what its aggregator registers gained must equal
    ``MLAggApplication.software_aggregate`` of those packets.
    """
    from repro.apps import MLAggApplication

    attach = next(op for op in lap if op["op"] == "attach")
    rounds = min(rounds, sum(op["op"] == "round" for op in lap))
    errors: List[str] = []
    stack = Stack()
    twin = Runner(stack, use_batch=False)
    try:
        twin.run(script["prologue"])
        twin.revive(lap, attach["sources"])
        stats = twin.run([attach] + [{"op": "round"}] * rounds)
        got = stats.round_metrics
        if stats.failed or metrics_digest(got) != metrics_digest(
                reference.round_metrics[:len(got)]):
            errors.append("scalar twin RunMetrics differ from the batch path"
                          f" (failures: {dict(stats.failures)})")
        for spec, workload, emulator in twin.traffic.sources:
            if spec["kind"] != "MLAgg":
                continue
            packets = workload.packets(1)[:-1]
            seq = packets[0].fields["seq"]
            want = MLAggApplication.software_aggregate(packets)[seq]
            before = _aggregators(emulator, spec["program"])
            emulator.run(packets)
            gained = {key: value for key, value
                      in _aggregators(emulator, spec["program"]).items()
                      if before.get(key) != value}
            got_sum = [value for _key, value in sorted(gained.items())]
            if got_sum != want:
                errors.append(f"{spec['program']}: aggregator registers"
                              " differ from software_aggregate")
    finally:
        twin.close()
        stack.close()
    return errors


def _aggregators(emulator, program: str) -> Dict[tuple, int]:
    """``(device, row, index) -> value`` of a program's MLAgg data array."""
    plan = emulator.deployments[program].plan
    cells = {}
    for device, snippet in plan.device_snippets().items():
        registers = emulator.runtimes[device].state.registers
        for state in snippet.states:
            if "agg_data" in state:
                for (row, index), value in registers.get(state, {}).items():
                    cells[(device, row, index)] = value
    return cells
