"""Seeded op scripts: the whole workload as plain data, made before timing.

``build(workload, seed, seconds)`` returns a JSON-able script::

    {"workload": ..., "seed": ..., "prologue": [op, ...],
     "laps": [[op, ...], ...]}

The prologue runs once (residents); every lap starts and ends with only
the prologue's programs live, so laps are interchangeable.  ``--seed``
decides pods, tenants' pairing with programs, parameter offsets and
packet-stream seeds; the *amount* of work (ops per kind, per pod and per
pod pair) is the same for every seed, so runs with different seeds are
comparable.  ``--seconds`` only scales op counts through
:data:`NOMINAL`; nothing in a run is cut off by a deadline.

Ops::

    {"op": "submit", "tenant": t, "name": n, "body": {...}, "kind": k,
     "src": g, "dst": g, "probe": bool}      POST /v1/programs
    {"op": "remove", "tenant": t, "name": n}   DELETE /v1/programs/<n>
    {"op": "update", "tenant": t, "name": n, "body": {...}}
    {"op": "attach", "sources": [source, ...]} bind + reset traffic (untimed)
    {"op": "round"}                            one TrafficEngine round each

:class:`Model` is the script's own account of what the service must hold
after each op.  The generator asks it before every submit (no program is
generated into a pod the live programs have exhausted) and the lap
runner compares it with what the wire reports.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.stack import TENANTS

WORKLOADS = ("deploy_cold", "deploy_warm", "traffic_steady",
             "churn_under_traffic")

#: one untimed warm-up lap, then the measured laps
WARMUP_LAPS = 1
MEASURED_LAPS = 5
SMOKE_MEASURED_LAPS = 2

#: what the 2-core reference box sustains per second of lap time; turns
#: ``--seconds`` into op counts.  Submit rates are all-in: the remove that
#: makes room and the submit's share of probe batches are inside them.
NOMINAL = {
    "cold_submits_per_s": 35.0,
    "warm_submits_per_s": 77.0,
    "steady_submits_per_s": 75.0,   # one warm class, every one probed
    "tail_rounds_per_s": 10.0,      # the trio, freshly deployed
    "resident_rounds_per_s": 10.3,  # ~15 k packets/s
    "churn_steps_per_s": 4.3,
}

KINDS = ("KVS", "MLAgg", "DQAcc")
PODS = (0, 1, 2)
CROSS_PAIRS = tuple((a, b) for a in PODS for b in PODS if a != b)

#: the performance knob that makes a template program's content unique
KNOB = {"KVS": "depth", "MLAgg": "depth", "DQAcc": "c_depth"}
KNOB_BASE = 3000

#: packets() units per probe batch: 64 packets of every kind
PROBE_UNITS = {"KVS": 64, "MLAgg": 8, "DQAcc": 64, "SparseMLAgg": 8}
#: packets() units per source per traffic round
ROUND_UNITS = {"KVS": 512, "MLAgg": 64, "DQAcc": 512, "SparseMLAgg": 8}
#: keys of every KVS stream; below every cache depth, so caches hold them all
KVS_KEYS = 2000

#: live programs that may touch one pod: in total (the most these scripts
#: have been shown to place) and of the MLAgg class (a third default-size
#: aggregator array finds "no feasible placement" in a pod)
POD_PROGRAM_LIMIT = 4
POD_MLAGG_LIMIT = 2
#: churned programs live at a time
LIVE_LIMIT = 3


class ScriptError(Exception):
    """The generator could not produce an op with a known outcome."""


def group(pod: int, side: str) -> str:
    return f"pod{pod}({side})"


def internal_name(tenant: int, name: str) -> str:
    """The name the controller (and a packet's ``owner``) sees."""
    return f"{TENANTS[tenant][0]}.{name}"


class Model:
    """Expected service state: live programs, per-tenant counters, pods."""

    def __init__(self) -> None:
        self.live: Dict[Tuple[int, str], dict] = {}
        self.counters = [{"submitted": 0, "committed": 0, "removed": 0}
                         for _ in TENANTS]

    @staticmethod
    def _pods(op: dict) -> set:
        return {int(op["src"][3]), int(op["dst"][3])}

    def admits(self, op: dict) -> bool:
        """Would this submit still find a feasible placement?"""
        for pod in self._pods(op):
            touching = [p for p in self.live.values() if pod in p["pods"]]
            if len(touching) >= POD_PROGRAM_LIMIT:
                return False
            if "MLAgg" in op["kind"] and sum(
                    "MLAgg" in p["kind"] for p in touching) >= POD_MLAGG_LIMIT:
                return False
        return True

    def apply(self, op: dict) -> None:
        if op["op"] == "submit":
            key = (op["tenant"], op["name"])
            if key in self.live:
                raise ScriptError(f"{key} submitted while live")
            if not self.admits(op):
                raise ScriptError(f"{key} submitted into an exhausted pod")
            self.live[key] = {"kind": op["kind"], "pods": self._pods(op)}
            self.counters[op["tenant"]]["submitted"] += 1
            self.counters[op["tenant"]]["committed"] += 1
        elif op["op"] == "remove":
            del self.live[(op["tenant"], op["name"])]
            self.counters[op["tenant"]]["removed"] += 1
        elif op["op"] == "update":
            if (op["tenant"], op["name"]) not in self.live:
                raise ScriptError(f"update of {op['name']} while not live")

    def programs(self, tenant: int) -> List[str]:
        return sorted(name for t, name in self.live if t == tenant)


# ---------------------------------------------------------------------- #
# op builders
# ---------------------------------------------------------------------- #
def _template_body(kind: str, value: int) -> dict:
    return {"app": kind, "performance": {KNOB[kind]: value}}


def _sparse_body() -> dict:
    from repro.lang.templates.mlagg import sparse_mlagg_source

    out = sparse_mlagg_source(block_num=4, block_size=6, num_agg=5000,
                              vec_dim=24, is_convert=False)
    return {"source": out.source, "constants": out.constants,
            "header_fields": out.header_fields}


def _submit(tenant: int, name: str, kind: str, body: dict, src: str,
            dst: str, probe: bool = False) -> dict:
    return {"op": "submit", "tenant": tenant, "name": name, "kind": kind,
            "body": dict(body, source_groups=[src], destination_group=dst),
            "src": src, "dst": dst, "probe": probe}


def _remove(submit: dict) -> dict:
    return {"op": "remove", "tenant": submit["tenant"],
            "name": submit["name"]}


def _source(submit: dict, seed: int, smoke: bool) -> dict:
    """The traffic source that exercises a submitted program."""
    units = ROUND_UNITS[submit["kind"]]
    return {"program": internal_name(submit["tenant"], submit["name"]),
            "kind": submit["kind"], "src": submit["src"],
            "dst": submit["dst"], "units": units // 4 if smoke else units,
            "seed": seed}


class _Shapes:
    """Balanced, seeded (kind, pods) sequence for churned submits.

    Kinds rotate KVS/MLAgg/DQAcc and every fourth submit is cross-pod, so
    any three consecutive (= concurrently live) programs hold one of each
    kind.  Per kind, intra-pod submits visit the pods in seeded
    permutations and cross-pod submits walk a seeded permutation of the
    six ordered pod pairs: every seed places the same number of each kind
    in each pod.  One intra-pod submit per kind and one cross-pod submit
    in every block of twelve is probed with its first packets, the probed
    pod rotating with the block, so the probed mix is seed-independent too.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._intra = {kind: [] for kind in KINDS}
        self._cross = {kind: [] for kind in KINDS}

    def _draw(self, pool: list, universe: Sequence) -> object:
        if not pool:
            pool.extend(self._rng.sample(list(universe), len(universe)))
        return pool.pop()

    def shape(self, index: int) -> Tuple[str, str, str, bool]:
        """``(kind, source group, destination group, probe)``."""
        block, turn = index // 12, index % 3
        kind = KINDS[turn]
        if index % 4 == 3:
            a, b = self._draw(self._cross[kind], CROSS_PAIRS)
            return kind, group(a, "a"), group(b, "b"), block % 3 == turn
        pod = self._draw(self._intra[kind], PODS)
        return (kind, group(pod, "a"), group(pod, "b"),
                pod == (block + turn) % 3)


def _churn(rng: random.Random, model: Model, submits: int, bodies
           ) -> List[dict]:
    """Submit/remove churn that leaves nothing behind.

    ``bodies(index, kind)`` gives submit *index*'s wire body.  Once
    :data:`LIVE_LIMIT` churned programs are live, each submit is preceded
    by the ``DELETE`` of the oldest; the last ones are removed at the end.
    """
    shapes = _Shapes(rng)
    ops: List[dict] = []
    live: List[dict] = []
    for index in range(submits):
        if len(live) >= LIVE_LIMIT:
            ops.append(_remove(live.pop(0)))
        kind, src, dst, probe = shapes.shape(index)
        live.append(_submit(index % len(TENANTS), f"p{index}", kind,
                            bodies(index, kind), src, dst, probe))
        ops.append(live[-1])
    ops.extend(_remove(op) for op in live)
    for op in ops:
        model.apply(op)
    return ops


class _UniqueKnobs:
    """Never-repeating knob values: content-addressed caches cannot hit."""

    def __init__(self, rng: random.Random) -> None:
        self._next = {kind: KNOB_BASE + rng.randrange(1000)
                      for kind in KINDS}

    def body(self, _index: int, kind: str) -> dict:
        self._next[kind] += 1
        return _template_body(kind, self._next[kind])


def _warm_bodies(rng: random.Random):
    """Six fixed bodies: two knob values per kind, cycled."""
    values = {kind: [KNOB_BASE + rng.randrange(1000),
                     KNOB_BASE + 1000 + rng.randrange(1000)]
              for kind in KINDS}

    def body(index: int, kind: str) -> dict:
        return _template_body(kind, values[kind][index // 3 % 2])
    return body


def _trio(model: Model, bodies, sparse: bool = False) -> List[dict]:
    """Submits of the three traffic programs (plus the sparse fourth).

    KVS pod0 -> pod2 and MLAgg pod1 -> pod2 span pods (the coordinator's
    own controller hosts them), DQAcc stays inside pod0, and the sparse
    MLAgg arrives as raw source inside pod1, whose ``hdr_remove`` sends
    its owner group to the scalar interpreter.
    """
    ops = [
        _submit(0, "kvs", "KVS", bodies(0, "KVS"),
                group(0, "a"), group(2, "b")),
        _submit(1, "mlagg", "MLAgg", bodies(0, "MLAgg"),
                group(1, "b"), group(2, "b")),
        _submit(2, "dqacc", "DQAcc", bodies(0, "DQAcc"),
                group(0, "a"), group(0, "b")),
    ]
    if sparse:
        ops.append(_submit(3, "sparse", "SparseMLAgg", _sparse_body(),
                           group(1, "a"), group(1, "b")))
    for op in ops:
        model.apply(op)
    return ops


def _attach(trio: List[dict], traffic_seed: int, smoke: bool) -> dict:
    return {"op": "attach", "sources": [
        _source(op, traffic_seed + i, smoke) for i, op in enumerate(trio)]}


def _resident_bodies(_index: int, kind: str) -> dict:
    return _template_body(kind, 4000 if kind == "KVS" else 5000)


# ---------------------------------------------------------------------- #
# the four workloads
# ---------------------------------------------------------------------- #
def _sizes(workload: str, seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"deploy_cold": {"submits": 12, "rounds": 1},
                "deploy_warm": {"submits": 12, "rounds": 1},
                "traffic_steady": {"submits": 12, "rounds": 2},
                "churn_under_traffic": {"steps": 2}}[workload]
    lap_s = seconds / MEASURED_LAPS

    def dozens(share: float, rate: str) -> int:
        # a multiple of 12 keeps the kind/cross-pod/probe pattern whole
        return 12 * max(1, round(share * lap_s * NOMINAL[rate] / 12))

    def count(share: float, rate: str) -> int:
        return max(2, round(share * lap_s * NOMINAL[rate]))

    if workload == "deploy_cold":
        return {"submits": dozens(0.75, "cold_submits_per_s"),
                "rounds": count(0.25, "tail_rounds_per_s")}
    if workload == "deploy_warm":
        return {"submits": dozens(0.75, "warm_submits_per_s"),
                "rounds": count(0.25, "tail_rounds_per_s")}
    if workload == "traffic_steady":
        return {"submits": count(0.30, "steady_submits_per_s"),
                "rounds": count(0.70, "resident_rounds_per_s")}
    return {"steps": count(1.0, "churn_steps_per_s")}


def _deploy_lap(rng: random.Random, model: Model, sizes: dict, bodies,
                traffic_seed: int, smoke: bool) -> List[dict]:
    """Churn, then fresh traffic programs: deploy, carry rounds, remove."""
    ops = _churn(rng, model, sizes["submits"], bodies)
    trio = _trio(model, bodies)
    ops.extend(trio)
    ops.append(_attach(trio, traffic_seed, smoke))
    ops.extend({"op": "round"} for _ in range(sizes["rounds"]))
    for op in trio:
        ops.append(_remove(op))
        model.apply(ops[-1])
    return ops


def _probed_stream(model: Model, submits: int, bodies) -> List[dict]:
    """The light control stream of ``traffic_steady``.

    One program class only — a warm KVS inside pod1, submitted, probed with
    its first packets and removed, tenants rotating — so the latency
    medians this workload has to report sit inside one cluster of samples
    and not between the clusters of a mix.
    """
    ops: List[dict] = []
    for index in range(submits):
        ops.append(_submit(index % len(TENANTS), f"p{index}", "KVS",
                           bodies(index, "KVS"), group(1, "a"), group(1, "b"),
                           probe=True))
        ops.append(_remove(ops[-1]))
    for op in ops:
        model.apply(op)
    return ops


def _churn_steps(model: Model, steps: int, attach: dict, standing: dict,
                 knobs: _UniqueKnobs) -> List[dict]:
    """Traffic and control alternating on one thread.

    Each step: one traffic round through the residents, two cold intra-pod2
    submits each probed with its first packets, one update of the standing
    program, two removes.
    """
    ops: List[dict] = [attach]
    for step in range(steps):
        ops.append({"op": "round"})
        pair = []
        for slot in range(2):
            index = 2 * step + slot
            kind = KINDS[index % 3]
            pair.append(_submit(
                index % len(TENANTS), f"c{slot}", kind,
                knobs.body(index, kind), group(2, "a"), group(2, "b"),
                probe=True))
        ops.extend(pair)
        ops.append({"op": "update", "tenant": standing["tenant"],
                    "name": standing["name"],
                    "body": knobs.body(step, "DQAcc")})
        ops.extend(_remove(op) for op in pair)
    for op in ops:
        model.apply(op)
    return ops


def build(workload: str, seed: int, seconds: float,
          smoke: bool = False) -> dict:
    if workload not in WORKLOADS:
        raise ScriptError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    traffic_seed = 1000 * (1 + seed % 1000)
    sizes = _sizes(workload, seconds, smoke)
    laps = WARMUP_LAPS + (SMOKE_MEASURED_LAPS if smoke else MEASURED_LAPS)
    model = Model()
    prologue: List[dict] = []
    lap_ops: List[List[dict]] = []

    if workload == "deploy_cold":
        knobs = _UniqueKnobs(rng)
        pods_state = rng.getstate()
        for _ in range(laps):
            # same pods, kinds and tenants every lap; only the knobs move on
            rng.setstate(pods_state)
            lap_ops.append(_deploy_lap(rng, model, sizes, knobs.body,
                                       traffic_seed, smoke))
    elif workload == "deploy_warm":
        lap_ops = [_deploy_lap(rng, model, sizes, _warm_bodies(rng),
                               traffic_seed, smoke)] * laps
    elif workload == "traffic_steady":
        prologue = _trio(model, _resident_bodies)
        lap = [_attach(prologue, traffic_seed, smoke)]
        lap.extend({"op": "round"} for _ in range(sizes["rounds"]))
        lap.extend(_probed_stream(model, sizes["submits"],
                                  _warm_bodies(rng)))
        lap_ops = [lap] * laps
    else:
        prologue = _trio(model, _resident_bodies, sparse=True)
        attach = _attach(prologue, traffic_seed, smoke)
        standing = _submit(0, "standing", "DQAcc",
                           _template_body("DQAcc", 4000),
                           group(0, "b"), group(0, "a"))
        model.apply(standing)
        prologue.append(standing)
        knobs = _UniqueKnobs(rng)
        for _ in range(laps):
            lap_ops.append(_churn_steps(model, sizes["steps"], attach,
                                        standing, knobs))

    script = {"workload": workload, "seed": seed, "seconds": seconds,
              "smoke": smoke, "sizes": sizes, "prologue": prologue,
              "laps": lap_ops}
    script["sha256"] = hashlib.sha256(
        json.dumps(script, sort_keys=True).encode()).hexdigest()
    return script
