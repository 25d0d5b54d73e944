"""Shared placement-memo benchmark.

One memo vs one memo per tenant, for
:class:`~repro.placement.memo.PlacementMemo` on a fabric-scale (k=32,
1280-device) drifted fat-tree: eight aggregation tenants stream from pods
0..7 to a shared destination pod, so their DP searches share the dominant
sub-solutions (the ~256-device core layer and the destination-pod sub-tree)
and differ only in the per-request client pod.  Tenant 0 warms a memo;
placing tenants 1..7 through that same memo mostly re-derives client pods,
while placing each through a fresh memo of its own re-derives the shared
work from scratch.  The shared wave must be at least 1.5x faster while
producing byte-identical plans.

The wave is placement only, no commits: the tenants share destination-pod
and core devices, so every commit would move the allocation state the next
tenant's sub-solutions are keyed on and drown the memo signal in both modes.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from benchmarks.conftest import print_table
from repro.core import DeployRequest
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement import DPPlacer, PlacementMemo, PlacementRequest
from repro.topology.fattree import build_fattree

#: fat-tree arity: k=32 -> 1280 devices (the fabric-scale scenario the
#: scaling suite targets)
MEMO_K = 32
#: the same seeded background drift as bench_fig14_scaling: symmetric
#: devices must differ in *content*, or the content-addressed memo would
#: collapse even the private-memo baseline and hide the sharing win
MEMO_DRIFT_SEED = 42
#: source pods 0..N-1 all aggregate towards the last pod
MEMO_TENANTS = 8

#: gate floors (mirrored in BENCH_baseline.json)
MIN_SHARED_SPEEDUP = 1.5


def _drifted_fattree():
    topo = build_fattree(k=MEMO_K)
    rng = random.Random(MEMO_DRIFT_SEED)
    for name in sorted(topo.devices):
        device = topo.devices[name]
        for stage in rng.sample(range(device.num_stages),
                                k=min(3, device.num_stages)):
            device.commit([(stage, {"instructions": float(rng.randint(1, 6))})])
    return topo


def _tenant_requests(reduced: bool) -> List[DeployRequest]:
    """Pre-compiled MLAgg tenants pod0..pod7 -> pod31, one name each.

    The programs are content-identical under distinct names; the placement
    memo's context digest is name-normalised, so the tenants share every
    sub-solution their reduced trees have in common (core layer +
    destination pod) while still being distinct deployments.
    """
    profile = default_profile("MLAgg")
    profile.performance["dim"] = 16 if reduced else 32
    profile.performance["depth"] = 512 if reduced else 1024
    base = compile_template(profile, name="mlagg_sm_p0")
    destination = f"pod{MEMO_K - 1}(a)"
    requests = []
    for pod in range(MEMO_TENANTS):
        name = f"mlagg_sm_p{pod}"
        requests.append(
            DeployRequest(
                source_groups=[f"pod{pod}(a)"],
                destination_group=destination,
                name=name,
                program=base if pod == 0 else base.rebrand(name),
            )
        )
    return requests


def _placement_request(request: DeployRequest) -> PlacementRequest:
    """The search input a controller builds for *request*
    (``adaptive_weights=True`` is the controller default)."""
    return PlacementRequest(
        program=request.program,
        source_groups=list(request.source_groups),
        destination_group=request.destination_group,
        adaptive_weights=True,
    )


def _plan_identity_key(plan):
    return (
        plan.gain,
        tuple((a.block_id, a.ec_id, tuple(a.device_names), a.step)
              for a in plan.assignments),
        tuple(sorted((name, state.digest)
                     for name, state in plan.device_states.items())),
    )


def _time_wave(topology, requests: List[DeployRequest],
               shared: bool) -> Dict[str, object]:
    """Place tenants 1..7 after tenant 0 warmed a memo.

    ``shared`` places the wave through the warmed memo; otherwise every
    tenant gets a fresh memo of its own, so nothing is shared between them.
    """
    memo = PlacementMemo()
    DPPlacer(topology, memo=memo).place(_placement_request(requests[0]))
    start = time.perf_counter()
    plans = [
        DPPlacer(topology, memo=memo if shared else PlacementMemo()).place(
            _placement_request(request))
        for request in requests[1:]
    ]
    return {
        "wave_s": time.perf_counter() - start,
        "plans": [_plan_identity_key(plan) for plan in plans],
        "memo": memo,
    }


def run_shared_wave(reduced: bool = True) -> Dict[str, object]:
    """Shared-memo wave vs memo-per-tenant wave on identical fabrics."""
    requests = _tenant_requests(reduced)
    topo = _drifted_fattree()
    shared_result = _time_wave(topo, requests, shared=True)
    private_result = _time_wave(_drifted_fattree(), requests, shared=False)
    return {
        "n": len(requests) - 1,   # tenant 0 is the warm-up in both modes
        "devices": len(topo.devices),
        "shared_wave_s": shared_result["wave_s"],
        "private_wave_s": private_result["wave_s"],
        "shared_memo_speedup": (
            private_result["wave_s"] / max(shared_result["wave_s"], 1e-9)
        ),
        "plans_identical": shared_result["plans"] == private_result["plans"],
        "memo": shared_result["memo"].summary(),
    }


def test_shared_memo_wave(benchmark):
    wave = benchmark.pedantic(run_shared_wave, kwargs={"reduced": True},
                              rounds=1, iterations=1)
    print_table(
        "One memo vs one memo per tenant: wave of 7 (1280 devices)",
        ["tenants", "private (s)", "shared (s)", "speedup", "identical"],
        [[wave["n"], f"{wave['private_wave_s']:.3f}",
          f"{wave['shared_wave_s']:.3f}",
          f"{wave['shared_memo_speedup']:.1f}x", wave["plans_identical"]]],
    )
    assert wave["plans_identical"]
    assert wave["shared_memo_speedup"] >= MIN_SHARED_SPEEDUP
