"""Table 4 — placement plans from the DP and SMT-style algorithms.

Both algorithms place the three template programs on a chain of four Tofino
switches and report the per-device stages, per-device instruction counts and
the algorithm runtime.  The paper's headline shape: both algorithms find
placements of comparable quality (similar devices / stages / instructions)
but the DP algorithm is orders of magnitude faster.
"""

from __future__ import annotations

import time


from benchmarks.baselines import ExhaustivePlacer
from benchmarks.conftest import print_table
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement import DPPlacer, PlacementRequest
from repro.topology.fattree import build_chain


def run_comparison():
    results = {}
    for app in ("KVS", "MLAgg", "DQAcc"):
        program = compile_template(default_profile(app), name=f"{app.lower()}_t4")
        # SMT-style exhaustive baseline
        chain_smt = build_chain(4)
        devices = [chain_smt.device(f"SW{i}") for i in range(4)]
        start = time.perf_counter()
        smt_plan = ExhaustivePlacer(devices, optimize=True, timeout_s=300).place(program)
        smt_time = time.perf_counter() - start
        # DP on the same chain
        chain_dp = build_chain(4)
        start = time.perf_counter()
        dp_plan = DPPlacer(chain_dp).place(
            PlacementRequest(program=program, source_groups=["client"],
                             destination_group="server")
        )
        dp_time = time.perf_counter() - start
        results[app] = {
            "smt": (smt_plan, smt_time),
            "dp": (dp_plan, dp_time),
        }
    return results


def _fmt(plan):
    instructions = plan.instructions_per_device()
    stages = plan.stages_per_device()
    order = [d for d in ("SW0", "SW1", "SW2", "SW3") if d in instructions]
    return (
        "[" + ",".join(str(stages.get(d, 0)) for d in order) + "]",
        "[" + ",".join(str(instructions[d]) for d in order) + "]",
    )


def test_table4_dp_vs_smt(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for app, data in results.items():
        smt_plan, smt_time = data["smt"]
        dp_plan, dp_time = data["dp"]
        smt_stages, smt_instr = _fmt(smt_plan)
        dp_stages, dp_instr = _fmt(dp_plan)
        speedup = smt_time / dp_time if dp_time > 0 else float("inf")
        rows.append([app, smt_stages, dp_stages, smt_instr, dp_instr,
                     f"{smt_time:.3f}", f"{dp_time:.3f}", f"{speedup:.1f}x"])
    print_table(
        "Table 4: placement plan from DP and SMT-style algorithms (4-Tofino chain)",
        ["Program", "stages SMT", "stages DP", "instr SMT", "instr DP",
         "time SMT (s)", "time DP (s)", "DP speedup"],
        rows,
    )
    for app, data in results.items():
        smt_plan, smt_time = data["smt"]
        dp_plan, dp_time = data["dp"]
        assert smt_plan.is_complete() and dp_plan.is_complete()
        # both algorithms must place exactly the program's instructions
        # (modulo replication, which a chain does not need)
        assert sum(dp_plan.instructions_per_device().values()) == \
            sum(smt_plan.instructions_per_device().values())
        # the DP must not be slower than the exhaustive search
        assert dp_time <= smt_time * 1.5
