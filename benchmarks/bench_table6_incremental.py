"""Table 6 — impact of incremental versus monolithic deployment.

Four resource-intensive programs (KVS, DQAcc, MLAgg1, MLAgg2) are deployed
one after another, then MLAgg1 is removed, exactly as in paper §7.5.  For
each step the benchmark reports how many devices, already-deployed INC
programs and traffic pods are affected, comparing ClickINC's incremental
synthesis (ID) against monolithic re-deployment (MD).

Shape to preserve: the two modes behave identically for the first programs,
but once programs share devices the monolithic mode touches strictly more
devices / programs / pods — the paper reports 50%-75% less affected traffic
for incremental deployment.
"""

from __future__ import annotations


from benchmarks.conftest import print_table
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement import DPPlacer, PlacementRequest
from repro.synthesis import IncrementalSynthesizer
from repro.topology import build_paper_emulation_topology

#: Deployment sequence of paper §7.5 (program, app, sources, destination).
SEQUENCE = [
    ("KVS", "KVS", ["pod0(a)"], "pod2(a)"),
    ("DQAcc", "DQAcc", ["pod1(a)"], "pod2(b)"),
    ("MLAgg1", "MLAgg", ["pod1(a)", "pod1(b)"], "pod2(b)"),
    ("MLAgg2", "MLAgg", ["pod0(a)", "pod0(b)"], "pod2(a)"),
]


def run_mode(incremental: bool):
    topo = build_paper_emulation_topology()
    placer = DPPlacer(topo)
    synthesizer = IncrementalSynthesizer(topo, incremental=incremental)
    steps = []
    for name, app, sources, dest in SEQUENCE:
        profile = default_profile(app)
        if app == "KVS":
            profile.performance["depth"] = 100000
        if app == "MLAgg":
            profile.performance["dim"] = 16
        program = compile_template(profile, name=f"{name}_{'id' if incremental else 'md'}")
        plan = placer.place(
            PlacementRequest(program=program, source_groups=sources,
                             destination_group=dest)
        )
        placer.commit(plan)
        delta = synthesizer.add_program(plan)
        steps.append((f"+{name}", delta))
    removal = synthesizer.remove_program(f"MLAgg1_{'id' if incremental else 'md'}")
    steps.append(("-MLAgg1", removal))
    return steps


def run_comparison():
    return {"incremental": run_mode(True), "monolithic": run_mode(False)}


def test_table6_incremental_vs_monolithic(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for (step_id, delta_id), (_, delta_md) in zip(results["incremental"],
                                                  results["monolithic"]):
        rows.append([
            step_id,
            delta_id.num_affected_devices, delta_id.num_affected_programs,
            len(delta_id.affected_pods),
            delta_md.num_affected_devices, delta_md.num_affected_programs,
            len(delta_md.affected_pods),
        ])
    print_table(
        "Table 6: incremental (ID) vs monolithic (MD) deployment impact",
        ["Step", "ID devices", "ID other INC", "ID pods",
         "MD devices", "MD other INC", "MD pods"],
        rows,
    )
    total_id_devices = sum(d.num_affected_devices for _, d in results["incremental"])
    total_md_devices = sum(d.num_affected_devices for _, d in results["monolithic"])
    total_id_programs = sum(d.num_affected_programs for _, d in results["incremental"])
    total_md_programs = sum(d.num_affected_programs for _, d in results["monolithic"])
    # shape: incremental deployment touches no other programs at all, and no
    # more (usually fewer) devices than monolithic deployment
    assert total_id_programs == 0
    assert total_md_programs >= 1
    assert total_id_devices <= total_md_devices
