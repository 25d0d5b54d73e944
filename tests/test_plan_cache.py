"""The ``plan`` namespace serves exactly the plan the search would make.

A plan is keyed on the devices its search consulted (the reduced tree's
members and bypasses) and admitted on its content's second sight.  These
tests hold every served plan against a fresh search with an empty memo on
the pre-commit state, across intra- and cross-pod churn on two fabrics,
across status flips, and check that never-repeating programs store none.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DeployRequest
from repro.exceptions import PlacementError
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement.dp import DPPlacer, PlacementRequest
from repro.placement.memo import PROGRAM_FACTS_MAX_SEEN_ONCE, PlacementMemo
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree, build_paper_emulation_topology

#: repeating bodies: (app, performance knob, value)
BODIES = (
    ("KVS", "depth", 1000),
    ("KVS", "depth", 2000),
    ("DQAcc", "c_depth", 1000),
    ("KVS", "depth", 500),
    ("DQAcc", "c_depth", 2000),
    ("KVS", "depth", 1500),
)

FABRICS = {
    "paper": (build_paper_emulation_topology, 3),
    "fattree4": (lambda: build_fattree(k=4), 4),
}


def make_request(body, src_pod: int, dst_pod: int, name: str) -> DeployRequest:
    app, knob, value = body
    profile = default_profile(app, user=name)
    profile.performance[knob] = value
    return DeployRequest(source_groups=[f"pod{src_pod}(a)"],
                         destination_group=f"pod{dst_pod}(b)", name=name,
                         profile=profile)


def plan_content(plan):
    """What a placement decides: blocks, classes, devices, steps and the
    stage demands it will allocate."""
    return [
        (a.block_id, a.ec_id, list(a.device_names), a.step,
         {device: dict(sa.stage_demands)
          for device, sa in a.stage_assignments.items()})
        for a in plan.assignments
    ]


def submit_and_check(coord: ShardCoordinator, request: DeployRequest):
    """Submit *request*; assert the committed plan is the fresh search's."""
    (shard_id, *rest) = coord.shards_for_request(request)
    topology = (coord.topology if rest
                else coord.shards[shard_id].controller.topology)
    program = compile_template(request.profile, name=request.name)
    try:
        reference = DPPlacer(topology, PlacementMemo()).place(
            PlacementRequest(program=program,
                             source_groups=list(request.source_groups),
                             destination_group=request.destination_group))
    except PlacementError:
        reference = None
    report = coord.deploy(request)
    if reference is None:
        assert not report.succeeded
        return report
    assert report.succeeded, report.error
    assert plan_content(report.deployed.plan) == plan_content(reference)
    return report


ops = st.lists(
    st.tuples(st.booleans(),                      # submit (or remove)
              st.integers(0, len(BODIES) - 1),    # body
              st.integers(0, 3), st.integers(0, 3)),  # source / dest pod
    min_size=4, max_size=14,
)


class TestServedPlanIsTheSearchPlan:
    @given(fabric=st.sampled_from(sorted(FABRICS)),
           bodies=st.integers(3, len(BODIES)), script=ops)
    @example(fabric="fattree4", bodies=3,
             script=[(False, 0, 2, 0), (True, 0, 2, 1), (False, 0, 0, 0),
                     (False, 0, 0, 0), (False, 0, 1, 0), (True, 0, 1, 2)])
    @settings(max_examples=12, deadline=None)
    def test_churn(self, fabric, bodies, script):
        build, pods = FABRICS[fabric]
        coord = ShardCoordinator(build())
        live = []
        try:
            for index, (submit, body, src, dst) in enumerate(script):
                if submit or not live:
                    request = make_request(BODIES[body % bodies], src % pods,
                                           dst % pods, f"p{index}")
                    if submit_and_check(coord, request).succeeded:
                        live.append(request.name)
                else:
                    coord.remove(live.pop(body % len(live)))
        finally:
            coord.close()

    def test_a_table_reused_on_a_renamed_position_is_not_stale(self):
        """pod1's sub-tree table is reused for pod1 -> pod2 after the
        pod2 -> pod0/pod1 tenants left.  The sub-tree key is name-blind, so
        the devices at each position of the table's stamps carry other names
        here than where it was derived; checking the stamps by name refused
        a table whose content matched."""
        coord = ShardCoordinator(build_fattree(k=4))
        try:
            for name, src, dst in (("p0", 2, 0), ("p1", 2, 1)):
                submit_and_check(coord, make_request(BODIES[0], src, dst, name))
            coord.remove("p0")
            coord.remove("p1")
            for name, src, dst in (("p4", 1, 0), ("p5", 1, 2)):
                submit_and_check(coord, make_request(BODIES[0], src, dst, name))
            assert coord.memo.counters.stale_rejections == 0
        finally:
            coord.close()

    def test_repeating_churn_is_served_from_the_cache(self):
        """The same property on a fixed churn that must hit, intra- and
        cross-pod alike."""
        coord = ShardCoordinator(build_paper_emulation_topology())
        shapes = [(0, 0), (1, 2), (2, 2), (0, 1)]
        hits = 0
        for cycle in range(3):
            for index, (src, dst) in enumerate(shapes):
                name = f"c{cycle}_{index}"
                report = submit_and_check(
                    coord, make_request(BODIES[index], src, dst, name))
                hits += report.stage("placement").cache_hit
                coord.remove(name)
        # the first two cycles are the first and second sights
        assert hits == len(shapes)
        coord.close()


class TestStatusFlips:
    def test_a_flip_between_identical_submits_never_serves_the_old_entry(self):
        coord = ShardCoordinator(build_fattree(k=4))
        body = BODIES[0]
        for name in ("a", "b", "c"):
            report = submit_and_check(coord, make_request(body, 0, 0, name))
            coord.remove(name)
        assert report.stage("placement").cache_hit
        agg = next(d for d in report.deployed.devices() if d.startswith("Agg"))
        # (flip, whether the state after it is one an entry was stored in)
        for flip, served in (
                (lambda: coord.topology.set_device_status(agg, "drain"),
                 False),
                # back up: content-identical to the pre-flip state again
                (lambda: coord.topology.set_device_status(agg, "up"), True),
                (lambda: coord.topology.set_link_status("ToR0_0", agg,
                                                        "down"), False)):
            flip()
            report = submit_and_check(coord, make_request(body, 0, 0, "d"))
            assert report.stage("placement").cache_hit == served
            coord.remove("d")
        coord.close()


class TestColdChurnIsBounded:
    def test_never_repeating_programs_store_no_plans(self):
        """200 unique template submits, each removed after the next: no
        controller stores a plan and the program-facts store admits none."""
        coord = ShardCoordinator(build_paper_emulation_topology())
        shapes = [(0, 0), (1, 1), (2, 2), (0, 2), (1, 0)]
        previous = None
        for index in range(200):
            src, dst = shapes[index % len(shapes)]
            request = make_request(("KVS", "depth", 3000 + index), src, dst,
                                   f"cold{index}")
            assert coord.deploy(request).succeeded
            if previous is not None:
                coord.remove(previous)
            previous = request.name
        controllers = {id(c): c for c in
                       [s.controller for s in coord.shards.values()]
                       + [coord.inter]}
        for controller in controllers.values():
            assert controller.cache.namespace_len("plan") == 0
        facts = coord.memo.program_facts.summary()
        assert facts["entries"] == 0
        assert facts["seen_once"] <= PROGRAM_FACTS_MAX_SEEN_ONCE
        coord.close()
