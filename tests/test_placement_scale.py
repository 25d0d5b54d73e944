"""Differential tests for the fabric-scale placement optimizations.

:class:`DPPlacer` (cross-epoch memo, equivalence-class pruning, vectorized
interval scoring) must be *plan-identical* to the seed search kept as the
oracle :class:`~oracles.dp_reference.ReferencePlacer`: same devices, same
steps, same gains, same consulted-device fingerprints — across randomized
fat-tree and spine-leaf topologies, allocation drift, fail/restore churn
and the Fig. 14 / Table 5 ablation knobs.  Any divergence is a soundness
bug in the pruning or the memo, not a tuning knob.
"""

from __future__ import annotations

import ast
import collections
import gc
import itertools
import pathlib
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.dp_reference import ReferencePlacer, interval_cut_bits

from repro.exceptions import PlacementError, TopologyError
from repro.frontend import compile_template
from repro.ir.program import IRProgram
from repro.lang.profile import default_profile
from repro.placement import (
    DPPlacer,
    IntervalScorer,
    PlacementMemo,
    PlacementRequest,
    build_block_dag,
)
from repro.placement.blocks import Block
from repro.placement.dp import _Candidate, _product_limited
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.topology.equivalence import (
    EquivalenceClass,
    build_reduced_tree,
    compute_equivalence_classes,
    subtree_class_ids,
    subtree_correspondence,
    subtree_signature,
)
from repro.topology.fattree import build_chain, build_fattree
from repro.topology.spineleaf import build_spineleaf


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def plan_key(plan):
    """Byte-level identity surface of a plan.

    Covers everything downstream consumers read: the gain, each block's
    devices/step/stage demands, and the allocation fingerprints of every
    device the search consulted (the commit-time validation set).
    """
    return (
        plan.program_name,
        plan.gain,
        plan.served_traffic_fraction,
        plan.transfer_bits,
        tuple(
            (
                a.block_id,
                a.ec_id,
                tuple(a.device_names),
                a.step,
                a.replicated,
                tuple(
                    (name, tuple(sorted(sa.stage_demands.items())))
                    for name, sa in sorted(a.stage_assignments.items())
                ),
            )
            for a in plan.assignments
        ),
        tuple(sorted((name, state.digest)
                     for name, state in plan.device_states.items())),
    )


# --------------------------------------------------------------------- #
# test-side views of an equivalence class and a reduced tree
# --------------------------------------------------------------------- #
def representative(ec, topo):
    """The first *available* member of *ec*, standing in for the class.

    Guarded against stale classes: after ``fail_device``/``drain_device``
    a class computed earlier may have shrunk to zero usable members, and
    blindly returning ``members[0]`` would hand out a down device.
    """
    if not ec.members:
        raise TopologyError(f"equivalence class {ec.ec_id!r} has no members")
    for name in ec.members:
        device = topo.device(name)
        if device.is_available():
            return device
    raise TopologyError(
        f"equivalence class {ec.ec_id!r} has no available members "
        f"(all of {ec.members} are down or draining)"
    )


def available_members(ec, topo):
    """Member names of *ec* that are currently up."""
    return [n for n in ec.members if topo.device(n).is_available()]


def device_count(tree):
    """Distinct devices *tree* covers; an emptied class contributes none
    and a node reachable through two parents is counted once."""
    return len({name for node in tree.all_nodes() for name in node.ec.members})


def apply_drift(topo, rng, fraction=1.0):
    """Seeded background allocations so devices are not all content-equal."""
    for name in sorted(topo.devices):
        if rng.random() > fraction:
            continue
        device = topo.devices[name]
        stages = rng.sample(range(device.num_stages),
                            k=min(2, device.num_stages))
        for stage in stages:
            device.commit([(stage, {"instructions": float(rng.randint(1, 5))})])


def make_request(program, sources, destination, max_block_size=8,
                 **ablations):
    return PlacementRequest(
        program=program,
        source_groups=list(sources),
        destination_group=destination,
        max_block_size=max_block_size,
        **ablations,
    )


def assert_plan_identical(topo, request):
    """Place with the placer and the oracle against identical topology
    state."""
    optimized = DPPlacer(topo).place(request)
    reference = ReferencePlacer(topo).place(request)
    assert plan_key(optimized) == plan_key(reference)
    return optimized


@pytest.fixture(scope="module")
def kvs():
    return compile_template(default_profile("KVS"), name="kvs_scale")


@pytest.fixture(scope="module")
def mlagg():
    profile = default_profile("MLAgg")
    return compile_template(profile, name="mlagg_scale")


# --------------------------------------------------------------------- #
# tentpole: differential plan identity
# --------------------------------------------------------------------- #
class TestPlanIdentity:
    @pytest.mark.parametrize("k", [4, 8])
    def test_fattree_cold(self, kvs, k):
        topo = build_fattree(k=k)
        sources = [f"pod{p}(a)" for p in range(k // 2)]
        dst = f"pod{k - 1}(a)"
        assert_plan_identical(topo, make_request(kvs, sources, dst))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fattree_randomized_drift(self, kvs, seed):
        rng = random.Random(seed)
        topo = build_fattree(k=8)
        apply_drift(topo, rng, fraction=0.6)
        sources = sorted(rng.sample([f"pod{p}(a)" for p in range(7)], k=3))
        assert_plan_identical(topo, make_request(kvs, sources, "pod7(a)"))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_spineleaf_randomized(self, mlagg, seed):
        rng = random.Random(seed)
        topo = build_spineleaf(num_spines=4, num_leaves=8)
        apply_drift(topo, rng, fraction=0.5)
        sources = sorted(rng.sample([f"rack{i}" for i in range(7)], k=3))
        assert_plan_identical(topo, make_request(mlagg, sources, "rack7"))

    def test_warm_placer_matches_fresh_reference_after_churn(self, kvs):
        """The cross-epoch memo must never leak stale sub-solutions.

        A single warm placer re-places across a sequence of topology
        mutations (drift, fail, restore); after every mutation its plan
        must match a fresh reference placer solving from scratch.
        """
        rng = random.Random(42)
        topo = build_fattree(k=8)
        request = make_request(
            kvs, ["pod0(a)", "pod1(a)", "pod2(a)"], "pod7(a)")
        warm = DPPlacer(topo)

        # Failing an aggregation switch reshapes the paths without
        # disconnecting any host group (each pod keeps 3 more aggs).
        aggs = [n for n in sorted(topo.devices)
                if n.startswith(("Agg0_", "Agg1_", "Agg2_", "Agg7_"))]
        for round_no in range(6):
            action = round_no % 3
            if action == 0:
                topo.set_device_status(rng.choice(aggs), "down")
            elif action == 1:
                name = rng.choice(sorted(topo.devices))
                device = topo.devices[name]
                device.commit([(
                    rng.randrange(device.num_stages),
                    {"instructions": float(rng.randint(1, 4))})])
            else:
                for name in list(topo.devices):
                    topo.set_device_status(name, "up")
            warm_plan = warm.place(request)
            cold_plan = ReferencePlacer(topo).place(request)
            assert plan_key(warm_plan) == plan_key(cold_plan), (
                f"divergence after churn round {round_no}")

    def test_commit_release_cycle_stays_identical(self, kvs, mlagg):
        """Committing plans changes allocations; the memo must track it."""
        topo = build_fattree(k=8)
        placer = DPPlacer(topo)
        req_a = make_request(kvs, ["pod0(a)", "pod1(a)"], "pod7(a)")
        req_b = make_request(mlagg, ["pod2(a)", "pod3(a)"], "pod7(a)")

        plan_a = placer.place(req_a)
        placer.commit(plan_a)
        plan_b = placer.place(req_b)
        ref_b = ReferencePlacer(topo).place(req_b)
        assert plan_key(plan_b) == plan_key(ref_b)

        placer.release(plan_a)
        plan_a2 = placer.place(req_a)
        ref_a2 = ReferencePlacer(topo).place(req_a)
        assert plan_key(plan_a2) == plan_key(ref_a2)

    @pytest.mark.parametrize("order", [
        ("+a", "+b", "-a", "-b", "+a"),   # back to the empty fabric
        ("+a", "+b", "-b", "+b", "-a", "+a"),   # back to a-only, to a+b
        ("+b", "+a", "-b", "-a", "+b", "+a"),
    ])
    def test_return_to_state_sequences_stay_identical(self, kvs, mlagg, order):
        """A removal restores fingerprints, so superseded entries hit again.

        One warm placer deploys and removes two programs so the fabric
        keeps returning to allocation states it has been in before; every
        placement — the re-deploys of a removed program's body above all —
        must be the oracle's, byte for byte.
        """
        topo = build_fattree(k=8)
        placer = DPPlacer(topo)
        requests = {
            "a": make_request(kvs, ["pod0(a)", "pod1(a)"], "pod7(a)"),
            "b": make_request(mlagg, ["pod1(a)", "pod2(a)"], "pod7(a)"),
        }
        live = {}
        for step, (op, which) in enumerate(order):
            if op == "-":
                placer.release(live.pop(which))
                continue
            plan = placer.place(requests[which])
            reference = ReferencePlacer(topo).place(requests[which])
            assert plan_key(plan) == plan_key(reference), (
                f"divergence at step {step} ({op}{which})")
            placer.commit(plan)
            live[which] = plan

    def test_ablation_knobs_share_one_memo(self):
        """The memo's context digest covers ``use_blocks``, ``prune`` and
        ``adaptive_weights``: one warm placer places one content under each
        of their eight combinations, committing every other plan, then
        again after every commit is released — so the memo holds entries of
        all eight contexts for the states it is asked about — and every
        plan is the oracle's."""
        from repro.topology import build_paper_emulation_topology

        program = compile_template(default_profile("DQAcc"), name="ablate")
        topo, twin = (build_paper_emulation_topology() for _ in range(2))
        placer, reference = DPPlacer(topo), ReferencePlacer(twin)
        combos = list(itertools.product((True, False), repeat=3))
        committed = []
        for lap in range(2):
            for index, (use_blocks, prune, adaptive) in enumerate(combos):
                request = make_request(
                    program.rebrand(f"ablate{lap}_{index}"),
                    ["pod1(a)", "pod2(b)"], "pod0(a)",
                    use_blocks=use_blocks, prune=prune,
                    adaptive_weights=adaptive)
                plan = placer.place(request)
                expected = reference.place(request)
                assert plan_key(plan) == plan_key(expected), (lap, index)
                if lap == 0 and index % 2 == 0:
                    placer.commit(plan)
                    reference.commit(expected)
                    committed.append((plan, expected))
            for plan, expected in committed:
                placer.release(plan)
                reference.release(expected)
            committed.clear()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_second_tenant_on_warm_program_facts(self, seed):
        """Facts derived for tenant A serve tenant B's search of the same
        content: A's and B's plans are the oracle's on a twin topology —
        under every Fig. 14 / Table 5 ablation (``use_blocks``, ``prune``,
        ``adaptive_weights``), with or without A committed in between —
        and nothing of A — program, owner, annotation — crosses into B's."""
        from repro.topology import build_paper_emulation_topology

        rng = random.Random(seed)
        app, knobs = rng.choice((
            ("KVS", {"depth": rng.randrange(16, 20000)}),
            ("MLAgg", {"depth": rng.randrange(16, 20000),
                       "dim": rng.choice((4, 8, 16, 24))}),
            ("DQAcc", {"c_depth": rng.randrange(16, 20000),
                       "c_len": rng.randrange(2, 12)}),
        ))
        profile = default_profile(app)
        profile.performance.update(knobs)
        program_a = compile_template(profile, name="tenant_a")
        program_b = program_a.rebrand("tenant_b")
        pod, side = rng.randrange(3), rng.choice("ab")
        destination = f"pod{pod}({side})"
        if rng.random() < 0.4:      # intra-pod, else from one or two others
            sources = [f"pod{pod}({'ab'.replace(side, '')})"]
        else:
            sources = rng.sample(
                [f"pod{p}({s})" for p in range(3) if p != pod for s in "ab"],
                k=rng.randrange(1, 3))
        block_size = rng.choice((4, 8, 16))
        # each ablation is off in about a third of the runs.  Without blocks
        # every instruction is a block, and the oracle, which evaluates each
        # interval from scratch, takes seconds per search on KVS and MLAgg
        # (≈ 0.2 s on DQAcc), so that ablation is drawn for DQAcc only
        ablations = {knob: rng.random() >= 0.3
                     for knob in ("use_blocks", "prune", "adaptive_weights")}
        ablations["use_blocks"] |= app != "DQAcc"
        commit_a = rng.random() < 0.5

        def request(program):
            return make_request(program, sorted(sources), destination,
                                max_block_size=block_size, **ablations)

        topo, twin = (build_paper_emulation_topology() for _ in range(2))
        for fabric in (topo, twin):
            apply_drift(fabric, random.Random(seed), fraction=0.5)
        placer = DPPlacer(topo)
        reference = ReferencePlacer(twin)

        # A twice: the second sight admits the facts; then A may move in
        try:
            placer.place(request(program_a))
        except PlacementError:
            with pytest.raises(PlacementError):
                reference.place(request(program_a))
            return
        plan_a = placer.place(request(program_a))
        counters = placer.profile.counters
        assert (counters.program_facts_derived,
                counters.program_facts_hits) == (2, 0)
        reference_a = reference.place(request(program_a))
        assert plan_key(plan_a) == plan_key(reference_a)
        if commit_a:
            placer.commit(plan_a)
            reference.commit(reference_a)

        try:
            plan_b = placer.place(request(program_b))
        except PlacementError:      # A took the room
            with pytest.raises(PlacementError):
                reference.place(request(program_b))
            plan_b = None
        assert (counters.program_facts_derived,
                counters.program_facts_hits) == (2, 1)
        if plan_b is None:
            return
        assert plan_key(plan_b) == plan_key(
            reference.place(request(program_b)))
        assert plan_b.block_dag.program is program_b
        for snippet in plan_b.device_snippets().values():
            assert snippet.name.startswith("tenant_b@")
            for instr in snippet:
                assert instr.owner == "tenant_b"
                assert instr.annotations == {"tenant_b"}


# --------------------------------------------------------------------- #
# layer 1: cross-epoch memo
# --------------------------------------------------------------------- #
class TestPlacementMemo:
    def test_warm_replace_hits_memo(self, kvs):
        topo = build_fattree(k=8)
        placer = DPPlacer(topo)
        request = make_request(kvs, ["pod0(a)", "pod1(a)"], "pod7(a)")
        placer.place(request)
        placer.profile.reset()
        placer.place(request)
        counters = placer.profile.counters.summary()
        assert counters["interval_memo_hits"] > 0
        assert counters["subtree_memo_hits"] > 0

    def test_release_restores_memo_hits(self, kvs):
        """Commit → release returns to keys the memo still holds."""
        placer = DPPlacer(build_fattree(k=8))
        request = make_request(kvs, ["pod0(a)", "pod1(a)"], "pod7(a)")
        plan = placer.place(request)
        placer.commit(plan)
        placer.release(plan)
        placer.profile.reset()
        placer.place(request)
        counters = placer.profile.counters.summary()
        assert counters["subtree_solves"] == 0
        assert counters["device_checks"] == 0

    def test_memo_bounded_lru(self):
        memo = PlacementMemo(max_entries=16)  # 16 is the floor

        def key(i):
            return ("ctx", i, i + 1, "t", "fp")

        for i in range(35):
            memo.store_device(key(i), float(i))
        assert memo.lookup_device(key(20)) == 20.0  # refreshes recency
        for i in range(35, 40):
            memo.store_device(key(i), float(i))
        assert len(memo) == 16
        # the survivors are the 16 most recently stored or looked up
        assert set(memo._stores["device"]) == {
            key(i) for i in [20, *range(25, 40)]}

        # the bound is on the total, not per store
        mixed = PlacementMemo(max_entries=16)
        for i in range(12):
            mixed.store_device((i,), True)
            mixed.store_interval((i,), 1.0)
            mixed.store_table((i,), ((), {}, ()))
            assert len(mixed) <= 16
        assert len(mixed) == 16

    def test_controller_remove_keeps_placer_memo(self, kvs):
        """The remove path leaves the memo alone: the release restores the
        fingerprints tenant_a's entries were keyed on, so a re-place of
        tenant_a's own request is answered from them."""
        from repro.core import ClickINC, DeployRequest
        from repro.topology import build_paper_emulation_topology

        inc = ClickINC(build_paper_emulation_topology())
        inc.deploy_profile(
            default_profile("KVS"), ["pod0(a)"], "pod2(b)", name="tenant_a")
        derived = memo_keys(inc.placer.memo)
        assert derived
        inc.remove("tenant_a")
        assert memo_keys(inc.placer.memo) == derived
        inc.placer.profile.reset()
        inc.placer.place(inc.pipeline.placement_request(kvs, DeployRequest(
            source_groups=["pod0(a)"], destination_group="pod2(b)",
            name="tenant_a", profile=default_profile("KVS"))))
        counters = inc.placer.profile.counters.summary()
        assert counters["subtree_solves"] == 0
        assert counters["subtree_memo_hits"] > 0

    def test_deploy_remove_cycles_plateau(self):
        """Repeating the same six bodies adds nothing to the memo."""
        from repro.core import ClickINC
        from repro.topology import build_paper_emulation_topology

        bodies = [(app, knob, value)
                  for app, knob in (("KVS", "depth"), ("MLAgg", "depth"),
                                    ("DQAcc", "c_depth"))
                  for value in (3000, 4000)]
        inc = ClickINC(build_paper_emulation_topology())
        marks = []
        for cycle in range(40):
            app, knob, value = bodies[cycle % 6]
            profile = default_profile(app)
            profile.performance[knob] = value
            inc.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                               name=f"cycle{cycle}")
            inc.remove(f"cycle{cycle}")
            marks.append(len(inc.memo))
        assert marks[11] > 0
        assert marks[39] == marks[11]

    def test_program_facts_plateau_over_warm_cycles(self):
        """Six bodies admit six facts by cycle 12; fifty more warm cycles
        add no facts and leave no block, program or graph behind."""
        from repro.core import ClickINC
        from repro.topology import build_paper_emulation_topology

        bodies = [(app, knob, value)
                  for app, knob in (("KVS", "depth"), ("MLAgg", "depth"),
                                    ("DQAcc", "c_depth"))
                  for value in (3000, 4000)]
        inc = ClickINC(build_paper_emulation_topology())

        def cycle(index):
            app, knob, value = bodies[index % 6]
            profile = default_profile(app)
            profile.performance[knob] = value
            # without its cached plan every deploy reaches the placer,
            # hence the facts store
            inc.cache.invalidate("plan")
            inc.deploy_profile(profile, ["pod0(a)"], "pod2(b)",
                               name=f"cycle{index}")
            inc.remove(f"cycle{index}")

        def census():
            gc.collect()
            counts = {Block: 0, IRProgram: 0, nx.DiGraph: 0}
            for obj in gc.get_objects():
                if type(obj) in counts:
                    counts[type(obj)] += 1
            return counts, inc.memo.summary()["program_facts"]

        counters = inc.placer.profile.counters
        for index in range(12):     # every body twice
            cycle(index)
        baseline = census()
        assert baseline[1] == {"entries": 6, "seen_once": 0}
        assert (counters.program_facts_derived,
                counters.program_facts_hits) == (12, 0)
        for index in range(12, 62):
            cycle(index)
        assert census() == baseline
        assert (counters.program_facts_derived,
                counters.program_facts_hits) == (12, 50)


def memo_keys(memo):
    return {(kind, key) for kind, store in memo._stores.items()
            for key in store}


# --------------------------------------------------------------------- #
# layer 2: equivalence-class pruning
# --------------------------------------------------------------------- #
class TestEquivalencePruning:
    def test_symmetric_subtrees_share_signature(self, kvs):
        topo = build_fattree(k=8)
        dag = build_block_dag(kvs, max_block_size=8)
        tree = build_reduced_tree(
            topo, ["pod0(a)", "pod1(a)"], "pod7(a)")
        client_roots = [c for c in tree.root.children if c.side == "client"]
        assert len(client_roots) >= 2
        cache = {}
        sigs = {subtree_signature(n, topo, cache) for n in client_roots}
        assert len(sigs) == 1  # fresh symmetric pods collapse

    def test_allocation_breaks_signature_sharing(self):
        topo = build_fattree(k=8)
        tree = build_reduced_tree(topo, ["pod0(a)", "pod1(a)"], "pod7(a)")
        client_roots = [c for c in tree.root.children if c.side == "client"]
        victim = topo.device(representative(client_roots[0].ec, topo).name)
        victim.commit([(0, {"instructions": 3.0})])
        tree2 = build_reduced_tree(topo, ["pod0(a)", "pod1(a)"], "pod7(a)")
        roots2 = [c for c in tree2.root.children if c.side == "client"]
        cache = {}
        sigs = {subtree_signature(n, topo, cache) for n in roots2}
        assert len(sigs) == 2  # drifted pod no longer matches

    def test_correspondence_rejects_shape_mismatch(self):
        topo = build_fattree(k=8)
        tree = build_reduced_tree(topo, ["pod0(a)", "pod1(a)"], "pod7(a)")
        node = tree.root.children[0]
        ids = subtree_class_ids(node)
        assert subtree_correspondence(ids, node) is not None
        assert subtree_correspondence(ids[:-1], node) is None

    def test_representative_raises_on_empty_class(self, chain_topology):
        ec = EquivalenceClass(ec_id="ghost", members=[], layer="tor",
                              pod=0, dev_type="tofino")
        with pytest.raises(TopologyError):
            representative(ec, chain_topology)

    def test_representative_skips_down_members(self, chain_topology):
        classes = compute_equivalence_classes(chain_topology)
        ec = next(c for c in classes if c.size >= 1)
        chain_topology.set_device_status(ec.members[0], "down")
        if len(ec.members) > 1:
            rep = representative(ec, chain_topology)
            assert rep.name != ec.members[0]
            assert rep.is_available()
        else:
            with pytest.raises(TopologyError):
                representative(ec, chain_topology)
        assert ec.members[0] not in available_members(ec, chain_topology)

    def test_device_count_survives_emptied_class(self):
        topo = build_chain(4)
        tree = build_reduced_tree(topo, ["client"], "server")
        baseline = device_count(tree)
        assert baseline == 4
        # Emptying a class after the tree was built must not raise.
        for node in tree.all_nodes():
            node.ec.members.clear()
            break
        assert device_count(tree) <= baseline


# --------------------------------------------------------------------- #
# layer 3: vectorized interval scoring
# --------------------------------------------------------------------- #
class TestIntervalScorer:
    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_gain_row_matches_scalar_objective(self, kvs, use_numpy):
        if use_numpy:
            pytest.importorskip("numpy")
        dag = build_block_dag(kvs, max_block_size=4)
        objective = PlacementObjective(
            total_resource_units=4800.0, total_transfer_bits=250_000.0,
            adaptive=False)
        ordered = dag.topological_order()
        scorer = IntervalScorer(dag, ordered, objective, use_numpy=use_numpy)
        weights = ObjectiveWeights.adaptive(0.73)  # non-round weights
        n = len(ordered)
        for start in range(n):
            row = scorer.gain_row(start, served_fraction=0.375,
                                  weights=weights, replicas=2,
                                  end_lo=start + 1, end_hi=n + 1)
            for offset, end in enumerate(range(start + 1, n + 1)):
                expected = objective.gain(
                    served_fraction=0.375,
                    instruction_count=scorer.instruction_count(start, end),
                    transfer_bits=int(scorer._cut[start][end]),
                    weights=weights,
                    replicas=2,
                )
                assert row[offset] == expected  # bit-identical, not approx

    def test_counts_and_cut_bits_match_reference(self, mlagg):
        dag = build_block_dag(mlagg, max_block_size=6)
        objective = PlacementObjective(
            total_resource_units=1000.0, total_transfer_bits=1000.0)
        ordered = dag.topological_order()
        scorer = IntervalScorer(dag, ordered, objective)
        n = len(ordered)
        for start in range(n + 1):
            for end in range(start, n + 1):
                expected_count = sum(
                    len(b.instructions(dag.program))
                    for b in ordered[start:end])
                assert scorer.instruction_count(start, end) == expected_count
                assert int(scorer._cut[start][end]) == (
                    interval_cut_bits(dag, ordered, start, end))


# --------------------------------------------------------------------- #
# satellite: _product_limited dedup
# --------------------------------------------------------------------- #
class TestProductLimited:
    @staticmethod
    def table(*gains):
        return [(i, _Candidate(gain=g)) for i, g in enumerate(gains)]

    def test_symmetric_children_deduped(self):
        t = self.table(1.0, 2.0)
        combos = list(_product_limited([t, t, t]))
        # 3 identical children with 2 options: multiset combinations
        # C(2+3-1, 3) = 4, not 2**3 = 8.
        assert len(combos) == 4
        seen = set()
        for combo in combos:
            key = tuple(sorted(i for i, _ in combo))
            assert key not in seen  # no duplicate multisets
            seen.add(key)

    def test_distinct_children_full_product(self):
        a = self.table(1.0, 2.0)
        b = self.table(3.0, 4.0, 5.0)
        combos = list(_product_limited([a, b]))
        assert len(combos) == 6
        assert {(c[0][0], c[1][0]) for c in combos} == {
            (i, j) for i in range(2) for j in range(3)}

    def test_limit_still_enforced(self):
        tables = [self.table(*range(10)) for _ in range(8)]
        # distinct gains per child would explode; symmetric dedup keeps
        # this to C(10+8-1, 8) = 24310 < limit, so it completes.
        combos = list(_product_limited(tables, limit=200000))
        assert len(combos) == 24310

    def test_preserves_child_order(self):
        a = self.table(1.0)
        b = self.table(2.0, 3.0)
        for combo in _product_limited([b, a, b]):
            assert len(combo) == 3
            assert combo[1][1].gain == 1.0  # middle child stays in place


# --------------------------------------------------------------------- #
# the oracles stay outside src/
# --------------------------------------------------------------------- #
def test_no_module_under_src_imports_the_oracles():
    """``tests/oracles`` checks ``src/``: a production import of an oracle
    would make the differential compare the placer with itself."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any("oracles" in module.split(".") for module in modules):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not offenders


def test_every_definition_under_src_is_named_somewhere_else():
    """A function, method or class under ``src/`` (dunders aside) whose
    name no code, test, benchmark, example, doc or tool spells anywhere but
    at its definition is dead code.

    Words are counted over the Python and Markdown files, so a name in a
    string (a ``getattr`` target, ``__all__``, the e2e tracer's target
    table), a docstring or a comment counts as a use.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    define = re.compile(
        r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+([A-Za-z_][A-Za-z0-9_]*)",
        re.M)
    words, definitions = collections.Counter(), []
    for top in ("src", "tests", "benchmarks", "examples", "docs", "tools"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            text = path.read_text(encoding="utf-8")
            words.update(word.findall(text))
            if top == "src" and path.suffix == ".py":
                definitions.extend(
                    (match.group(1), f"{path.relative_to(root)}:"
                     f"{text.count(chr(10), 0, match.start()) + 1}")
                    for match in define.finditer(text))
    sites = collections.Counter(name for name, _ in definitions)
    unnamed = [f"{where} {name}" for name, where in definitions
               if not (name.startswith("__") and name.endswith("__"))
               and words[name] <= sites[name]]
    assert not unnamed


def _uses(tree):
    """``(name, line)`` of every name, attribute, keyword and word in a
    string literal of *tree*; imports, ``__all__`` and docstrings are not
    uses (comments never reach the AST)."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)}
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    found, pending = [], [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                continue
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.keyword) and node.arg:
            found.append((node.arg, node.value.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            found.extend((w, node.lineno) for w in word.findall(node.value))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_every_definition_under_src_is_reached_by_the_system():
    """``src/`` holds the system: a function, method or class there (dunders
    aside) must be reached by other ``src/`` code, by ``docs/api.md`` (the
    public API) or by ``examples/``.  What only tests, benchmarks or tools
    reach belongs beside them.

    In ``src/`` and ``examples/`` a use is a name, attribute, keyword or a
    word in a string literal (a ``getattr`` target, the gateway's route
    table) outside the definition itself; imports, ``__all__`` and
    docstrings are not uses.  In ``docs/api.md`` any word is.  A definition
    decorated by a ``src/`` function (``@TemplateRegistry.register``) is
    reached through the registry it joins.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    definitions, src_uses = [], collections.defaultdict(list)
    for path in sorted((root / "src").rglob("*.py")):
        where = str(path.relative_to(root))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _uses(tree):
            src_uses[name].append((where, line))
        definitions.extend(
            (node, where) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)))
    defined = {node.name for node, _ in definitions}
    outside = collections.Counter(re.findall(
        r"[A-Za-z_][A-Za-z0-9_]*",
        (root / "docs" / "api.md").read_text(encoding="utf-8")))
    for path in sorted((root / "examples").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside.update(name for name, _ in _uses(tree))

    def reached(node, where):
        if outside[node.name]:
            return True
        if any(ast.unparse(d).split("(")[0].split(".")[-1] in defined
               for d in node.decorator_list):
            return True
        return any(path != where or not node.lineno <= line <= node.end_lineno
                   for path, line in src_uses[node.name])

    unreached = [f"{where}:{node.lineno} {node.name}"
                 for node, where in definitions
                 if not (node.name.startswith("__") and node.name.endswith("__"))
                 and not reached(node, where)]
    assert not unreached
