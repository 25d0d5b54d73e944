"""Tests for the content-addressed artifact cache and its fingerprints."""

from __future__ import annotations

import json

import pytest
from invariants import (
    allocation_fingerprint,
    device_fingerprints,
    plan_fingerprints,
)

from repro.core import cache as cache_module
from repro.core.cache import (
    ArtifactCache,
    canonical_json,
    content_key,
    fingerprint_ir,
)
from repro.frontend import compile_template
from repro.frontend.compiler import profile_compile_key, source_compile_key
from repro.lang.profile import default_profile
from repro.placement.dp import DPPlacer, PlacementRequest


class TestArtifactCache:
    def test_lookup_miss_then_hit(self):
        cache = ArtifactCache()
        key = cache.make_key("program", "abc")
        hit, value = cache.lookup(key)
        assert not hit and value is None
        cache.store(key, "artifact")
        hit, value = cache.lookup(key)
        assert hit and value == "artifact"

    def test_keys_are_namespaced_and_deterministic(self):
        assert content_key("plan", 1, "x") == content_key("plan", 1, "x")
        assert content_key("plan", 1, "x") != content_key("codegen", 1, "x")
        assert content_key("plan", 1, "x").startswith("plan:")

    def test_stats_per_namespace(self):
        cache = ArtifactCache()
        key = cache.make_key("program", "k")
        cache.lookup(key)
        cache.store(key, 1)
        cache.lookup(key)
        cache.lookup(cache.make_key("plan", "other"))
        stats = cache.stats()
        assert stats["program"].hits == 1
        assert stats["program"].misses == 1
        assert stats["program"].hit_rate == 0.5
        assert stats["plan"].misses == 1
        summary = cache.summary()
        assert summary["entries"] == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        keys = [cache.make_key("program", i) for i in range(3)]
        cache.store(keys[0], 0)
        cache.store(keys[1], 1)
        cache.lookup(keys[0])          # refresh 0 → 1 becomes LRU
        cache.store(keys[2], 2)
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache

    def test_invalidate_by_namespace(self):
        cache = ArtifactCache()
        cache.store(cache.make_key("program", 1), "a")
        cache.store(cache.make_key("plan", 1), "b")
        assert cache.invalidate("plan") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_a_namespace_scan_never_visits_the_other_namespaces(self):
        cache = ArtifactCache(max_entries=2048)
        for index in range(1000):
            cache.store(cache.make_key("codegen", index), f"source {index}")
        assert cache.invalidate("plan") == 0     # no plan was stored
        cache.store(cache.make_key("plan", "a"), "a")
        cache.store(cache.make_key("plan", "b"), "b")
        cache.store(cache.make_key("plan", "b"), "b")         # re-stored
        assert cache.namespace_len("plan") == 2
        assert cache.invalidate("plan") == 2
        assert cache.namespace_len("plan") == 0
        assert cache.namespace_len("codegen") == 1000 == len(cache)
        # the index follows LRU eviction too
        small = ArtifactCache(max_entries=2)
        for index in range(3):
            small.store(small.make_key("plan", index), index)
        assert small.namespace_len("plan") == 2
        assert small.invalidate("plan") == 2
        assert small.namespace_len("plan") == 0 and len(small) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)


class TestFingerprints:
    def test_fingerprint_stable_across_recompiles(self):
        a = compile_template(default_profile("KVS"), name="fp_a")
        b = compile_template(default_profile("KVS"), name="fp_a")
        assert fingerprint_ir(a) == fingerprint_ir(b)

    def test_name_normalisation(self):
        a = compile_template(default_profile("KVS"), name="tenant_a")
        b = compile_template(default_profile("KVS"), name="tenant_b")
        assert fingerprint_ir(a) != fingerprint_ir(b)
        assert fingerprint_ir(a, normalize_name=True) == \
            fingerprint_ir(b, normalize_name=True)

    def test_content_change_changes_fingerprint(self):
        profile = default_profile("KVS")
        a = compile_template(profile, name="fp")
        profile.performance["depth"] = 123
        b = compile_template(profile, name="fp")
        assert fingerprint_ir(a) != fingerprint_ir(b)

    def test_rebrand_matches_native_compile(self):
        a = compile_template(default_profile("KVS"), name="tenant_a")
        b = a.rebrand("tenant_b")
        native = compile_template(default_profile("KVS"), name="tenant_b")
        assert fingerprint_ir(b) == fingerprint_ir(native)
        assert all(instr.owner == "tenant_b" for instr in b)
        assert all(
            state.owner == "tenant_b" for state in b.states.values()
        )
        assert [instr.uid for instr in b] == [instr.uid for instr in a]

    def test_topology_fingerprint_tracks_allocations(self, paper_topology,
                                                     kvs_program):
        placer = DPPlacer(paper_topology)
        before = allocation_fingerprint(paper_topology)
        plan = placer.place(PlacementRequest(
            program=kvs_program, source_groups=["pod0(a)"],
            destination_group="pod2(b)",
        ))
        assert allocation_fingerprint(paper_topology) == before
        placer.commit(plan)
        committed = allocation_fingerprint(paper_topology)
        assert committed != before
        placer.release(plan)
        assert allocation_fingerprint(paper_topology) == before

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    @pytest.mark.parametrize("c_encoder", (True, False))
    def test_canonical_json_is_the_sorted_compact_dumps(self, monkeypatch,
                                                         c_encoder):
        if not c_encoder:
            monkeypatch.setattr(cache_module, "_C_ENCODE", None)
        payload = [{"b": 1.5, "a": [1, None, True], "c": "é"}, "x", 0.1,
                   float("inf"), ("t", 2), {"k": {"z": 0, "y": object}}]
        assert canonical_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str)
        assert canonical_json("s") == '"s"'


class TestCompileKeys:
    def test_profile_key_excludes_user(self):
        a = default_profile("KVS", user="alice")
        b = default_profile("KVS", user="bob")
        assert profile_compile_key(a) == profile_compile_key(b)

    def test_profile_key_tracks_parameters(self):
        a = default_profile("KVS")
        b = default_profile("KVS")
        b.performance["depth"] = 77
        assert profile_compile_key(a) != profile_compile_key(b)
        assert profile_compile_key(a) != profile_compile_key(default_profile("MLAgg"))

    def test_source_key_tracks_all_inputs(self):
        base = source_compile_key("x = 1 + 2")
        assert base == source_compile_key("x = 1 + 2")
        assert base != source_compile_key("x = 1 + 3")
        assert base != source_compile_key("x = 1 + 2", constants={"n": 4})
        assert base != source_compile_key("x = 1 + 2", header_fields={"op": 8})


class TestPlanCacheStaleness:
    """The ``plan`` namespace is keyed on the devices a search consults,
    admits a plan on its content's second sight and is never pruned: an
    entry whose devices changed state cannot match a live key."""

    @staticmethod
    def _request(user):
        from repro.core import DeployRequest
        return DeployRequest(
            source_groups=["pod0(a)"], destination_group="pod0(b)",
            name=f"kvs_{user}", profile=default_profile("KVS", user=user),
        )

    @staticmethod
    def _plan_entries(cache):
        return [key for key in cache._entries if key.startswith("plan:")]

    def test_remove_keeps_entries_and_a_stale_one_never_matches(self):
        from repro.core import ClickINC
        from repro.topology import build_fattree

        inc = ClickINC(build_fattree(k=4))

        def matching():
            live = device_fingerprints(inc.topology)
            return [key for key in self._plan_entries(inc.cache)
                    if all(live[name] == fp for name, fp in
                           plan_fingerprints(inc.cache._entries[key]).items())]

        inc.deploy_many([self._request("a")])   # first sight: not stored
        assert self._plan_entries(inc.cache) == []
        inc.deploy_many([self._request("b")])   # stored, stamped: a present
        (one_kvs,) = self._plan_entries(inc.cache)
        inc.remove("kvs_b")
        inc.remove("kvs_a")
        # nothing is evicted, yet the entry stamped with a KVS in pod0
        # matches nothing live: the re-deploy searches and stores the
        # empty pod's plan
        assert self._plan_entries(inc.cache) == [one_kvs]
        assert matching() == []
        report = inc.deploy_many([self._request("c")])[0]
        assert not report.stage("placement").cache_hit
        assert len(self._plan_entries(inc.cache)) == 2
        # fingerprints are name-blind: pod0 holding c is the state the
        # first entry was stamped in, so the next tenant is served from it
        assert matching() == [one_kvs]
        report = inc.deploy_many([self._request("d")])[0]
        assert report.stage("placement").cache_hit

    def test_warm_redeploy_after_remove_is_still_a_cache_hit(self):
        from repro.core import ClickINC
        from repro.topology import build_fattree

        inc = ClickINC(build_fattree(k=4))
        for user in ("a", "a2"):
            inc.deploy_many([self._request(user)])
            inc.remove(f"kvs_{user}")
        # the second sight stored the empty-pod plan; the removal restored
        # the state it was stamped against, so the re-deploy hits warm
        report = inc.deploy_many([self._request("a3")])[0]
        assert report.succeeded
        assert report.stage("placement").cache_hit

    def test_deploy_remove_cycles_do_not_accumulate_stale_entries(self):
        from repro.core import ClickINC
        from repro.topology import build_fattree

        inc = ClickINC(build_fattree(k=4))
        for cycle in range(4):
            inc.deploy_many([self._request(f"u{cycle}")])
            inc.remove(f"kvs_u{cycle}")
        # one reusable entry (the empty-pod placement), not one per cycle
        assert len(self._plan_entries(inc.cache)) == 1

    def test_a_plan_is_admitted_on_second_sight(self):
        from repro.core import ClickINC
        from repro.topology import build_fattree

        inc = ClickINC(build_fattree(k=4))
        inc.deploy_many([self._request("a")])
        inc.remove("kvs_a")
        assert inc.cache.namespace_len("plan") == 0
        assert inc.cache.stats()["plan"].misses == 1
        inc.deploy_many([self._request("b")])
        assert inc.cache.namespace_len("plan") == 1
