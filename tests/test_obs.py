"""Unified telemetry: metrics registry, tracing, events, exposition.

The tracing tests pin the two propagation paths: through a batch (every
traced request of a wave gets its own stage spans) and through the
cross-shard two-phase commit behind the gateway (one trace covers gateway
queue -> compile -> prepare -> commit -> install).
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.core import ClickINC
from repro.core.pipeline import DeployRequest
from repro.core.service import INCService
from repro.core.stats import CounterMixin
from repro.gateway.auth import TenantRegistry
from repro.gateway.server import Gateway
from repro.lang.profile import default_profile
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Observability,
)
from repro.topology import build_fattree, build_paper_emulation_topology


def run(coro):
    return asyncio.run(coro)


def make_request(name: str, pod: int = 0, app: str = "KVS",
                 trace=None) -> DeployRequest:
    return DeployRequest(
        source_groups=[f"pod{pod}(a)", f"pod{(pod + 1) % 3}(a)"],
        destination_group=f"pod{(pod + 2) % 3}(b)",
        name=name,
        profile=default_profile(app),
        trace=trace,
    )


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_histogram_bucket_edges_are_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("clickinc_edge_seconds", "edge test",
                                  buckets=(0.01, 0.1, 1.0))
        hist.observe(0.01)      # exactly on an edge: le="0.01" includes it
        hist.observe(0.05)
        hist.observe(5.0)       # overflow -> only +Inf
        text = registry.render()
        buckets = {
            m.group(1): int(m.group(2))
            for m in re.finditer(
                r'clickinc_edge_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
        }
        assert buckets["0.01"] == 1
        assert buckets["0.1"] == 2
        assert buckets["1"] == 2        # 1.0 renders integral
        assert buckets["+Inf"] == 3
        assert "clickinc_edge_seconds_count 3" in text

    def test_histogram_sum_tracks_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("clickinc_sum_seconds", "sum test",
                                  buckets=(1.0,))
        hist.observe(0.25)
        hist.observe(0.5)
        snap = registry.snapshot()
        series = snap["clickinc_sum_seconds"]["{}"]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(0.75)

    def test_counter_bag_registration_reads_live_values(self):
        class Bag(CounterMixin):
            def __init__(self):
                self.handled = 0
                self.dropped = 0

        registry = MetricsRegistry()
        bag = Bag()
        registry.register_counters("clickinc_bagtest", bag)
        bag.increment("handled", 3)
        text = registry.render()
        assert "clickinc_bagtest_handled_total 3" in text
        bag.increment("handled")
        # no re-registration: render reads the live bag
        assert "clickinc_bagtest_handled_total 4" in registry.render()

    def test_render_is_valid_prometheus_text(self):
        registry = MetricsRegistry()
        counter = registry.counter("clickinc_fmt_total", "fmt",
                                   ("tenant",))
        counter.labels('we"ird\\ten\nant').inc(2)
        registry.gauge("clickinc_fmt_gauge", "gauge").set(1.5)
        registry.histogram("clickinc_fmt_seconds", "hist").observe(0.02)
        self.assert_prometheus_text(registry.render())

    @staticmethod
    def assert_prometheus_text(text: str) -> None:
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?'
            r" [-+]?([0-9.eE+-]+|[0-9]+|\+Inf|NaN)$")
        typed = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                parts = line.split(" ", 3)
                assert len(parts) >= 3, line
                if line.startswith("# TYPE "):
                    assert parts[3] in ("counter", "gauge", "histogram"), line
                    typed.add(parts[2])
                continue
            assert sample_re.match(line), f"bad sample line: {line!r}"
            base = line.split("{", 1)[0].split(" ", 1)[0]
            stripped = re.sub(r"_(total|bucket|sum|count)$", "", base)
            assert base in typed or stripped in typed, line

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("clickinc_off_total", "off").inc(5)
        registry.histogram("clickinc_off_seconds", "off").observe(1.0)
        assert registry.render() == ""


# ---------------------------------------------------------------------- #
# event log
# ---------------------------------------------------------------------- #
class TestEventLog:
    def test_ring_counts_and_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=str(path))
        for index in range(6):
            log.emit("tick", index=index)
        log.emit("other")
        assert log.counts() == {"tick": 6, "other": 1}
        recent = log.recent()
        assert len(recent) == 4                      # ring bound
        log.close()
        file_lines = path.read_text().splitlines()
        assert len(file_lines) == 7                  # file is unbounded
        assert json.loads(file_lines[0])["event"] == "tick"

    def test_disabled_log_emits_nothing(self):
        log = EventLog(enabled=False)
        assert log.emit("tick") is None
        assert log.recent() == [] and log.counts() == {}


# ---------------------------------------------------------------------- #
# tracing through a batch
# ---------------------------------------------------------------------- #
class TestBatchTracePropagation:
    def test_every_request_of_a_wave_gets_its_stage_spans(self):
        obs = Observability()
        topology = build_paper_emulation_topology()
        requests = [
            make_request(f"kvs_tr{i}", pod=i,
                         trace=obs.tracer.start_trace(
                             "deploy", program=f"kvs_tr{i}"))
            for i in range(3)
        ]
        with ClickINC(topology, obs=obs) as controller:
            reports = controller.deploy_many(requests)
        assert all(r.succeeded for r in reports)
        for request in requests:
            obs.tracer.finish(request.trace)
        for request in requests:
            done = obs.tracer.get(request.trace.trace_id)
            assert done is not None
            spans = {s.name: s for s in done["spans"]}
            assert {"deploy", "frontend", "ir-verify", "placement",
                    "synthesis", "emulator-install", "codegen"} == set(spans)
            # one process, and every stage span hangs off this trace's root
            assert len({s.proc for s in done["spans"]}) == 1
            root = spans.pop("deploy")
            assert all(s.parent_id == root.span_id for s in spans.values())
            chrome = obs.tracer.to_chrome(request.trace.trace_id)
            json.dumps(chrome)
            assert any(e["ph"] == "X" and e["name"] == "placement"
                       for e in chrome["traceEvents"])


# ---------------------------------------------------------------------- #
# gateway exposition + cross-shard 2PC tracing
# ---------------------------------------------------------------------- #
class TestGatewayObservability:
    def make_gateway(self, obs, **service_kwargs):
        registry = TenantRegistry()
        tenant = registry.register("acme", weight=1.0)
        service = INCService(build_fattree(k=4), sharded=True,
                             obs=obs, **service_kwargs)
        gateway = Gateway(service, registry, admin_key="s3cret", obs=obs)
        auth = {"Authorization": f"Bearer {tenant.api_key}"}
        return service, gateway, auth

    ADMIN = {"X-Admin-Key": "s3cret"}

    def submit_body(self, name, **extra):
        body = {"name": name, "app": "KVS",
                "source_groups": ["pod0(a)", "pod1(a)"],
                "destination_group": "pod2(b)"}
        body.update(extra)
        return json.dumps(body).encode()

    def test_cross_shard_submit_yields_one_complete_trace(self):
        async def scenario():
            obs = Observability()
            service, gateway, auth = self.make_gateway(obs)
            async with service:
                status, _h, payload = await gateway.handle(
                    "POST", "/v1/programs", auth, self.submit_body("kvs_x"))
                assert status == 200 and payload["succeeded"]
                status, _h, listing = await gateway.handle(
                    "GET", "/v1/traces", self.ADMIN)
                assert status == 200 and len(listing["traces"]) == 1
                trace_id = listing["traces"][0]["trace_id"]
                status, _h, chrome = await gateway.handle(
                    "GET", f"/v1/traces/{trace_id}", self.ADMIN)
                assert status == 200
                json.dumps(chrome)                     # valid JSON
                names = {e["name"] for e in chrome["traceEvents"]
                         if e["ph"] == "X"}
                assert {"request", "gateway.queue", "2pc.speculative",
                        "2pc.prepare", "2pc.commit", "frontend",
                        "emulator-install"} <= names
                await gateway.close()
            return obs

        obs = run(scenario())
        text = obs.registry.render()
        TestMetricsRegistry.assert_prometheus_text(text)
        assert 'clickinc_2pc_phase_seconds_count{phase="commit"} 1' in text
        assert re.search(
            r"clickinc_service_cross_shard_commits_total [1-9]", text)

    def test_metrics_endpoint_is_admin_only_prometheus_text(self):
        async def scenario():
            obs = Observability()
            service, gateway, auth = self.make_gateway(obs)
            async with service:
                status, _h, payload = await gateway.handle(
                    "POST", "/v1/programs", auth, self.submit_body("kvs_m"))
                assert status == 200 and payload["succeeded"]
                status, headers, text = await gateway.handle(
                    "GET", "/v1/metrics", self.ADMIN)
                assert status == 200
                assert headers["Content-Type"].startswith("text/plain")
                assert isinstance(text, str)
                TestMetricsRegistry.assert_prometheus_text(text)
                # the registry reads the same live counters as /v1/status
                _s, _h, summary = await gateway.handle(
                    "GET", "/v1/status", self.ADMIN)
                submitted = summary["tenants"]["acme"]["counters"]["submitted"]
                assert (f'clickinc_tenant_submitted_total{{tenant="acme"}}'
                        f" {submitted}") in text
                status, _h, denied = await gateway.handle(
                    "GET", "/v1/metrics", auth)
                assert status == 403 and denied["error"] == "forbidden"
                status, _h, denied = await gateway.handle(
                    "GET", "/v1/traces", auth)
                assert status == 403
                status, _h, missing = await gateway.handle(
                    "GET", "/v1/traces/deadbeef", self.ADMIN)
                assert status == 404
                await gateway.close()

        run(scenario())

    def test_intra_shard_submit_records_queue_wait_span(self):
        async def scenario():
            obs = Observability()
            service, gateway, auth = self.make_gateway(obs)
            async with service:
                body = self.submit_body(
                    "kvs_q", source_groups=["pod0(a)"],
                    destination_group="pod0(b)")
                status, _h, payload = await gateway.handle(
                    "POST", "/v1/programs", auth, body)
                assert status == 200 and payload["succeeded"]
                _s, _h, listing = await gateway.handle(
                    "GET", "/v1/traces", self.ADMIN)
                trace_id = listing["traces"][0]["trace_id"]
                done = obs.tracer.get(trace_id)
                names = {s.name for s in done["spans"]}
                assert {"queue.wait", "wave.execute",
                        "gateway.queue"} <= names
                await gateway.close()

        run(scenario())


# ---------------------------------------------------------------------- #
# data-plane engine telemetry
# ---------------------------------------------------------------------- #
class TestDataplaneTelemetry:
    def test_engine_counters_and_gauges_reach_the_registry(self):
        from repro.emulator.engine import TrafficEngine
        from repro.emulator.traffic import KVSWorkload

        obs = Observability()
        controller = ClickINC(build_fattree(k=4), generate_code=False)
        profile = default_profile("KVS", user="kvs_dp")
        controller.deploy_profile(profile, ["pod0(a)"], "pod0(b)",
                                  name="kvs_dp")
        engine = TrafficEngine(controller.emulator)
        engine.bind_metrics(obs)
        engine.add_source(
            "kvs_dp",
            KVSWorkload("pod0(a)", "pod0(b)", num_keys=100, owner="kvs_dp"),
            units_per_round=50)
        engine.run(rounds=2)
        text = obs.registry.render()
        TestMetricsRegistry.assert_prometheus_text(text)
        # engine round counters
        assert "clickinc_traffic_engine_rounds_total 2" in text
        assert "clickinc_traffic_engine_packets_total 100" in text
        # data-plane counter bag reads the live emulator stats
        assert re.search(
            r"clickinc_dataplane_packets_vectorized_total [1-9]", text)
        assert re.search(r"clickinc_dataplane_kernel_calls_total [1-9]", text)
        # last-round rate gauges, overall + labelled breakdowns
        assert re.search(r"clickinc_dataplane_pps [0-9.eE+]+", text)
        assert re.search(r"clickinc_dataplane_ips [0-9.eE+]+", text)
        assert 'clickinc_dataplane_device_pps{device="' in text
        assert 'clickinc_dataplane_program_pps{program="kvs_dp"}' in text
        # batch-size + kernel-compile histograms
        assert "clickinc_dataplane_batch_size_count 2" in text
        assert 'clickinc_dataplane_batch_size_bucket{le="64"} 2' in text
        assert "clickinc_dataplane_kernel_compile_seconds_count" in text


# ---------------------------------------------------------------------- #
# profiling + hub
# ---------------------------------------------------------------------- #
class TestProfilingIntegration:
    def test_live_placers_feed_the_registry(self):
        obs = Observability()
        topology = build_paper_emulation_topology()
        with ClickINC(topology, obs=obs) as controller:
            report = controller.deploy_many([make_request("kvs_prof")])[0]
            assert report.succeeded
            text = obs.registry.render()
        assert re.search(
            r"clickinc_placement_interval_evals_total [1-9]", text)
        assert 'clickinc_placement_stage_seconds_total{stage=' in text

    def test_disabled_hub_is_fully_inert(self):
        obs = Observability(enabled=False)
        assert not obs.enabled
        ctx = obs.tracer.start_trace("noop")
        obs.tracer.finish(ctx)
        assert obs.tracer.summaries() == []
        assert obs.registry.render() == ""
        assert obs.events.recent() == []
