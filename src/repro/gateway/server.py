"""The wire-level gateway: HTTP/JSON front-end over :class:`INCService`.

Two layers, split so tests and docs can drive the protocol without sockets:

* :class:`Gateway` — the protocol core.  ``await gateway.handle(method,
  path, headers, body)`` speaks the whole wire protocol (auth → quota →
  weighted-fair admission → service submit → response rendering) and
  returns ``(status, headers, payload)``; the in-process test harness and
  the docs quickstart call it directly.
* :class:`GatewayHTTPServer` — a minimal stdlib HTTP/1.1 server
  (``asyncio.start_server``) that parses requests, delegates to
  :class:`Gateway.handle` and writes JSON responses.  No framework, no
  dependencies.

Endpoints (see ``docs/api.md`` for schemas and the error-code table):

=========================================  =================================
``POST   /v1/programs``                    submit a deployment (blocks until
                                           committed, failed, shed, or
                                           pushed back)
``GET    /v1/programs``                    list the tenant's programs
``DELETE /v1/programs/<name>``             remove a program
``POST   /v1/programs/<name>/update``      rolling update (atomic swap)
``GET    /v1/status``                      tenant counters, quota usage,
                                           lane queue depths (admins: full
                                           service summary)
``POST   /v1/drain``                       admin: quiesce scheduler+service
=========================================  =================================

Program names are tenant-scoped on the wire and prefixed internally
(``<tenant>.<name>``), so two tenants' ``kvs0`` never collide and a tenant
can never name — much less remove — another tenant's program.

Run a standalone gateway with::

    PYTHONPATH=src python -m repro.gateway.server --port 8080 \\
        --tenants tenants.json --k 4 --sharded
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from typing import Dict, Optional, Tuple

from repro.core.pipeline import PipelineReport, complete_report
from repro.core.service import INCService
from repro.exceptions import ClickINCError, DeploymentError
from repro.gateway.auth import Tenant, TenantRegistry
from repro.obs import Observability
from repro.obs.metrics import Sample
from repro.gateway.quota import QuotaLedger
from repro.gateway.scheduler import AdmissionTicket, WeightedFairScheduler
from repro.gateway.wire import (
    WireError,
    bad_request,
    parse_submit_payload,
    parse_update_payload,
    parse_wire_name,
    report_payload,
)

__all__ = ["Gateway", "GatewayHTTPServer"]

#: (status, extra headers, payload) — the payload is a JSON-able dict for
#: every endpoint except ``GET /v1/metrics``, whose payload is the
#: Prometheus text exposition as a plain string
Response = Tuple[int, Dict[str, str], object]

#: Largest request body the HTTP server will buffer (bytes); the submits of
#: the end-to-end benchmark are < 10 KB, so 1 MiB is > 100x headroom
MAX_BODY_BYTES = 1 << 20

#: Longest request line or header line the HTTP server reads (bytes); it is
#: the stream's buffer limit, past which ``readline`` gives up on the line
MAX_HEAD_LINE_BYTES = 1 << 16

#: Most header lines one request may carry
MAX_HEADERS = 100

#: Most seconds from a request's first byte to the end of its body; a client
#: that stalls mid-request past it gets 408 and loses the connection.  An
#: idle keep-alive connection *between* requests is not bounded.
REQUEST_READ_TIMEOUT_S = 10.0


def _head_too_large() -> WireError:
    return WireError(
        431, "request_header_fields_too_large",
        "the request line and each header line must fit in"
        f" {MAX_HEAD_LINE_BYTES} bytes, and a request may carry at most"
        f" {MAX_HEADERS} headers")


class Gateway:
    """The multi-tenant protocol core over one :class:`INCService`.

    Parameters
    ----------
    service:
        The (started or startable) service to front.  The gateway does not
        own it; close order is gateway first, then service.
    registry:
        Tenant identities, weights and quota envelopes.
    queue_capacity / wave:
        Admission-scheduler bounds: per-lane queue bound (backpressure
        beyond it) and tickets dispatched per scheduling round.
    admin_key:
        Shared secret for the operator endpoints (``/v1/drain``, full
        ``/v1/status``); ``None`` disables them.
    """

    def __init__(self, service: INCService, registry: TenantRegistry, *,
                 queue_capacity: int = 64, wave: int = 4,
                 admin_key: Optional[str] = None,
                 obs: Optional[Observability] = None) -> None:
        self.service = service
        self.registry = registry
        self.ledger = QuotaLedger(self._devices_of)
        self.obs = obs if obs is not None \
            else getattr(service, "obs", None) or Observability.default()
        self.scheduler = WeightedFairScheduler(
            self._dispatch, capacity=queue_capacity, wave=wave,
            events=self.obs.events,
        )
        self.admin_key = admin_key
        self.obs.registry.register_collector(
            self._gateway_samples, key=("gateway", id(self))
        )

    # ------------------------------------------------------------------ #
    # request entry point
    # ------------------------------------------------------------------ #
    async def handle(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes = b"") -> Response:
        """Serve one wire request; never raises (errors become responses)."""
        try:
            payload = None
            if body:
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    raise bad_request("the request body is not valid JSON")
            return await self._route(method.upper(), path, headers, payload)
        except WireError as exc:
            extra: Dict[str, str] = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:.3f}"
            return exc.status, extra, exc.payload()

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     payload) -> Response:
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise WireError(404, "not_found", f"unknown path {path!r}")
        if parts[1:] == ["programs"]:
            if method == "POST":
                return await self._submit(headers, payload)
            if method == "GET":
                tenant = self.registry.authenticate(headers)
                return 200, {}, {"programs": self.ledger.programs(tenant)}
            raise WireError(405, "method_not_allowed",
                            f"{method} not supported on {path!r}")
        if len(parts) == 3 and parts[1] == "programs":
            if method == "DELETE":
                return await self._remove(headers, parts[2])
            raise WireError(405, "method_not_allowed",
                            f"{method} not supported on {path!r}")
        if len(parts) == 4 and parts[1] == "programs" and parts[3] == "update":
            if method == "POST":
                return await self._update(headers, parts[2], payload)
            raise WireError(405, "method_not_allowed",
                            f"{method} not supported on {path!r}")
        if parts[1:] == ["status"] and method == "GET":
            return self._status(headers)
        if parts[1:] == ["metrics"] and method == "GET":
            self._require_admin(headers)
            return 200, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }, self.obs.registry.render()
        if parts[1:2] == ["traces"] and method == "GET":
            self._require_admin(headers)
            if len(parts) == 2:
                return 200, {}, {"traces": self.obs.tracer.summaries()}
            if len(parts) == 3:
                chrome = self.obs.tracer.to_chrome(parts[2])
                if chrome is None:
                    raise WireError(404, "not_found",
                                    f"no completed trace {parts[2]!r}")
                return 200, {}, chrome
        if parts[1:] == ["drain"] and method == "POST":
            self._require_admin(headers)
            await self.scheduler.drain()
            await self.service.drain()
            return 200, {}, {"drained": True}
        raise WireError(404, "not_found", f"unknown path {path!r}")

    # ------------------------------------------------------------------ #
    # submission: auth -> quota -> weighted-fair admission -> service
    # ------------------------------------------------------------------ #
    def _internal_name(self, tenant: Tenant, wire_name: str) -> str:
        return f"{tenant.tenant_id}.{wire_name}"

    @staticmethod
    def _wire_name(internal_name: str) -> str:
        return internal_name.split(".", 1)[1]

    def _devices_of(self, tenant: Tenant, wire_name: str) -> int:
        """Devices a committed program occupies now, read from the registry
        of the controller hosting it (0 once it is gone)."""
        name = self._internal_name(tenant, wire_name)
        try:
            controller = self.service.coordinator.controller_for(name)
        except DeploymentError:
            return 0
        deployed = controller.deployed.get(name)
        return len(deployed.devices()) if deployed is not None else 0

    async def _submit(self, headers: Dict[str, str], payload) -> Response:
        tenant = self.registry.authenticate(headers)
        if not isinstance(payload, dict):
            raise bad_request("the request body must be a JSON object")
        wire_name = parse_wire_name(payload.get("name"))
        request, deadline_s = parse_submit_payload(
            payload, tenant.tenant_id, self._internal_name(tenant, wire_name)
        )
        lane = self.service.lane_of(request)
        if lane is None:
            raise bad_request(
                "the request's host groups cannot be routed on this fabric"
            )
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        try:
            self.ledger.reserve(tenant, wire_name)
        except WireError as exc:
            if exc.code == "quota_exceeded":
                tenant.counters.increment("rejected_quota")
            raise
        # the gateway owns the trace for wire submissions: the service
        # sees a non-None context and only adds child spans to it
        ctx = self.obs.tracer.start_trace(
            "request", program=wire_name, tenant=tenant.tenant_id, lane=lane)
        request.trace = ctx
        try:
            future = self.scheduler.enqueue(lane, tenant, request,
                                            deadline=deadline)
        except WireError as exc:
            self.ledger.release_reservation(tenant)
            if exc.code == "backpressure":
                tenant.counters.increment("rejected_backpressure")
            self.obs.tracer.finish(ctx, status=exc.code)
            raise
        tenant.counters.increment("submitted")
        try:
            response = await future
        except WireError as exc:
            # shed / closed tickets never reached _dispatch, so their
            # reservation is still open; everything _dispatch ran settles
            # its own reservation before raising
            if exc.code in ("shed", "closed"):
                self.ledger.release_reservation(tenant)
            self.obs.tracer.finish(ctx, status=exc.code)
            raise
        except Exception:
            self.obs.tracer.finish(ctx, status="error")
            raise
        self.obs.tracer.finish(ctx, status="ok")
        return response

    async def _dispatch(self, ticket: AdmissionTicket) -> Response:
        """Scheduler callback: run one admitted submission to completion."""
        tenant = ticket.tenant
        waited = time.monotonic() - ticket.enqueued_at
        ctx = getattr(ticket.request, "trace", None)
        if ctx is not None:
            self.obs.tracer.emit(ctx, "gateway.queue", waited,
                                 lane=ticket.lane, tenant=tenant.tenant_id)
        if ticket.deadline is not None and time.monotonic() > ticket.deadline:
            # expired while queued at the gateway: don't spend service time
            self.ledger.release_reservation(tenant)
            tenant.counters.increment("deadline_expired")
            self.obs.events.emit(
                "deadline_expired", where="gateway-queue", lane=ticket.lane,
                tenant=tenant.tenant_id)
            raise WireError(504, "deadline_expired",
                            "the submission's deadline passed while it was"
                            " queued at the gateway")
        report = await self.service.submit(ticket.request,
                                           deadline=ticket.deadline)
        wire_name = self._wire_name(ticket.request.resolved_name())
        if report.succeeded:
            self.ledger.commit(tenant, wire_name)
            tenant.counters.increment("committed")
            return 200, {}, report_payload(report, wire_name)
        self.ledger.release_reservation(tenant)
        if report.failed_stage == "deadline":
            tenant.counters.increment("deadline_expired")
            raise WireError(504, "deadline_expired",
                            report.error or "the submission's deadline"
                            " passed before it committed")
        tenant.counters.increment("failed")
        return 200, {}, report_payload(report, wire_name)

    # ------------------------------------------------------------------ #
    # removal / update
    # ------------------------------------------------------------------ #
    def _owned_internal(self, tenant: Tenant, wire_name: str) -> str:
        # unknown and other-tenant names are indistinguishable on purpose
        if not self.ledger.owns(tenant, wire_name):
            raise WireError(404, "not_found",
                            f"no program named {wire_name!r}")
        return self._internal_name(tenant, wire_name)

    async def _remove(self, headers: Dict[str, str],
                      wire_name: str) -> Response:
        tenant = self.registry.authenticate(headers)
        internal = self._owned_internal(tenant, parse_wire_name(wire_name))
        await self.service.remove(internal)
        self.ledger.release_program(tenant, wire_name)
        tenant.counters.increment("removed")
        return 200, {}, {"removed": wire_name}

    async def _update(self, headers: Dict[str, str], wire_name: str,
                      payload) -> Response:
        tenant = self.registry.authenticate(headers)
        internal = self._owned_internal(tenant, parse_wire_name(wire_name))
        kwargs = parse_update_payload(payload or {}, tenant.tenant_id)
        started = time.perf_counter()
        try:
            report = await self.service.update(internal, **kwargs)
        except ClickINCError as exc:
            # the swap kept the old version: the request was served and the
            # update failed, reported in the shape of a failed submit
            report = complete_report(PipelineReport(program_name=internal),
                                     started, exception=exc)
        return 200, {}, report_payload(report, wire_name)

    # ------------------------------------------------------------------ #
    # status + lifecycle
    # ------------------------------------------------------------------ #
    def _is_admin(self, headers: Dict[str, str]) -> bool:
        if self.admin_key is None:
            return False
        lowered = {k.lower(): v for k, v in headers.items()}
        return lowered.get("x-admin-key") == self.admin_key

    def _require_admin(self, headers: Dict[str, str]) -> None:
        if not self._is_admin(headers):
            raise WireError(403, "forbidden",
                            "this endpoint requires X-Admin-Key")

    def _status(self, headers: Dict[str, str]) -> Response:
        if self._is_admin(headers):
            return 200, {}, self.gateway_summary()
        tenant = self.registry.authenticate(headers)
        return 200, {}, {
            "tenant": tenant.tenant_id,
            "weight": tenant.weight,
            "counters": tenant.counters.summary(),
            "usage": self.ledger.usage_summary(tenant),
            "queue_depths": self.scheduler.queue_depths(),
        }

    def _gateway_samples(self):
        """Render-time collector: tenant counters + per-lane queue state.

        Reads the same live objects ``/v1/status`` and
        :meth:`gateway_summary` read, so the Prometheus view can never
        drift from the JSON views.
        """
        samples = []
        for tenant in self.registry.tenants():
            for name, value in sorted(tenant.counters.counters().items()):
                samples.append(Sample(
                    f"clickinc_tenant_{name}_total",
                    {"tenant": tenant.tenant_id}, value, "counter",
                    "Per-tenant gateway outcome counters"))
        for key, lane in sorted(self.scheduler._lanes.items()):
            samples.append(Sample(
                "clickinc_gateway_lane_depth", {"lane": key},
                float(lane.queued), "gauge",
                "Submissions queued in this admission lane"))
            samples.append(Sample(
                "clickinc_gateway_lane_service_seconds", {"lane": key},
                lane.service_ewma_s, "gauge",
                "EWMA seconds per served submission (Retry-After basis)"))
        return samples

    def gateway_summary(self) -> Dict[str, object]:
        """Operator view: every tenant's counters plus the service summary."""
        return {
            "queue_depths": self.scheduler.queue_depths(),
            "tenants": {
                tenant.tenant_id: {
                    "weight": tenant.weight,
                    "counters": tenant.counters.summary(),
                    "usage": self.ledger.usage_summary(tenant),
                }
                for tenant in self.registry.tenants()
            },
            "service": self.service.service_summary(),
        }

    async def close(self) -> None:
        """Stop admitting; queued submissions fail 503.  The service stays
        up (its owner closes it) so in-flight work always completes."""
        await self.scheduler.close()


class GatewayHTTPServer:
    """Minimal stdlib HTTP/1.1 wrapper around :class:`Gateway.handle`."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: Optional["asyncio.base_events.Server"] = None

    async def start(self) -> "GatewayHTTPServer":
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port,
            limit=MAX_HEAD_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayHTTPServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.stop()

    async def _serve_client(self, reader: "asyncio.StreamReader",
                            writer: "asyncio.StreamWriter") -> None:
        try:
            while True:
                first = await reader.read(1)  # idle between requests: unbounded
                if not first:
                    break
                try:
                    method, path, headers, body = await asyncio.wait_for(
                        self._read_request(reader, first),
                        REQUEST_READ_TIMEOUT_S)
                except asyncio.TimeoutError:
                    await self._write(writer, 408, {}, {
                        "error": "request_timeout",
                        "message": "the request was not received within "
                                   f"{REQUEST_READ_TIMEOUT_S} s of its "
                                   "first byte",
                    })
                    break
                except WireError as exc:
                    # the rest of the request is never read, so the stream
                    # cannot be re-synchronised: answer, then drop the
                    # connection
                    await self._write(writer, exc.status, {}, exc.payload())
                    break
                status, extra, payload = await self.gateway.handle(
                    method, path, headers, body
                )
                keep_alive = (headers.get("Connection", "").lower()
                              != "close")
                await self._write(writer, status, extra, payload,
                                  keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    @staticmethod
    async def _read_request(reader: "asyncio.StreamReader", first: bytes
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        """``(method, path, headers, body)`` of the request whose first
        byte, *first*, was already read.

        Raises :class:`WireError` 400 for a malformed request line or a
        ``Content-Length`` that is not a non-negative integer, 413 for one
        past :data:`MAX_BODY_BYTES` (the body is then never read), and 431
        for a line past :data:`MAX_HEAD_LINE_BYTES` or a request with more
        than :data:`MAX_HEADERS` header lines.
        """
        async def readline() -> bytes:
            try:
                return await reader.readline()
            except ValueError:  # the line ran past the stream limit
                raise _head_too_large() from None

        request_line = first + await readline()
        try:
            method, path, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise bad_request("malformed request line") from None
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):  # the headers, then the blank line
            line = await readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip()] = value.strip()
        else:
            raise _head_too_large()
        try:
            length = int(headers.get("Content-Length") or "0")
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise WireError(
                400 if length < 0 else 413,
                "bad_request" if length < 0 else "payload_too_large",
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    _STATUS_TEXT = {
        200: "OK", 400: "Bad Request", 401: "Unauthorized",
        403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
        408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
        429: "Too Many Requests", 431: "Request Header Fields Too Large",
        503: "Service Unavailable", 504: "Gateway Timeout",
    }

    async def _write(self, writer: "asyncio.StreamWriter", status: int,
                     extra: Dict[str, str], payload,
                     keep_alive: bool = False) -> None:
        extra = dict(extra)
        if isinstance(payload, str):
            # the metrics endpoint serves Prometheus text, not JSON
            body = payload.encode("utf-8")
            content_type = extra.pop("Content-Type",
                                     "text/plain; charset=utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = self._STATUS_TEXT.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()


# ---------------------------------------------------------------------- #
# standalone entry point
# ---------------------------------------------------------------------- #
def _build_topology(args):
    if args.topology == "fattree":
        from repro.topology import build_fattree
        return build_fattree(k=args.k)
    from repro.topology import build_paper_emulation_topology
    return build_paper_emulation_topology()


async def _serve(args) -> None:
    import pathlib

    topology = _build_topology(args)
    if args.tenants:
        entries = json.loads(pathlib.Path(args.tenants).read_text())
        registry = TenantRegistry.from_config(entries)
    else:
        registry = TenantRegistry()
        tenant = registry.register("tenant0")
        print(f"no --tenants file: registered 'tenant0' with API key"
              f" {tenant.api_key}")
    async with INCService(topology, sharded=args.sharded) as service:
        gateway = Gateway(service, registry,
                          queue_capacity=args.queue_capacity,
                          admin_key=args.admin_key)
        async with GatewayHTTPServer(gateway, args.host, args.port) as http:
            print(f"gateway listening on http://{http.host}:{http.port}/v1/")
            try:
                await asyncio.Event().wait()          # serve until killed
            finally:
                await gateway.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--topology", choices=("fattree", "paper"),
                        default="fattree")
    parser.add_argument("--k", type=int, default=4,
                        help="fat-tree arity (fattree topology)")
    parser.add_argument("--sharded", action="store_true",
                        help="shard the controller per pod")
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--admin-key", default=None)
    parser.add_argument("--tenants", default=None,
                        help="JSON tenant config (see TenantRegistry"
                             ".from_config)")
    args = parser.parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
