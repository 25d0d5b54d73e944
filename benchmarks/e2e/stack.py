"""Boot the real stack in-process and reach it over one HTTP connection.

``Stack`` builds exactly what ``python -m repro.gateway.server --topology
paper --sharded`` serves: ``build_paper_emulation_topology()`` ->
``INCService(topology, sharded=True)`` (every other argument at its
default, so shard workers stay in-process) -> ``Gateway`` with four
equal-weight tenants -> ``GatewayHTTPServer`` on a loopback port.  The
server runs on its own thread and event loop; the benchmark's main thread
is the only client.

Run as ``python -m benchmarks.e2e.stack`` the module is one *boot sample*:
a fresh interpreter boots the stack, answers one ``GET /v1/status`` and
prints ``ready``.  :func:`boot_seconds` times that from the outside.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

from benchmarks.e2e import ROOT

#: (tenant id, API key) of the four equal-weight tenants
TENANTS = tuple((f"tenant{i}", f"key-tenant{i}") for i in range(4))


class Stack:
    """The served stack; ``close()`` it after the client."""

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._serve, name="e2e-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    def _serve(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __init__ or close()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        from repro.core.service import INCService
        from repro.gateway import Gateway, GatewayHTTPServer, TenantRegistry
        from repro.topology import build_paper_emulation_topology

        registry = TenantRegistry()
        for tenant_id, api_key in TENANTS:
            registry.register(tenant_id, api_key=api_key, weight=1.0)
        self.topology = build_paper_emulation_topology()
        async with INCService(self.topology, sharded=True) as service:
            self.service = service
            self.coordinator = service.coordinator
            self.gateway = Gateway(service, registry)
            async with GatewayHTTPServer(self.gateway, port=0) as server:
                self.port = server.port
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                self._ready.set()
                await self._stop.wait()
            await self.gateway.close()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        if self._error is not None:
            raise self._error


class Client:
    """One closed-loop keep-alive connection, any tenant per request."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port)

    def call(self, method: str, path: str, tenant: int,
             payload: Optional[dict] = None) -> Tuple[int, dict, float, float]:
        """One round trip: ``(status, JSON body, written_at, parsed_at)``."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Authorization": f"Bearer {TENANTS[tenant][1]}"}
        written_at = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = json.loads(response.read())
        return response.status, data, written_at, time.perf_counter()

    def close(self) -> None:
        self._conn.close()


def boot_seconds(samples: int) -> Tuple[float, List[float]]:
    """Median and readings of *samples* fresh-interpreter boots.

    Each reading runs from spawning the interpreter to its ``ready`` line:
    interpreter start, ``import repro``, topology, service, gateway, socket
    bound, first ``GET /v1/status`` answered.
    """
    readings = []
    for _ in range(samples):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.stack"], cwd=ROOT,
                stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            readings.append(time.perf_counter() - started)
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"boot sample failed: {line!r},"
                               f" exit code {child.returncode}")
    return statistics.median(readings), readings


def _boot_sample() -> None:
    stack = Stack()
    client = Client(stack.port)
    try:
        status, _body, _, _ = client.call("GET", "/v1/status", 0)
        if status != 200:
            raise RuntimeError(f"GET /v1/status answered {status}")
        print("ready", flush=True)
    finally:
        client.close()
        stack.close()


if __name__ == "__main__":
    _boot_sample()
