"""``python -m repro.obs`` — run a demo wave and dump the telemetry.

Deploys a handful of template programs (one of them cross-pod) through a
:class:`~repro.core.ClickINC` controller wired to a fresh
:class:`~repro.obs.Observability` hub, then prints the metrics registry,
the completed-trace ring and the event log.  ``--format prom`` prints the
Prometheus text exposition instead of JSON (the same bytes the gateway's
``GET /v1/metrics`` serves).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.obs import Observability


def _demo(controller) -> List[str]:
    from repro.core.pipeline import DeployRequest
    from repro.lang.profile import default_profile

    obs = controller.obs
    requests = []
    for index, app in enumerate(("KVS", "MLAgg", "KVS")):
        pod = index % 3
        requests.append(DeployRequest(
            source_groups=[f"pod{pod}(a)", f"pod{(pod + 1) % 3}(a)"],
            destination_group=f"pod{(pod + 2) % 3}(b)",
            name=f"{app.lower()}_obs_{index}",
            profile=default_profile(app),
            trace=obs.tracer.start_trace("deploy", program=f"{app.lower()}_obs_{index}"),
        ))
    reports = controller.deploy_many(requests)
    for request, report in zip(requests, reports):
        obs.tracer.finish(request.trace,
                          status="ok" if report.succeeded else "error")
    return [r.program_name for r in reports if r.succeeded]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="dump ClickINC telemetry after a demo deployment wave")
    parser.add_argument("--format", choices=("json", "prom"), default="json",
                        help="output format (default: json)")
    parser.add_argument("--traces", type=int, default=8,
                        help="max trace summaries to include")
    args = parser.parse_args(argv)

    from repro.core import ClickINC
    from repro.topology.fattree import build_paper_emulation_topology

    obs = Observability()
    # the closed controller stays referenced until the dump is written: the
    # clickinc_placement_* collector reads live placers only
    with ClickINC(build_paper_emulation_topology(), obs=obs) as controller:
        deployed = _demo(controller)

    if args.format == "prom":
        sys.stdout.write(obs.registry.render())
        return 0
    dump = {
        "deployed": deployed,
        "metrics": obs.registry.snapshot(),
        "traces": obs.tracer.summaries()[: args.traces],
        "events": obs.events.recent(),
    }
    print(json.dumps(dump, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
