#!/usr/bin/env python3
"""Replay a workload's control ops in process, straight on a coordinator.

    PYTHONPATH=src python3 tools/profile_ops.py --workload deploy_warm
    PYTHONPATH=src python3 tools/profile_ops.py --workload deploy_warm \\
        --prof 25

Builds the end-to-end benchmark's op script (``benchmarks.e2e.scripts``,
read only) and runs its submits, removes and updates against the stack the
gateway serves — ``ShardCoordinator`` over
``build_paper_emulation_topology()`` with the pod partition — with no wire,
no event loop and no traffic.  The prologue and the warm-up lap run
untimed; the measured laps print one line::

    deploy_warm seed 1: 1155 submits, 1155 removes, 0 updates in 2.357 s -> 490.0 submits/s

``--prof N`` runs the measured laps under cProfile and prints its top *N*
rows by internal time.  Run it on a parent and a changed checkout for a
per-layer before/after free of wire and traffic noise.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def replay(coordinator, ops, counts) -> None:
    from benchmarks.e2e.scripts import internal_name
    from benchmarks.e2e.stack import TENANTS
    from repro.gateway.wire import parse_submit_payload, parse_update_payload

    for op in ops:
        kind = op["op"]
        if kind not in counts:
            continue        # attach / round: traffic, not control
        name = internal_name(op["tenant"], op["name"])
        tenant_id = TENANTS[op["tenant"]][0]
        if kind == "submit":
            request, _ = parse_submit_payload(op["body"], tenant_id, name)
            report = coordinator.deploy(request)
            if not report.succeeded:
                raise SystemExit(f"{name}: {report.failed_stage}: "
                                 f"{report.error}")
        elif kind == "remove":
            coordinator.remove(name)
        else:
            coordinator.update(name, **parse_update_payload(op["body"],
                                                            tenant_id))
        counts[kind] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="deploy_warm")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="the benchmark's run length, which sets op "
                             "counts (default: 20)")
    parser.add_argument("--prof", type=int, default=0, metavar="N",
                        help="profile the measured laps; print the top N "
                             "rows by internal time")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.scripts import WARMUP_LAPS, build
    from repro.sharding import ShardCoordinator
    from repro.topology import build_paper_emulation_topology

    script = build(args.workload, args.seed, args.seconds)
    coordinator = ShardCoordinator(build_paper_emulation_topology())
    try:
        untimed = dict.fromkeys(("submit", "remove", "update"), 0)
        replay(coordinator, script["prologue"], untimed)
        for lap in script["laps"][:WARMUP_LAPS]:
            replay(coordinator, lap, untimed)
        counts = dict.fromkeys(("submit", "remove", "update"), 0)
        profiler = cProfile.Profile() if args.prof else None
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        for lap in script["laps"][WARMUP_LAPS:]:
            replay(coordinator, lap, counts)
        if profiler is not None:
            profiler.disable()
        elapsed = time.perf_counter() - started
    finally:
        coordinator.close()
    print(f"{args.workload} seed {args.seed}: {counts['submit']} submits, "
          f"{counts['remove']} removes, {counts['update']} updates in "
          f"{elapsed:.3f} s -> {counts['submit'] / elapsed:.1f} submits/s")
    if profiler is not None:
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.prof)
    return 0


if __name__ == "__main__":
    sys.exit(main())
