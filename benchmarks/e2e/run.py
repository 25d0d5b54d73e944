#!/usr/bin/env python3
"""The end-to-end benchmark: HTTP submit -> commit -> traffic.

One workload, one run::

    python3 benchmarks/e2e/run.py --workload deploy_cold --seed 1 \\
        --seconds 20 --trace 0

boots the real stack in-process, drives the seeded script (one untimed
warm-up lap, then five identical measured laps) and prints one JSON
object as the last line of stdout: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced lap with ``--trace 1``.  The line before
it carries the details (script hash, failures by stage, per-lap numbers).

Without ``--workload`` every workload runs untraced, then traced, each in
a fresh interpreter; a table per metric family is printed and ``--output``
gets the full ledger.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from collections import Counter
from typing import Dict, List

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # one deterministic interpreter for the run and everything it spawns
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import ROOT, scripts, trace  # noqa: E402
from benchmarks.e2e.laps import (Runner, metrics_digest,  # noqa: E402
                                 percentile)
from benchmarks.e2e.scripts import WARMUP_LAPS, WORKLOADS  # noqa: E402
from benchmarks.e2e.stack import Stack, boot_seconds  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python + numpy loop: the host's speed."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    column = np.arange(200_000, dtype=np.int64)
    for _ in range(20):
        column = (column * 3 + total) % 1_000_003
    return (time.perf_counter() - started) * 1e3


def _check(stats, errors: List[str], where: str) -> None:
    for stage, count in stats.failures.items():
        errors.append(f"{where}: {count} x {stage}: {stats.examples[stage]}")


def _lap_summary(stats) -> dict:
    return {
        "committed": stats.committed,
        "submit_p50_ms": round(percentile(stats.submit_s, 0.50) * 1e3, 3),
        "control_s": round(stats.control_s, 4),
        "packets": stats.packets,
        "traffic_s": round(stats.traffic_s, 4),
        "busy_s": round(stats.busy_s, 4),
    }


def measure_end_to_end(script: dict) -> dict:
    setup_s, boots = boot_seconds(1 if script["smoke"] else 5)
    errors: List[str] = []
    stack = Stack()
    runner = Runner(stack)
    laps = []
    try:
        everything = [runner.run(script["prologue"])]
        _check(everything[0], errors, "prologue")
        for number, ops in enumerate(script["laps"]):
            gc.collect()
            stats = runner.run(ops)
            everything.append(stats)
            _check(stats, errors, f"lap {number}")
            errors.extend(f"after lap {number}: {problem}"
                          for problem in runner.state_errors())
            if number >= WARMUP_LAPS:
                laps.append(stats)
    finally:
        runner.close()
        stack.close()
    # deploy_cold's programs differ by a knob per lap; only counts repeat
    exact = script["workload"] != "deploy_cold"
    if len({metrics_digest(stats.round_metrics, exact)
            for stats in laps}) != 1:
        errors.append("per-lap RunMetrics differ between laps")

    submits = [s for stats in laps for s in stats.submit_s]
    first_packets = [s for stats in laps for s in stats.first_packet_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "submit_p50_ms": (percentile(submits, 0.50) * 1e3, "ms"),
        "deploys_per_s": (statistics.median(
            stats.committed / stats.control_s for stats in laps), "1/s"),
        "dataplane_pps": (statistics.median(
            stats.packets / stats.traffic_s for stats in laps), "pkt/s"),
        "first_packet_p50_ms": (percentile(first_packets, 0.50) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {
        "attempted": sum(stats.attempted for stats in everything),
        "failures": _failures(everything),
        "errors": errors,
        "metrics": metrics,
        "details": {"boots_s": [round(b, 4) for b in boots],
                    "submit_samples": len(submits),
                    "first_packet_samples": len(first_packets),
                    "laps": [_lap_summary(stats) for stats in laps]},
    }


def _failures(all_stats) -> Dict[str, int]:
    return dict(sum((stats.failures for stats in all_stats), Counter()))


def measure_per_layer(script: dict, trace_path: Path) -> dict:
    calibrations = [calibrate() for _ in range(3)]
    errors: List[str] = []
    stack = Stack()
    runner = Runner(stack)
    try:
        # warm-up, reference laps without wrappers, then the traced lap
        *plain, traced_ops = script["laps"][:WARMUP_LAPS + 3]
        everything = [runner.run(script["prologue"])]
        for ops in plain:
            gc.collect()
            everything.append(runner.run(ops))
        reference = everything[1 + WARMUP_LAPS:]
        collect_started = time.perf_counter()
        gc.collect()
        collect_ms = (time.perf_counter() - collect_started) * 1e3
        spans: list = []
        before = trace.counters(stack)
        uninstall = trace.install(spans)
        try:
            traced = runner.run(traced_ops)
        finally:
            uninstall()
        after = trace.counters(stack)
        everything.append(traced)
        for number, stats in enumerate(everything):
            _check(stats, errors, f"run {number}")
        errors.extend(runner.state_errors())

        tree = trace.SpanTree(spans, traced.log)
        delta = {key: after[key] - before[key] for key in after}
        metrics = trace.layer_metrics(tree, traced, delta)
        trace.write_chrome_trace(trace_path, tree)

        sources = next(op for op in traced_ops
                       if op["op"] == "attach")["sources"]
        scale = 1 if script["smoke"] else max(1.0, script["seconds"] / 3.0)
        revived = runner.revive(traced_ops, sources)
        pps = trace.isolation_pps(runner, sources, rounds=round(1 * scale))
        decay = trace.mlagg_decay_ratio(runner, sources,
                                        rounds=round(5 * scale))
        runner.run([{"op": "remove", "tenant": op["tenant"],
                     "name": op["name"]} for op in revived])
        errors.extend(trace.twin_errors(script, traced_ops, traced,
                                        rounds=2 if script["smoke"] else 5))
    finally:
        runner.close()
        stack.close()
    calibrations.extend(calibrate() for _ in range(3))

    for kind, name in (("KVS", "kvs"), ("MLAgg", "mlagg"), ("DQAcc", "dqacc"),
                       ("SparseMLAgg", "sparse_mlagg")):
        metrics[f"emulator.pps.{name}"] = (pps.get(kind, 0.0), "pkt/s")
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                 resource.RUSAGE_CHILDREN)]
    reference_submits = [s for stats in reference for s in stats.submit_s]
    metrics.update({
        "gateway.submit_p95_ms": (
            percentile(reference_submits, 0.95) * 1e3, "ms"),
        "emulator.mlagg_decay_ratio": (decay, "x"),
        "harness.trace_overhead_ratio": (
            traced.busy_s / statistics.median(
                stats.busy_s for stats in reference), "x"),
        "harness.gc_collect_ms": (collect_ms, "ms"),
        "harness.cpu_s": (sum(u.ru_utime + u.ru_stime for u in usage), "s"),
        "harness.calib_ms": (statistics.median(calibrations), "ms"),
    })
    return {
        "attempted": sum(stats.attempted for stats in everything),
        "failures": _failures(everything),
        "errors": errors,
        "metrics": metrics,
        "details": {"spans": len(spans), "chrome_trace": str(trace_path),
                    "reference_submit_samples": len(reference_submits),
                    "traced_lap": _lap_summary(traced),
                    "calibrations_ms": [round(c, 3) for c in calibrations]},
    }


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def run_one(args) -> int:
    script = scripts.build(args.workload, args.seed, args.seconds,
                           smoke=args.smoke)
    if args.trace:
        outcome = measure_per_layer(
            script, ROOT / "benchmarks" / "e2e" / "out"
            / f"trace-{args.workload}-{args.seed}.json")
    else:
        outcome = measure_end_to_end(script)
    failed = sum(outcome["failures"].values())
    details = dict(outcome["details"], workload=args.workload,
                   seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                   script_sha256=script["sha256"], sizes=script["sizes"],
                   failures=outcome["failures"], errors=outcome["errors"])
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not outcome["errors"] and failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    spec = declared()
    ledger: Dict[str, dict] = {}
    problems: List[str] = []
    for trace_flag, family in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace_flag)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append(f"{workload} --trace {trace_flag}: exit code"
                                f" {done.returncode}")
                continue
            result = json.loads(lines[-1])
            ledger.setdefault(workload, {})[family] = dict(
                result, details=json.loads(lines[-2])["details"])
            if not result["correct"]:
                problems.append(f"{workload} --trace {trace_flag}: incorrect:"
                                f" {ledger[workload][family]['details']}")
            for metric in spec[family]:
                if metric["name"] not in result["metrics"]:
                    problems.append(f"{workload} --trace {trace_flag}:"
                                    f" missing {metric['name']}")
    names = [m["name"] for m in spec["end_to_end"]]
    _print_table("end to end", ["workload"] + names, [
        [w] + [_cell(ledger, w, "end_to_end", n) for n in names]
        for w in WORKLOADS])
    _print_table("per layer (one traced lap)", ["metric"] + list(WORKLOADS), [
        [m["name"]] + [_cell(ledger, w, "per_layer", m["name"])
                       for w in WORKLOADS] for m in spec["per_layer"]])
    if args.output:
        Path(args.output).write_text(json.dumps(ledger, indent=1))
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cell(ledger: dict, workload: str, family: str, name: str) -> str:
    metric = ledger.get(workload, {}).get(family, {}).get(
        "metrics", {}).get(name)
    return "-" if metric is None else f"{metric['value']:.4g}"


def _print_table(title: str, headers: List[str], rows: List[list]) -> None:
    widths = [max(len(str(row[i])) for row in [headers] + rows)
              for i in range(len(headers))]
    print(f"\n=== {title} ===")
    for row in [headers] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run; scales op counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one boot sample (for tests)")
    parser.add_argument("--output", help="ledger file (all-workloads mode)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("src/repro is missing: nothing to benchmark", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
