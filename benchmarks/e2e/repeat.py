#!/usr/bin/env python3
"""How repeatable is the benchmark?  N sets of M runs per workload.

    python3 benchmarks/e2e/repeat.py --sets 3 --runs 10 \\
        --output benchmarks/e2e/REPEATABILITY.md

Every run is ``run.py --trace 0`` in a fresh interpreter; run *k* of every
set uses seed *k*, and the workload order alternates between sets.  Per
workload and end-to-end metric the report gives each set's median, the
widest quartile spread of a set (distance between the first and third
quartile over the median, as ``statistics.quantiles(values, n=4)`` gives
them) and the largest median-to-median gap between two sets, next to the
bound ``BENCHMARK.json`` declares.  The builder sets the bounds with it;
a reviewer checks them with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import ROOT  # noqa: E402
from benchmarks.e2e.scripts import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    command = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {done.stdout[-2000:]}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: List[float]) -> float:
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def report(spec: dict, sets: List[Dict[str, List[Dict[str, float]]]],
           seconds: float, elapsed_s: float) -> str:
    runs = len(next(iter(sets[0].values())))
    lines = [
        "# Repeatability of the end-to-end benchmark",
        "",
        f"`repeat.py --sets {len(sets)} --runs {runs} --seconds {seconds:g}`"
        f" on {time.strftime('%Y-%m-%d')}, {elapsed_s / 60:.0f} minutes;"
        " seeds 1.." f"{runs} in every set, workload order alternating.",
        "",
        "`spread` is the widest (Q3 - Q1) / median of a set; `gap` is the"
        " largest difference between two sets' medians over the smaller"
        " one.  `ok` wants spread <= bound and gap <= bound / 2; a `*` marks"
        " a spread above a third of the bound (little margin).",
        "",
    ]
    for workload in sets[0]:
        lines += [f"## {workload}", "",
                  "| metric | " + " | ".join(
                      f"median {i + 1}" for i in range(len(sets)))
                  + " | spread | gap | bound | ok |",
                  "|---|" + "---:|" * (len(sets) + 3) + "---|"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(run[name] for run in s[workload])
                       for s in sets]
            widest = max(spread([run[name] for run in s[workload]])
                         for s in sets)
            gap = (max(medians) - min(medians)) / min(medians)
            steady = widest <= bound and gap <= bound / 2
            mark = "*" if widest > bound / 3 else ""
            lines.append(
                f"| `{name}` | "
                + " | ".join(f"{m:.4g}" for m in medians)
                + f" | {widest:.3f}{mark} | {gap:.3f} | {bound:.2f} |"
                f" {'yes' if steady else 'NO'} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--output", help="write the markdown report here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or float(spec["run_seconds"])

    started = time.perf_counter()
    sets = []
    for number in range(args.sets):
        order = WORKLOADS if number % 2 == 0 else WORKLOADS[::-1]
        results = {}
        for workload in order:
            results[workload] = []
            for seed in range(1, args.runs + 1):
                results[workload].append(one_run(workload, seed, seconds))
                print(f"set {number + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v
                                 in results[workload][-1].items()),
                      file=sys.stderr, flush=True)
        sets.append({w: results[w] for w in WORKLOADS})
    text = report(spec, sets, seconds, time.perf_counter() - started)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
