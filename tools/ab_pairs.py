#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 tools/ab_pairs.py --parent /root/scratch/parent --change . \\
        --workload deploy_cold --pairs 10

Runs the command ``BENCHMARK.json`` declares (``--trace 0``) once in each
of two checkouts per pair — seed *k* for pair *k*, the parent first on odd
pairs and the change first on even ones, so drift of the host falls on
both sides alike.  ``BENCHMARK.json`` (read from the change checkout, never
written) names the end-to-end metrics, which direction is better and the
bound by which each may worsen.  The report is a markdown table, ready to
quote in a ``CHANGES.md`` entry: per metric every pair's two values, both
medians, both quartile pairs, the pairs the change won (ties count for
neither side) and a verdict:

* ``ok`` — the change's median is no worse than the parent's by more than
  the bound;
* ``REGRESSED`` — it is;
* ``unresolved`` — the parent's own runs spread (Q3 - Q1 over the median)
  wider than the bound, so neither of the above can be told — unless
  every run of the change reads better than every run of the parent, which
  is ``ok`` at any spread.

Exit status is non-zero when a run is ``correct: false`` or has
``failed > 0``, or when a metric regressed.

    python3 tools/ab_pairs.py --parent /root/scratch/parent --change . \\
        --workload deploy_warm --layers 1

is the other half of a perf PR's evidence, the traced per-layer row: one
``--trace 1`` run of seed 1 per side and every per-layer metric side by
side (parent, change, relative change).  Metrics whose unit is ``count``
or ``ratio`` are determined by the seed, so a row of those that differs
between the sides is flagged ``DIFFERS`` — the change moved a decision,
not a duration.  Timing rows come from one lap each and are where to
look, not what to claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def parse_layers(stdout: str) -> Tuple[bool, Dict[str, Tuple[float, str]]]:
    """``(clean, {name: (value, unit)})`` from a run's stdout, whose last
    line is the result."""
    result = json.loads(stdout.strip().splitlines()[-1])
    clean = bool(result["correct"]) and result["failed"] == 0
    return clean, {name: (metric["value"], metric["unit"])
                   for name, metric in result["metrics"].items()}


def parse_result(stdout: str) -> Tuple[bool, Dict[str, float]]:
    """``(clean, {name: value})`` from a run's stdout."""
    clean, metrics = parse_layers(stdout)
    return clean, {name: value for name, (value, _unit) in metrics.items()}


#: units of the per-layer metrics a seed determines (timing ratios carry "x")
SEED_DETERMINED_UNITS = ("count", "ratio")


def compare_layers(parent: Dict[str, Tuple[float, str]],
                   change: Dict[str, Tuple[float, str]]) -> List[dict]:
    """One row per per-layer metric, in the parent's order, then new ones.

    ``delta`` is relative to the parent (None where the parent reads 0 or a
    side lacks the metric); ``differs`` marks a seed-determined metric whose
    two values are not equal.
    """
    rows = []
    for name in list(parent) + [n for n in change if n not in parent]:
        before, unit = parent.get(name, (None, None))
        after, unit = change.get(name, (None, unit))
        both = before is not None and after is not None
        rows.append({
            "name": name, "unit": unit, "parent": before, "change": after,
            "delta": (after - before) / before if both and before else None,
            "differs": unit in SEED_DETERMINED_UNITS and before != after,
        })
    return rows


def layers_markdown(workload: str, seed: int, rows: List[dict]) -> str:
    def cell(value) -> str:
        return "—" if value is None else f"{value:.4g}"

    lines = [
        f"| `{workload}`, traced lap, seed {seed}"
        " | unit | parent | change | delta | |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        delta = "—" if row["delta"] is None else f"{row['delta']:+.1%}"
        lines.append(
            f"| `{row['name']}` | {row['unit']} | {cell(row['parent'])}"
            f" | {cell(row['change'])} | {delta}"
            f" | {'DIFFERS' if row['differs'] else ''} |")
    return "\n".join(lines)


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _median, third = statistics.quantiles(values, n=4)
    return first, third


def compare(metric: dict, parent: List[float], change: List[float]) -> dict:
    """The arithmetic of one metric: *parent[k]* and *change[k]* are pair k."""
    higher = metric["better"] == "higher"

    def beats(a: float, b: float) -> bool:
        return a > b if higher else a < b

    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    parent_q1, parent_q3 = quartiles(parent)
    delta = (change_median - parent_median) / parent_median
    spread = (parent_q3 - parent_q1) / parent_median
    if all(beats(c, p) for c in change for p in parent):
        verdict = "ok"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    else:
        worse_by = -delta if higher else delta
        verdict = "REGRESSED" if worse_by > metric["bound"] else "ok"
    return {
        "name": metric["name"], "bound": metric["bound"],
        "parent": parent, "change": change,
        "parent_median": parent_median, "change_median": change_median,
        "parent_quartiles": (parent_q1, parent_q3),
        "change_quartiles": quartiles(change),
        "won": sum(beats(c, p) for p, c in zip(parent, change)),
        "delta": delta, "spread": spread, "verdict": verdict,
    }


def _row(values: List[float]) -> str:
    return " ".join(f"{value:.4g}" for value in values)


def markdown(workload: str, rows: List[dict]) -> str:
    lines = [
        f"| `{workload}`, {len(rows[0]['parent'])} alternating pairs"
        " | parent | change | medians | parent Q1–Q3 | change Q1–Q3"
        " | pairs won | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| `{row['name']}` | {_row(row['parent'])}"
            f" | {_row(row['change'])}"
            f" | {row['parent_median']:.4g} → {row['change_median']:.4g}"
            f" ({row['delta']:+.1%})"
            f" | {_row(row['parent_quartiles'])}"
            f" | {_row(row['change_quartiles'])}"
            f" | {row['won']}/{len(row['parent'])}"
            f" | {row['verdict']} (bound {row['bound']:.2f},"
            f" parent spread {row['spread']:.2f}) |")
    return "\n".join(lines)


def run_once(checkout: Path, command: List[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> Tuple[bool, dict]:
    """One run: ``parse_result`` of it, ``parse_layers`` when traced."""
    # each checkout imports its own src/, whatever the caller's PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return False, {}
    return (parse_layers if trace else parse_result)(done.stdout)


def layers(sides: Dict[str, Path], command: List[str], workload: str,
           seed: int, seconds: float) -> int:
    """The ``--layers`` mode: one traced run per side, one table."""
    traced = {}
    for side, checkout in sides.items():
        clean, traced[side] = run_once(checkout, command, workload, seed,
                                       seconds, trace=1)
        if not clean:
            print(f"not correct, or failed operations: {side} seed {seed}",
                  file=sys.stderr)
            return 1
    rows = compare_layers(traced["parent"], traced["change"])
    print(layers_markdown(workload, seed, rows))
    moved = [row["name"] for row in rows if row["differs"]]
    if moved:
        print("seed-determined metrics that differ: " + ", ".join(moved),
              file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pairs", type=int,
                      help="alternating untraced pairs, seeds 1..PAIRS")
    mode.add_argument("--layers", type=int, metavar="SEED",
                      help="one traced run of SEED per side: the per-layer"
                           " metrics side by side")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or float(spec["run_seconds"])
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.layers is not None:
        return layers(sides, spec["command"], args.workload, args.layers,
                      seconds)

    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    dirty: List[str] = []
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            clean, metrics = run_once(sides[side], spec["command"],
                                      args.workload, seed, seconds)
            if not clean:
                dirty.append(f"{side} seed {seed}")
            runs[side].append(metrics)
            print(f"pair {seed} {side}: " + " ".join(
                f"{name}={value:.4g}" for name, value in metrics.items()),
                file=sys.stderr, flush=True)
    if dirty:
        print("not correct, or failed operations: " + ", ".join(dirty),
              file=sys.stderr)
        return 1

    rows = [compare(metric,
                    [run[metric["name"]] for run in runs["parent"]],
                    [run[metric["name"]] for run in runs["change"]])
            for metric in spec["end_to_end"]]
    print(markdown(args.workload, rows))
    return 1 if any(row["verdict"] == "REGRESSED" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
