"""The arithmetic of tools/ab_pairs.py on canned result lines."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab_pairs  # noqa: E402


def result_line(deploys, rss, correct=True, failed=0):
    return "details\n" + json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"deploys_per_s": {"value": deploys, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}) + "\n"


DEPLOYS = {"name": "deploys_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}


def column(lines, name):
    return [ab_pairs.parse_result(line)[1][name] for line in lines]


def test_parse_result_flags_incorrect_and_failed_runs():
    assert ab_pairs.parse_result(result_line(50, 170)) == (
        True, {"deploys_per_s": 50, "peak_rss_mb": 170})
    assert not ab_pairs.parse_result(result_line(50, 170, correct=False))[0]
    assert not ab_pairs.parse_result(result_line(50, 170, failed=1))[0]


def test_compare_medians_quartiles_wins_and_verdicts():
    parent = [result_line(d, r) for d, r in
              [(50, 170), (52, 171), (48, 170), (51, 172), (49, 171)]]
    change = [result_line(d, r) for d, r in
              [(55, 165), (52, 166), (47, 190), (56, 191), (54, 192)]]

    row = ab_pairs.compare(DEPLOYS, column(parent, "deploys_per_s"),
                           column(change, "deploys_per_s"))
    assert (row["parent_median"], row["change_median"]) == (50, 54)
    assert row["parent_quartiles"] == (48.5, 51.5)
    assert row["won"] == 3  # of five: one tie, one loss
    assert row["delta"] == 0.08 and row["spread"] == 0.06
    assert row["verdict"] == "ok"

    # lower is better; 191 against 171 is past the 5% bound
    row = ab_pairs.compare(RSS, column(parent, "peak_rss_mb"),
                           column(change, "peak_rss_mb"))
    assert row["won"] == 2
    assert row["verdict"] == "REGRESSED"

    text = ab_pairs.markdown("deploy_cold", [row])
    assert "`deploy_cold`, 5 alternating pairs" in text
    assert "| 171 → 190 (+11.1%) |" in text and "| 2/5 | REGRESSED" in text


def test_wide_parent_spread_is_unresolved_unless_change_beats_every_run():
    noisy = [30.0, 60.0, 45.0, 70.0, 40.0]  # (65 - 35) / 45 > 0.25
    assert ab_pairs.compare(
        DEPLOYS, noisy, [44.0, 46.0, 45.0, 43.0, 47.0]
    )["verdict"] == "unresolved"
    assert ab_pairs.compare(
        DEPLOYS, noisy, [71.0, 80.0, 75.0, 90.0, 72.0])["verdict"] == "ok"


def layer_line(**metrics):
    return "details\n" + json.dumps({
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name.replace("__", "."): {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}) + "\n"


def test_layers_side_by_side_flags_seed_determined_rows_that_differ():
    parent = ab_pairs.parse_layers(layer_line(
        placement__place_ms=(3.05, "ms"), placement__places=(229, "count"),
        placement__memo_hit_ratio=(1.0, "ratio"),
        backend__codegen_calls=(949, "count"),
        harness__trace_overhead_ratio=(1.2, "x"),
        runtime__update_ms=(0, "ms")))
    change = ab_pairs.parse_layers(layer_line(
        placement__place_ms=(1.22, "ms"), placement__places=(229, "count"),
        placement__memo_hit_ratio=(0.5, "ratio"),
        backend__codegen_calls=(950, "count"),
        harness__trace_overhead_ratio=(1.5, "x"),
        runtime__update_ms=(0, "ms"), placement__new=(3, "count")))
    assert parent[0] and change[0]
    assert parent[1]["placement.places"] == (229, "count")

    rows = {row["name"]: row
            for row in ab_pairs.compare_layers(parent[1], change[1])}
    assert list(rows) == [*parent[1], "placement.new"]
    assert rows["placement.place_ms"]["delta"] == (1.22 - 3.05) / 3.05
    # a timing may move, and so may a timing ratio (unit "x"): not flagged
    assert not rows["placement.place_ms"]["differs"]
    assert not rows["harness.trace_overhead_ratio"]["differs"]
    assert not rows["placement.places"]["differs"]
    assert rows["placement.memo_hit_ratio"]["differs"]
    assert rows["backend.codegen_calls"]["differs"]
    assert rows["runtime.update_ms"]["delta"] is None      # parent reads 0
    assert rows["placement.new"]["parent"] is None
    assert rows["placement.new"]["differs"]

    text = ab_pairs.layers_markdown("deploy_warm", 1, list(rows.values()))
    assert "| `deploy_warm`, traced lap, seed 1 |" in text
    assert "| `placement.place_ms` | ms | 3.05 | 1.22 | -60.0% |  |" in text
    assert "| `backend.codegen_calls` | count | 949 | 950 | +0.1% | DIFFERS |" \
        in text
    assert "| `placement.new` | count | — | 3 | — | DIFFERS |" in text
