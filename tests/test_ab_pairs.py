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
