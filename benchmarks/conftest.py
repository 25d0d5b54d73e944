"""Shared fixtures and report helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the ClickINC paper
and prints the corresponding rows/series, so running

    pytest benchmarks/ --benchmark-only -s

produces a textual version of the paper's evaluation section alongside the
pytest-benchmark timing statistics.
"""

from __future__ import annotations

import pytest

from repro.core import DeployRequest
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.topology import build_paper_emulation_topology


def print_table(title: str, headers, rows) -> None:
    """Print an aligned text table (the benchmark harness's 'figure')."""
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))


def tenant_request(pod: int, user: str, depth: int = 1000) -> DeployRequest:
    """An intra-pod KVS tenant (pod<pod>(a) -> pod<pod>(b)) of a fat-tree."""
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = depth
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


@pytest.fixture(scope="session")
def paper_topology_session():
    return build_paper_emulation_topology()


@pytest.fixture(scope="session")
def template_programs():
    return {
        app: compile_template(default_profile(app), name=f"{app.lower()}_bench")
        for app in ("KVS", "MLAgg", "DQAcc")
    }
