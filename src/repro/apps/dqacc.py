"""SQL DISTINCT acceleration application.

The switch-side rolling cache filters duplicate values before they reach the
database server; the host-side reference below computes the exact DISTINCT
set so tests can bound the filter's false-forward rate (a rolling cache is
approximate: it never drops a first occurrence, but may forward duplicates
that were evicted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.emulator.traffic import DQAccWorkload
from repro.lang.profile import PacketFormat, Profile, TrafficSpec


@dataclass
class DQAccApplication:
    """A tenant deploying the SQL DISTINCT accelerator."""

    name: str = "dqacc_0"
    cache_depth: int = 5000
    cache_len: int = 8
    source_groups: List[str] = field(default_factory=lambda: ["pod0(a)", "pod0(b)"])
    destination_group: str = "pod2(b)"

    def profile(self) -> Profile:
        return Profile(
            app="DQAcc",
            performance={"c_depth": self.cache_depth, "c_len": self.cache_len},
            traffic=TrafficSpec.uniform(self.source_groups, 10e6),
            packet_format=PacketFormat(app_fields={"op": 8, "value": 32}),
            user=self.name,
        )

    def workload(self, source_group: Optional[str] = None,
                 duplicate_ratio: float = 0.6) -> DQAccWorkload:
        return DQAccWorkload(
            src_group=source_group or self.source_groups[0],
            dst_group=self.destination_group,
            duplicate_ratio=duplicate_ratio,
            owner=self.name,
        )
