"""Run metrics collected by the network emulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RunMetrics:
    """Aggregated statistics of one emulation run."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped_innetwork: int = 0
    packets_reflected: int = 0
    packets_mirrored: int = 0
    packets_to_cpu: int = 0
    bytes_sent: float = 0.0
    bytes_delivered: float = 0.0
    bytes_reflected: float = 0.0
    total_latency_ns: float = 0.0
    per_device_packets: Dict[str, int] = field(default_factory=dict)
    per_device_instructions: Dict[str, int] = field(default_factory=dict)
    app_counters: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def record_device(self, device_name: str, instructions: int) -> None:
        self.per_device_packets[device_name] = (
            self.per_device_packets.get(device_name, 0) + 1
        )
        self.per_device_instructions[device_name] = (
            self.per_device_instructions.get(device_name, 0) + instructions
        )

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.app_counters[counter] = self.app_counters.get(counter, 0.0) + amount

    # ------------------------------------------------------------------ #
    @property
    def mean_latency_ns(self) -> float:
        finished = self.packets_delivered + self.packets_reflected
        return self.total_latency_ns / finished if finished else 0.0

    @property
    def delivery_ratio(self) -> float:
        return self.packets_delivered / self.packets_sent if self.packets_sent else 0.0

    def traffic_reduction(self) -> float:
        """Fraction of offered bytes that never reach the destination servers."""
        if self.bytes_sent == 0:
            return 0.0
        return 1.0 - self.bytes_delivered / self.bytes_sent

    def summary(self) -> Dict[str, float]:
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "dropped_in_network": self.packets_dropped_innetwork,
            "reflected": self.packets_reflected,
            "delivery_ratio": round(self.delivery_ratio, 4),
            "traffic_reduction": round(self.traffic_reduction(), 4),
            "mean_latency_ns": round(self.mean_latency_ns, 1),
            **{f"app_{k}": v for k, v in self.app_counters.items()},
        }
