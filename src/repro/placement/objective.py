"""The placement objective of paper Eq. 1 and its adaptive weights.

``G(x) = w_t * h_t(x) - w_r * h_r(x) - w_p * h_p(x)``

* ``h_t`` — fraction of the requested traffic served by INC,
* ``h_r`` — fraction of the candidate devices' resources consumed,
* ``h_p`` — fraction of extra parameter bits transferred between devices
  because the program was split.

``w_t`` is fixed at 1/2 (the paper prefers throughput); ``w_r`` and ``w_p``
are either fixed or adapted to the remaining resource ratio *r* as
``w_r = 1 - 2**(r-1)`` and ``w_p = 1/2 - w_r`` (paper §5.4 "Adaptive
Weight"): when the network is empty resource cost barely matters, and as it
fills up resource conservation dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.devices.base import AllocState, Device


@dataclass
class ObjectiveWeights:
    """The (w_t, w_r, w_p) triple of Eq. 1."""

    w_t: float = 0.5
    w_r: float = 0.25
    w_p: float = 0.25

    @classmethod
    def fixed(cls) -> "ObjectiveWeights":
        """The fixed-weight baseline used in the Table 5 comparison."""
        return cls(w_t=0.5, w_r=0.25, w_p=0.25)

    @classmethod
    def adaptive(cls, remaining_ratio: float) -> "ObjectiveWeights":
        """Adaptive weights from the remaining-resource ratio ``r`` in [0, 1]."""
        r = min(1.0, max(0.0, remaining_ratio))
        w_r = 1.0 - 2.0 ** (r - 1.0)
        w_p = 0.5 - w_r
        return cls(w_t=0.5, w_r=w_r, w_p=w_p)


class PlacementObjective:
    """Computes gain terms for candidate (device, instruction-set) choices.

    Parameters
    ----------
    total_resource_units:
        Normalisation constant for h_r — the total amount of "resource units"
        of the candidate devices.  One unit is one instruction slot worth of
        resources; using instruction counts keeps the term dimensionless.
    total_transfer_bits:
        Normalisation constant for h_p — the total parameter bits the program
        could possibly transfer (sum over all dependency edges).
    weights:
        Fixed weights; if ``adaptive`` is True they are recomputed from the
        devices' remaining capacity every time :meth:`current_weights` is
        called.
    """

    def __init__(
        self,
        total_resource_units: float,
        total_transfer_bits: float,
        weights: Optional[ObjectiveWeights] = None,
        adaptive: bool = True,
    ) -> None:
        self.total_resource_units = max(1.0, total_resource_units)
        self.total_transfer_bits = max(1.0, total_transfer_bits)
        self.base_weights = weights or ObjectiveWeights.fixed()
        self.adaptive = adaptive

    def current_weights(self, devices: Iterable[Union[Device, AllocState]]
                        ) -> ObjectiveWeights:
        """The weights for *devices* (or their allocation states)."""
        if not self.adaptive:
            return self.base_weights
        devices = list(devices)
        if not devices:
            return self.base_weights
        remaining = sum(d.remaining_ratio() for d in devices) / len(devices)
        return ObjectiveWeights.adaptive(remaining)

    # -- individual terms ---------------------------------------------------
    def resource_term(self, instruction_count: float, replicas: int = 1) -> float:
        """h_r contribution of placing *instruction_count* instructions,
        replicated on *replicas* devices of an equivalence class."""
        return (instruction_count * max(1, replicas)) / self.total_resource_units

    def transfer_term(self, transfer_bits: float) -> float:
        """h_p contribution of *transfer_bits* crossing a device boundary."""
        return transfer_bits / self.total_transfer_bits

    def traffic_term(self, served_fraction: float) -> float:
        return served_fraction

    def gain(self, served_fraction: float, instruction_count: float,
             transfer_bits: float, weights: ObjectiveWeights,
             replicas: int = 1) -> float:
        """Full Eq. 1 gain for one candidate assignment."""
        return (
            weights.w_t * self.traffic_term(served_fraction)
            - weights.w_r * self.resource_term(instruction_count, replicas)
            - weights.w_p * self.transfer_term(transfer_bits)
        )
