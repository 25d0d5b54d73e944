"""Device abstraction shared by all chip models.

The placement algorithms treat a device as (i) a capability-class filter and
(ii) a vector of resource capacities, organised either per pipeline stage
(pipeline devices) or as a single pool (run-to-completion devices).  This
module defines that abstraction plus the bookkeeping for allocating and
releasing resources as programs are deployed and removed.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.exceptions import ResourceExhaustedError
from repro.ir.instructions import (
    InstrClass,
    Instruction,
    StateDecl,
    resource_footprint,
)
from repro.ir.program import IRProgram


class Architecture(str, enum.Enum):
    """High-level device architecture (paper Appendix D)."""

    PIPELINE = "pipeline"
    RTC = "rtc"            # run to completion (multi-core)
    HYBRID = "hybrid"      # cores organisable as a pipeline (NFP, FPGA)


#: Resource dimension names used across the library.
RESOURCE_KEYS = (
    "sram_kb",      # SRAM for tables / registers
    "tcam_kb",      # TCAM for ternary matching
    "alu",          # stateless ALUs
    "salu",         # stateful ALUs
    "hash",         # hash / checksum units
    "gateway",      # predicate evaluation resources
    "dsp",          # complex arithmetic (multiplication, floating point)
    "instructions", # micro-instruction slots (RTC devices)
)


@dataclass
class StageResources:
    """Resource capacities of a single pipeline stage (or RTC core pool)."""

    capacities: Dict[str, float] = field(default_factory=dict)
    used: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.capacities:
            self.used.setdefault(key, 0.0)

    def available(self, key: str) -> float:
        return self.capacities.get(key, 0.0) - self.used.get(key, 0.0)

    def can_fit(self, demand: Dict[str, float]) -> bool:
        return all(
            self.available(key) >= amount
            for key, amount in demand.items()
            if amount > 0
        )

    def allocate(self, demand: Dict[str, float]) -> None:
        if not self.can_fit(demand):
            raise ResourceExhaustedError(
                f"stage cannot fit demand {demand}; available="
                f"{ {k: self.available(k) for k in demand} }"
            )
        for key, amount in demand.items():
            if amount > 0:
                self.used[key] = self.used.get(key, 0.0) + amount

    def release(self, demand: Dict[str, float]) -> None:
        for key, amount in demand.items():
            if amount > 0:
                self.used[key] = max(0.0, self.used.get(key, 0.0) - amount)

    def utilisation(self) -> float:
        ratios = [
            self.used.get(key, 0.0) / cap
            for key, cap in self.capacities.items()
            if cap > 0
        ]
        return max(ratios) if ratios else 0.0

    def copy(self) -> "StageResources":
        return StageResources(dict(self.capacities), dict(self.used))


@dataclass
class DeviceResources:
    """All resources of a device: one :class:`StageResources` per stage."""

    stages: List[StageResources] = field(default_factory=list)

    def copy(self) -> "DeviceResources":
        return DeviceResources([stage.copy() for stage in self.stages])


class Device:
    """A programmable network device.

    Parameters
    ----------
    name:
        Unique device name in the topology (e.g. ``"ToR0"``).
    dev_type:
        Short type string (``"tofino"``, ``"tofino2"``, ``"td4"``, ``"nfp"``,
        ``"fpga"``) used by equivalence-class grouping.
    architecture:
        Pipeline, RTC or hybrid.
    supported_classes:
        Capability classes (paper Table 9) this device can execute.
    stages:
        Per-stage resources.  RTC devices use a single pseudo-stage.
    bandwidth_gbps:
        Line rate of the device, used by the emulator and Eq. 49.
    processing_latency_ns:
        Fixed per-packet processing latency contribution of the device.
    """

    def __init__(
        self,
        name: str,
        dev_type: str,
        architecture: Architecture,
        supported_classes: Iterable[InstrClass],
        stages: Sequence[StageResources],
        bandwidth_gbps: float = 100.0,
        processing_latency_ns: float = 400.0,
    ) -> None:
        self.name = name
        self.dev_type = dev_type
        self.architecture = architecture
        self.supported_classes: FrozenSet[InstrClass] = frozenset(supported_classes) | {
            InstrClass.META
        }
        self.stages: List[StageResources] = list(stages)
        self.bandwidth_gbps = bandwidth_gbps
        self.processing_latency_ns = processing_latency_ns
        self.deployed_programs: Dict[str, List[int]] = {}
        #: Operational status: ``"up"`` (serving), ``"drain"`` (administratively
        #: excluded from forwarding and placement, state still readable) or
        #: ``"down"`` (failed; forwarding, placement and state all lost).
        self.status: str = "up"
        #: Counter bumped by the topology when the device's *surroundings*
        #: change (an adjacent link fails, flaps or is removed).  It is part
        #: of the allocation fingerprint, so plans placed before the change
        #: stop validating even though the device's own allocations are
        #: untouched.
        self.topology_version: int = 0
        #: Monotonic counter bumped on every allocation change.  The topology
        #: sums these into its allocation epoch, so "did anything change?"
        #: is an integer comparison rather than a full re-hash.
        self.alloc_version: int = 0
        #: Monotonic counter bumped only when *routing* can change: a status
        #: flip or an adjacent link change.  Allocations leave it alone, so
        #: the topology's forwarding-graph and path caches (keyed on the sum
        #: of these) survive commits and releases.  It lives on the device so
        #: a flip made through any shard view is seen by every other one.
        self.forwarding_version: int = 0
        self._fingerprint_cache: tuple = (-1, "")
        self._availability_cache: tuple = (-1, [])

    # ------------------------------------------------------------------ #
    # capability checks
    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def supports_class(self, cls: InstrClass) -> bool:
        return cls in self.supported_classes

    def supports_instruction(self, instr: Instruction) -> bool:
        return self.supports_class(instr.instr_class)

    def supports_program(self, program: IRProgram) -> bool:
        return all(self.supports_instruction(instr) for instr in program)

    def unsupported_classes(self, classes: Iterable[InstrClass]) -> FrozenSet[InstrClass]:
        return frozenset(classes) - self.supported_classes

    # ------------------------------------------------------------------ #
    # resource accounting
    # ------------------------------------------------------------------ #
    @staticmethod
    def instruction_demand(instr: Instruction) -> Dict[str, float]:
        """Translate an instruction's abstract footprint into device resources.

        A fact of the instruction alone (no device model scales it), which is
        why the placement search derives it once per program — the rows of a
        :class:`~repro.placement.intra.PackingTable` — and not per device.
        """
        raw = resource_footprint(instr)
        return {
            "alu": float(raw["alu"]),
            "salu": float(raw["salu"]),
            "hash": float(raw["hash"]),
            "gateway": float(raw["gateway"]),
            "dsp": float(raw["dsp"]),
            "tcam_kb": raw["tcam_bits"] / 8192.0,
            "sram_kb": raw["sram_bits"] / 8192.0,
            "instructions": 1.0,
        }

    @staticmethod
    def state_bits(state: StateDecl) -> Tuple[int, int]:
        """``(sram_bits, tcam_bits)`` one persistent state occupies."""
        if state.kind.value in ("ternary_table",):
            return 0, state.total_bits
        return state.total_bits, 0

    @staticmethod
    def memory_demand(bits: Iterable[Tuple[int, int]]) -> Dict[str, float]:
        """Memory demand of states given as their :meth:`state_bits` pairs.

        The bits are summed as integers and divided once, so the result does
        not depend on the order of *bits*.
        """
        sram_bits = 0
        tcam_bits = 0
        for sram, tcam in bits:
            sram_bits += sram
            tcam_bits += tcam
        return {"sram_kb": sram_bits / 8192.0, "tcam_kb": tcam_bits / 8192.0}

    @staticmethod
    def state_demand(program: IRProgram, state_names: Iterable[str]) -> Dict[str, float]:
        """Memory demand of the persistent states named in *state_names*."""
        return Device.memory_demand(
            Device.state_bits(program.get_state(name)) for name in state_names
        )

    def can_fit_instructions(self, instructions: Sequence[Instruction]) -> bool:
        """Quick feasibility check: capability classes + aggregate resources."""
        for instr in instructions:
            if not self.supports_instruction(instr):
                return False
        total: Dict[str, float] = {}
        for instr in instructions:
            for key, value in self.instruction_demand(instr).items():
                total[key] = total.get(key, 0.0) + value
        available: Dict[str, float] = {}
        for stage in self.stages:
            for key in total:
                available[key] = available.get(key, 0.0) + stage.available(key)
        return all(available.get(key, 0.0) >= value for key, value in total.items())

    def remaining_ratio(self) -> float:
        """Fraction of total resources still free (used by adaptive weights)."""
        total = 0.0
        free = 0.0
        for stage in self.stages:
            for key, cap in stage.capacities.items():
                if cap <= 0:
                    continue
                total += 1.0
                free += max(0.0, stage.available(key)) / cap
        return free / total if total else 1.0

    def utilisation(self) -> float:
        return 1.0 - self.remaining_ratio()

    def allocate_stage(self, stage_index: int, demand: Dict[str, float]) -> None:
        self.stages[stage_index].allocate(demand)
        self.alloc_version += 1

    def release_stage(self, stage_index: int, demand: Dict[str, float]) -> None:
        self.stages[stage_index].release(demand)
        self.alloc_version += 1

    def stage_availability(self) -> List[Dict[str, float]]:
        """``capacity - used`` per stage, keyed in capacity-key order.

        The read-only view Algorithm 2 packs against.  Memoised per
        :attr:`alloc_version` like :meth:`allocation_fingerprint`, so the
        dozens of packing runs of one commit-free search share one snapshot
        per device; callers must not mutate it.
        """
        version = self.alloc_version
        cached_version, cached = self._availability_cache
        if cached_version == version:
            return cached
        snapshot = [
            {key: capacity - stage.used.get(key, 0.0)
             for key, capacity in stage.capacities.items()}
            for stage in self.stages
        ]
        self._availability_cache = (version, snapshot)
        return snapshot

    def allocation_fingerprint(self) -> str:
        """Stable hash of this device's current resource allocations.

        The fingerprint covers everything a placement search reads from the
        device — per-stage usage and the set of deployed programs — so it
        changes exactly when a commit or release could alter a placement
        decision.  Speculative plans record it per consulted device and the
        commit step revalidates it (optimistic concurrency control).  The
        hash is memoised per :attr:`alloc_version`, so repeated fingerprint
        sweeps between commits cost one integer comparison per device.
        """
        version, cached = self._fingerprint_cache
        if version == self.alloc_version:
            return cached
        # the placement search is name-blind — it reads resource availability
        # and occupancy structure, never tenant names — so the fingerprint
        # normalises names away: a state reached by *equivalent* programs
        # under different tenant names hashes identically, which is what lets
        # written-back plans hit again after a remove/re-submit cycle
        payload = [
            sorted(sorted(blocks) for blocks in self.deployed_programs.values()),
            [sorted(stage.used.items()) for stage in self.stages],
            self.status,
            self.topology_version,
        ]
        rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              default=str)
        fingerprint = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        self._fingerprint_cache = (self.alloc_version, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------ #
    # operational status
    # ------------------------------------------------------------------ #
    def is_available(self) -> bool:
        """True when the device may forward traffic and host placements."""
        return self.status == "up"

    def set_status(self, status: str) -> bool:
        """Change the operational status; returns True if it changed.

        A status flip bumps :attr:`alloc_version` (it is part of the
        fingerprint payload), so plans placed against the old status stop
        validating and cached placements keyed on the old topology
        fingerprint can no longer hit.
        """
        if status not in ("up", "drain", "down"):
            raise ValueError(f"unknown device status {status!r}")
        if status == self.status:
            return False
        self.status = status
        self.alloc_version += 1
        self.forwarding_version += 1
        return True

    def bump_topology_version(self) -> None:
        """Record an adjacent structural change (link failure/removal)."""
        self.topology_version += 1
        self.alloc_version += 1
        self.forwarding_version += 1

    def snapshot(self) -> List[StageResources]:
        """Copy of per-stage resource usage, for rollback during search."""
        return [stage.copy() for stage in self.stages]

    def restore(self, snapshot: List[StageResources]) -> None:
        self.stages = [stage.copy() for stage in snapshot]
        self.alloc_version += 1

    def reset(self) -> None:
        """Release every allocation on this device."""
        for stage in self.stages:
            stage.used = {key: 0.0 for key in stage.capacities}
        self.deployed_programs.clear()
        self.alloc_version += 1

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(name={self.name!r}, stages={self.num_stages}, "
            f"bw={self.bandwidth_gbps}G)"
        )


class PipelineDevice(Device):
    """A fixed-stage match-action pipeline device (Tofino, Trident4)."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("architecture", Architecture.PIPELINE)
        super().__init__(*args, **kwargs)


class RTCDevice(Device):
    """A run-to-completion multi-core device (NFP smartNIC cores)."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("architecture", Architecture.RTC)
        super().__init__(*args, **kwargs)


def uniform_stages(num_stages: int, per_stage: Dict[str, float]) -> List[StageResources]:
    """Build *num_stages* identical :class:`StageResources`."""
    return [StageResources(dict(per_stage)) for _ in range(num_stages)]
