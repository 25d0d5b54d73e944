"""Device abstraction shared by all chip models.

The placement algorithms treat a device as (i) a capability-class filter and
(ii) a vector of resource capacities, organised either per pipeline stage
(pipeline devices) or as a single pool (run-to-completion devices).  This
module defines that abstraction plus the bookkeeping for allocating and
releasing resources as programs are deployed and removed: a device's
allocation is an immutable, interned :class:`AllocState` that every change
replaces, so readers hold a consistent value instead of live counters.
"""

from __future__ import annotations

import enum
import hashlib
import json
import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ResourceExhaustedError
from repro.ir.instructions import (
    InstrClass,
    Instruction,
    StateDecl,
    resource_footprint,
)


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
    """Resource capacities and usage of one pipeline stage (or RTC core
    pool): a device model's constructor input and ``Device.stages``' view."""

    capacities: Dict[str, float] = field(default_factory=dict)
    used: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.capacities:
            self.used.setdefault(key, 0.0)

    def available(self, key: str) -> float:
        return self.capacities.get(key, 0.0) - self.used.get(key, 0.0)

    def utilisation(self) -> float:
        ratios = [
            self.used.get(key, 0.0) / cap
            for key, cap in self.capacities.items()
            if cap > 0
        ]
        return max(ratios) if ratios else 0.0


#: ``(stage index, {resource key: amount})`` pairs, applied in order
StageDemands = Iterable[Tuple[int, Dict[str, float]]]

_interned: "weakref.WeakValueDictionary[tuple, AllocState]" = (
    weakref.WeakValueDictionary())
_intern_lock = threading.Lock()


class AllocState:
    """One device's allocation state, as an immutable interned value.

    ``capacities`` holds per stage the model's ``(key, capacity)`` pairs
    and ``usage`` the amount used of each, in the same order.  Every demand
    is a multiple of 1/8192 KB or a count, so the floats add and subtract
    exactly.  ``occupancy`` is the name-blind multiset of the deployed
    programs' block lists.  Equal content is one object (held in a weak
    table), so "has the device changed since?" is ``is``, and the
    :attr:`digest` and :meth:`stage_availability` are derived once per
    state however many devices, searches and plans share it.
    """

    __slots__ = ("capacities", "usage", "occupancy", "status",
                 "topology_version", "_digest", "_availability",
                 "__weakref__")

    def __new__(cls, capacities: tuple, usage: tuple, occupancy: tuple = (),
                status: str = "up", topology_version: int = 0) -> "AllocState":
        content = (capacities, usage, occupancy, status, topology_version)
        with _intern_lock:
            state = _interned.get(content)
            if state is None:
                state = super().__new__(cls)
                for name, value in zip(cls.__slots__, content + (None,) * 2):
                    object.__setattr__(state, name, value)
                _interned[content] = state
        return state

    def __reduce__(self):
        # unpickled, a state is this process's interned one
        return AllocState, (self.capacities, self.usage, self.occupancy,
                            self.status, self.topology_version)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("AllocState is immutable")

    def replace(self, usage: Optional[tuple] = None,
                occupancy: Optional[tuple] = None, status: Optional[str] = None,
                topology_version: Optional[int] = None) -> "AllocState":
        return AllocState(
            self.capacities, self.usage if usage is None else usage,
            self.occupancy if occupancy is None else occupancy,
            status or self.status,
            self.topology_version if topology_version is None
            else topology_version)

    def charge(self, demands: StageDemands, release: bool = False) -> tuple:
        """The usage after allocating (or releasing) *demands*.

        An allocation that does not fit raises
        :class:`~repro.exceptions.ResourceExhaustedError`; a release never
        takes a usage below zero.  Untouched stages keep their tuples.
        """
        usage = list(self.usage)
        for index, demand in demands:
            capacities = self.capacities[index]
            slots = {key: slot for slot, (key, _) in enumerate(capacities)}
            used = list(usage[index])
            for key, amount in demand.items():
                if amount <= 0:
                    continue
                slot = slots.get(key)
                if release:
                    if slot is not None:
                        used[slot] = max(0.0, used[slot] - amount)
                elif slot is None or capacities[slot][1] - used[slot] < amount:
                    free = {k: capacities[slots[k]][1] - usage[index][slots[k]]
                            for k in demand if k in slots}
                    raise ResourceExhaustedError(
                        f"stage cannot fit demand {demand}; available={free}")
                else:
                    used[slot] += amount
            usage[index] = tuple(used)
        return tuple(usage)

    @property
    def digest(self) -> str:
        """Name-blind hash of everything a placement search reads from the
        device: usage, occupancy, status and topology version."""
        if self._digest is None:
            payload = [self.occupancy,
                       [sorted(zip((key for key, _ in capacities), used))
                        for capacities, used in zip(self.capacities,
                                                    self.usage)],
                       self.status, self.topology_version]
            rendered = json.dumps(payload, sort_keys=True,
                                  separators=(",", ":"), default=str)
            object.__setattr__(self, "_digest", hashlib.sha256(
                rendered.encode("utf-8")).hexdigest())
        return self._digest

    def stage_availability(self) -> List[Dict[str, float]]:
        """``capacity - used`` per stage, keyed in capacity-key order: the
        read-only view Algorithm 2 packs against (do not mutate it)."""
        if self._availability is None:
            object.__setattr__(self, "_availability", [
                {key: capacity - used for (key, capacity), used
                 in zip(capacities, usage)}
                for capacities, usage in zip(self.capacities, self.usage)])
        return self._availability

    def remaining_ratio(self) -> float:
        """Fraction of total resources still free (used by adaptive weights)."""
        ratios = [max(0.0, available[key]) / capacity
                  for capacities, available in zip(self.capacities,
                                                   self.stage_availability())
                  for key, capacity in capacities if capacity > 0]
        return sum(ratios) / len(ratios) if ratios else 1.0


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
        self.bandwidth_gbps = bandwidth_gbps
        self.processing_latency_ns = processing_latency_ns
        #: program name -> its block ids here; written only where
        #: :attr:`state` is replaced, so its occupancy stays in step
        self.deployed_programs: Dict[str, List[int]] = {}
        #: usage, occupancy, status (``"up"``; ``"drain"``: no forwarding or
        #: placement, state readable; ``"down"``: all lost) and topology
        #: version (bumped by an adjacent link change); every change
        #: replaces it
        self.state = AllocState(
            tuple(tuple(stage.capacities.items()) for stage in stages),
            tuple(tuple(float(stage.used.get(key, 0.0))
                        for key in stage.capacities) for stage in stages),
        )
        #: Monotonic counter bumped only when *routing* can change: a status
        #: flip or an adjacent link change.  Allocations leave it alone, so
        #: the topology's forwarding-graph and path caches (keyed on the sum
        #: of these) survive commits and releases.  It lives on the device so
        #: a flip made through any shard view is seen by every other one.
        self.forwarding_version: int = 0

    @property
    def stages(self) -> Tuple[StageResources, ...]:
        """Per-stage :class:`StageResources` built from the current state:
        fresh copies on every call, so mutating one changes no device."""
        state = self.state
        return tuple(
            StageResources(dict(capacities),
                           dict(zip((key for key, _ in capacities), used)))
            for capacities, used in zip(state.capacities, state.usage))

    @property
    def status(self) -> str:
        return self.state.status

    @property
    def topology_version(self) -> int:
        return self.state.topology_version

    # ------------------------------------------------------------------ #
    # capability checks
    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        return len(self.state.capacities)

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

    def remaining_ratio(self) -> float:
        """Fraction of total resources still free (used by adaptive weights)."""
        return self.state.remaining_ratio()

    def utilisation(self) -> float:
        return 1.0 - self.remaining_ratio()

    def commit(self, demands: StageDemands, program: Optional[str] = None,
               blocks: Sequence[int] = ()) -> None:
        """Allocate *demands*, recording *blocks* under *program*: one new
        state.  A demand that does not fit raises and changes nothing."""
        usage = self.state.charge(demands)
        if program is not None:
            self.deployed_programs.setdefault(program, []).extend(blocks)
        self.state = self.state.replace(usage, self._occupancy())

    def release(self, demands: StageDemands,
                program: Optional[str] = None) -> None:
        """Release *demands* and forget *program*: one new state."""
        usage = self.state.charge(demands, release=True)
        if program is not None:
            self.deployed_programs.pop(program, None)
        self.state = self.state.replace(usage, self._occupancy())

    def _occupancy(self) -> tuple:
        # name-blind: equivalent programs under other tenant names reach the
        # same state, so written-back plans hit again after a re-submit
        return tuple(sorted(tuple(sorted(blocks))
                            for blocks in self.deployed_programs.values()))

    # ------------------------------------------------------------------ #
    # operational status
    # ------------------------------------------------------------------ #
    def is_available(self) -> bool:
        """True when the device may forward traffic and host placements."""
        return self.status == "up"

    def set_status(self, status: str) -> bool:
        """Change the operational status; returns True if it changed.

        The status is part of the state, so plans placed against the old
        status stop validating and cache keys built from the old state can
        no longer hit.
        """
        if status not in ("up", "drain", "down"):
            raise ValueError(f"unknown device status {status!r}")
        if status == self.status:
            return False
        self.state = self.state.replace(status=status)
        self.forwarding_version += 1
        return True

    def bump_topology_version(self) -> None:
        """Record an adjacent structural change (link failure/removal)."""
        self.state = self.state.replace(
            topology_version=self.topology_version + 1)
        self.forwarding_version += 1

    def reset(self) -> None:
        """Release every allocation on this device."""
        self.deployed_programs.clear()
        self.state = self.state.replace(
            usage=tuple((0.0,) * len(stage) for stage in self.state.usage),
            occupancy=())

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
