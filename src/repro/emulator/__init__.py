"""Network emulator.

The emulator stands in for the paper's SDE/behavioural-model emulation
platform and 100G testbed: it executes placed IR snippets packet by packet on
the devices of a topology, maintains per-device persistent state, applies the
INC header step protocol (skip / execute / drop), and reports goodput and
in-network latency so the application-performance experiments (Fig. 13) and
the end-to-end examples can run entirely in software.
"""

from repro.emulator.packet import INCHeader, Packet
from repro.emulator.interpreter import DeviceRuntime, ExecutionResult
from repro.emulator.network import NetworkEmulator, DeploymentContext
from repro.emulator.traffic import (
    KVSWorkload,
    MLAggWorkload,
    DQAccWorkload,
)
from repro.emulator.engine import BatchRunner, TrafficEngine
from repro.emulator.kernels import (
    DEFAULT_KERNEL_CACHE,
    CompiledKernel,
    KernelCache,
    snippet_digest,
)
from repro.emulator.metrics import RunMetrics

__all__ = [
    "INCHeader",
    "Packet",
    "DeviceRuntime",
    "ExecutionResult",
    "NetworkEmulator",
    "DeploymentContext",
    "KVSWorkload",
    "MLAggWorkload",
    "DQAccWorkload",
    "BatchRunner",
    "TrafficEngine",
    "DEFAULT_KERNEL_CACHE",
    "CompiledKernel",
    "KernelCache",
    "snippet_digest",
    "RunMetrics",
]
