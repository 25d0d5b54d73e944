"""Heterogeneous programmable device models (paper §2.1, Appendix D & E).

Every device exposes the same interface to the placement engine:

* a set of supported instruction capability classes (paper Table 9),
* an architecture (pipeline, run-to-completion, or hybrid),
* per-stage (or per-device) resource capacities, and
* a :meth:`~repro.devices.base.Device.fits` check used by the DP and SMT
  placement algorithms.

Concrete models are provided for Intel Tofino / Tofino2 ASICs, Broadcom
Trident4, Netronome NFP smartNICs and Xilinx FPGA cards; the registry maps
short type names (``"tofino"``, ``"fpga"``, ...) to factories so topologies
can be described with plain strings.
"""

from repro.devices.base import (
    AllocState,
    Architecture,
    Device,
    PipelineDevice,
    RTCDevice,
    StageResources,
)
from repro.devices.tofino import TofinoDevice, Tofino2Device
from repro.devices.trident4 import Trident4Device
from repro.devices.netronome import NetronomeNFPDevice
from repro.devices.fpga import XilinxFPGADevice
from repro.devices.registry import DEVICE_FACTORIES, make_device

__all__ = [
    "AllocState",
    "Architecture",
    "Device",
    "PipelineDevice",
    "RTCDevice",
    "StageResources",
    "TofinoDevice",
    "Tofino2Device",
    "Trident4Device",
    "NetronomeNFPDevice",
    "XilinxFPGADevice",
    "DEVICE_FACTORIES",
    "make_device",
]
