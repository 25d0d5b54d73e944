"""Chip-specific backends.

The backends translate a device executable (base program + user snippets in
IR form) into device-specific source text:

* :mod:`repro.backend.p4` — P4-16 for Tofino / Tofino2 (TNA-style),
* :mod:`repro.backend.npl` — NPL for Broadcom Trident4,
* :mod:`repro.backend.microc` — Micro-C for Netronome NFP smartNICs,
* :mod:`repro.backend.hls` — C++ HLS for Xilinx FPGA cards.

The generated text is not compiled by vendor toolchains in this repository
(those are closed source); it exists so that (a) the end-to-end workflow is
complete, (b) the Table 1 lines-of-code comparison can be measured on real
output, and (c) the emulator can attach generated sources to its device
images for inspection.
"""

from repro.backend.codegen import (
    CodeGenerator,
    generate_for_device,
    register_generator,
)
from repro.backend.p4 import P4Generator
from repro.backend.npl import NPLGenerator
from repro.backend.microc import MicroCGenerator
from repro.backend.hls import HLSGenerator

# registered at import, once: a lazy first-call registration let a second
# thread see a half-filled registry
for _generator in (P4Generator(), NPLGenerator(), MicroCGenerator(),
                   HLSGenerator()):
    register_generator(_generator)
del _generator

__all__ = [
    "CodeGenerator",
    "generate_for_device",
    "P4Generator",
    "NPLGenerator",
    "MicroCGenerator",
    "HLSGenerator",
]
