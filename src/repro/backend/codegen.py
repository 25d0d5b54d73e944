"""Common code-generation machinery shared by all backends."""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.devices.base import Device
from repro.exceptions import BackendError
from repro.ir.program import IRProgram


class CodeGenerator(abc.ABC):
    """Base class for chip-specific code generators."""

    #: Human-readable target language name.
    language: str = ""
    #: Device type strings this generator accepts.
    targets: tuple = ()

    def generate(self, program: IRProgram) -> str:
        """Generate full source text for *program*."""
        sections = [
            self.prologue(program),
            self.declarations(program),
            self.body(program),
            self.epilogue(program),
        ]
        return "\n".join(section for section in sections if section)

    def loc(self, program: IRProgram) -> int:
        """Non-blank lines of generated code (used by the Table 1 benchmark)."""
        return sum(1 for line in self.generate(program).splitlines() if line.strip())

    # -- hooks ----------------------------------------------------------------
    @abc.abstractmethod
    def prologue(self, program: IRProgram) -> str:
        ...

    @abc.abstractmethod
    def declarations(self, program: IRProgram) -> str:
        ...

    @abc.abstractmethod
    def body(self, program: IRProgram) -> str:
        ...

    def epilogue(self, program: IRProgram) -> str:
        return ""

    # -- shared helpers -------------------------------------------------------
    @staticmethod
    def sanitize(name: str) -> str:
        return (
            name.replace(".", "_").replace("%", "tmp_").replace("[", "_")
            .replace("]", "").replace("__", "_").replace("#", "_")
        )

#: device type -> generator.  Importing this module imports the
#: :mod:`repro.backend` package, which registers the built-in generators,
#: so the registry is complete before any caller can reach it.
_GENERATOR_REGISTRY: Dict[str, "CodeGenerator"] = {}


def register_generator(generator: CodeGenerator) -> None:
    for target in generator.targets:
        _GENERATOR_REGISTRY[target] = generator


def generate_for_device(device: Device, program: IRProgram,
                        cache: Optional[object] = None, *,
                        key: Optional[str] = None) -> str:
    """Generate device-specific source for *program* on *device*.

    When an :class:`~repro.core.cache.ArtifactCache` is passed, the generated
    source is memoised under *key*, or — without one — under ``(program
    content hash, device model)``: generation is deterministic per device
    type, so regenerating code for an identical snippet on an identical
    device model is a cache hit.  The pipeline passes a *key* built from
    what the placement plan already knows, so a warm commit never hashes a
    snippet's IR.
    """
    generator = _GENERATOR_REGISTRY.get(device.dev_type)
    if generator is None:
        raise BackendError(
            f"no backend registered for device type {device.dev_type!r}"
        )
    if cache is None:
        return generator.generate(program)
    if key is None:
        from repro.core.cache import fingerprint_ir

        key = cache.make_key("codegen", device.dev_type, fingerprint_ir(program))
    hit, code = cache.lookup(key)
    if hit:
        return code
    code = generator.generate(program)
    cache.store(key, code)
    return code
