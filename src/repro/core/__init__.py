"""The ClickINC service: the paper's primary contribution as a public API.

:class:`~repro.core.controller.ClickINC` ties the whole pipeline together —
parse / compile a user program, place it with the DP algorithm, synthesise it
with the base programs on the chosen devices, generate chip-specific code,
and deploy it onto the network emulator — while supporting multiple users and
incremental add/remove at runtime.

Deployment runs through the staged
:class:`~repro.core.pipeline.CompilationPipeline` with a shared
content-addressed :class:`~repro.core.cache.ArtifactCache`, so repeated
template deployments are cache hits and a batch
(:meth:`~repro.core.controller.ClickINC.deploy_many`) compiles each distinct
program content once.
"""

from repro.core.cache import ArtifactCache
from repro.core.controller import ClickINC
from repro.core.pipeline import (
    CompilationPipeline,
    DeployedProgram,
    DeployRequest,
    PipelineReport,
    SpeculativeResult,
    StageRecord,
)
from repro.core.service import INCService

__all__ = [
    "ArtifactCache",
    "ClickINC",
    "CompilationPipeline",
    "DeployRequest",
    "DeployedProgram",
    "INCService",
    "PipelineReport",
    "SpeculativeResult",
    "StageRecord",
]
