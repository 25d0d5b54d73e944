"""Exception hierarchy for the ClickINC reproduction.

All library errors derive from :class:`ClickINCError` so callers can catch a
single base class.  Sub-classes mirror the pipeline stages: language parsing,
frontend compilation, placement, synthesis, backend code generation and the
runtime emulator.
"""

from __future__ import annotations


class ClickINCError(Exception):
    """Base class for every error raised by the repro library."""


class LanguageError(ClickINCError):
    """The user program violates the ClickINC language grammar."""


class ProfileError(ClickINCError):
    """A configuration profile is malformed or inconsistent with a template."""


class CompileError(ClickINCError):
    """The frontend could not lower a user program to IR."""


class UnrollError(CompileError):
    """A loop bound is not a compile-time constant, so it cannot be unrolled."""


class IRError(ClickINCError):
    """An IR program is malformed (bad operands, unknown opcode, ...)."""


class PlacementError(ClickINCError):
    """No feasible placement exists for a program on the target network."""


class ResourceExhaustedError(PlacementError):
    """A device (or the whole network) has insufficient resources."""


class PlacementConflictError(PlacementError):
    """A speculative placement plan failed commit-time validation.

    Raised when the allocation state of a device the plan consulted during
    its (commit-free) search changed between placement and commit, so the
    plan can no longer be proven identical to what a sequential placement
    would produce.  The conflicting device names are carried in
    :attr:`conflicts`; the usual reaction is a sequential re-place against
    the live topology.
    """

    def __init__(self, message: str, conflicts=None) -> None:
        super().__init__(message)
        self.conflicts = list(conflicts or [])


class StaleMemoError(PlacementError):
    """A memo-served DP sub-tree table failed its allocation-state guard.

    Sub-tree tables carry the allocation fingerprint of every device they
    consulted when derived.  Before trusting a memo hit, ``DPPlacer``
    re-checks those stamps against the live devices; a mismatch means the
    memo's content addressing was violated (a device mutated without its
    fingerprint advancing, or an entry was injected under a wrong key) and
    silently placing from the table could double-book resources.  This is
    an internal-invariant failure, not a capacity condition — it should
    never fire in a healthy deployment.
    """


class TopologyError(ClickINCError):
    """The network topology is unsupported or inconsistent."""


class SynthesisError(ClickINCError):
    """User snippets could not be merged with the base program."""


class BackendError(ClickINCError):
    """Chip-specific code generation failed."""


class EmulationError(ClickINCError):
    """The network emulator hit an inconsistent state."""


class DeploymentError(ClickINCError):
    """The controller failed to deploy or remove a program at runtime."""
