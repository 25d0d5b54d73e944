"""Typed topology events emitted by the health layer.

A :class:`TopologyEvent` is one observed change of the network underneath
the running deployments: a device failing, draining or recovering, a link
flapping or being removed, or a device running hot under emulated traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Canonical event kinds.
DEVICE_DOWN = "device-down"
DEVICE_DRAIN = "device-drain"
DEVICE_UP = "device-up"
LINK_DOWN = "link-down"
LINK_UP = "link-up"
LINK_REMOVED = "link-removed"
DEVICE_OVERLOAD = "device-overload"

EVENT_KINDS = frozenset({
    DEVICE_DOWN,
    DEVICE_DRAIN,
    DEVICE_UP,
    LINK_DOWN,
    LINK_UP,
    LINK_REMOVED,
    DEVICE_OVERLOAD,
})

#: Kinds that require deployed programs to move off the subject device.
MIGRATION_KINDS = frozenset({DEVICE_DOWN, DEVICE_DRAIN})


@dataclass(frozen=True)
class TopologyEvent:
    """One observed change of the network's operational state.

    Attributes
    ----------
    kind:
        One of the module-level event-kind constants.
    device:
        The subject device for device events; for link events, one of the
        endpoints (the full pair is in :attr:`link`).
    link:
        The ``(a, b)`` endpoint pair for link events, lexicographically
        ordered; ``None`` for device events.
    detail:
        Free-form diagnostics (e.g. overload counters).
    """

    kind: str
    device: str
    link: Optional[Tuple[str, str]] = None
    detail: Dict[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown topology event kind {self.kind!r}")

    @property
    def subject(self) -> str:
        """Human-readable subject: the device name or ``a<->b`` link pair."""
        if self.link is not None:
            return f"{self.link[0]}<->{self.link[1]}"
        return self.device

    def needs_migration(self) -> bool:
        """True when deployments on the subject must be moved elsewhere."""
        return self.kind in MIGRATION_KINDS

    def __repr__(self) -> str:
        return f"TopologyEvent({self.kind}, {self.subject})"
