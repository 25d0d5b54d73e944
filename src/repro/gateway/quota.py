"""Per-tenant quota accounting: programs, devices, in-flight submissions.

The :class:`QuotaLedger` is the gateway's admission-time bookkeeping.  It
runs entirely on the event loop (no locks): a submission **reserves** a
program slot and an in-flight slot before it is queued, the reservation is
**settled** when the pipeline reports back — into a committed program on
success, or released on failure — and ``remove`` releases the committed
entry.  Reserving up front is what makes quota exhaustion *mid-wave* exact:
four concurrent submissions against a two-program quota admit exactly two,
no matter how the wave interleaves, because the third reservation already
sees the first two.

The ledger keeps program names and reservations only.  How many devices a
program occupies is read when a check or a status page needs it, from the
registry of the controller hosting it, so a program an update or a
migration moved is counted where it is now.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set

from repro.gateway.auth import Tenant
from repro.gateway.wire import WireError

__all__ = ["QuotaLedger"]


def _quota_error(message: str) -> WireError:
    return WireError(403, "quota_exceeded", message)


@dataclass
class _TenantUsage:
    """Live usage of one tenant: committed programs plus reservations."""

    #: wire names of the committed programs
    programs: Set[str] = field(default_factory=set)
    #: submissions reserved (queued or compiling) but not yet settled
    in_flight: int = 0


class QuotaLedger:
    """Admission-time quota checks and usage tracking, per tenant.

    *devices_of(tenant, wire_name)* answers how many devices a committed
    program occupies now.
    """

    def __init__(self, devices_of: Callable[[Tenant, str], int]) -> None:
        self._devices_of = devices_of
        self._usage: Dict[str, _TenantUsage] = {}

    def _usage_of(self, tenant_id: str) -> _TenantUsage:
        return self._usage.setdefault(tenant_id, _TenantUsage())

    def devices_used(self, tenant: Tenant) -> int:
        """Devices the tenant's committed programs occupy now."""
        return sum(self._devices_of(tenant, name)
                   for name in self._usage_of(tenant.tenant_id).programs)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def reserve(self, tenant: Tenant, wire_name: str) -> None:
        """Claim a program + in-flight slot for one submission, or raise.

        Raises ``409 conflict`` for a name the tenant already deployed (or
        has in flight), ``403 quota_exceeded`` when a ceiling is hit.  The
        caller must settle every successful reservation exactly once
        (:meth:`commit` or :meth:`release_reservation`).
        """
        usage = self._usage_of(tenant.tenant_id)
        quota = tenant.quota
        if wire_name in usage.programs:
            raise WireError(409, "conflict",
                            f"program {wire_name!r} is already deployed")
        if quota.max_in_flight and usage.in_flight >= quota.max_in_flight:
            raise _quota_error(
                f"tenant {tenant.tenant_id!r} already has"
                f" {usage.in_flight} submissions in flight"
                f" (max_in_flight={quota.max_in_flight})"
            )
        reserved = len(usage.programs) + usage.in_flight
        if quota.max_programs and reserved >= quota.max_programs:
            raise _quota_error(
                f"tenant {tenant.tenant_id!r} has {len(usage.programs)}"
                f" programs and {usage.in_flight} in flight"
                f" (max_programs={quota.max_programs})"
            )
        if quota.max_devices:
            devices = self.devices_used(tenant)
            if devices >= quota.max_devices:
                raise _quota_error(
                    f"tenant {tenant.tenant_id!r} occupies {devices} devices"
                    f" (max_devices={quota.max_devices}); remove programs to"
                    " admit new ones"
                )
        usage.in_flight += 1

    # ------------------------------------------------------------------ #
    # settlement
    # ------------------------------------------------------------------ #
    def commit(self, tenant: Tenant, wire_name: str) -> None:
        """Settle a reservation into a committed program."""
        usage = self._usage_of(tenant.tenant_id)
        usage.in_flight = max(0, usage.in_flight - 1)
        usage.programs.add(wire_name)

    def release_reservation(self, tenant: Tenant) -> None:
        """Settle a reservation whose submission did not commit."""
        usage = self._usage_of(tenant.tenant_id)
        usage.in_flight = max(0, usage.in_flight - 1)

    def release_program(self, tenant: Tenant, wire_name: str) -> None:
        """Release a committed program (after a successful remove)."""
        self._usage_of(tenant.tenant_id).programs.discard(wire_name)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def owns(self, tenant: Tenant, wire_name: str) -> bool:
        return wire_name in self._usage_of(tenant.tenant_id).programs

    def programs(self, tenant: Tenant) -> List[str]:
        return sorted(self._usage_of(tenant.tenant_id).programs)

    def usage_summary(self, tenant: Tenant) -> Dict[str, object]:
        usage = self._usage_of(tenant.tenant_id)
        return {
            "programs": len(usage.programs),
            "devices": self.devices_used(tenant),
            "in_flight": usage.in_flight,
            "max_programs": tenant.quota.max_programs,
            "max_devices": tenant.quota.max_devices,
            "max_in_flight": tenant.quota.max_in_flight,
        }
