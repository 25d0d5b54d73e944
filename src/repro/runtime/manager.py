"""Runtime operations: failure handling, live migration, rolling updates.

The :class:`RuntimeManager` is the acting half of the runtime layer.  It
sits on top of a :class:`~repro.core.controller.ClickINC` controller and
makes committed deployments survive change:

* **failures and drains** — :meth:`fail_device` / :meth:`drain_device` flip
  the device's status (giving it a new allocation state, so stale
  speculative plans and cache entries stop validating) and live-migrate exactly the
  programs whose committed plans occupy the device, found through a
  per-device owner index.  Untouched tenants keep their plans, allocations
  and emulator installs byte-for-byte.
* **live migration** — the affected programs are replaced by
  re-placements of themselves in one
  :meth:`~repro.core.pipeline.CompilationPipeline.swap`: all are released,
  then re-placed one at a time through the serial commit phase against the
  surviving topology, carrying the register/table state of their surviving
  devices (a failed device's memory is gone).  If any cannot be re-placed
  the swap puts every original plan and its state back unchanged.
* **rolling updates** — :meth:`update_program` swaps a program for a new
  version through the same swap.

The manager subscribes to a :class:`~repro.runtime.health.HealthMonitor`,
so status changes made directly on the topology (and discovered by
``poll()``) trigger the same migrations as the explicit methods.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import Observability
from repro.core.stats import CounterMixin
from repro.exceptions import DeploymentError
from repro.runtime.events import (
    DEVICE_DOWN,
    DEVICE_DRAIN,
    DEVICE_OVERLOAD,
    DEVICE_UP,
    LINK_DOWN,
    TopologyEvent,
)
from repro.runtime.health import HealthMonitor

__all__ = ["RuntimeManager", "MigrationReport", "RuntimeStats"]


@dataclass
class MigrationReport:
    """Outcome of one migration wave (one failure/drain/link event)."""

    trigger: str                       # event kind or explicit reason
    subject: str                       # device name or link pair
    affected: List[str] = field(default_factory=list)
    migrated: List[str] = field(default_factory=list)
    rolled_back: bool = False
    error: Optional[str] = None
    duration_s: float = 0.0
    #: owner -> devices before / after, for observability
    old_devices: Dict[str, List[str]] = field(default_factory=dict)
    new_devices: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return not self.rolled_back and self.error is None

    def summary(self) -> Dict[str, object]:
        return {
            "trigger": self.trigger,
            "subject": self.subject,
            "affected": list(self.affected),
            "migrated": list(self.migrated),
            "rolled_back": self.rolled_back,
            "error": self.error,
            "duration_s": round(self.duration_s, 4),
        }


@dataclass
class RuntimeStats(CounterMixin):
    """Running counters of the runtime layer's activity.

    Updated exclusively through
    :meth:`~repro.core.stats.CounterMixin.increment`, never by ad-hoc
    attribute arithmetic at the call sites.
    """

    migrations: int = 0
    migrated_programs: int = 0
    rollbacks: int = 0
    updates: int = 0
    failed_updates: int = 0
    overload_events: int = 0


class RuntimeManager:
    """Keeps a controller's deployments running as the network changes.

    Parameters
    ----------
    controller:
        The :class:`~repro.core.controller.ClickINC` whose deployments this
        manager maintains.
    monitor:
        An optional existing :class:`HealthMonitor`; by default the manager
        builds one over the controller's topology.
    auto_migrate:
        React to ``device-down`` / ``device-drain`` events discovered by
        ``monitor.poll()`` by migrating automatically.  The explicit
        :meth:`fail_device` / :meth:`drain_device` methods always migrate.
    """

    def __init__(self, controller, monitor: Optional[HealthMonitor] = None,
                 auto_migrate: bool = True,
                 obs: Optional[Observability] = None) -> None:
        self.controller = controller
        self.monitor = monitor or HealthMonitor(controller.topology)
        self.auto_migrate = auto_migrate
        self.stats = RuntimeStats()
        self.obs = obs if obs is not None \
            else getattr(controller, "obs", None) or Observability.default()
        self.obs.registry.register_counters("clickinc_runtime", self.stats)
        self._recovery_hist = self.obs.registry.histogram(
            "clickinc_migration_recovery_seconds",
            "Wall-clock seconds per migration wave (trigger to recovery)",
        )
        self.monitor.bind_metrics(self.obs)
        #: recent migration reports; bounded — an always-on service handles
        #: an unbounded number of events, aggregates live in ``stats``
        self.migration_log: "deque[MigrationReport]" = deque(maxlen=64)
        #: reentrancy guard: explicit fail/drain calls emit their event and
        #: then migrate themselves — _on_event must not react to those
        self._in_explicit_op = False
        self.monitor.subscribe(self._on_event)

    # ------------------------------------------------------------------ #
    # owner indexing
    # ------------------------------------------------------------------ #
    def owner_index(self) -> Dict[str, List[str]]:
        """Reverse index ``device -> owners`` over committed plans."""
        index: Dict[str, List[str]] = {}
        for name in self.controller.deployed_programs():
            for device in self.controller.deployed[name].devices():
                index.setdefault(device, []).append(name)
        return index

    def owners_on_device(self, device_name: str) -> List[str]:
        """Programs whose committed plan occupies *device_name*."""
        return sorted(self.owner_index().get(device_name, []))

    def owners_on_link(self, a: str, b: str) -> List[str]:
        """Programs whose committed plan occupies both link endpoints.

        A program using both endpoints may depend on the direct hop between
        them, so a link failure conservatively re-places all of them; the
        re-placement simply reproduces the old plan when the program never
        relied on the failed hop.
        """
        index = self.owner_index()
        return sorted(set(index.get(a, [])) & set(index.get(b, [])))

    # ------------------------------------------------------------------ #
    # explicit operations
    # ------------------------------------------------------------------ #
    def fail_device(self, name: str) -> MigrationReport:
        """Mark *name* failed and migrate every program it hosted.

        The device's runtime memory is treated as lost: migrated programs
        carry only the state held on their surviving devices.
        """
        self.controller.topology.set_device_status(name, "down")
        self.monitor.refresh()
        self._emit_explicit(TopologyEvent(kind=DEVICE_DOWN, device=name))
        return self.migrate_device(name, trigger=DEVICE_DOWN, state_lost=True)

    def drain_device(self, name: str) -> MigrationReport:
        """Drain *name* for maintenance: migrate its programs, keep state.

        Unlike a failure, the drained device is still reachable, so the
        migration carries its register/table state to the new placement.
        """
        self.controller.topology.set_device_status(name, "drain")
        self.monitor.refresh()
        self._emit_explicit(TopologyEvent(kind=DEVICE_DRAIN, device=name))
        return self.migrate_device(name, trigger=DEVICE_DRAIN,
                                   state_lost=False)

    def restore_device(self, name: str) -> bool:
        """Bring a failed/drained device back into service.

        Existing deployments stay where the migration put them; the device
        simply becomes available to future placements.  Returns True when
        the status actually changed.
        """
        changed = self.controller.topology.set_device_status(name, "up")
        self.monitor.refresh()
        if changed:
            self._emit_explicit(TopologyEvent(kind=DEVICE_UP, device=name))
        return changed

    def fail_link(self, a: str, b: str) -> MigrationReport:
        """Mark the ``a<->b`` link down and re-place the programs using it."""
        self.controller.topology.set_link_status(a, b, "down")
        self.monitor.refresh()
        pair = (a, b) if a <= b else (b, a)
        self._emit_explicit(TopologyEvent(kind=LINK_DOWN, device=pair[0],
                                          link=pair))
        return self._migrate(
            owners=self.owners_on_link(a, b),
            trigger="link-down",
            subject=f"{a}<->{b}",
            state_lost=False,
            skip_devices=(),
        )

    def migrate_device(self, name: str, trigger: str = "manual",
                       state_lost: bool = False) -> MigrationReport:
        """Migrate every program currently occupying *name*."""
        return self._migrate(
            owners=self.owners_on_device(name),
            trigger=trigger,
            subject=name,
            state_lost=state_lost,
            skip_devices=(name,),
        )

    # ------------------------------------------------------------------ #
    # rolling updates
    # ------------------------------------------------------------------ #
    def update_program(self, name: str, **kwargs):
        """Swap a deployed program for a new version, atomically.

        Delegates to :meth:`ClickINC.update_program
        <repro.core.controller.ClickINC.update_program>`; see there for the
        keyword arguments (``source`` / ``profile`` / ``program`` plus
        compile options).  Counts the outcome in :attr:`stats`.
        """
        try:
            report = self.controller.update_program(name, **kwargs)
        except Exception:
            self.stats.increment("failed_updates")
            raise
        self.stats.increment("updates")
        return report

    # ------------------------------------------------------------------ #
    # event handling
    # ------------------------------------------------------------------ #
    def _emit_explicit(self, event: TopologyEvent) -> None:
        """Emit an event from an explicit operation that migrates itself."""
        self._in_explicit_op = True
        try:
            self.monitor.emit(event)
        finally:
            self._in_explicit_op = False

    def _on_event(self, event: TopologyEvent) -> None:
        if event.kind == DEVICE_OVERLOAD:
            self.stats.increment("overload_events")
            return
        if (self._in_explicit_op or not self.auto_migrate
                or not event.needs_migration()):
            return
        # poll()-discovered external status change: migrate the survivors
        if self.owners_on_device(event.device):
            self.migrate_device(
                event.device,
                trigger=event.kind,
                state_lost=event.kind == DEVICE_DOWN,
            )

    # ------------------------------------------------------------------ #
    # the migration engine
    # ------------------------------------------------------------------ #
    def _migrate(self, owners: Sequence[str], trigger: str, subject: str,
                 state_lost: bool,
                 skip_devices: Sequence[str]) -> MigrationReport:
        """Re-place *owners* as one :meth:`CompilationPipeline.swap
        <repro.core.pipeline.CompilationPipeline.swap>`.

        Every affected program is released before any is re-placed (their
        combined capacity must be free, or k programs squeezed onto the
        survivors could spuriously fail one at a time), then each is
        re-placed in order against the surviving topology, carrying the
        state its surviving devices held.  If any step fails the swap puts
        the pre-event committed state back and the report says
        ``rolled_back``.
        """
        start = time.perf_counter()
        report = MigrationReport(trigger=trigger, subject=subject,
                                 affected=list(owners))
        controller = self.controller
        olds = []
        for owner in owners:
            deployed = controller.deployed.get(owner)
            if deployed is None:
                raise DeploymentError(
                    f"program {owner!r} is not registered with the controller"
                )
            olds.append(deployed)
            report.old_devices[owner] = deployed.devices()
        if olds:
            try:
                reports = controller.pipeline.swap(
                    olds, [deployed.request() for deployed in olds],
                    lost=skip_devices if state_lost else ())
            except Exception as exc:
                # the swap reinstalled every original under its old record
                failed = ("removal failed: "
                          if getattr(exc, "pipeline_stage", None) == "removal"
                          else "")
                report.rolled_back = True
                report.error = f"{getattr(exc, 'swap_program', '?')}: " \
                               f"{failed}{exc}"
                self.stats.increment("rollbacks")
            else:
                for run_report in reports:
                    controller.deployed[run_report.program_name] = (
                        run_report.deployed)
                    report.new_devices[run_report.program_name] = (
                        run_report.deployed.devices())
                report.migrated = list(owners)
                self.stats.increment("migrations")
                self.stats.increment("migrated_programs", len(owners))
        report.duration_s = time.perf_counter() - start
        self._log(report)
        return report

    def _log(self, report: MigrationReport) -> None:
        self.migration_log.append(report)
        self._recovery_hist.observe(report.duration_s)
        self.obs.events.emit(
            "migration", trigger=report.trigger, subject=report.subject,
            migrated=list(report.migrated), rolled_back=report.rolled_back,
            error=report.error, duration_s=round(report.duration_s, 6),
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def runtime_summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = dict(self.stats.summary())
        summary["events"] = self.monitor.event_counts()
        # name -> status, so a failed switch (state lost) is distinguishable
        # from a healthy drained one (state intact)
        summary["unavailable_devices"] = (
            self.controller.topology.unavailable_devices()
        )
        return summary
