"""One controller shard: a full ClickINC stack plus its commit lock.

A :class:`ControllerShard` wraps one :class:`ClickINC` controller —
compiler, DP placer, incremental synthesizer, emulator, artifact/plan
cache, runtime manager — scoped to one partition region's view of the
topology (:meth:`~repro.topology.network.NetworkTopology.subview`), or to
the fabric itself when the partition has one region and no border.
Because a view shares ``Device``/``Link`` objects with the parent fabric,
resource accounting is globally consistent with zero coordination; because
the view's allocation epoch covers only the shard's own (plus border)
devices, commits in *other* shards never invalidate this shard's plan cache
or speculative placements.

Every mutation of shared state goes through :attr:`lock` — the shard's
commit lock.  Intra-shard work only ever takes its own lock, so shards
proceed in parallel; a cross-shard two-phase commit takes the locks of
every shard it touches (in deterministic order), making it a barrier for
exactly those shards and nobody else.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.core.controller import ClickINC
from repro.core.pipeline import DeployRequest, PipelineReport
from repro.core.stats import ShardCounters
from repro.synthesis.incremental import SynthesisDelta

__all__ = ["ControllerShard"]


class ControllerShard:
    """A per-region controller: own pipeline, caches and runtime.

    Parameters
    ----------
    shard_id:
        The partition region this shard serves (e.g. ``"pod0"``).
    controller:
        The :class:`ClickINC` controller serving the region; its topology
        is the shard's :attr:`view` (region devices + shared border).  The
        coordinator builds it with the placement memo it shares with every
        shard: memo keys are name-blind and content-addressed via the
        symmetric-pod sub-tree signatures, so a pod sub-tree table derived
        while placing in shard A is a direct hit for the isomorphic pod of
        shard B.
    """

    def __init__(self, shard_id: str, controller: ClickINC) -> None:
        self.shard_id = shard_id
        self.controller = controller
        self.view = controller.topology
        #: the shard's commit lock: intra-shard waves hold it for their
        #: commit phase, cross-shard prepares take it for the 2PC window
        self.lock = threading.RLock()
        self.stats = ShardCounters()

    # ------------------------------------------------------------------ #
    # device / group membership
    # ------------------------------------------------------------------ #
    def device_names(self) -> List[str]:
        """Every device visible to this shard (own region + border)."""
        return list(self.view.devices)

    def sees_device(self, name: str) -> bool:
        return name in self.view.devices

    def owns_group(self, group: str) -> bool:
        return group in self.view.host_groups

    def allocation_epoch(self) -> int:
        """The shard-scoped allocation epoch (view devices only)."""
        return self.view.allocation_epoch()

    # ------------------------------------------------------------------ #
    # intra-shard operations (serialised on the shard's own lock only)
    # ------------------------------------------------------------------ #
    def deploy_many(self, requests: Sequence[DeployRequest]
                    ) -> List[PipelineReport]:
        """Deploy a batch of intra-shard requests (shard-local wave).

        The pure phase runs *outside* the commit lock — it reads nothing
        but the requests and the artifact cache, so mid-compile commits by a
        cross-shard 2PC or a device event are harmless.  Only the commit
        phase holds the shard lock, which keeps it exactly the window
        cross-shard prepares ever wait on.
        """
        reports = self.controller.deploy_many(requests,
                                              commit_guard=self.lock)
        self.stats.increment(
            "deploys", sum(1 for r in reports if r.succeeded)
        )
        return reports

    def remove(self, name: str, lazy: bool = True) -> SynthesisDelta:
        with self.lock:
            delta = self.controller.remove(name, lazy=lazy)
            self.stats.increment("removed")
            return delta

    def update(self, name: str, **kwargs) -> PipelineReport:
        with self.lock:
            return self.controller.runtime().update_program(name, **kwargs)

    def runtime(self, auto_migrate: Optional[bool] = None):
        return self.controller.runtime(auto_migrate=auto_migrate)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def deployed_programs(self) -> List[str]:
        return self.controller.deployed_programs()

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = dict(self.stats.summary())
        summary["programs"] = len(self.controller.deployed)
        summary["devices"] = len(self.view.devices)
        summary["epoch"] = self.view.allocation_epoch()
        return summary

    def __repr__(self) -> str:
        return (
            f"ControllerShard({self.shard_id!r}, "
            f"devices={len(self.view.devices)}, "
            f"programs={len(self.controller.deployed)})"
        )
