"""One controller shard: a full ClickINC stack plus its commit lock.

A :class:`ControllerShard` wraps one :class:`ClickINC` controller —
compiler, DP placer, incremental synthesizer, emulator, artifact/plan
cache, runtime manager — scoped to one partition region's view of the
topology (:meth:`~repro.topology.network.NetworkTopology.subview`), or to
the fabric itself when the partition has one region and no border.
Because a view shares ``Device``/``Link`` objects with the parent fabric,
resource accounting is globally consistent with zero coordination; because
the shard's plan cache and speculative placements read only its own (plus
border) devices' states, commits in *other* shards never invalidate them.

Every mutation of shared state goes through :attr:`lock` — the shard's
commit lock.  Intra-shard work only ever takes its own lock, so shards
proceed in parallel; a cross-shard two-phase commit takes the locks of
every shard it touches (in deterministic order), making it a barrier for
exactly those shards and nobody else.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.core.controller import ClickINC
from repro.core.stats import ShardCounters

__all__ = ["ControllerShard"]


class ControllerShard:
    """A per-region controller plus the lock and counters the coordinator
    keeps for it; every operation goes through the coordinator.

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

    def sees_device(self, name: str) -> bool:
        return name in self.view.devices

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = dict(self.stats.summary())
        summary["programs"] = len(self.controller.deployed)
        summary["devices"] = len(self.view.devices)
        return summary
