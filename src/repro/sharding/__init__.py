"""Controller sharding: partitioned topology regions + cross-shard 2PC.

The control-plane scale-out layer.  A fabric is partitioned into regions
(:class:`~repro.topology.partition.PartitionMap` — per-pod by default),
each served by a :class:`ControllerShard` with its own plan cache and
runtime manager over a shard-local topology view; the
:class:`ShardCoordinator` routes deployments, drives the cross-shard
two-phase commit for programs whose traffic spans regions, and escalates
migrations a shard cannot solve inside its own view.

A whole-fabric single shard is the degenerate case: one controller over
the fabric itself, which is also the coordinator's full-fabric controller.
Every :class:`~repro.core.INCService` runs over a coordinator — the
default one over exactly that single shard.
"""

from repro.sharding.coordinator import (
    CROSS_SHARD,
    ShardCoordinator,
    ShardedEventReport,
)
from repro.sharding.shard import ControllerShard

__all__ = [
    "CROSS_SHARD",
    "ControllerShard",
    "ShardCoordinator",
    "ShardedEventReport",
]
