"""End-to-end INC applications built on the ClickINC public API.

Each application bundles the profile it submits to the controller and the
workload generator for its traffic, so examples, tests and benchmarks can
measure correctness and benefit.
"""

from repro.apps.kvs import KVSApplication
from repro.apps.mlagg import MLAggApplication, SparseMLAggApplication
from repro.apps.dqacc import DQAccApplication
from repro.apps.autoconfig import ParameterAutoConfigurator, ResourceModel

__all__ = [
    "KVSApplication",
    "MLAggApplication",
    "SparseMLAggApplication",
    "DQAccApplication",
    "ParameterAutoConfigurator",
    "ResourceModel",
]
