"""Workload generators for the three INC applications.

The generators produce deterministic (seeded) packet streams matching the
workloads of the paper's evaluation: skewed key-value queries for KVS,
per-worker gradient packets for MLAgg (optionally sparse), and value streams
with duplicates for the SQL DISTINCT accelerator.

Streams are **resumable**: every workload instance owns its generator state,
so drawing packets in several calls yields exactly the stream one big call
would produce — ``w.packets(n); w.packets(n)`` equals ``w.packets(2 * n)``
from a fresh instance with the same seed.  That property is what lets the
sustained :class:`~repro.emulator.engine.TrafficEngine` emit traffic in timed
rounds without replaying (or diverging from) the single-shot streams the
functional tests use.  Each random purpose (key choice, read/write choice,
value payload) draws from its own seeded substream, so how many packets one
purpose consumed never shifts another purpose's sequence.  ``reset()``
rewinds a workload to the start of its stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.emulator.packet import Packet


def _zipf_cumulative(num_keys: int, skew: float) -> np.ndarray:
    """Cumulative probabilities of a truncated Zipf over ``num_keys`` keys."""
    ranks = np.arange(1, num_keys + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return np.cumsum(weights)


def _substream(seed: int, purpose: int) -> np.random.Generator:
    """An independent RNG substream for one (seed, purpose) pair."""
    return np.random.default_rng([int(seed), int(purpose)])


@dataclass
class KVSWorkload:
    """Skewed read-mostly key-value query stream."""

    src_group: str
    dst_group: str
    num_keys: int = 10000
    skew: float = 1.2
    read_ratio: float = 0.95
    owner: str = "kvs_0"
    seed: int = 11

    def __post_init__(self) -> None:
        self._cumulative = _zipf_cumulative(self.num_keys, self.skew)
        self.reset()

    def reset(self) -> None:
        """Rewind the stream to its beginning."""
        # one substream per purpose: interleaving reads and writes must not
        # shift the key sequence (the historic double-seeding bug created a
        # fresh rng and then drew keys from a second, separately seeded one)
        self._key_rng = _substream(self.seed, 0)
        self._op_rng = _substream(self.seed, 1)
        self._val_rng = _substream(self.seed, 2)

    def packets(self, count: int) -> List[Packet]:
        uniform = self._key_rng.random(count)
        keys = np.minimum(
            np.searchsorted(self._cumulative, uniform, side="right"),
            self.num_keys - 1,
        )
        is_read = self._op_rng.random(count) < self.read_ratio
        writes = int(count - is_read.sum())
        write_values = iter(self._val_rng.integers(0, 2 ** 31, size=writes))
        packets = []
        for key, read in zip(keys, is_read):
            packet = Packet(
                src_group=self.src_group,
                dst_group=self.dst_group,
                app="KVS",
                owner=self.owner,
                fields={
                    "op": 1 if read else 3,   # REQUEST / UPDATE
                    "key": int(key),
                    "vals": [0] if read else [int(next(write_values))],
                },
                payload_bytes=64,
            )
            packets.append(packet)
        return packets


@dataclass
class MLAggWorkload:
    """Gradient packets from a set of workers, optionally sparse.

    Every round, each worker sends one packet carrying the same sequence
    number and its own bitmap bit; the in-network aggregator sums them and
    returns one result, so ideal goodput is ``num_workers``:1 traffic
    reduction.
    """

    src_group: str
    dst_group: str
    num_workers: int = 8
    vector_dim: int = 24
    sparsity: float = 0.0
    owner: str = "mlagg_0"
    seed: int = 13
    value_scale: int = 1000

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._next_seq = 0

    def round_packets(self, seq: int) -> List[Packet]:
        rng = np.random.default_rng(self.seed + seq)
        packets = []
        for worker in range(self.num_workers):
            # gradients are quantised to non-negative integers (the paper's
            # float-to-int conversion applies a scale and offset), so the
            # switch's unsigned overflow check only fires on real overflow
            dense = rng.integers(0, self.value_scale, size=self.vector_dim)
            if self.sparsity > 0:
                mask = rng.random(self.vector_dim) >= self.sparsity
                dense = dense * mask
            packets.append(
                Packet(
                    src_group=self.src_group,
                    dst_group=self.dst_group,
                    app="MLAgg",
                    owner=self.owner,
                    fields={
                        "op": 0,
                        "seq": int(seq),
                        "bitmap": 1 << worker,
                        "data": [int(v) for v in dense],
                        "feat": [int(v) for v in dense],
                        "overflow": 0,
                    },
                    payload_bytes=16,
                )
            )
        return packets

    def packets(self, rounds: int) -> List[Packet]:
        all_packets: List[Packet] = []
        for seq in range(self._next_seq, self._next_seq + rounds):
            all_packets.extend(self.round_packets(seq))
        self._next_seq += rounds
        return all_packets


@dataclass
class DQAccWorkload:
    """A stream of values with duplicates for SQL DISTINCT acceleration."""

    src_group: str
    dst_group: str
    num_distinct: int = 500
    duplicate_ratio: float = 0.6
    owner: str = "dqacc_0"
    seed: int = 17

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._rng = _substream(self.seed, 0)
        self._seen: List[int] = []

    def packets(self, count: int) -> List[Packet]:
        rng = self._rng
        seen = self._seen
        packets = []
        for _ in range(count):
            if seen and rng.random() < self.duplicate_ratio:
                value = int(seen[int(rng.integers(0, len(seen)))])
            else:
                value = int(rng.integers(0, self.num_distinct))
                seen.append(value)
            packets.append(
                Packet(
                    src_group=self.src_group,
                    dst_group=self.dst_group,
                    app="DQAcc",
                    owner=self.owner,
                    fields={"op": 1, "value": value},
                    payload_bytes=64,
                )
            )
        return packets
