"""Cross-epoch memoisation for the DP placer.

The DP search of :class:`~repro.placement.dp.DPPlacer` decomposes into three
kinds of sub-solutions, each cached here across ``place()`` calls:

* **device feasibility** — can this device (plus bypass fallbacks) host this
  block interval?  One Algorithm 2 packing run per *distinct* key; symmetric
  devices share the answer because the key is the device's *content*
  (type + allocation-state digest), not its name.
* **interval gains** — the Eq. 1 gain of hosting an interval on a reduced
  node, keyed on the node's content signature.
* **sub-tree tables** — whole ``_client_dp`` / ``_server_dp`` DP tables,
  keyed on a recursive sub-tree signature so symmetric pods solve once and
  every isomorphic sibling reuses the table via ec-id correspondence.

Every key embeds a *context digest* (normalised program fingerprint, block
parameters, objective normalisation constants) and the allocation-state
digests of every device the sub-solution consulted
(:attr:`~repro.devices.base.AllocState.digest`).  Keys are therefore
**content-addressed**: any allocation change on a consulted device gives it
a new state and routes the lookup to a fresh key, so a superseded entry can
never be returned — and when a removal restores the allocation, the state
and therefore the key come back and the entry hits again.  That is why
nothing prunes by device: the entry a commit or a release would drop is the
next one asked for.  The memo is bounded by ``max_entries`` in total and LRU
is its only eviction.  A search reads one snapshot of the device states, so
the key and the value of every entry it stores come from one state, even
when a commit lands mid-search.

The store is locked (controller shards run in threads over one memo) and
counts its lookups; per-key single-flight guards keep concurrent users from
deriving the same sub-tree table twice.  The memo lives only in its process:
nothing is written to or read from disk.  Because every key is
content-addressed, sharing needs no coherence protocol.

Next to the sub-solutions every memo owns a :class:`ProgramFactsStore`: what
the search knows about a program's *content* before it sees a topology
(:class:`~repro.placement.facts.ProgramFacts`), kept for content that has
been seen before.  Their lookups are counted by the placer that makes
them, under their own names, never as memo ``hits`` / ``misses``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["PlacementMemo", "ProgramFactsStore", "MISS", "INFEASIBLE"]

#: sentinel returned by lookups when the key is absent (``None`` and floats
#: are valid cached values, so absence needs its own object)
MISS = object()

#: sentinel cached for intervals/devices proven infeasible
INFEASIBLE = object()

_Key = Tuple[Hashable, ...]


#: Most :class:`~repro.placement.facts.ProgramFacts` one store retains.  An
#: entry is ≈ 40 KB (block graph 5–14 KB, packing table 20–31 KB, matrices),
#: so the worst case is ≈ 2.6 MB per process; the paper's evaluation uses
#: about a dozen templates.
PROGRAM_FACTS_MAX_ENTRIES = 64

#: Most seen-once keys one store remembers (a 64-character digest and two
#: small values each, ≈ 0.2 KB: worst case ≈ 0.8 MB).  A content whose second
#: sight comes later than this many other first sights is seen "first" again.
PROGRAM_FACTS_MAX_SEEN_ONCE = 4096


class ProgramFactsStore:
    """Per-content facts, admitted on second sight, evicted by LRU.

    A key's first :meth:`offer` keeps the key and drops the value; the
    second admits it.  A stream of never-repeating contents therefore
    retains nothing but digests and cannot evict an admitted entry, at the
    price of one extra derivation per repeating content, once.  Keys and
    values are opaque here; every operation takes the store's lock (shard
    placers share one store from their own threads).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._facts: "OrderedDict[Hashable, object]" = OrderedDict()
        self._seen_once: "OrderedDict[Hashable, None]" = OrderedDict()

    def lookup(self, key: Hashable) -> Optional[object]:
        """The admitted value of *key* (refreshing its recency), or None."""
        with self._lock:
            facts = self._facts.get(key)
            if facts is not None:
                self._facts.move_to_end(key)
            return facts

    def offer(self, key: Hashable, facts: object) -> object:
        """Report a derivation of *key*; returns the value to work from.

        That is *facts*, unless a concurrent search was admitted first —
        then its value is returned, so equal contents share one object.
        """
        with self._lock:
            admitted = self._facts.get(key)
            if admitted is not None:
                return admitted
            if key in self._seen_once:
                del self._seen_once[key]
                self._facts[key] = facts
                if len(self._facts) > PROGRAM_FACTS_MAX_ENTRIES:
                    self._facts.popitem(last=False)
            else:
                self._seen_once[key] = None
                if len(self._seen_once) > PROGRAM_FACTS_MAX_SEEN_ONCE:
                    self._seen_once.popitem(last=False)
            return facts

    def clear(self) -> None:
        with self._lock:
            self._facts.clear()
            self._seen_once.clear()

    def __len__(self) -> int:
        """Retained facts (seen-once keys are not entries)."""
        with self._lock:
            return len(self._facts)

    def summary(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._facts),
                    "seen_once": len(self._seen_once)}


class PlacementMemo:
    """Three LRU stores under one total bound of ``max_entries``.

    One memo handed to every controller shard is what lets shard A's pod
    sub-tree table warm shard B (all keys are name-blind and
    content-addressed, so reuse across shard views is sound by
    construction).  Every public operation is thread-safe — controller
    shards run in threads and share one ``Device`` world, hence potentially
    one memo — and lookups are counted (:attr:`counters`).  Next to the
    stores it offers:

    * :meth:`table_guard`, per-key **single-flight** for concurrent users:
      the second thread asking for an uncached sub-tree table blocks until
      the first finishes deriving it, then hits.
    """

    def __init__(self, max_entries: int = 100000) -> None:
        from repro.core.stats import MemoCounters  # local: avoids an import
        # cycle (repro.core.__init__ imports the controller, which imports
        # the placer, which imports this module)

        self.max_entries = max(16, int(max_entries))
        #: per-content search inputs; not a sub-solution store — outside
        #: ``len()`` / ``sizes()`` / ``max_entries``
        self.program_facts = ProgramFactsStore()
        #: store name -> OrderedDict key -> value
        self._stores: Dict[str, "OrderedDict[_Key, object]"] = {
            "device": OrderedDict(),
            "interval": OrderedDict(),
            "table": OrderedDict(),
        }
        self._lock = threading.RLock()
        #: per-key single-flight guards: key -> [lock, waiter count]
        self._guards: Dict[_Key, List[object]] = {}
        self._guard_meta = threading.Lock()
        self.counters = MemoCounters()

    # ------------------------------------------------------------------ #
    # generic store plumbing
    # ------------------------------------------------------------------ #
    def _lookup(self, store: str, key: _Key) -> object:
        with self._lock:
            entries = self._stores[store]
            value = entries.get(key, MISS)
            if value is MISS:
                self.counters.increment("misses")
                return MISS
            entries.move_to_end(key)
            self.counters.increment("hits")
            return value

    def _store(self, store: str, key: _Key, value: object) -> None:
        with self._lock:
            entries = self._stores[store]
            entries[key] = value
            entries.move_to_end(key)
            # over the total bound the largest store gives up its oldest
            # entry, which keeps the few, expensive sub-tree tables longest
            stores = self._stores.values()
            while sum(map(len, stores)) > self.max_entries:
                max(stores, key=len).popitem(last=False)

    # ------------------------------------------------------------------ #
    # typed accessors
    # ------------------------------------------------------------------ #
    def lookup_device(self, key: _Key) -> object:
        """Feasibility of one (context, interval, device-content) key."""
        return self._lookup("device", key)

    def store_device(self, key: _Key, feasible: bool) -> None:
        self._store("device", key, feasible)

    def lookup_interval(self, key: _Key) -> object:
        """Gain (or :data:`INFEASIBLE`) of one (context, node, interval) key."""
        return self._lookup("interval", key)

    def store_interval(self, key: _Key, value: object) -> None:
        self._store("interval", key, value)

    def lookup_table(self, key: _Key) -> object:
        """A stored ``(dfs_ec_ids, dp_table, stamps)`` for a sub-tree signature."""
        return self._lookup("table", key)

    def store_table(self, key: _Key, value: object) -> None:
        self._store("table", key, value)

    # ------------------------------------------------------------------ #
    # single-flight
    # ------------------------------------------------------------------ #
    @contextmanager
    def table_guard(self, key: _Key):
        """Serialise concurrent derivations of one uncached key.

        The caller re-checks the memo under the guard: the second thread
        through blocks while the first derives and stores, then hits on
        the re-check instead of re-deriving.  Per-key locks cannot
        deadlock across keys: a thread only ever waits on a *descendant*
        sub-tree's key while holding an ancestor's, and signature
        containment is a strict partial order (a sub-tree signature
        embeds its descendants' content, so no cycle of containment can
        exist).  Guards are dropped as soon as nobody holds or awaits
        them, so the dict stays bounded by live concurrency.
        """
        with self._guard_meta:
            entry = self._guards.get(key)
            if entry is None:
                entry = [threading.RLock(), 0]
                self._guards[key] = entry
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._guard_meta:
                entry[1] -= 1
                if entry[1] <= 0:
                    self._guards.pop(key, None)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop everything; returns the number of sub-solutions dropped."""
        with self._lock:
            total = len(self)
            for entries in self._stores.values():
                entries.clear()
            self.program_facts.clear()
            return total

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._stores.values())

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            return {store: len(entries)
                    for store, entries in self._stores.items()}

    def summary(self) -> Dict[str, object]:
        summary = {"entries": len(self), "sizes": self.sizes(),
                   "program_facts": self.program_facts.summary()}
        summary.update(self.counters.summary())
        return summary
