"""Cross-epoch memoisation for the DP placer.

The DP search of :class:`~repro.placement.dp.DPPlacer` decomposes into three
kinds of sub-solutions, each cached here across ``place()`` calls:

* **device feasibility** — can this device (plus bypass fallbacks) host this
  block interval?  One :class:`~repro.placement.intra.IntraDeviceAllocator`
  run per *distinct* key; symmetric devices share the answer because the key
  is the device's *content* (type + allocation fingerprint), not its name.
* **interval gains** — the Eq. 1 gain of hosting an interval on a reduced
  node, keyed on the node's content signature.
* **sub-tree tables** — whole ``_client_dp`` / ``_server_dp`` DP tables,
  keyed on a recursive sub-tree signature so symmetric pods solve once and
  every isomorphic sibling reuses the table via ec-id correspondence.

Every key embeds a *context digest* (normalised program fingerprint, block
parameters, objective normalisation constants) and the allocation
fingerprints of every device the sub-solution consulted
(:meth:`~repro.devices.base.Device.allocation_fingerprint`).  Keys are
therefore **content-addressed**: any allocation change on a consulted device
changes its fingerprint and routes the lookup to a fresh key, so a
superseded entry can never be returned — and when a removal restores the
allocation, the fingerprint and therefore the key come back and the entry
hits again.  That is why nothing prunes by device: the entry a commit or a
release would drop is the next one asked for.  The memo is bounded by
``max_entries`` in total and LRU is its only eviction.

:class:`SharedPlacementMemo` is the same store plus what sharing needs: a
lock (controller shards run in threads over one memo), hit/miss counters, a
sequence-numbered delta log so process-pool workers can ship newly derived
entries back to the parent and receive batched delta sync, per-key
single-flight guards so concurrent in-process users never derive the same
sub-tree table twice, and on-disk persistence with fingerprint validation
for warm restarts.  Because every key is content-addressed, sharing needs no
coherence protocol: a missed or dropped delta costs a re-derivation, never a
wrong answer.

Next to the sub-solutions every memo owns a :class:`ProgramFactsStore`: what
the search knows about a program's *content* before it sees a topology
(:class:`~repro.placement.facts.ProgramFacts`), kept for content that has
been seen before.  It is process-local by design — facts are not logged as
deltas, not saved or restored, and never pickled to a worker (a worker's own
memo has its own store) — and its lookups are counted by the placer that
makes them, under their own names, never as memo ``hits`` / ``misses``.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

__all__ = [
    "PlacementMemo",
    "ProgramFactsStore",
    "SharedPlacementMemo",
    "MISS",
    "INFEASIBLE",
    "MEMO_FILE_FORMAT",
    "topology_structure_signature",
]

#: On-disk format version of :meth:`SharedPlacementMemo.save` files; bumped
#: whenever the entry layout changes so a restart never misreads old files.
MEMO_FILE_FORMAT = 1


class _Sentinel:
    """A pickle-stable singleton marker.

    The memo's sentinels are compared by identity (``is MISS``), which bare
    ``object()`` instances do not survive: unpickling creates a *new*
    object, so a sentinel that crossed a process boundary (worker delta
    blobs) or a restart (persisted memo files) would stop comparing equal.
    ``__reduce__`` routes unpickling back through the per-tag registry, so
    identity is preserved across pickling, forks and restarts.
    """

    _registry: Dict[str, "_Sentinel"] = {}

    __slots__ = ("_tag",)

    def __new__(cls, tag: str) -> "_Sentinel":
        existing = cls._registry.get(tag)
        if existing is not None:
            return existing
        instance = super().__new__(cls)
        instance._tag = tag
        cls._registry[tag] = instance
        return instance

    def __reduce__(self):
        return (_Sentinel, (self._tag,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<memo.{self._tag}>"


#: sentinel returned by lookups when the key is absent (``None`` and floats
#: are valid cached values, so absence needs its own object)
MISS = _Sentinel("MISS")

#: sentinel cached for intervals/devices proven infeasible
INFEASIBLE = _Sentinel("INFEASIBLE")

_Key = Tuple[Hashable, ...]


def topology_structure_signature(topology) -> str:
    """Hash of a topology's *static* shape (names, types, stage counts).

    A persisted memo file is only meaningful against the fabric it was
    derived on; this signature pins that association without freezing the
    *mutable* allocation state (which the per-device fingerprints in the
    file header validate separately).
    """
    payload = sorted(
        (device.name, device.dev_type, device.num_stages)
        for device in topology.devices.values()
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


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
    """Three LRU stores under one total bound of ``max_entries``."""

    def __init__(self, max_entries: int = 100000) -> None:
        self.max_entries = max(16, int(max_entries))
        #: per-content search inputs; not a sub-solution store — outside
        #: ``len()`` / ``sizes()`` / ``max_entries``, deltas and persistence
        self.program_facts = ProgramFactsStore()
        #: store name -> OrderedDict key -> (value, consulted device names);
        #: the names are what ``restore`` validates and the delta wire
        #: format carries, not an eviction index
        self._stores: Dict[str, "OrderedDict[_Key, Tuple[object, Tuple[str, ...]]]"] = {
            "device": OrderedDict(),
            "interval": OrderedDict(),
            "table": OrderedDict(),
        }

    # ------------------------------------------------------------------ #
    # generic store plumbing
    # ------------------------------------------------------------------ #
    def _lookup(self, store: str, key: _Key) -> object:
        entries = self._stores[store]
        entry = entries.get(key)
        if entry is None:
            return MISS
        entries.move_to_end(key)
        return entry[0]

    def _store(self, store: str, key: _Key, value: object,
               devices: Iterable[str]) -> None:
        entries = self._stores[store]
        entries[key] = (value, tuple(devices))
        entries.move_to_end(key)
        # over the total bound the largest store gives up its oldest entry,
        # which keeps the few, expensive sub-tree tables longest
        stores = self._stores.values()
        while sum(map(len, stores)) > self.max_entries:
            max(stores, key=len).popitem(last=False)

    # ------------------------------------------------------------------ #
    # typed accessors
    # ------------------------------------------------------------------ #
    def lookup_device(self, key: _Key) -> object:
        """Feasibility of one (context, interval, device-content) key."""
        return self._lookup("device", key)

    def store_device(self, key: _Key, feasible: bool,
                     devices: Iterable[str]) -> None:
        self._store("device", key, feasible, devices)

    def lookup_interval(self, key: _Key) -> object:
        """Gain (or :data:`INFEASIBLE`) of one (context, node, interval) key."""
        return self._lookup("interval", key)

    def store_interval(self, key: _Key, value: object,
                       devices: Iterable[str]) -> None:
        self._store("interval", key, value, devices)

    def lookup_table(self, key: _Key) -> object:
        """A stored ``(dfs_ec_ids, dp_table, stamps)`` for a sub-tree signature."""
        return self._lookup("table", key)

    def store_table(self, key: _Key, value: object,
                    devices: Iterable[str]) -> None:
        self._store("table", key, value, devices)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop everything; returns the number of sub-solutions dropped."""
        total = len(self)
        for entries in self._stores.values():
            entries.clear()
        self.program_facts.clear()
        return total

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._stores.values())

    def sizes(self) -> Dict[str, int]:
        return {store: len(entries) for store, entries in self._stores.items()}

    def summary(self) -> Dict[str, object]:
        return {"entries": len(self), "sizes": self.sizes(),
                "program_facts": self.program_facts.summary()}


class SharedPlacementMemo(PlacementMemo):
    """A process-shared, persistable placement memo.

    The inherited stores *are* the memo — one :class:`SharedPlacementMemo`
    handed to every controller shard is what lets shard A's pod sub-tree
    table warm shard B (all keys are name-blind and
    fingerprint-addressed, so reuse across shard views is sound by
    construction).  This class adds what sharing needs:

    * a sequence-numbered **delta log** feeds the worker-pool sync
      protocol: :meth:`export_delta` packages entries derived since a
      watermark into one pickled blob, :meth:`apply_delta` merges a blob
      from another process.  Sync is *lossy-safe* — a dropped blob (idle
      worker, trimmed log) costs a re-derivation, never a wrong answer —
      so the log is bounded rather than durable;
    * :meth:`table_guard` provides per-key **single-flight** for
      concurrent in-process users: the second thread asking for an
      uncached sub-tree table blocks until the first finishes deriving
      it, then hits.  (Process-pool workers have no shared locks; their
      duplicate derivations are collapsed at delta-merge time and show up
      in ``counters.duplicate_entries``.)
    * :meth:`save` / :meth:`restore` persist the store next to the
      artifact cache and bring it back after a controller/service
      restart, validating the file's topology signature and per-device
      allocation fingerprints so only still-live sub-solutions return.

    All public operations are thread-safe (controller shards run in
    threads and share one ``Device`` world, hence potentially one memo).
    The *type* is also what tells
    :class:`~repro.core.parallel.ParallelCompileService` that pool workers
    should exchange memo deltas; a plain :class:`PlacementMemo` stays
    private to its process.
    """

    def __init__(self, max_entries: int = 100000,
                 max_log_entries: int = 50000) -> None:
        super().__init__(max_entries)
        self._lock = threading.RLock()
        self.max_log_entries = max(16, int(max_log_entries))
        #: delta log: (seq, store, key, value, names), oldest first
        self._log: List[Tuple[int, str, _Key, object, Tuple[str, ...]]] = []
        self._log_seq = 0
        #: per-key single-flight guards: key -> [lock, waiter count]
        self._guards: Dict[_Key, List[object]] = {}
        self._guard_meta = threading.Lock()
        from repro.core.stats import MemoCounters  # local: avoids an import
        # cycle (repro.core.__init__ imports the controller, which imports
        # the placer, which imports this module)

        self.counters = MemoCounters()

    # ------------------------------------------------------------------ #
    # locked, counted, logged store plumbing
    # ------------------------------------------------------------------ #
    def _lookup(self, store: str, key: _Key) -> object:
        with self._lock:
            value = super()._lookup(store, key)
            self.counters.increment("misses" if value is MISS else "hits")
            return value

    def _store(self, store: str, key: _Key, value: object,
               devices: Iterable[str]) -> None:
        names = tuple(devices)
        with self._lock:
            super()._store(store, key, value, names)
            self._append_log(store, key, value, names)

    def _append_log(self, store: str, key: _Key, value: object,
                    names: Tuple[str, ...]) -> None:
        self._log_seq += 1
        self._log.append((self._log_seq, store, key, value, names))
        # bound the log: entries beyond the cap fall off the front.  A
        # consumer whose watermark predates the trim simply misses them —
        # it re-derives on demand, which content-addressing makes safe.
        if len(self._log) > self.max_log_entries:
            del self._log[: len(self._log) - self.max_log_entries]

    def clear(self) -> int:
        with self._lock:
            removed = super().clear()
            self._log.clear()
            return removed

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def sizes(self) -> Dict[str, int]:
        with self._lock:
            return super().sizes()

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
    # delta sync (worker pools)
    # ------------------------------------------------------------------ #
    @property
    def delta_seq(self) -> int:
        """Sequence number of the newest logged entry (0 when empty)."""
        with self._lock:
            return self._log_seq

    def export_delta(self, since_seq: int) -> Optional[Tuple[int, bytes]]:
        """``(to_seq, blob)`` of entries logged after *since_seq*, or None.

        The blob is a pickle of ``[(store, key, value, names), ...]``;
        consumers apply it with :meth:`apply_delta` and advance their
        watermark to ``to_seq``.  Entries trimmed from the bounded log are
        silently absent — acceptable because sync is performance-only.
        """
        with self._lock:
            if self._log_seq <= since_seq:
                return None
            entries = [
                (store, key, value, names)
                for seq, store, key, value, names in self._log
                if seq > since_seq
            ]
            blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
            self.counters.increment("delta_entries_out", by=len(entries))
            self.counters.increment("delta_bytes_out", by=len(blob))
            return self._log_seq, blob

    def export_snapshot(self) -> Tuple[int, bytes]:
        """``(seq, blob)`` covering every entry currently in the memo.

        Used to warm a brand-new consumer (pool-fork initialisation),
        where the bounded delta log may no longer reach back far enough.
        """
        with self._lock:
            entries = self._entries()
            blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
            self.counters.increment("delta_entries_out", by=len(entries))
            self.counters.increment("delta_bytes_out", by=len(blob))
            return self._log_seq, blob

    def _entries(self) -> List[Tuple[str, _Key, object, Tuple[str, ...]]]:
        """Every entry in the delta/file layout (callers hold the lock)."""
        return [
            (store, key, value, names)
            for store, store_entries in self._stores.items()
            for key, (value, names) in store_entries.items()
        ]

    def apply_delta(self, blob: bytes, record: bool = False
                    ) -> Tuple[int, int]:
        """Merge a delta blob; returns ``(applied, duplicates)``.

        Entries whose key is already present are counted as duplicates
        and skipped — with process-pool workers racing on the same cold
        fabric, duplicates measure exactly the work single-flight could
        not prevent across processes.  With ``record=True`` the applied
        entries are re-logged, so a parent merging one worker's delta
        relays it to the *other* workers through the next batched sync.
        """
        entries = pickle.loads(blob)
        applied = duplicates = 0
        with self._lock:
            for store, key, value, names in entries:
                store_entries = self._stores.get(store)
                if store_entries is None:
                    continue
                if key in store_entries:
                    duplicates += 1
                    continue
                PlacementMemo._store(self, store, key, value, names)
                if record:
                    self._append_log(store, key, value, names)
                applied += 1
            self.counters.increment("delta_entries_in", by=applied)
            self.counters.increment("delta_bytes_in", by=len(blob))
            self.counters.increment("duplicate_entries", by=duplicates)
        return applied, duplicates

    # ------------------------------------------------------------------ #
    # persistence (warm restarts)
    # ------------------------------------------------------------------ #
    def save(self, path: str, topology) -> int:
        """Persist the memo to *path*; returns the number of entries written.

        The file carries a header — format version, the topology's
        structural signature, and the per-device allocation fingerprints
        at save time — that :meth:`restore` validates before trusting any
        entry.  The write is atomic (temp file + rename), so a crash
        mid-save leaves the previous file intact.
        """
        import os

        with self._lock:
            payload = {
                "format": MEMO_FILE_FORMAT,
                "topology": topology_structure_signature(topology),
                "fingerprints": topology.device_fingerprints(),
                "entries": self._entries(),
            }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
        self.counters.increment("persisted_entries", by=len(payload["entries"]))
        return len(payload["entries"])

    def restore(self, path: str, topology) -> int:
        """Load a persisted memo; returns the number of entries restored.

        Validation is strict and failure is always *cold solve*, never an
        error: an unreadable/corrupted file, a wrong format version, or a
        file saved against a structurally different topology restores
        nothing.  Otherwise each entry is admitted only if every device it
        consulted still carries the allocation fingerprint recorded at
        save time — the warm-restart analogue of the worker pool's epoch
        validation — so allocation drift between save and restore drops
        exactly the invalidated sub-solutions.
        """
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            self.counters.increment("restore_rejected")
            return 0
        if (not isinstance(payload, dict)
                or payload.get("format") != MEMO_FILE_FORMAT
                or payload.get("topology")
                != topology_structure_signature(topology)):
            self.counters.increment("restore_rejected")
            return 0
        saved_fps = payload.get("fingerprints") or {}
        live_fps = topology.device_fingerprints()
        valid = {
            name for name, fingerprint in saved_fps.items()
            if live_fps.get(name) == fingerprint
        }
        restored = 0
        with self._lock:
            for entry in payload.get("entries", ()):
                try:
                    store, key, value, names = entry
                except (TypeError, ValueError):
                    continue
                if store not in self._stores:
                    continue
                if any(name not in valid for name in names):
                    continue
                PlacementMemo._store(self, store, key, value, names)
                restored += 1
        self.counters.increment("restored_entries", by=restored)
        return restored

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        with self._lock:
            summary = super().summary()
            summary["log_entries"] = len(self._log)
        summary.update(self.counters.summary())
        return summary
