"""Content-addressed artifact cache for the compilation pipeline.

ClickINC is a *service*: many tenants deploy instances of the same template
apps onto a shared network, so most compilation work repeats.  The
:class:`ArtifactCache` memoises the expensive pipeline artifacts behind
stable content hashes:

* ``program`` — compiled :class:`~repro.ir.program.IRProgram`s, keyed by the
  compile inputs (template profile, or source text + constants + header
  fields).  Program names are excluded from the key; a hit is re-branded to
  the requesting tenant's name.
* ``plan`` — :class:`~repro.placement.plan.PlacementPlan`s, keyed by the
  name-normalised program fingerprint, the placement request parameters,
  the structural signature of the request's reduced tree and the allocation
  fingerprints of exactly the devices a search over that tree consults
  (:meth:`CompilationPipeline.plan_cache_key
  <repro.core.pipeline.CompilationPipeline.plan_cache_key>`).  The search
  reads nothing else, so a hit is the plan the search would make.  A plan
  is stored only once its content has been seen before (the placement
  memo's program facts are admitted), so never-repeating programs store
  none.  Nothing is pruned: an entry whose devices changed state simply
  stops matching any live key, comes back when a release restores that
  state, and otherwise ages out of the LRU.
* ``codegen`` — generated backend source, keyed by what the plan knows
  (device type and name, program name and fingerprint, the device's blocks
  in step order), or by (snippet fingerprint, device model) for direct
  callers.

The DP placer's sub-solutions are not a namespace here: the placement memo
(:mod:`repro.placement.memo`) keeps them in its own LRU, keyed on the
structured tuples the search builds, so a lookup never pays a digest.

Keys are namespaced SHA-256 digests of a canonical JSON rendering of the
inputs, so any change to the inputs produces a different address.  The cache
is thread-safe: the executor threads of the asyncio service and the shard
lanes of a :class:`~repro.sharding.coordinator.ShardCoordinator` (each shard
owns its own instance) read and write it concurrently.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.ir.program import IRProgram

#: Placeholder substituted for the program's own name when fingerprinting
#: with ``normalize_name=True`` (so identical programs deployed under
#: different tenant names share one address).
_NAME_ALIAS = "@program"


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=str)

#: the C encoder behind ``_CANONICAL``, built once: ``JSONEncoder.encode``
#: builds one per call, a fixed cost as large as encoding a short key.  It
#: skips the circular-reference check, which key parts never need, and
#: keeps no state between calls, so threads may share it.  ``None`` where
#: the interpreter has no C accelerator.
_C_ENCODE = None if json.encoder.c_make_encoder is None else (
    json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ":", ",",
        True, False, True))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering used for all cache keys: exactly
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"),
    default=str)``."""
    if _C_ENCODE is None:
        return _CANONICAL.encode(payload)
    return "".join(_C_ENCODE(payload, 0))


def content_key(namespace: str, *parts: Any) -> str:
    """Build a namespaced content address from arbitrary JSON-able parts."""
    digest = hashlib.sha256(canonical_json(list(parts)).encode("utf-8")).hexdigest()
    return f"{namespace}:{digest}"


def fingerprint_ir(program: IRProgram, normalize_name: bool = False) -> str:
    """Stable content hash of an IR program.

    With ``normalize_name=True`` the program's own name is replaced by a
    placeholder wherever it appears (name, state owners, instruction owners
    and annotations), so two tenants' copies of the same compiled template
    hash identically.
    """
    own_name = program.name

    def norm(owner: Optional[str]) -> Optional[str]:
        if normalize_name and owner == own_name:
            return _NAME_ALIAS
        return owner

    payload = {
        "name": norm(own_name) if normalize_name else own_name,
        "header_fields": sorted(
            (f.name, f.width, f.is_vector, f.length)
            for f in program.header_fields.values()
        ),
        "states": sorted(
            (s.name, s.kind.value, s.rows, s.size, s.width, s.key_width,
             norm(s.owner))
            for s in program.states.values()
        ),
        "instructions": [
            (
                instr.opcode.value,
                instr.dst,
                list(instr.operands),
                instr.state,
                instr.guard,
                instr.guard_negated,
                instr.width,
                norm(instr.owner),
                sorted(norm(a) for a in instr.annotations),
            )
            for instr in program
        ],
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one key namespace."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactCache:
    """Thread-safe, content-addressed LRU cache for pipeline artifacts.

    Parameters
    ----------
    max_entries:
        Upper bound on stored artifacts; the least recently used entry is
        evicted beyond it.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._stats: Dict[str, CacheStats] = {}
        #: live keys per namespace (a dict as an ordered set), so a scan of
        #: one namespace never visits the others and emptiness checks (e.g.
        #: "can a warm plan hit even exist?") cost O(1)
        self._ns_keys: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(namespace: str, *parts: Any) -> str:
        return content_key(namespace, *parts)

    def _namespace_of(self, key: str) -> str:
        return key.split(":", 1)[0]

    def lookup(self, key: str) -> Tuple[bool, Optional[object]]:
        """Return ``(hit, value)``; a hit refreshes the entry's LRU position."""
        with self._lock:
            stats = self._stats.setdefault(self._namespace_of(key), CacheStats())
            if key in self._entries:
                stats.hits += 1
                self._entries.move_to_end(key)
                return True, self._entries[key]
            stats.misses += 1
            return False, None

    def _forget(self, key: str) -> None:
        """Book-keeping for one removed entry (callers hold the lock)."""
        namespace = self._namespace_of(key)
        keys = self._ns_keys[namespace]
        del keys[key]
        if not keys:
            del self._ns_keys[namespace]

    def store(self, key: str, value: object) -> None:
        with self._lock:
            if key not in self._entries:
                self._ns_keys.setdefault(self._namespace_of(key), {})[key] = None
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._forget(evicted)

    def invalidate(self, namespace: Optional[str] = None) -> int:
        """Drop all entries (or only one namespace's); returns count dropped."""
        with self._lock:
            if namespace is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._ns_keys.clear()
                return dropped
            victims = self._ns_keys.pop(namespace, {})
            for key in victims:
                del self._entries[key]
            return len(victims)

    def namespace_len(self, namespace: str) -> int:
        """Live entry count in one namespace, in O(1)."""
        with self._lock:
            return len(self._ns_keys.get(namespace, ()))

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def hits(self, namespace: str) -> int:
        """Hits so far in *namespace*: one counter, not a :meth:`stats`
        snapshot of every namespace."""
        with self._lock:
            stats = self._stats.get(namespace)
            return 0 if stats is None else stats.hits

    def stats(self) -> Dict[str, CacheStats]:
        """Per-namespace hit/miss counters (copies, safe to keep)."""
        with self._lock:
            return {
                ns: CacheStats(hits=s.hits, misses=s.misses)
                for ns, s in self._stats.items()
            }

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                **{
                    ns: {"hits": s.hits, "misses": s.misses,
                         "hit_rate": round(s.hit_rate, 3)}
                    for ns, s in self._stats.items()
                },
            }
