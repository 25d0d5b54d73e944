"""A process-local metrics registry with Prometheus text exposition.

The registry is the single source of truth for ClickINC telemetry.  It
holds two kinds of state:

* **Instruments** — labelled :class:`Counter`, :class:`Gauge` and
  fixed-bucket :class:`Histogram` families created up front by the code
  that observes into them (``registry.histogram(...)`` is idempotent:
  the same family is returned to every caller).
* **Collectors** — callables sampled at *render* time.  Existing
  :class:`~repro.core.stats.CounterMixin` bags register themselves via
  :meth:`MetricsRegistry.register_counters`, so exposition always reads
  the live counter objects that ``service_summary()`` /
  ``coordinator_summary()`` / the gateway ``/v1/status`` views are built
  from — one code path, the views cannot drift.  Collectors are held by
  weak reference and vanish with their owner.

Two collectors producing the same ``(name, labels)`` sample are summed
(e.g. per-shard runtime managers reporting under one family).  Rendering
follows the Prometheus text format version 0.0.4: ``# HELP`` / ``# TYPE``
per family, cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count`` for histograms, and backslash/quote/newline escaping in label
values.

A registry built with ``enabled=False`` keeps every instrument inert:
``inc`` / ``set`` / ``observe`` return immediately, which is what the
``bench_obs_overhead`` gate compares against.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Sample",
    "MetricsRegistry",
    "get_registry",
]

# Latency buckets in seconds: wide enough for a 2PC commit, fine enough
# for a warm cache hit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Sample:
    """One exposition sample produced by a collector."""

    __slots__ = ("name", "labels", "value", "mtype", "help")

    def __init__(self, name: str, labels: Dict[str, str], value: float,
                 mtype: str = "counter", help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.value = value
        self.mtype = mtype
        self.help = help


def _escape_label(value: object) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(val)}"'
                     for key, val in labels.items())
    return "{" + inner + "}"


class _Child:
    """Shared plumbing for one labelled time-series of a family."""

    __slots__ = ("_family",)

    def __init__(self, family: "_Family") -> None:
        self._family = family

    @property
    def _live(self) -> bool:
        return self._family.registry.enabled


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family") -> None:
        super().__init__(family)
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if not self._live:
            return
        with self._family.registry._lock:
            self.value += by


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, family: "_Family") -> None:
        super().__init__(family)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._live:
            return
        self.value = float(value)

    def current(self) -> float:
        return self.value


class _HistogramChild(_Child):
    __slots__ = ("counts", "sum", "count")

    def __init__(self, family: "_Family") -> None:
        super().__init__(family)
        # one slot per finite bucket plus the +Inf overflow slot
        self.counts = [0] * (len(family.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._live:
            return
        index = bisect.bisect_left(self._family.buckets, value)
        with self._family.registry._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


_CHILD_TYPES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class _Family:
    """A named metric family; children are keyed by label values."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 mtype: str, labelnames: Tuple[str, ...],
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.mtype = mtype
        self.labelnames = labelnames
        self.buckets = tuple(sorted(buckets))
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, *values: object, **kwargs: object) -> _Child:
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by "
                                 "name, not both")
            values = tuple(kwargs[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {key}")
        child = self._children.get(key)
        if child is None:
            with self.registry._lock:
                child = self._children.setdefault(
                    key, _CHILD_TYPES[self.mtype](self))
        return child

    # convenience for label-less families ------------------------------ #
    def _solo(self) -> _Child:
        return self.labels()

    def inc(self, by: float = 1.0) -> None:
        self._solo().inc(by)           # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._solo().set(value)        # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._solo().observe(value)    # type: ignore[attr-defined]


class MetricsRegistry:
    """Instrument + collector registry with Prometheus text rendering."""

    def __init__(self, *, enabled: bool = True,
                 namespace: str = "clickinc") -> None:
        self.enabled = enabled
        self.namespace = namespace
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}
        # key -> weak callable returning an iterable of Sample
        self._collectors: Dict[object, Callable[[], object]] = {}

    # ------------------------------------------------------------------ #
    # instruments
    # ------------------------------------------------------------------ #
    def _family(self, name: str, help: str, mtype: str,
                labelnames: Sequence[str],
                buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(self, name, help, mtype,
                                 tuple(labelnames), buckets)
                self._families[name] = family
            elif family.mtype != mtype or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.mtype}{family.labelnames}")
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, help, "gauge", labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> _Family:
        return self._family(name, help, "histogram", labelnames, buckets)

    # ------------------------------------------------------------------ #
    # collectors
    # ------------------------------------------------------------------ #
    def register_collector(self, fn: Callable[[], Iterable[Sample]],
                           key: Optional[object] = None) -> None:
        """Register *fn* to be sampled at render time.

        Bound methods are held through :class:`weakref.WeakMethod` so a
        collector never keeps its owner alive; dead collectors are pruned
        on the next render.  Re-registering the same *key* replaces the
        previous collector (idempotent registration).
        """
        if key is None:
            key = fn
        try:
            ref: Callable[[], object] = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        except TypeError:
            ref = (lambda fn=fn: fn)
        with self._lock:
            self._collectors[key] = ref

    def register_counters(self, prefix: str, bag: object,
                          labels: Optional[Dict[str, str]] = None,
                          help: str = "") -> None:
        """Expose a live :class:`CounterMixin` bag under ``prefix``.

        Every integer counter field becomes a ``<prefix>_<field>_total``
        counter sample carrying *labels*.  The bag is read at render time
        through a weak reference — the registry never mirrors (and can
        therefore never disagree with) the bag the summaries are built
        from.  Registering the same ``(prefix, labels, bag)`` again is a
        no-op, so shared bags (e.g. a coordinator's stats aliased by the
        service) are only exposed once.
        """
        labels = dict(labels or {})
        bag_ref = weakref.ref(bag)

        def collect() -> List[Sample]:
            live = bag_ref()
            if live is None:
                return []
            counters = getattr(live, "counters", None)
            values = counters() if callable(counters) else {}
            return [Sample(f"{prefix}_{field}_total", labels, value,
                           "counter", help)
                    for field, value in values.items()]

        key = (prefix, tuple(sorted(labels.items())), id(bag))
        with self._lock:
            self._collectors[key] = (lambda c=collect: c)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def _collect_samples(self) -> List[Sample]:
        samples: List[Sample] = []
        with self._lock:
            items = list(self._collectors.items())
        dead = []
        for key, ref in items:
            fn = ref()
            if fn is None:
                dead.append(key)
                continue
            try:
                samples.extend(fn())
            except Exception:
                continue
        if dead:
            with self._lock:
                for key in dead:
                    self._collectors.pop(key, None)
        return samples

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        if not self.enabled:
            return ""
        lines: List[str] = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            children = list(family._children.items())
            if not children:
                continue
            lines.append(f"# HELP {family.name} "
                         f"{_escape_help(family.help or family.name)}")
            lines.append(f"# TYPE {family.name} {family.mtype}")
            for key, child in children:
                labels = dict(zip(family.labelnames, key))
                if family.mtype == "histogram":
                    assert isinstance(child, _HistogramChild)
                    cumulative = 0
                    for bound, count in zip(family.buckets, child.counts):
                        cumulative += count
                        text = _labels_text(dict(labels, le=_format_value(bound)))
                        lines.append(f"{family.name}_bucket{text} {cumulative}")
                    cumulative += child.counts[-1]
                    text = _labels_text(dict(labels, le="+Inf"))
                    lines.append(f"{family.name}_bucket{text} {cumulative}")
                    text = _labels_text(labels)
                    lines.append(f"{family.name}_sum{text} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{text} {child.count}")
                else:
                    value = (child.current()
                             if isinstance(child, _GaugeChild)
                             else child.value)  # type: ignore[union-attr]
                    lines.append(f"{family.name}{_labels_text(labels)} "
                                 f"{_format_value(value)}")
        # collector samples, grouped by family, duplicates summed
        grouped: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
        meta: Dict[str, Tuple[str, str]] = {}
        for sample in self._collect_samples():
            key = tuple(sorted(sample.labels.items()))
            grouped.setdefault(sample.name, {})
            grouped[sample.name][key] = grouped[sample.name].get(key, 0) \
                + sample.value
            meta.setdefault(sample.name, (sample.mtype, sample.help))
        for name in sorted(grouped):
            mtype, help = meta[name]
            lines.append(f"# HELP {name} {_escape_help(help or name)}")
            lines.append(f"# TYPE {name} {mtype}")
            for key, value in sorted(grouped[name].items()):
                lines.append(f"{name}{_labels_text(dict(key))} "
                             f"{_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly dump (used by ``python -m repro.obs``)."""
        out: Dict[str, object] = {}
        if not self.enabled:
            return out
        with self._lock:
            families = list(self._families.values())
        for family in families:
            series: Dict[str, object] = {}
            for key, child in list(family._children.items()):
                label_text = _labels_text(dict(zip(family.labelnames, key))) \
                    or "{}"
                if isinstance(child, _HistogramChild):
                    series[label_text] = {
                        "count": child.count,
                        "sum": round(child.sum, 6),
                        "buckets": dict(zip(
                            [str(b) for b in family.buckets] + ["+Inf"],
                            child.counts)),
                    }
                elif isinstance(child, _GaugeChild):
                    series[label_text] = child.current()
                else:
                    series[label_text] = child.value
            if series:
                out[family.name] = series
        for sample in self._collect_samples():
            family = out.setdefault(sample.name, {})
            label_text = _labels_text(sample.labels) or "{}"
            family[label_text] = family.get(label_text, 0) + sample.value  # type: ignore[union-attr]
        return out


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
