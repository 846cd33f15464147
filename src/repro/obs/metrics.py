"""A unified metrics registry: named counters, gauges and histograms.

Before this module existed the engine's accounting was scattered —
:data:`repro.perf.config.PERF_COUNTERS` held the optimization layer's
hit/miss/skip counts and :mod:`repro.analysis.counters` wrapped them
behind ad-hoc helpers.  The :class:`MetricsRegistry` re-homes all of
them behind one accounting API that benchmarks, the CLI and tests
share:

* **counters** — monotonically increasing integers (operation counts,
  tuples produced, prefilter rejections);
* **gauges** — point-in-time values (populations, configuration);
* **histograms** — streaming distributions (span wall times), keeping
  count/total/min/max plus a bounded reservoir for quantiles.

The global registry (:func:`get_registry`) additionally *collects* the
optimization layer's existing counters at snapshot time, so
``metrics().snapshot()`` is the one-stop view of everything the engine
counts.  Collection is pull-based: the hot paths keep
bumping their dependency-free module-level counters (zero new overhead)
and the registry folds them in only when asked.

This module is stdlib-only and must not import :mod:`repro.core` (the
tracing layer is imported from the bottom of the core dependency
graph).
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Mapping


class Counter:
    """A named monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Increase the counter (``amount`` must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


#: Reservoir bound: histograms keep at most this many observations for
#: quantile estimates (count/total/min/max stay exact regardless).
DEFAULT_RESERVOIR = 4096


class Histogram:
    """A streaming distribution of numeric observations.

    ``count``/``total``/``min``/``max`` are exact over every
    observation; quantiles come from a bounded reservoir that keeps the
    first :data:`DEFAULT_RESERVOIR` observations (deterministic — no
    random sampling, so repeated runs summarize identically).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0
        self.min: float | None = None
        self.max: float | None = None
        self._reservoir: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < DEFAULT_RESERVOIR:
            bisect.insort(self._reservoir, value)

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (0..1) of the reservoir, or None if empty."""
        if not self._reservoir:
            return None
        if not 0 <= q <= 1:
            raise ValueError(f"quantile {q} outside [0, 1]")
        index = min(len(self._reservoir) - 1, int(q * len(self._reservoir)))
        return self._reservoir[index]

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._reservoir.clear()

    def summary(self) -> dict[str, float | int | None]:
        """A plain-dict digest (what :meth:`MetricsRegistry.snapshot` emits)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


#: A collector contributes extra counter/gauge readings at snapshot
#: time; it returns ``{"counters": {...}, "gauges": {...}}`` (either
#: key optional).
Collector = Callable[[], Mapping[str, Mapping[str, float]]]


class MetricsRegistry:
    """Named counters, gauges and histograms plus pull-based collectors.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get or
    create the instrument — callers hold on to the returned object for
    hot-path use and never pay a registry lookup per bump.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Collector] = []

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- collectors ----------------------------------------------------

    def add_collector(self, collector: Collector) -> None:
        """Register a pull-based source of extra counter/gauge readings."""
        self._collectors.append(collector)

    # -- snapshot / reset ----------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Everything the registry knows, as plain JSON-friendly dicts."""
        counters = {c.name: c.value for c in self._counters.values()}
        gauges = {g.name: g.value for g in self._gauges.values()}
        histograms = {
            h.name: h.summary() for h in self._histograms.values()
        }
        for collector in self._collectors:
            contribution = collector()
            for name, value in contribution.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in contribution.get("gauges", {}).items():
                gauges[name] = value
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every owned instrument (collectors reset at their source)."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()


def _perf_collector() -> dict[str, dict[str, float]]:
    """Fold the optimization layer's counters in.

    Imported lazily so this module stays importable before (or without)
    the rest of the library.
    """
    from repro.perf.config import counters_snapshot

    return {
        "counters": {
            f"perf.{name}": value
            for name, value in counters_snapshot().items()
        }
    }


_registry = MetricsRegistry()
_registry.add_collector(_perf_collector)


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (perf collectors pre-wired)."""
    return _registry


def reset_metrics(include_perf: bool = True) -> None:
    """Zero the global registry and (by default) the perf counters too."""
    _registry.reset()
    if include_perf:
        from repro.perf.config import reset_counters

        reset_counters()
