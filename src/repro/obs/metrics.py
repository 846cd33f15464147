"""The metrics registry: one counter store, gauges and histograms.

Everything the engine counts lives in one :class:`MetricsRegistry`,
the accounting API benchmarks, the CLI and tests share:

* **counters** — :attr:`MetricsRegistry.counters`, one plain
  :class:`collections.Counter` keyed by dotted name (operation counts,
  prefilter rejections, WAL records).  The global registry's store is
  :data:`COUNTERS`; hot paths bump it in place,
  ``COUNTERS["perf.closure_full"] += 1``, and cold sites the same way,
  ``COUNTERS["serve.commits"] += len(group)``;
* **gauges** — point-in-time values (populations, configuration);
* **histograms** — streaming distributions (span wall times), keeping
  count/total/min/max plus a bounded reservoir for quantiles.

This module is stdlib-only and must not import :mod:`repro.core`: the
core bumps :data:`COUNTERS` from the bottom of its dependency graph.
"""

from __future__ import annotations

import bisect
from collections import Counter


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


class MetricsRegistry:
    """One counter store plus named gauges and histograms.

    ``counters`` is bumped in place (a missing name reads 0);
    ``gauge(name)`` / ``histogram(name)`` get or create the instrument.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

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

    def snapshot(self) -> dict[str, dict]:
        """Everything the registry knows, as plain JSON-friendly dicts."""
        return {
            "counters": dict(self.counters),
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {
                h.name: h.summary() for h in self._histograms.values()
            },
        }

    def reset(self) -> None:
        """Clear the counter store in place and zero every instrument."""
        self.counters.clear()
        for group in (self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()


_registry = MetricsRegistry()

#: The global registry's counter store, bumped in place by every layer.
COUNTERS = _registry.counters


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def reset_metrics() -> None:
    """Clear the global registry (its counter store in place)."""
    _registry.reset()
