"""repro.obs — observability: hierarchical tracing and unified metrics.

Two cooperating pieces:

* :mod:`repro.obs.trace` — spans with structural cost attributes
  (tuple counts, pairwise combinations, prefilter rejections, plan
  memo hits, normalization expansions, wall time) collected into a tree,
  exportable as JSON and renderable as a text flamegraph.  Off by
  default; near-zero overhead when off.
* :mod:`repro.obs.metrics` — one :class:`MetricsRegistry`: the one
  counter store every layer bumps (``repro.obs.metrics.COUNTERS``)
  plus named gauges and histograms, so benchmarks, the CLI and tests
  share a single accounting API.

Typical use::

    from repro import obs

    with obs.tracing() as recorder:
        result = db.query("EXISTS t. Even(t)")
    print(obs.render_flamegraph(recorder.root))

    snap = obs.metrics().snapshot()   # counters/gauges/histograms
"""

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_metrics,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    active_recorder,
    render_flamegraph,
    span,
    tracing,
    tracing_enabled,
)

#: Short alias: ``obs.metrics()`` is the global registry.
metrics = get_registry

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "active_recorder",
    "get_registry",
    "metrics",
    "render_flamegraph",
    "reset_metrics",
    "span",
    "tracing",
    "tracing_enabled",
]
