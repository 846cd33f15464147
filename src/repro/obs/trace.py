"""Hierarchical tracing: spans, the recorder, JSON export, flamegraphs.

A *span* is one timed step of engine work — an algebra operation, a
query-plan node — annotated with structural cost attributes (input and
output tuple counts, pairwise combinations examined, normalization
expansions) and with the counters that moved while the span was open
(prefilter rejections, closures), under their store names.  Spans nest:
evaluating ``Even(t) & t >= 0`` produces a ``query.join`` span whose
children are the ``query.scan`` / ``query.compare`` plan nodes, each
wrapping the ``algebra.*`` spans that did the work.

Tracing is **off by default** and costs almost nothing when off: the
instrumentation points call :func:`span`, which returns the shared
:data:`NULL_SPAN` singleton (a no-op context manager) unless a
recorder is installed — one context-variable read and one branch per
*operation*, never per tuple.  Install a recorder with
:func:`tracing`::

    from repro import obs

    with obs.tracing() as recorder:
        algebra.join(r1, r2)
    print(obs.render_flamegraph(recorder.root))
    json.dump(recorder.root.to_dict(), open("trace.json", "w"))

This module is stdlib-only apart from :mod:`repro.obs.metrics` (itself
stdlib-only), so it is importable from the bottom of the core
dependency graph.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar
from typing import Any

from repro.obs.metrics import COUNTERS, get_registry


class Span:
    """One step of traced work: a name, cost attributes, children."""

    __slots__ = (
        "name",
        "attrs",
        "perf",
        "children",
        "wall_ms",
        "_recorder",
        "_start",
        "_perf_before",
    )

    #: Real spans record; the :data:`NULL_SPAN` singleton does not.
    enabled = True

    def __init__(self, name: str, recorder: "TraceRecorder", **attrs) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs
        self.perf: dict[str, int] = {}
        self.children: list[Span] = []
        self.wall_ms: float = 0.0
        self._recorder = recorder
        self._start = 0.0
        self._perf_before: dict[str, int] = {}

    def set(self, **attrs) -> None:
        """Attach or update cost attributes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._recorder._push(self)
        self._perf_before = dict(COUNTERS)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_ms = (time.perf_counter() - self._start) * 1000.0
        before = self._perf_before
        # A copy: other threads may add names to the store meanwhile.
        for key, value in dict(COUNTERS).items():
            delta = value - before.get(key, 0)
            if delta:
                self.perf[key] = self.perf.get(key, 0) + delta
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._recorder._pop(self)

    # -- derived views -------------------------------------------------

    @property
    def self_ms(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.wall_ms - sum(c.wall_ms for c in self.children))

    def walk(self):
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span in this subtree with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly tree: name, wall_ms, attrs, perf, children."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 6),
            "attrs": dict(self.attrs),
        }
        if self.perf:
            out["perf"] = dict(self.perf)
        out["children"] = [child.to_dict() for child in self.children]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} {self.wall_ms:.3f}ms "
            f"children={len(self.children)}>"
        )


class _NullSpan:
    """The do-nothing span handed out while tracing is off."""

    __slots__ = ()
    enabled = False

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


#: The shared no-op span: every :func:`span` call while tracing is off
#: returns this exact object, so the disabled path allocates nothing.
NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects spans into a tree while installed via :func:`tracing`.

    ``record_histograms`` additionally streams every span's wall time
    into the global :class:`~repro.obs.metrics.MetricsRegistry` under
    ``span.<name>.ms``, so trace runs feed the same accounting API the
    benchmarks read.
    """

    def __init__(self, record_histograms: bool = True) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._record_histograms = record_histograms

    def span(self, name: str, **attrs) -> Span:
        """Create a span; use as a context manager to time and nest it."""
        return Span(name, self, **attrs)

    @property
    def root(self) -> Span | None:
        """The first top-level span recorded (None before any work)."""
        return self.roots[0] if self.roots else None

    @property
    def current(self) -> Span | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if self._record_histograms:
            get_registry().histogram(f"span.{span.name}.ms").observe(
                span.wall_ms
            )

    def to_dict(self) -> dict[str, Any]:
        """Every collected root span tree, JSON-friendly."""
        return {"traces": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, default=repr)


# ----------------------------------------------------------------------
# recorder installation (per thread / per asyncio task)
# ----------------------------------------------------------------------

#: The installed recorder.  A context variable, not a module global, so
#: concurrent ``tracing()`` blocks in different threads each see only
#: their own recorder and can never leave one installed.
_active: ContextVar[TraceRecorder | None] = ContextVar(
    "repro_trace_recorder", default=None
)


def active_recorder() -> TraceRecorder | None:
    """The installed recorder, or None while tracing is off."""
    return _active.get()


def tracing_enabled() -> bool:
    """Whether a recorder is currently installed."""
    return _active.get() is not None


def span(name: str, **attrs):
    """A span under the active recorder, or :data:`NULL_SPAN` when off.

    This is the hot-path entry: instrumentation sites do ``with
    obs.span("algebra.join") as sp: ...`` unconditionally and pay only
    a context-variable read plus a branch when tracing is disabled.
    """
    recorder = _active.get()
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


class tracing:
    """Context manager installing a :class:`TraceRecorder`.

    ``with tracing() as recorder: ...`` — nested installs stack; the
    previous recorder (or the off state) is restored on exit.  The
    install is local to the current thread (or asyncio task), so
    interleaved blocks in concurrent threads never see each other's
    recorder.
    """

    def __init__(self, recorder: TraceRecorder | None = None) -> None:
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._token = None

    def __enter__(self) -> TraceRecorder:
        self._token = _active.set(self.recorder)
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        _active.reset(self._token)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

#: Attribute keys rendered inline in the flamegraph, in display order.
_RENDER_ATTRS = (
    "detail",
    "input_tuples",
    "pairs_examined",
    "output_tuples",
    "out_tuples",
    "expansions",
    "schema_width",
)


def _attr_text(span: Span) -> str:
    shown = []
    for key in _RENDER_ATTRS:
        if key in span.attrs:
            value = span.attrs[key]
            if key == "detail":
                shown.append(str(value))
            else:
                shown.append(f"{key.replace('_tuples', '')}={value}")
    for key, value in sorted(span.perf.items()):
        if key.startswith("perf.prefilter"):
            shown.append(f"{key}={value}")
    return "  ".join(shown)


def render_flamegraph(root: Span, width: int = 24) -> str:
    """Render a span tree as an indented text flamegraph.

    Each line shows a bar proportional to the span's share of the root's
    wall time, the time itself, the span name and its cost attributes::

        [########################] 100.0%    3.214ms query.join ...
          [##########            ]  41.2%    1.325ms query.scan ...
    """
    total = root.wall_ms or 1e-9
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        share = max(0.0, min(1.0, span.wall_ms / total))
        filled = round(share * width)
        bar = "#" * filled + " " * (width - filled)
        pad = "  " * depth
        attr_text = _attr_text(span)
        lines.append(
            f"{pad}[{bar}] {share * 100:5.1f}% {span.wall_ms:9.3f}ms "
            f"{span.name}"
            + (f"  {attr_text}" if attr_text else "")
        )
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
