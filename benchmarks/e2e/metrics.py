"""The benchmark's metric definitions and how passes turn into them.

:data:`END_TO_END` and :data:`PER_LAYER` are the names ``BENCHMARK.json``
declares (the self-test keeps the two in step).  Every workload emits
every metric, so a name means the same thing on each workload: an
*operation* is one query (``query_*``), one ``append_stream`` batch
(``stream_ingest``) or one wire request (``served_mixed``).
"""

from __future__ import annotations

from harness import median, percentile, speed_scales
from tracing import OP_SPAN, layer_times

#: ``name -> (unit, better)`` of the end-to-end metrics.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Layers with a ``.calls`` and a ``.self_s`` metric each.
LAYERS = (
    "query.parser", "query.planner", "plan.rewrite", "plan.engine",
    "core.algebra", "core.algebra.join", "core.algebra.project",
    "core.algebra.subtract", "core.algebra.complement",
    "core.algebra.union", "core.algebra.intersect",
    "core.simplify", "optimize.core", "deductive.incremental",
    "query.catalog", "storage.engine", "storage.wal", "storage.fsync",
    "serve.protocol", "serve.snapshot",
)

#: ``name -> (unit, better)`` of the per-layer counts and ratios.
COUNTS = {
    "core.simplify.subsume_checks": ("count", "lower"),
    "core.simplify.subsume_hit_ratio": ("ratio", "higher"),
    "core.emptiness.checks": ("count", "lower"),
    "perf.kernel.closures": ("count", "lower"),
    "perf.kernel.batch_dbms": ("count", "lower"),
    "perf.kernel.scalar_fallbacks": ("count", "lower"),
    "perf.cache.closure_hit_ratio": ("ratio", "higher"),
    "perf.cache.normalize_hit_ratio": ("ratio", "higher"),
    "perf.cache.closure_evictions": ("count", "lower"),
    "perf.cache.normalize_evictions": ("count", "lower"),
    "perf.prefilter.skips": ("count", "higher"),
    "storage.wal.bytes_per_tuple": ("B/tuple", "lower"),
    "storage.fsync.per_commit": ("ratio", "lower"),
    "storage.disk_bytes_per_tuple": ("B/tuple", "lower"),
    "serve.read_wire_queue_ms": ("ms", "lower"),
    "serve.write_wire_queue_ms": ("ms", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}

PER_LAYER = {
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **COUNTS,
}


def end_to_end(result) -> tuple[dict[str, tuple[float, str]], dict]:
    """The end-to-end metrics of one untraced pass, and their raw values.

    Times are put on the reference machine's scale
    (:func:`harness.speed_scales`); the raw values go to ``meta``.
    """
    scaled = [lat * s for lat, s in zip(
        result.latencies, speed_scales(result.probes, result.ended))]
    setups = [t * s for t, s in zip(
        result.setups, speed_scales(result.probes, result.setups_ended))]
    metrics, raw = {}, {}
    for out, lat, setup in ((metrics, scaled, setups),
                            (raw, result.latencies, result.setups)):
        if result.open_loop:  # the schedule sets the rate
            rate = _ratio(len(lat), result.elapsed)
        else:
            rate = _ratio(len(lat), sum(lat))
        lat = lat or [0.0]  # no operation completed: the checks fail
        out.update({
            "ops_per_s": rate,
            "op_p50_ms": median(lat) * 1e3,
            "op_p90_ms": percentile(lat, 0.90) * 1e3,
            "peak_rss_mb": result.peak_rss_mb,
            "setup_s": median(setup),
        })
    return ({name: (metrics[name], END_TO_END[name][0])
             for name in END_TO_END}, raw)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced, traced, tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass.

    Spans and counters come from this process and, for the served
    workload, from the server's own trace (``traced.extra["server"]``).
    """
    rows = tracer.rows()
    times = layer_times(rows, ops_only=True)
    counts = tracer.counts()
    deltas = tracer.counter_deltas
    server = traced.extra.get("server")
    if server is not None:
        for name, (calls, self_s) in layer_times(
            server["spans"], ops_only=False
        ).items():
            row = times.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        counts.update(server["counts"])
        deltas = server["counter_deltas"]
    algebra = [0, 0.0]
    for name, (calls, self_s) in times.items():
        if name.startswith("core.algebra."):
            algebra[0] += calls
            algebra[1] += self_s
    times["core.algebra"] = algebra

    values: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = times.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s

    op_total = sum(end - start for name, start, end, _p, _o in rows
                   if name == OP_SPAN)
    attributed = sum(self_s for name, (_c, self_s) in times.items()
                     if name != OP_SPAN and name != "core.algebra")
    tuples = traced.extra.get("tuples_written", 0)
    commits = values["storage.engine.calls"]
    values.update({
        "core.simplify.subsume_checks": counts["core.simplify.subsume.calls"],
        "core.simplify.subsume_hit_ratio": _ratio(
            counts["core.simplify.subsume.true"],
            counts["core.simplify.subsume.calls"]),
        "core.emptiness.checks": counts["core.emptiness.calls"],
        "perf.kernel.closures": (deltas.get("perf.closure_full", 0)
                                 + deltas.get("perf.closure_incremental", 0)),
        "perf.kernel.batch_dbms": deltas.get("perf.kernel.batch_dbms", 0),
        "perf.kernel.scalar_fallbacks": deltas.get(
            "perf.kernel.scalar_fallbacks", 0),
        "perf.prefilter.skips": sum(
            value for name, value in deltas.items()
            if name.startswith("perf.prefilter_")),
        "storage.wal.bytes_per_tuple": _ratio(
            counts["storage.wal.bytes"], tuples),
        "storage.fsync.per_commit": _ratio(
            values["storage.fsync.calls"], commits),
        "storage.disk_bytes_per_tuple": _ratio(
            traced.extra.get("disk_bytes", 0), tuples),
        "serve.read_wire_queue_ms": traced.extra.get("read_wire_queue_ms", 0),
        "serve.write_wire_queue_ms": traced.extra.get(
            "write_wire_queue_ms", 0),
        "loadgen.lag_p99_ms": traced.extra.get("lag_p99_ms", 0),
        "trace.overhead_ratio": _overhead(untraced, traced),
        "trace.unattributed_frac": max(0.0, 1 - _ratio(attributed, op_total)),
    })
    for cache in ("closure", "normalize"):
        hits = deltas.get(f"cache.{cache}.hits", 0)
        misses = deltas.get(f"cache.{cache}.misses", 0)
        values[f"perf.cache.{cache}_hit_ratio"] = _ratio(hits, hits + misses)
        values[f"perf.cache.{cache}_evictions"] = deltas.get(
            f"cache.{cache}.evictions", 0)
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}


def _overhead(untraced, traced) -> float:
    """Time traced / untraced over the operations both passes ran.

    Unscaled: the passes run back to back, and under the served load
    the probes read the contention the tracer adds, not the machine.
    """
    common = min(len(untraced.latencies), len(traced.latencies))
    return _ratio(sum(traced.latencies[:common]),
                  sum(untraced.latencies[:common]))
