"""The traced run's span recorder: layer wrappers installed from outside.

The program is not modified.  :meth:`Tracer.install` replaces each
layer entry point listed in :data:`LAYERS` with a wrapper that records
one span (name, start, end, parent, op id) per call, and rebinds every
reference to the original function object in every loaded ``repro``
module and class — so call sites that did ``from x import f`` are
caught too.  Only ``repro`` modules are scanned, never this one: each
wrapper keeps its original here, and rebinding that reference would
make the wrapper call itself.

The two hottest inner calls (:data:`COUNTED`) get count-only wrappers,
because a span per call would cost more than the call.  Spans live in
memory until :meth:`Tracer.dump`.  Each thread keeps its own span stack,
so the server's worker threads nest their spans independently; the op
id comes from a context variable the load loop sets per operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextvars import ContextVar

#: The operation a span belongs to; ``None`` outside a timed operation.
OP_ID: ContextVar = ContextVar("bench_op_id", default=None)

#: Name of the root span the load loop opens around each operation.
OP_SPAN = "bench.op"

#: ``(layer, module, attribute path)`` of every timed layer entry point.
LAYERS = (
    ("query.parser", "repro.query.parser", "parse_query"),
    ("query.planner", "repro.query.planner", "Planner.plan_query"),
    ("plan.rewrite", "repro.plan.rewrite", "optimize_plan"),
    ("plan.engine", "repro.plan.engine", "NativeEngine.run"),
    ("core.algebra.join", "repro.core.algebra", "join"),
    ("core.algebra.project", "repro.core.algebra", "project"),
    ("core.algebra.subtract", "repro.core.algebra", "subtract"),
    ("core.algebra.complement", "repro.core.algebra", "complement"),
    ("core.algebra.union", "repro.core.algebra", "union"),
    ("core.algebra.intersect", "repro.core.algebra", "intersect"),
    ("core.algebra.select", "repro.core.algebra", "select"),
    ("core.algebra.select", "repro.core.algebra", "select_data"),
    ("core.algebra.select", "repro.core.algebra", "select_data_equal"),
    ("core.algebra.rename", "repro.core.algebra", "rename"),
    ("core.algebra.rename", "repro.core.algebra", "shift_column"),
    ("core.algebra.product", "repro.core.algebra", "product"),
    ("core.simplify", "repro.core.simplify", "simplify_relation"),
    ("optimize.core", "repro.optimize.core", "optimize_relation"),
    ("deductive.incremental", "repro.deductive.incremental",
     "ViewMaintainer.refresh"),
    ("deductive.incremental", "repro.deductive.incremental",
     "ViewMaintainer.initialize"),
    ("query.catalog", "repro.query.catalog",
     "VersionedCatalog.commit_mutations"),
    ("query.catalog", "repro.query.catalog", "VersionedCatalog.commit_state"),
    ("storage.engine", "repro.storage.engine", "StorageEngine.commit_many"),
    ("storage.wal", "repro.storage.wal", "encode_record"),
    ("storage.fsync", "os", "fsync"),
    ("serve.protocol", "repro.serve.protocol", "encode_frame"),
    ("serve.protocol", "repro.serve.protocol", "decode_frame"),
    ("serve.snapshot", "repro.query.catalog", "Snapshot.query"),
    ("serve.snapshot", "repro.query.catalog", "Snapshot.ask"),
)

#: ``(counter prefix, module, attribute path)`` of count-only wrappers;
#: each counts ``<prefix>.calls`` and ``<prefix>.true`` (truthy results).
COUNTED = (
    ("core.simplify.subsume", "repro.core.simplify", "tuple_subsumes"),
    ("core.emptiness", "repro.core.emptiness", "tuple_is_empty"),
)


def _resolve(module_name: str, path: str):
    """The object owning the last attribute of ``path``, and that name."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Records layer spans and hot-call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counter_deltas: Counter = Counter()
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._counts_lock = threading.Lock()
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def call(self, op_id, fn, *args, count_counters: bool = True):
        """Run one timed operation under a root span; ``(result, seconds)``.

        The seconds are the root span's duration.  With
        ``count_counters`` the program's counters are read before and
        after, outside the span, and their change is added to
        :attr:`counter_deltas` — so work done between operations (set-up,
        checks) stays out of the per-layer counts.
        """
        before = program_counters() if count_counters else None
        stack = self._stack()
        token = OP_ID.set(op_id)
        record = [OP_SPAN, 0.0, 0.0, stack[-1] if stack else None, op_id]
        self.spans.append(record)
        stack.append(record)
        try:
            record[1] = time.perf_counter()
            result = fn(*args)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            OP_ID.reset(token)
        if before is not None:
            after = program_counters()
            for name, value in after.items():
                self.counter_deltas[name] += value - before.get(name, 0)
        return result, record[2] - record[1]

    def counts(self) -> Counter:
        """Count-only wrapper tallies and WAL bytes, summed over threads."""
        total: Counter = Counter()
        with self._counts_lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def rows(self) -> list[list]:
        """The spans as ``[name, start, end, parent index, op id]`` rows."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [name, start, end,
             index[id(parent)] if parent is not None else -1, op_id]
            for name, start, end, parent, op_id in self.spans
        ]

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        count_bytes = name == "storage.wal"
        counter = self._counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, clock(), 0.0, stack[-1] if stack else None,
                      OP_ID.get()]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_bytes:
                counter()["storage.wal.bytes"] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, prefix: str, fn):
        calls, hits = f"{prefix}.calls", f"{prefix}.true"
        counter = self._counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = counter()
            counts[calls] += 1
            if result:
                counts[hits] += 1
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point and rebind all references to it."""
        targets = [(n, m, p, self._span_wrapper) for n, m, p in LAYERS]
        targets += [(n, m, p, self._count_wrapper) for n, m, p in COUNTED]
        for name, module_name, path, make in targets:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            if id(original) in self._wrappers:
                continue
            wrapper = make(name, original)
            self._wrappers[id(original)] = (original, wrapper)
            if not module_name.startswith("repro"):
                self._patch(owner, attr, wrapper)
        self._rebind({oid: w for oid, (_o, w) in self._wrappers.items()})

    def uninstall(self) -> None:
        """Restore every rebound reference to its original function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrappers.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, replacements: dict[int, object]) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
                elif (
                    isinstance(value, type)
                    and value.__module__ == module_name
                ):
                    for cattr, cvalue in list(vars(value).items()):
                        if id(cvalue) in replacements:
                            self._patch(
                                value, cattr, replacements[id(cvalue)]
                            )

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans, counts and counter changes as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                "spans": self.rows(),
                "counts": dict(self.counts()),
                "counter_deltas": dict(self.counter_deltas),
            }, handle)


def program_counters() -> dict[str, int]:
    """The program's own work counters (``metrics().snapshot()``)."""
    from repro.api import metrics

    return {
        name: value
        for name, value in metrics().snapshot()["counters"].items()
        if name.startswith(("perf.", "cache."))
    }


def layer_times(rows: list[list], *, ops_only: bool) -> dict:
    """Per span name: ``[calls, self seconds]``.

    Self time is a span's duration minus the part its child spans
    cover.  With ``ops_only`` only spans recorded inside a timed
    operation count, so set-up work between operations stays out.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _op in rows:
        if parent >= 0 and end:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for index, (name, start, end, _parent, op_id) in enumerate(rows):
        if not end or (ops_only and op_id is None):
            continue
        row = out.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += end - start - child_time[index]
    return out
