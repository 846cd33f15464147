"""``stream_ingest``: streamed appends into a durable database with a view.

Each stream opens a fresh durable :class:`repro.api.Database`, creates
``Edge(t : T; src, dst : D)``, installs the reachability-within-4
program (:data:`PROGRAM`) and appends batches of period-24 edge
schedules with ``append_stream``: one transaction, one fsync and one
incremental refresh of the ``Reach`` view per batch.  This is the only
workload that runs incremental view maintenance.

Streams run back to back, in whole cycles of five fixed graph shapes,
until the measured append time reaches the run's length (so a run
measures at least that long).  The workload seed renames each
stream's nodes, rotates every phase by one offset and reorders each
batch.  Reachability is invariant under all three, so every seed asks
the same amount of work on different inputs.

After each stream the maintained view is checked, as a point set over
four periods, against a direct fixpoint over (phase, node, node)
triples; the first stream of a pass is also checked against the
program's naive evaluation.
"""

from __future__ import annotations

import os
import random
import time

from harness import (
    PassResult,
    disk_bytes,
    peak_rss_mb,
    remove_dir,
    scratch_dir,
    timed,
)

SHAPE_SEED = 1990
PERIOD = 24
#: Maximum time between consecutive hops of a path.
WINDOW = 4
PROGRAM = (
    "declare Reach(t:T, src:D, dst:D)\n"
    "Reach(t, x, y) <- Edge(t, x, y)\n"
    "Reach(t, x, z) <- EXISTS s. EXISTS u. (Reach(s, x, u) "
    f"& Edge(t, u, z) & s <= t & t <= s + {WINDOW})\n"
)
#: ``(shapes, nodes, batches per stream, edges per batch)``.
SIZE = (5, 6, 14, 3)
SMOKE_SIZE = (2, 4, 5, 2)


def _shapes(count: int, nodes: int, batches: int, edges: int):
    """Fixed graph shapes: batches of ``(phase, src, dst)`` edges."""
    rng = random.Random(SHAPE_SEED)
    return [
        [
            [(rng.randrange(PERIOD), rng.randrange(nodes),
              rng.randrange(nodes)) for _ in range(edges)]
            for _ in range(batches)
        ]
        for _ in range(count)
    ]


def _stream(shape, nodes: int, rng: random.Random) -> list[list[dict]]:
    """One seeded stream: renamed nodes, rotated phases, batch order."""
    rotation = rng.randrange(PERIOD)
    names = [f"n{i}" for i in rng.sample(range(nodes), nodes)]
    out = []
    for batch in shape:
        entries = [
            {"lrps": [[(phase + rotation) % PERIOD, PERIOD]],
             "bounds": [], "data": [names[src], names[dst]]}
            for phase, src, dst in batch
        ]
        rng.shuffle(entries)
        out.append(entries)
    return out


def reach_oracle(batches: list[list[dict]]) -> set[tuple]:
    """Reach as a point set over ``[0, 4 * PERIOD)``, without the algebra.

    Every edge is ``PERIOD``-periodic, so Reach is too, and a hop from
    phase ``s`` to phase ``t`` fits the window exactly when
    ``(t - s) mod PERIOD <= WINDOW``.  The fixpoint over
    (phase, src, dst) triples is the view modulo the period.
    """
    edges = {(entry["lrps"][0][0], *entry["data"])
             for batch in batches for entry in batch}
    out_edges: dict[str, list[tuple[int, str]]] = {}
    for phase, src, dst in edges:
        out_edges.setdefault(src, []).append((phase, dst))
    reach, frontier = set(edges), set(edges)
    while frontier:
        found = {
            (phase, x, z)
            for s, x, u in frontier
            for phase, z in out_edges.get(u, ())
            if (phase - s) % PERIOD <= WINDOW
        } - reach
        reach |= found
        frontier = found
    return {
        (phase + k * PERIOD, x, z)
        for phase, x, z in reach
        for k in range(4)
    }


def run_pass(seed: int, seconds: float, tracer, smoke: bool) -> PassResult:
    """Run streams until ``seconds`` of append time are measured."""
    count, nodes, batches, edges = SMOKE_SIZE if smoke else SIZE
    shapes = _shapes(count, nodes, batches, edges)
    rng = random.Random(seed)
    result = PassResult()
    result.extra.update(tuples_written=0, disk_bytes=0, streams=0)
    if tracer is not None:
        tracer.install()
    try:
        # Whole cycles of the shapes only, so every run mixes them alike.
        while (result.elapsed < seconds
               or result.extra["streams"] % count) and not result.failed:
            index = result.extra["streams"]
            stream = _stream(shapes[index % count], nodes, rng)
            root = scratch_dir("stream-")
            try:
                _run_stream(result, index, stream, root, tracer)
            finally:
                remove_dir(root)
            result.extra["streams"] += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.peak_rss_mb = peak_rss_mb()
    return result


def _run_stream(result: PassResult, index: int, stream, root: str,
                tracer) -> None:
    from repro.api import Database, Program

    started = time.perf_counter()
    db = Database.open(os.path.join(root, "db"))
    try:
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        db.commit()
        db.install_program(Program.from_text(PROGRAM))
        result.record_setup(time.perf_counter() - started)
        for batch in stream:
            result.attempted += 1
            try:
                _records, latency = timed(tracer, result.attempted,
                                          db.append_stream, "Edge", batch)
            except Exception as exc:  # counted and reported, not fatal
                result.failed += 1
                result.check(f"stream {index} appends", False, repr(exc))
                return
            result.record(latency)
            result.extra["tuples_written"] += len(batch)
            result.probe()
        view = set(db.relation("Reach").enumerate(0, 4 * PERIOD - 1))
        result.check(f"stream {index} Reach == oracle",
                     view == reach_oracle(stream), f"{len(view)} points")
        if index == 0:
            edb = Database()
            edb.register("Edge", db.relation("Edge"))
            naive = Program.from_text(PROGRAM).evaluate(
                edb, strategy="naive").relation("Reach")
            result.check("stream 0 Reach == naive evaluation",
                         view == set(naive.enumerate(0, 4 * PERIOD - 1)))
    finally:
        db.close()
    result.extra["disk_bytes"] += disk_bytes(root)
