"""Temporal-graph scenarios: periodic edge schedules + reachability.

The IVM fuzz leg and several test suites all need the same shaped
workload: a graph whose edges are *schedules* — linear repeating
points ``offset + period·n`` (the paper's lrps), i.e. "the edge
``x → y`` can be taken at every such instant" — and a recursive
program asking which nodes are reachable when consecutive hops must
happen within a window of ``Δt`` time units::

    declare Reach(t:T, src:D, dst:D)
    Reach(t, x, y) <- Edge(t, x, y)
    Reach(t, x, z) <- EXISTS s. EXISTS u. (Reach(s, x, u)
                        & Edge(t, u, z) & s <= t & t <= s + Δt)

Because the schedules are infinite, this is exactly the setting the
paper's generalized relations exist for: the materialized ``Reach``
view is itself an infinite (periodic) relation, maintained
incrementally as edge batches stream in.
"""

from __future__ import annotations

import random

from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple

#: The EDB schema every scenario streams into.
EDGE_SCHEMA = Schema.make(temporal=["t"], data=["src", "dst"])


def reachability_program(window: int = 6):
    """The reachability-within-``window`` program over ``Edge``.

    Returns a freshly parsed
    :class:`~repro.deductive.program.Program`; ``window`` is the
    maximum time between consecutive hops (baked into the rule text as
    a successor offset).
    """
    from repro.deductive.program import Program

    return Program.from_text(
        "declare Reach(t:T, src:D, dst:D)\n"
        "Reach(t, x, y) <- Edge(t, x, y)\n"
        "Reach(t, x, z) <- EXISTS s. EXISTS u. (Reach(s, x, u) "
        f"& Edge(t, u, z) & s <= t & t <= s + {window})\n"
    )


def edge_tuple(
    offset: int, period: int, src: str, dst: str
) -> GeneralizedTuple:
    """One lrp-encoded edge schedule: ``x → y`` at ``offset + period·n``."""
    return GeneralizedTuple(
        lrps=(LRP.make(offset, period),),
        dbm=DBM(1),
        data=(src, dst),
    )


def edge_batches(
    n_nodes: int,
    n_batches: int,
    batch_size: int,
    *,
    period: int = 24,
    seed: int = 0,
) -> list[list[GeneralizedTuple]]:
    """Deterministic batches of edge schedules for streaming ingest.

    Edges connect random node pairs of a ``n_nodes``-node graph
    (labels ``n0..n<k>``), each on its own periodic schedule with a
    random phase; duplicates across batches are allowed (re-deriving
    known points is exactly what incremental maintenance must absorb
    cheaply).  Same ``seed`` → same batches, so benchmark runs are
    comparable across machines.
    """
    rng = random.Random(seed)
    batches: list[list[GeneralizedTuple]] = []
    for _ in range(n_batches):
        batch = []
        for _ in range(batch_size):
            src = f"n{rng.randrange(n_nodes)}"
            dst = f"n{rng.randrange(n_nodes)}"
            batch.append(
                edge_tuple(rng.randrange(period), period, src, dst)
            )
        batches.append(batch)
    return batches


def edge_relation(batches) -> GeneralizedRelation:
    """Fold streamed batches into one ``Edge`` relation (the oracle EDB)."""
    out = GeneralizedRelation.empty(EDGE_SCHEMA)
    for batch in batches:
        for gtuple in batch:
            out.add(gtuple)
    return out
