"""repro.api — the supported public surface, in one import.

The library grew module by module (core algebra, query language,
Presburger characterization, optimization layer, observability); this
facade pins down what is *stable*: everything exported here follows
deprecation policy (one release of warnings before a breaking change).
Anything reached by deeper imports — ``repro.core.dbm``,
``repro.perf.prefilter``, ... — is engine internals and may change
without notice.

Quickstart::

    from repro.api import Database

    db = Database()
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    db.relation("Train").add_tuple(
        ["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"]
    )
    assert db.ask('EXISTS d. EXISTS a. Train(d, a, "slow") & d >= 60')

    print(db.query("EXPLAIN EXISTS d. EXISTS a. Train(d, a, \\"slow\\")"))
    trace = db.trace('EXISTS d. EXISTS a. Train(d, a, "slow")')
    print(trace.flamegraph())

Durability: ``Database.open(path)`` binds the same catalog to a
crash-safe on-disk store — mutate freely, then ``db.commit()``; a
crash at any point recovers to exactly the last committed state::

    with Database.open("trains.db") as db:
        db.create("Train", temporal=["dep", "arr"], data=["service"])
        db.relation("Train").add_tuple(
            ["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"]
        )
        db.commit()

The surface, by area:

* **data model** — :class:`Schema`, :class:`GeneralizedRelation`,
  :class:`GeneralizedTuple`, :class:`LRP`, :func:`relation`;
* **queries** — :class:`Database`, :class:`Evaluator`,
  :func:`parse_query`, :func:`explain_analyze`, :class:`QueryTrace`;
* **planning** — :func:`plan` / :func:`explain` (frozen
  :class:`PlanReport` summaries), :class:`PlanNode` (the
  relation-expression IR), :class:`PassReport`, and the plan
  executor :class:`NativeEngine` / :class:`ExecutionContext` (see
  ``docs/planner.md``);
* **durable storage** — :meth:`Database.open` / :meth:`Database.commit`
  / :meth:`Database.compact` / :meth:`Database.close`,
  :class:`StorageEngine` (the WAL-backed store itself), and the
  deterministic crash harness :class:`FaultInjector` /
  :func:`crash_at` / :class:`InjectedCrash`;
* **serving** — :class:`ReproServer` (the asyncio multi-client server:
  MVCC snapshot reads, single-fsync group commit),
  :meth:`Database.snapshot` / :class:`Snapshot` (lock-free pinned
  reads, in-process too), and the :class:`SyncClient` /
  :class:`Client` wire clients — see ``docs/serving.md``;
* **deduction** — :class:`Program` / :class:`Rule` (Datalog over
  generalized relations, semi-naive evaluation),
  :meth:`Database.install_program` (materialized IDB views, refreshed
  incrementally on every commit) and
  :meth:`Database.append_stream` (batched streaming ingest) — see
  ``docs/deductive.md``;
* **observability** — :func:`tracing`, :class:`TraceRecorder`,
  :class:`Span`, :func:`render_flamegraph`, :func:`metrics`,
  :class:`MetricsRegistry`, :func:`kernel_backend` (which DBM closure
  backend — ``numpy`` or ``python`` — is active);
* **errors** — :class:`ReproError` and its documented subclasses (see
  :mod:`repro.core.errors`), including :class:`StorageError` /
  :class:`RecoveryError` for the durable layer.

``docs/index.md`` maps this surface to the documentation set;
``docs/architecture.md`` maps the whole codebase to the paper.
"""

from __future__ import annotations

import importlib

from repro.core import (
    LRP,
    GeneralizedRelation,
    GeneralizedTuple,
    Schema,
    relation,
)
from repro.deductive import Program, Rule
from repro.core.errors import (
    ConstraintError,
    DomainError,
    EvaluationError,
    NormalizationLimitError,
    ParseError,
    RecoveryError,
    ReproError,
    ReproTypeError,
    ReproValueError,
    SchemaError,
    ServeError,
    StorageError,
)
from repro.obs import (
    MetricsRegistry,
    Span,
    TraceRecorder,
    metrics,
    render_flamegraph,
    tracing,
)
from repro.perf.kernel import kernel_backend
from repro.plan import (
    ExecutionContext,
    NativeEngine,
    PassReport,
    PlanNode,
    PlanReport,
)
from repro.query import (
    Database,
    Evaluator,
    QueryTrace,
    explain_analyze,
    parse_query,
)
from repro.query.catalog import Snapshot
from repro.query import dispatch as _dispatch
from repro.storage import (
    FaultInjector,
    InjectedCrash,
    StorageEngine,
    crash_at,
)


#: Exports bound on first access by :func:`__getattr__`, and their
#: modules: the fuzzer and the server (which loads asyncio) are the
#: costliest imports of the surface, and most callers use neither.
_LAZY = {
    "Case": "repro.fuzz",
    "CaseResult": "repro.fuzz",
    "generate_case": "repro.fuzz",
    "load_case": "repro.fuzz",
    "run_case": "repro.fuzz",
    "shrink_case": "repro.fuzz",
    "Client": "repro.serve",
    "ReproServer": "repro.serve",
    "SyncClient": "repro.serve",
}


def __getattr__(name: str):
    # PEP 562: load the module on the first lookup of one of its names.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def plan(db: Database, query, *, optimize=None) -> PlanReport:
    """Statically plan a query: lowering, rewrites, no execution.

    Returns a frozen :class:`PlanReport` — the lowered (naive) plan,
    the plan that would run, and the per-pass rewrite deltas when
    optimization resolves on (the default; ``optimize=False`` or
    ``REPRO_OPTIMIZE=0`` turn it off).
    """
    return _dispatch.plan(db, query, optimize=optimize)


def explain(db: Database, query, *, optimize=None) -> PlanReport:
    """Plan *and run* a query, annotating every plan node with its size.

    Like :func:`plan` but the plan is executed, so the returned
    :class:`PlanReport` carries observed output tuple counts per node —
    the same report :meth:`Database.explain`, the ``EXPLAIN``
    directive and :meth:`QueryTrace.plan` give, with optimization on
    or off.
    """
    return _dispatch.explain(db, query, optimize=optimize)


__all__ = [
    # data model
    "GeneralizedRelation",
    "GeneralizedTuple",
    "LRP",
    "Schema",
    "relation",
    # queries
    "Database",
    "Evaluator",
    "QueryTrace",
    "explain_analyze",
    "parse_query",
    # planning
    "ExecutionContext",
    "NativeEngine",
    "PassReport",
    "PlanNode",
    "PlanReport",
    "explain",
    "plan",
    # durable storage
    "FaultInjector",
    "InjectedCrash",
    "StorageEngine",
    "crash_at",
    # serving (MVCC snapshots, group commit)
    "Client",
    "ReproServer",
    "Snapshot",
    "SyncClient",
    # deduction (Datalog programs, materialized views)
    "Program",
    "Rule",
    # differential fuzzing
    "Case",
    "CaseResult",
    "generate_case",
    "load_case",
    "run_case",
    "shrink_case",
    # observability
    "MetricsRegistry",
    "Span",
    "TraceRecorder",
    "kernel_backend",
    "metrics",
    "render_flamegraph",
    "tracing",
    # errors
    "ConstraintError",
    "DomainError",
    "EvaluationError",
    "NormalizationLimitError",
    "ParseError",
    "RecoveryError",
    "ReproError",
    "ReproTypeError",
    "ReproValueError",
    "SchemaError",
    "ServeError",
    "StorageError",
]
