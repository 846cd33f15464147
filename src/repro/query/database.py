"""The temporal database: a catalog of named generalized relations.

This is the user-facing entry point for Section 4's query language:
register relations, then run first-order queries (as text or as AST
values) against them.

A database is in-memory by default; :meth:`Database.open` binds it to
a durable, crash-safe store (:mod:`repro.storage.engine`) with
explicit :meth:`Database.commit` / :meth:`Database.compact` /
:meth:`Database.close` — the finite representability of Definitions
2.1–2.3 is exactly what makes the infinite extensions storable.

Concurrency model (shared with the served path, :mod:`repro.serve`):
every commit publishes an immutable :class:`~repro.query.catalog.
CatalogVersion` through the :class:`~repro.query.catalog.
VersionedCatalog` transactional core.  :meth:`Database.snapshot` pins
the current committed version into a read-only
:class:`~repro.query.catalog.Snapshot` without taking any lock, so
readers holding snapshots never block — and are never torn by —
concurrent commits (MVCC snapshot isolation).  The working catalog
this class mutates in place is private to it; committed versions hold
copies of whatever changed.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.errors import (
    EvaluationError,
    ReproTypeError,
    SchemaError,
    StorageError,
)
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation, Schema
from repro.query.ast import Query
from repro.query.catalog import CatalogVersion, Snapshot, VersionedCatalog
from repro.query.evaluator import Evaluator
from repro.query.parser import Directive, parse_query, split_directive


class Database:
    """A collection of named generalized relations, plus query evaluation.

    Example::

        db = Database()
        db.create("Train", temporal=["dep", "arr"], data=["service"])
        db.relation("Train").add_tuple(
            ["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"]
        )
        assert db.ask('EXISTS d. EXISTS a. Train(d, a, "slow") & d >= 60')
    """

    def __init__(
        self,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
    ) -> None:
        self._relations: dict[str, GeneralizedRelation] = {}
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self._engine = None
        self._core = VersionedCatalog()
        self._closed = False

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        *,
        create: bool = True,
        max_tuples: int = DEFAULT_MAX_TUPLES,
        max_extensions: int = DEFAULT_MAX_EXTENSIONS,
    ) -> Database:
        """Open a durable database stored at ``path``.

        Runs crash recovery (snapshot load + committed-WAL replay; see
        :mod:`repro.storage.engine`) and returns a database whose
        catalog is exactly the last committed state.  With ``create``
        (the default) a missing path is initialized to an empty
        database.  Mutations stay in memory until :meth:`commit`;
        :meth:`close` (or the context-manager exit) releases the store
        without committing.

        Example::

            with Database.open("trains.db") as db:
                db.create("Train", temporal=["dep", "arr"])
                db.relation("Train").add_tuple(["2 + 60n", "80 + 60n"])
                db.commit()
        """
        from repro.storage.engine import StorageEngine

        engine = StorageEngine.open(path, create=create)
        db = cls(max_tuples=max_tuples, max_extensions=max_extensions)
        # The working catalog gets independently mutable copies; the
        # recovered relations themselves seed committed version 0, so
        # in-place mutation of the working state can never reach a
        # pinned snapshot.
        db._relations = {
            name: rel.copy() for name, rel in engine.relations.items()
        }
        db._engine = engine
        db._core = VersionedCatalog(engine=engine, base=engine.relations)
        return db

    @property
    def persistent(self) -> bool:
        """Whether this database is backed by a durable store."""
        return self._engine is not None

    @property
    def storage(self):
        """The backing :class:`~repro.storage.engine.StorageEngine`.

        ``None`` for a purely in-memory database.
        """
        return self._engine

    def _require_engine(self):
        if self._engine is None:
            raise SchemaError(
                "this database is in-memory only; use Database.open(path) "
                "for durability"
            )
        return self._engine

    def _check_open(self) -> None:
        """Reject use of a persistent database after :meth:`close`.

        A closed handle's working catalog is stale by definition —
        silently querying it (or worse, raising ``AttributeError`` from
        a half-torn-down engine) was the use-after-close bug this guard
        fixes; every catalog and query entry point now raises a clean
        :class:`~repro.core.errors.StorageError` instead.
        """
        if self._engine is not None and self._engine._crashed:
            raise StorageError(
                "engine crashed (injected fault); reopen the database"
            )
        if self._closed:
            raise StorageError(
                "database is closed; reopen it with Database.open(path)"
            )

    def commit(self) -> int:
        """Durably persist the current catalog (requires :meth:`open`).

        Returns the number of WAL mutation records appended (0 when the
        catalog is unchanged since the last commit).  Atomic under
        crashes: recovery yields either the previous or the new
        committed state, never a mixture.  Publishes a new immutable
        :class:`~repro.query.catalog.CatalogVersion`; snapshots pinned
        before the commit keep seeing the old one.
        """
        self._check_open()
        self._require_engine()
        version, records = self._core.commit_state(self._relations)
        self._sync_views(version)
        return records

    def compact(self) -> str:
        """Fold the committed WAL into a fresh snapshot; truncate the log.

        Returns the new snapshot's file name.  Uncommitted in-memory
        changes are unaffected (and remain uncommitted).
        """
        self._check_open()
        return self._require_engine().compact()

    def close(self) -> None:
        """Release the durable store, if any (idempotent, no commit).

        A *persistent* database becomes unusable after close: any
        further query or catalog call raises
        :class:`~repro.core.errors.StorageError`.  Closing an
        in-memory database is a no-op.
        """
        if self._engine is not None:
            self._engine.close()
            self._closed = True

    @property
    def version(self) -> int:
        """The committed catalog version token (monotone per commit)."""
        return self._core.version

    def snapshot(self) -> Snapshot:
        """Pin a read-only MVCC snapshot of the committed catalog.

        For a durable database this is the last committed version — a
        single lock-free pointer read, so pinning (and querying the
        pin) never blocks concurrent committers, and later commits
        never show through.  For an in-memory database it is a
        point-in-time copy of the current working catalog.  Uncommitted
        working-state mutations are never visible in a snapshot of a
        durable database.
        """
        self._check_open()
        if self._engine is None:
            version = CatalogVersion(
                self._core.version,
                {
                    name: rel.copy()
                    for name, rel in self._relations.items()
                },
            )
        else:
            version = self._core.current()
        return Snapshot(
            version,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
        )

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # deductive programs and streaming appends
    # ------------------------------------------------------------------

    def install_program(self, program, *, verify: bool = False):
        """Install a deductive program; keep its IDB materialized.

        Commits the current working catalog, stratifies ``program``
        against it, and materializes every IDB predicate as a
        *materialized view*: an ordinary relation riding in each
        committed :class:`~repro.query.catalog.CatalogVersion`, kept
        consistent by every subsequent :meth:`commit` /
        :meth:`append_stream` (incrementally where the change is
        insert-only, by stratum recomputation otherwise).  Views are
        queryable like any relation but cannot be created, registered,
        dropped or mutated directly.

        On a reopened durable database, views persisted by a previous
        process are adopted without recomputation when their schemas
        match; ``verify=True`` forces recomputation (repairing any
        divergence).  Returns the
        :class:`~repro.deductive.incremental.RefreshReport` of the
        initial materialization, or ``None`` when adoption skipped it.
        """
        self._check_open()
        self._core.commit_state(self._relations)
        version, report = self._core.install_program(
            program,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            verify=verify,
        )
        self._sync_views(version)
        return report

    def append_stream(self, name: str, tuples) -> int:
        """Append a batch of generalized tuples as one transaction.

        The streaming ingest path: flushes pending working-catalog
        changes, then commits the batch through the transactional
        core's group-commit protocol — one WAL append run, one fsync,
        and (with a program installed) one incremental view refresh for
        the whole batch, which is what amortizes maintenance cost over
        burst ingest.  ``tuples`` may hold
        :class:`~repro.core.tuples.GeneralizedTuple` values or jsonio
        tuple entries (``{"lrps": [[offset, period], ...], "bounds":
        [...], "data": [...]}``).  Returns the number of WAL mutation
        records the transaction appended.
        """
        self._check_open()
        self._core.commit_state(self._relations)
        mutations = [
            {"op": "insert", "name": name, "tuple": _tuple_entry(t)}
            for t in tuples
        ]
        result = self._core.commit_mutations([mutations])[0]
        if result.error is not None:
            raise result.error
        current = self._core.current()
        if name in current:
            self._relations[name] = current.relation(name).copy()
        self._sync_views(current)
        return result.records

    @property
    def program(self):
        """The installed deductive program, or ``None``."""
        maintainer = self._core.maintainer
        return maintainer.program if maintainer is not None else None

    @property
    def view_names(self) -> tuple[str, ...]:
        """Names of the installed program's materialized views."""
        return self._core.view_names

    def views(self) -> dict[str, int]:
        """Materialized views and their freshness watermarks.

        Maps each view name to the committed version token whose EDB
        state it was last refreshed against (see
        :attr:`CatalogVersion.view_watermarks
        <repro.query.catalog.CatalogVersion.view_watermarks>`).
        Empty when no program is installed.
        """
        self._check_open()
        return dict(self._core.current().view_watermarks)

    def _sync_views(self, version) -> None:
        """Mirror committed views into the working catalog.

        The working catalog is what :meth:`query` reads, so after any
        commit that refreshed views the mirrors must follow.  Copies
        keep a caller who grabs the relation object from reaching into
        the committed version.
        """
        for view in self._core.view_names:
            if view in version:
                self._relations[view] = version.relation(view).copy()

    def _guard_view(self, name: str) -> None:
        if name in self._core.view_names:
            raise SchemaError(
                f"relation {name!r} is a materialized view of the "
                "installed deductive program; mutate its input "
                "relations instead"
            )

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        *,
        temporal: Sequence[str] = (),
        data: Sequence[str] = (),
    ) -> GeneralizedRelation:
        """Create and register an empty relation.

        ``temporal`` and ``data`` are keyword-only: ``create("Train",
        temporal=["dep", "arr"], data=["service"])``.
        """
        self._check_open()
        self._guard_view(name)
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        rel = GeneralizedRelation.empty(Schema.make(temporal, data))
        self._relations[name] = rel
        return rel

    def register(self, name: str, relation: GeneralizedRelation) -> None:
        """Register an existing relation under ``name`` (replacing any)."""
        self._check_open()
        self._guard_view(name)
        self._relations[name] = relation

    def relation(self, name: str) -> GeneralizedRelation:
        """Look up a relation by name."""
        self._check_open()
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r}") from None

    def drop(self, name: str) -> None:
        """Remove a relation from the catalog."""
        self._check_open()
        self._guard_view(name)
        if name not in self._relations:
            raise EvaluationError(f"unknown relation {name!r}")
        del self._relations[name]

    @property
    def names(self) -> tuple[str, ...]:
        """Registered relation names, in insertion order."""
        return tuple(self._relations)

    def schemas(self) -> dict[str, Schema]:
        """Name-to-schema mapping (what the query parser needs)."""
        return {name: rel.schema for name, rel in self._relations.items()}

    def active_data_domain(self) -> set[Hashable]:
        """All data values stored anywhere in the database."""
        out: set[Hashable] = set()
        for rel in self._relations.values():
            out |= rel.active_data_domain()
        return out

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse a query against the catalog's schemas."""
        self._check_open()
        return parse_query(text, self.schemas())

    def _evaluator(self, *, engine=None, optimize=None) -> Evaluator:
        return Evaluator(
            dict(self._relations),
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            engine=engine,
            optimize=optimize,
        )

    def query(self, query: str | Query, *, engine=None, optimize=None):
        """Evaluate a query; the result schema is the free variables.

        A query string may carry a leading directive: ``EXPLAIN <q>``
        returns the plan (see :meth:`explain`), ``EXPLAIN ANALYZE
        <q>`` the instrumented :class:`~repro.query.explain.QueryTrace`
        (span tree, timings, result), and ``MINIMIZE <obj> : <q>`` /
        ``MAXIMIZE <obj> : <q>`` the exact extremum of a linear
        objective as an :class:`~repro.optimize.core.
        OptimizationResult` (see :meth:`optimize` and
        ``docs/optimization.md``).  ``EXPLAIN [ANALYZE] MINIMIZE ...``
        composes.  Plain queries return the result relation.

        ``engine`` selects a registered execution engine by name,
        ``optimize`` toggles the plan rewrite passes; both default to
        the global configuration (``REPRO_ENGINE`` /
        ``REPRO_OPTIMIZE``).  Optimization never changes results, only
        how they are computed.
        """
        self._check_open()
        if isinstance(query, str):
            directive, text = split_directive(query)
            if directive in (Directive.EXPLAIN, Directive.EXPLAIN_ANALYZE):
                inner, rest = split_directive(text)
                if inner in (Directive.MINIMIZE, Directive.MAXIMIZE):
                    from repro.optimize import parse_objective
                    from repro.query.explain import optimize_trace

                    objective, qtext = parse_objective(rest)
                    trace = optimize_trace(
                        self,
                        qtext,
                        objective,
                        "min" if inner is Directive.MINIMIZE else "max",
                        engine=engine,
                        optimize=optimize,
                    )
                    if directive is Directive.EXPLAIN_ANALYZE:
                        return trace
                    return trace.plan_only()
                if directive is Directive.EXPLAIN:
                    return self.explain(text, engine=engine, optimize=optimize)
                return self.trace(text, engine=engine, optimize=optimize)
            if directive in (Directive.MINIMIZE, Directive.MAXIMIZE):
                sense = "min" if directive is Directive.MINIMIZE else "max"
                return self.optimize(
                    text, sense=sense, engine=engine, optimize=optimize
                )
            query = self.parse(text)
        return self._evaluator(engine=engine, optimize=optimize).evaluate(query)

    def optimize(
        self,
        query: str | Query,
        objective=None,
        *,
        sense: str = "min",
        engine=None,
        optimize=None,
    ):
        """Exact extremum of a linear objective over a query's result.

        ``objective`` is a :class:`repro.optimize.Objective` or its
        text form (``"t"``, ``"arr - dep"``); its variables must be
        free temporal variables of the query.  When ``query`` is a
        string and ``objective`` is ``None``, the objective is read
        from the query's own ``<obj> : <query>`` prefix (the
        ``MINIMIZE``/``MAXIMIZE`` directive body).  ``sense`` is
        ``"min"`` or ``"max"``.

        Returns an :class:`~repro.optimize.core.OptimizationResult`:
        the exact optimum with a concrete witness point and the argopt
        tuple, an unboundedness certificate, or an empty verdict —
        never an approximation (``docs/optimization.md``).
        """
        self._check_open()
        from repro.obs import metrics
        from repro.optimize import Objective, parse_objective

        metrics().counter("optimize.queries").inc()
        if isinstance(query, str):
            directive, text = split_directive(query)
            if directive is Directive.MINIMIZE:
                sense = "min"
            elif directive is Directive.MAXIMIZE:
                sense = "max"
            if objective is None:
                objective, text = parse_objective(text)
            query = self.parse(text)
        if objective is None:
            raise EvaluationError(
                "optimize() needs an objective (a variable name or a "
                "difference 'a - b')"
            )
        if isinstance(objective, str):
            objective = Objective.parse(objective)
        evaluator = self._evaluator(engine=engine, optimize=optimize)
        return evaluator.optimize_query(query, objective, sense)

    def ask(self, query: str | Query, *, engine=None, optimize=None) -> bool:
        """Evaluate a closed (yes/no) query — Theorem 4.1's setting."""
        self._check_open()
        if isinstance(query, str):
            query = self.parse(query)
        return self._evaluator(engine=engine, optimize=optimize).ask(query)

    def plan(self, query: str | Query, *, engine=None, optimize=None):
        """Statically plan ``query`` without executing it.

        Returns a frozen :class:`~repro.plan.report.PlanReport`: the
        lowered plan, the optimized plan (when optimization resolves
        on) and the per-pass rewrite deltas.
        """
        from repro.query.explain import plan_report

        return plan_report(self, query, engine=engine, optimize=optimize)

    def explain(self, query: str | Query, *, engine=None, optimize=None):
        """Record the algebraic plan of ``query`` (it really runs).

        With optimization off (the default), returns the legacy
        span-projected :class:`repro.query.explain.PlanNode`; with it
        on, a :class:`~repro.plan.report.PlanReport` whose nodes are
        annotated with observed output sizes and whose ``passes`` show
        what each rewrite changed.  ``str()`` renders either.
        """
        from repro.query.explain import explain_plan, plan_report

        resolved = optimize
        if resolved is None:
            from repro.perf.config import get_config

            resolved = get_config().optimize
        if resolved:
            return plan_report(
                self, query, engine=engine, optimize=True, execute=True
            )
        return explain_plan(self, query, engine=engine, optimize=False)

    def trace(self, query: str | Query, *, engine=None, optimize=None):
        """EXPLAIN ANALYZE: evaluate ``query`` under the trace recorder.

        Returns a :class:`repro.query.explain.QueryTrace` holding the
        result relation, the full span tree (per-operator tuple counts,
        pairwise combinations, prefilter rejections, cache hits,
        normalization expansions, wall times), the annotated plan, a
        text flamegraph and JSON export.
        """
        from repro.query.explain import explain_analyze

        return explain_analyze(self, query, engine=engine, optimize=optimize)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __repr__(self) -> str:
        return f"<Database relations={list(self._relations)}>"


def _tuple_entry(value) -> dict:
    """Normalize one :meth:`Database.append_stream` item to a jsonio entry."""
    from repro.core.tuples import GeneralizedTuple

    if isinstance(value, GeneralizedTuple):
        return {
            "lrps": [[lrp.offset, lrp.period] for lrp in value.lrps],
            "bounds": [
                [i, j, bound] for i, j, bound in value.dbm.iter_bounds()
            ],
            "data": list(value.data),
        }
    if isinstance(value, dict):
        return value
    raise ReproTypeError(
        "append_stream items must be GeneralizedTuple values or jsonio "
        f"tuple entries, not {type(value).__name__}"
    )
