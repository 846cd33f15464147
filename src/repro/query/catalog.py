"""The MVCC transactional core: immutable committed catalog versions.

The paper's finite-representation semantics (Defs. 2.1–2.3) makes a
committed catalog a *value*: a finite set of generalized relations that
never changes after commit.  This module leans on that to give the
database multi-version concurrency control essentially for free:

* a :class:`CatalogVersion` is one committed catalog state, stamped
  with a monotone version token and frozen — its relations are never
  mutated after construction (commit copies only the relations that
  changed, so consecutive versions share unchanged relation objects);
* a :class:`Snapshot` pins one version and evaluates queries against
  it — **lock-free**: pinning is a single pointer read, so readers
  never block writers and writers never block readers;
* a :class:`VersionedCatalog` is the transactional core both the
  in-process :class:`~repro.query.database.Database` and the served
  path (:mod:`repro.serve`) commit through: one writer lock serializes
  commits, and :meth:`VersionedCatalog.commit_mutations` implements
  the group-commit protocol — many writers' transactions applied in
  arrival order and made durable by one WAL append run + one fsync
  (:meth:`repro.storage.engine.StorageEngine.commit_many`).

Mutations are plain JSON-shaped dicts (the same shape the wire
protocol carries)::

    {"op": "create", "name": "Train", "temporal": ["dep"], "data": []}
    {"op": "insert", "name": "Train", "lrps": ["2 + 60n"],
     "constraints": "dep >= 0", "data": []}
    {"op": "drop", "name": "Train"}
    {"op": "put", "name": "Train", "relation": {...jsonio payload...}}

Applying a batch never touches the committed version it starts from:
each touched relation is copied first (:meth:`GeneralizedRelation.copy
<repro.core.relations.GeneralizedRelation.copy>`), which is what makes
a pinned snapshot immune to every later commit.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.core.errors import (
    EvaluationError,
    ReproError,
    ReproTypeError,
    SchemaError,
)
from repro.core.relations import GeneralizedRelation, Schema


class CatalogVersion:
    """One immutable committed catalog state with a version token.

    Treat instances as frozen values: the relation mapping is exposed
    read-only, and the engine never mutates a relation reachable from a
    committed version (commit installs copies of changed relations).

    When a deductive program is installed
    (:meth:`VersionedCatalog.install_program`), the version also
    carries the program's materialized IDB views *as ordinary
    relations* plus per-view input-version watermarks: the version
    token whose EDB state each view was last refreshed against.
    Because commit refreshes views in the same critical section that
    publishes the version, every committed version is self-consistent
    — a pinned snapshot always reads views computed from exactly the
    EDB it sees.
    """

    __slots__ = ("version", "_relations", "_view_watermarks")

    def __init__(
        self,
        version: int,
        relations: Mapping[str, GeneralizedRelation],
        *,
        view_watermarks: Mapping[str, int] | None = None,
    ) -> None:
        self.version = version
        self._relations = dict(relations)
        self._view_watermarks = dict(view_watermarks or {})

    @property
    def relations(self) -> Mapping[str, GeneralizedRelation]:
        """The committed relations, as a read-only mapping."""
        return MappingProxyType(self._relations)

    @property
    def view_watermarks(self) -> Mapping[str, int]:
        """Materialized-view freshness: view name -> input version token.

        Empty when no program is installed.  A watermark equal to
        :attr:`version` means the view was refreshed by the commit that
        published this very version; a lower watermark means the
        intervening commits did not touch the view's inputs (the view
        object is shared with the older version).
        """
        return MappingProxyType(self._view_watermarks)

    @property
    def names(self) -> tuple[str, ...]:
        """Relation names in this version, in insertion order."""
        return tuple(self._relations)

    def relation(self, name: str) -> GeneralizedRelation:
        """Look up one relation; unknown names raise ``EvaluationError``."""
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r}") from None

    def schemas(self) -> dict[str, Schema]:
        """Name-to-schema mapping (what the query parser needs)."""
        return {name: rel.schema for name, rel in self._relations.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        return (
            f"<CatalogVersion v{self.version} "
            f"relations={list(self._relations)}>"
        )


class Snapshot:
    """A pinned, read-only view of one committed catalog version.

    Obtained from :meth:`Database.snapshot
    <repro.query.database.Database.snapshot>` (or per served
    connection via the wire protocol's ``snapshot`` op).  All reads —
    :meth:`query`, :meth:`ask`, :meth:`relation` — see exactly the
    pinned version, no matter how many commits land after the pin:
    snapshot isolation, without ever taking the writer lock.
    """

    __slots__ = ("_version", "max_tuples", "max_extensions")

    def __init__(
        self,
        version: CatalogVersion,
        *,
        max_tuples: int,
        max_extensions: int,
    ) -> None:
        self._version = version
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions

    @property
    def version(self) -> int:
        """The pinned version token."""
        return self._version.version

    @property
    def names(self) -> tuple[str, ...]:
        """Relation names in the pinned version."""
        return self._version.names

    def relation(self, name: str) -> GeneralizedRelation:
        """Look up a relation in the pinned version."""
        return self._version.relation(name)

    def schemas(self) -> dict[str, Schema]:
        """Name-to-schema mapping of the pinned version."""
        return self._version.schemas()

    def parse(self, text: str):
        """Parse a query against the pinned version's schemas."""
        from repro.query.parser import parse_query

        return parse_query(text, self.schemas())

    def _evaluator(self, *, engine=None, optimize=None):
        from repro.query.evaluator import Evaluator

        return Evaluator(
            dict(self._version.relations),
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            engine=engine,
            optimize=optimize,
        )

    def query(self, query, *, engine=None, optimize=None):
        """Evaluate a query against the pinned version.

        Accepts a query string or AST; returns the result relation.
        A ``MINIMIZE <obj> : <q>`` / ``MAXIMIZE <obj> : <q>`` directive
        returns the :class:`~repro.optimize.core.OptimizationResult`
        instead (the served ``query`` op ships both faces).  Unlike
        :meth:`Database.query <repro.query.database.Database.query>`
        this never sees uncommitted working-state mutations — only the
        pinned committed catalog.
        """
        if isinstance(query, str):
            from repro.query.parser import Directive, split_directive

            directive, text = split_directive(query)
            if directive in (Directive.MINIMIZE, Directive.MAXIMIZE):
                sense = "min" if directive is Directive.MINIMIZE else "max"
                return self.optimize(
                    text, sense=sense, engine=engine, optimize=optimize
                )
            query = self.parse(text)
        return self._evaluator(engine=engine, optimize=optimize).evaluate(
            query
        )

    def optimize(
        self, query, objective=None, *, sense="min", engine=None, optimize=None
    ):
        """Exact extremum of a linear objective over the pinned version.

        Mirrors :meth:`Database.optimize
        <repro.query.database.Database.optimize>`: ``objective`` is an
        :class:`~repro.optimize.Objective`, its text form, or ``None``
        to read it from the query's ``<obj> : <query>`` prefix.
        """
        from repro.obs import metrics
        from repro.optimize import Objective, parse_objective
        from repro.query.parser import Directive, split_directive

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
            from repro.core.errors import EvaluationError

            raise EvaluationError(
                "optimize() needs an objective (a variable name or a "
                "difference 'a - b')"
            )
        if isinstance(objective, str):
            objective = Objective.parse(objective)
        evaluator = self._evaluator(engine=engine, optimize=optimize)
        return evaluator.optimize_query(query, objective, sense)

    def ask(self, query, *, engine=None, optimize=None) -> bool:
        """Evaluate a closed (yes/no) query against the pinned version."""
        if isinstance(query, str):
            query = self.parse(query)
        return self._evaluator(engine=engine, optimize=optimize).ask(query)

    def __contains__(self, name: str) -> bool:
        return name in self._version

    def __repr__(self) -> str:
        return (
            f"<Snapshot v{self.version} relations={list(self.names)}>"
        )


@dataclass
class TxnResult:
    """The outcome of one transaction in a group-commit batch.

    Exactly one of the two shapes: success (``error is None``) carries
    the version token the transaction committed as and how many WAL
    mutation records it appended (0 for a no-op); failure carries the
    :class:`~repro.core.errors.ReproError` that aborted *this*
    transaction — other transactions in the batch are unaffected.
    """

    version: int
    records: int = 0
    error: ReproError | None = None

    @property
    def ok(self) -> bool:
        """Whether the transaction committed."""
        return self.error is None


def apply_mutations(
    relations: Mapping[str, GeneralizedRelation],
    mutations: Sequence[Mapping],
    *,
    protected: frozenset[str] | set[str] = frozenset(),
) -> dict[str, GeneralizedRelation]:
    """Apply one transaction's mutation list to a catalog state.

    Pure with respect to its input: returns a *new* name-to-relation
    dict, copying each touched relation before modifying it, so the
    input state (typically a committed version) is never altered.
    Raises the usual catalog errors (:class:`SchemaError` for a
    duplicate ``create``, :class:`EvaluationError` for an unknown name,
    parse errors from malformed tuple text) — the caller treats any
    :class:`~repro.core.errors.ReproError` as aborting the transaction.

    ``protected`` names (the installed program's materialized views)
    may not be targeted by any mutation: views are derived state, kept
    consistent by the commit path itself.
    """
    state = dict(relations)
    touched: set[str] = set()
    for mutation in mutations:
        try:
            op = mutation["op"]
        except (TypeError, KeyError):
            raise ReproTypeError(
                f"malformed mutation {mutation!r}: missing 'op'"
            ) from None
        name = _name_of(mutation)
        if name in protected:
            raise SchemaError(
                f"relation {name!r} is a materialized view of the "
                "installed deductive program; mutate its input "
                "relations instead"
            )
        if op == "create":
            if name in state:
                raise SchemaError(f"relation {name!r} already exists")
            schema = Schema.make(
                tuple(mutation.get("temporal") or ()),
                tuple(mutation.get("data") or ()),
            )
            state[name] = GeneralizedRelation.empty(schema)
            touched.add(name)
        elif op == "insert":
            if name not in state:
                raise EvaluationError(f"unknown relation {name!r}")
            if name not in touched:
                state[name] = state[name].copy()
                touched.add(name)
            _insert_into(state[name], mutation)
        elif op == "drop":
            if name not in state:
                raise EvaluationError(f"unknown relation {name!r}")
            del state[name]
            touched.discard(name)
        elif op == "put":
            from repro.storage import jsonio

            state[name] = jsonio.relation_from_dict(mutation["relation"])
            touched.add(name)
        else:
            raise ReproTypeError(f"unknown mutation op {op!r}")
    return state


def _insert_into(
    relation: GeneralizedRelation, mutation: Mapping
) -> None:
    """Apply one ``insert`` mutation to an (already copied) relation.

    Two payload shapes are accepted.  The friendly text form carries
    ``lrps`` as LRP strings plus a ``constraints`` string naming the
    schema's temporal attributes.  The structural ``tuple`` form is a
    jsonio tuple entry (``lrps`` as ``[offset, period]`` pairs, raw DBM
    ``bounds``, ``data`` scalars) — what the streaming append path
    (:meth:`repro.query.database.Database.append_stream`) batches over
    the wire, skipping per-tuple text parsing entirely.
    """
    entry = mutation.get("tuple")
    if entry is None:
        relation.add_tuple(
            list(mutation.get("lrps") or ()),
            mutation.get("constraints") or "",
            tuple(mutation.get("data") or ()),
        )
        return
    from repro.core.dbm import DBM
    from repro.core.lrp import LRP
    from repro.core.tuples import GeneralizedTuple

    try:
        lrps = tuple(
            LRP.make(offset, period) for offset, period in entry["lrps"]
        )
        dbm = DBM(len(lrps))
        for i, j, bound in entry.get("bounds") or ():
            if i >= 0 and j >= 0:
                dbm.add_difference(i, j, bound)
            elif j < 0:
                dbm.add_upper(i, bound)
            else:
                dbm.add_lower(j, -bound)
        gtuple = GeneralizedTuple(
            lrps=lrps, dbm=dbm, data=tuple(entry.get("data") or ())
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproTypeError(
            f"malformed tuple entry in insert mutation: {exc}"
        ) from exc
    relation.add(gtuple)


def _name_of(mutation: Mapping) -> str:
    try:
        return mutation["name"]
    except KeyError:
        raise ReproTypeError(
            f"malformed mutation {dict(mutation)!r}: missing 'name'"
        ) from None


class VersionedCatalog:
    """The transactional core: committed versions behind one writer lock.

    Holds the current :class:`CatalogVersion` behind a single atomic
    pointer — :meth:`current` is a lock-free read, which is the whole
    MVCC story for readers.  Writers serialize on an internal lock:

    * :meth:`commit_state` — the in-process path: commit a full working
      catalog as one transaction (one fsync);
    * :meth:`commit_mutations` — the served group-commit path: a batch
      of transactions, each a mutation list, applied in order and made
      durable by **one** fsync via
      :meth:`~repro.storage.engine.StorageEngine.commit_many`.

    With no engine the same versioning semantics hold purely in memory
    (version tokens count from 0), so the serving layer can run
    diskless for tests and ephemeral workloads.
    """

    def __init__(
        self,
        engine=None,
        base: Mapping[str, GeneralizedRelation] | None = None,
    ) -> None:
        self._engine = engine
        token = engine.version if engine is not None else 0
        self._committed = CatalogVersion(token, dict(base or {}))
        self._write_lock = threading.Lock()
        self._maintainer = None

    @property
    def engine(self):
        """The backing storage engine, or ``None`` for in-memory."""
        return self._engine

    @property
    def maintainer(self):
        """The installed view maintainer, or ``None``.

        Set by :meth:`install_program`; a
        :class:`~repro.deductive.incremental.ViewMaintainer` holding
        the program's stratification and view schemas.
        """
        return self._maintainer

    @property
    def view_names(self) -> tuple[str, ...]:
        """Names of the installed program's materialized views."""
        if self._maintainer is None:
            return ()
        return self._maintainer.view_names

    def install_program(
        self,
        program,
        *,
        max_tuples: int,
        max_extensions: int,
        verify: bool = False,
    ) -> tuple[CatalogVersion, object]:
        """Install a deductive program; materialize its IDB as views.

        Stratifies ``program`` against the committed EDB schemas,
        materializes every IDB predicate, and publishes a new
        :class:`CatalogVersion` in which the views ride as ordinary
        relations (so snapshots, wire queries and WAL persistence all
        work unchanged) with per-view watermarks.  From then on every
        commit — :meth:`commit_state` and each transaction of
        :meth:`commit_mutations` — refreshes the views inside the same
        critical section that publishes the version.

        Committed relations that already carry a view's name are
        **adopted** when their schema matches the declared IDB schema —
        that is the reopen path: views persisted by an earlier process
        are picked up without recomputation.  ``verify=True`` forces a
        from-scratch recomputation instead (repairing any divergence);
        a same-name relation with a *different* schema raises
        :class:`SchemaError`.  Returns the published version and the
        :class:`~repro.deductive.incremental.RefreshReport` (``None``
        when adoption skipped evaluation).
        """
        from repro.deductive.incremental import ViewMaintainer

        with self._write_lock:
            previous = self._committed
            old_views = (
                set(self._maintainer.view_names)
                if self._maintainer is not None
                else set()
            )
            base_state = {
                name: rel
                for name, rel in previous.relations.items()
                if name not in old_views
            }
            candidates = {
                name: base_state.pop(name)
                for name in list(base_state)
                if name in program.idb_names
            }
            maintainer = ViewMaintainer(
                program,
                {name: rel.schema for name, rel in base_state.items()},
                max_tuples=max_tuples,
                max_extensions=max_extensions,
            )
            for name, rel in candidates.items():
                if rel.schema != maintainer.view_schemas[name]:
                    raise SchemaError(
                        f"existing relation {name!r} does not match the "
                        "program's declared schema for that view"
                    )
            report = None
            if (
                not verify
                and len(candidates) == len(maintainer.view_names)
            ):
                views = dict(candidates)
            else:
                views, report = maintainer.initialize(base_state)
            changed = [
                name
                for name, view in views.items()
                if name not in previous or previous.relation(name) != view
            ]
            frozen = dict(base_state)
            frozen.update(views)
            if self._engine is not None and changed:
                self._engine.commit_many([frozen], changed=[set(changed)])
                token = self._engine.version
            elif changed:
                token = previous.version + 1
            else:
                token = previous.version
            watermarks = {name: token for name in maintainer.view_names}
            version = CatalogVersion(
                token, frozen, view_watermarks=watermarks
            )
            self._maintainer = maintainer
            self._committed = version
            return version, report

    @property
    def version(self) -> int:
        """The current committed version token (lock-free read)."""
        return self._committed.version

    def current(self) -> CatalogVersion:
        """The current committed version — a single pointer read.

        Readers pin snapshots by holding the returned object; no lock
        is taken, so this never waits on an in-flight commit and an
        in-flight commit never waits on readers.
        """
        return self._committed

    def commit_state(
        self, relations: Mapping[str, GeneralizedRelation]
    ) -> tuple[CatalogVersion, int]:
        """Commit a full catalog state as one transaction.

        Diffs ``relations`` against the committed version, persists the
        transaction when an engine is attached (one WAL append run, one
        fsync), and publishes a new :class:`CatalogVersion` holding
        *copies* of the changed relations — the caller keeps mutating
        its working objects without ever reaching into the version.
        Returns ``(version, records)``; a no-op commit returns the
        current version with 0 records.

        With a program installed, names of materialized views in
        ``relations`` are ignored (views are derived state); instead
        the changed program inputs are diffed into insert/:data:`DIRTY
        <repro.deductive.incremental.DIRTY>` deltas and the views
        refreshed before the version is published, so the committed
        state is always self-consistent.  Dropping a program input
        raises :class:`SchemaError` (the whole commit fails).
        """
        with self._write_lock:
            previous = self._committed
            maintainer = self._maintainer
            view_names = (
                set(maintainer.view_names)
                if maintainer is not None
                else set()
            )
            incoming = {
                name: rel
                for name, rel in relations.items()
                if name not in view_names
            }
            changed = [
                name
                for name, rel in incoming.items()
                if name not in previous
                or previous.relation(name) != rel
            ]
            dropped = [
                name
                for name in previous.names
                if name not in incoming and name not in view_names
            ]
            if maintainer is not None:
                for name in dropped:
                    if name in maintainer.input_names:
                        raise SchemaError(
                            f"cannot drop relation {name!r}: it is an "
                            "input of the installed deductive program"
                        )
            if not changed and not dropped:
                return previous, 0
            frozen = {
                name: (
                    rel.copy()
                    if name in changed
                    else previous.relation(name)
                )
                for name, rel in incoming.items()
            }
            hint = set(changed)
            watermarks = dict(previous.view_watermarks)
            changed_views: list[str] = []
            if maintainer is not None:
                deltas = _input_deltas(
                    maintainer, previous.relations, frozen, changed
                )
                old_views = {
                    name: previous.relation(name)
                    for name in view_names
                    if name in previous
                }
                views, _report = maintainer.refresh(
                    frozen, old_views, deltas
                )
                # refresh carries untouched views over by reference, so
                # identity is a sound changed-view test.
                for name, view in views.items():
                    if view is not old_views.get(name):
                        changed_views.append(name)
                        hint.add(name)
                    frozen[name] = view
            if self._engine is not None:
                # The engine receives the frozen copies (never the
                # caller's still-mutable working objects) plus the
                # changed-name hint, so its diff only serializes what
                # this commit touched.
                records = self._engine.commit_many(
                    [frozen], changed=[hint]
                )[0]
                token = self._engine.version
            else:
                records = len(changed) + len(dropped) + len(changed_views)
                token = previous.version + 1
            for name in changed_views:
                watermarks[name] = token
            version = CatalogVersion(
                token, frozen, view_watermarks=watermarks
            )
            self._committed = version
            return version, records

    def commit_mutations(
        self, batches: Sequence[Sequence[Mapping]]
    ) -> list[TxnResult]:
        """Group commit: one transaction per mutation batch, one fsync.

        Applies each batch in order on top of its predecessor's state
        (:func:`apply_mutations`); a batch that raises a
        :class:`~repro.core.errors.ReproError` aborts only itself —
        subsequent batches apply against the last good state, exactly
        as if the failed transaction had never been submitted.  All
        surviving transactions are then made durable by a single
        :meth:`~repro.storage.engine.StorageEngine.commit_many` call
        (one fsync) and the committed pointer swings once, to the last
        state.  Returns one :class:`TxnResult` per input batch, in
        order.

        Equivalence guarantee (tested by the hypothesis suite): the
        final committed state equals committing the same batches one by
        one through :meth:`commit_state` application order — group
        commit changes only durability batching, never semantics.

        When a program is installed, each transaction's views are
        refreshed *inside* that transaction — mutation batches that
        only insert into program inputs fold into the views by
        semi-naive delta evaluation, which is what lets the group
        commit amortize view maintenance across a burst of appends.
        Every intermediate state handed to the WAL therefore carries
        fresh views, so crash recovery can never surface a stale view.
        Mutations that target a view, or drop a program input, abort
        (only) their own transaction.
        """
        with self._write_lock:
            previous = self._committed
            maintainer = self._maintainer
            view_names = (
                set(maintainer.view_names)
                if maintainer is not None
                else set()
            )
            base = dict(previous.relations)
            states: list[dict[str, GeneralizedRelation]] = []
            hints: list[set[str]] = []
            slots: list[ReproError | int] = []
            wm_slots: dict[str, int] = {}
            for batch in batches:
                try:
                    state = apply_mutations(
                        base, batch, protected=view_names
                    )
                    # apply_mutations copies exactly the relations it
                    # touches, so object identity against the
                    # predecessor state is a sound (and cheap)
                    # changed-name hint for the engine's diff.
                    hint = {
                        name
                        for name, rel in state.items()
                        if base.get(name) is not rel
                    }
                    if maintainer is not None:
                        missing = sorted(
                            name
                            for name in maintainer.input_names
                            if name not in state
                        )
                        if missing:
                            raise SchemaError(
                                f"cannot drop relation {missing[0]!r}: "
                                "it is an input of the installed "
                                "deductive program"
                            )
                        deltas = _input_deltas(
                            maintainer, base, state, hint
                        )
                        old_views = {
                            name: base[name]
                            for name in view_names
                            if name in base
                        }
                        views, _report = maintainer.refresh(
                            state, old_views, deltas
                        )
                        for name, view in views.items():
                            if view is not old_views.get(name):
                                hint.add(name)
                                wm_slots[name] = len(states)
                            state[name] = view
                except ReproError as exc:
                    slots.append(exc)
                    continue
                if list(state) != list(base) and not _count_changes(
                    base, state
                ):
                    # A no-op that only reorders names (drop, then
                    # re-create equal) commits nothing one by one, so
                    # later batches must build on the old order too.
                    state, hint = base, set()
                hints.append(hint)
                slots.append(len(states))
                states.append(state)
                base = state
            if self._engine is not None and states:
                counts = self._engine.commit_many(states, changed=hints)
            else:
                counts = [
                    _count_changes(
                        states[i - 1] if i else dict(previous.relations),
                        state,
                    )
                    for i, state in enumerate(states)
                ]
            # Stamp version tokens: each non-noop transaction committed
            # as one engine txn, so walk the final token backwards over
            # the batch (a no-op transaction reads as its predecessor).
            nonnoop = sum(1 for count in counts if count)
            if self._engine is not None and nonnoop:
                final = self._engine.version
            else:
                final = previous.version + nonnoop
            running = final - nonnoop
            versions: list[int] = []
            for count in counts:
                if count:
                    running += 1
                versions.append(running)
            results: list[TxnResult] = []
            for slot in slots:
                if isinstance(slot, ReproError):
                    results.append(TxnResult(version=final, error=slot))
                else:
                    results.append(
                        TxnResult(
                            version=versions[slot], records=counts[slot]
                        )
                    )
            if nonnoop:
                watermarks = dict(previous.view_watermarks)
                for name, slot in wm_slots.items():
                    watermarks[name] = versions[slot]
                self._committed = CatalogVersion(
                    final, states[-1], view_watermarks=watermarks
                )
            return results


def _input_deltas(
    maintainer,
    before: Mapping[str, GeneralizedRelation],
    after: Mapping[str, GeneralizedRelation],
    changed_names,
) -> dict[str, object]:
    """Classify changed program inputs as insert deltas or ``DIRTY``.

    For each changed relation the maintainer reads, the semantic
    difference decides: tuples only *added* yield an insert delta the
    refresh can fold semi-naively; any removed point means the change
    is not monotone and the input is marked
    :data:`~repro.deductive.incremental.DIRTY`, forcing the affected
    strata to recompute.

    Insert-only changes are recognized structurally first:
    :meth:`GeneralizedRelation.add` only appends, so when the old tuple
    list is an identity prefix of the new one nothing was removed, and
    only the appended suffix is subtracted from the old relation.  Any
    other shape takes the two semantic subtractions.
    """
    from repro.core import algebra
    from repro.core.simplify import simplify_relation
    from repro.deductive.incremental import DIRTY

    deltas: dict[str, object] = {}
    for name in changed_names:
        if name not in maintainer.input_names:
            continue
        new = after[name]
        old = before.get(name)
        if old is None:
            old = GeneralizedRelation.empty(new.schema)
        if old.schema != new.schema:
            deltas[name] = DIRTY
            continue
        old_tuples, new_tuples = old.tuples, new.tuples
        prefix = len(old_tuples)
        if prefix <= len(new_tuples) and all(
            a is b for a, b in zip(old_tuples, new_tuples)
        ):
            added = GeneralizedRelation(new.schema, new_tuples[prefix:])
        else:
            removed = algebra.subtract(old, new)
            if not removed.is_empty():
                deltas[name] = DIRTY
                continue
            added = new
        inserted = simplify_relation(algebra.subtract(added, old))
        if not inserted.is_empty():
            deltas[name] = inserted
    return deltas


def _count_changes(
    before: Mapping[str, GeneralizedRelation],
    after: Mapping[str, GeneralizedRelation],
) -> int:
    """How many relations differ between two catalog states."""
    changed = sum(
        1
        for name, rel in after.items()
        if name not in before or before[name] != rel
    )
    dropped = sum(1 for name in before if name not in after)
    return changed + dropped
