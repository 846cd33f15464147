"""The MVCC transactional core: immutable committed catalog versions.

The paper's finite-representation semantics (Defs. 2.1–2.3) makes a
committed catalog a *value*: a finite set of generalized relations that
never changes after commit.  This module leans on that to give the
database multi-version concurrency control essentially for free:

* a :class:`CatalogVersion` is one committed catalog state, stamped
  with a monotone version token and frozen — its relations are never
  mutated after construction (commit installs only the relations that
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

Every write — :meth:`~VersionedCatalog.commit_state`,
:meth:`~VersionedCatalog.commit_mutations` and
:meth:`~VersionedCatalog.install_program` — goes through one
transaction step (refresh the views of each proposed state) and one
publish step (persist, stamp version tokens and view watermarks, swing
the committed pointer), under one change rule: a relation equal
(``==``) to its predecessor keeps the predecessor object, so what a
transaction changed is exactly the objects it does not share with its
predecessor.  The publish step hands those change sets to the storage
engine, which writes exactly them and keeps no diff of its own, so a
diskless and a durable catalog commit the same transactions, name
order included.

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
from repro.query import dispatch
from repro.query.evaluator import ShapeStore


class CatalogVersion:
    """One immutable committed catalog state with a version token.

    Treat instances as frozen values: the relation mapping is exposed
    read-only, and the engine never mutates a relation reachable from a
    committed version (no writer holds a relation a commit installs).

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

    __slots__ = ("_version", "max_tuples", "max_extensions", "plans")

    def __init__(
        self,
        version: CatalogVersion,
        *,
        max_tuples: int,
        max_extensions: int,
        plans: ShapeStore,
    ) -> None:
        self._version = version
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        #: The catalog's compiled query shapes
        #: (:attr:`VersionedCatalog.plans`).
        self.plans = plans

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

    def query(self, query, *, optimize=None):
        """Evaluate a query against the pinned version.

        Accepts a query string or AST and answers every directive
        exactly as :meth:`Database.query
        <repro.query.database.Database.query>` does — both go through
        :func:`repro.query.dispatch.query` — but never sees uncommitted
        working-state mutations, only the pinned committed catalog.
        """
        return dispatch.query(self, query, optimize=optimize)

    def optimize(self, query, objective=None, *, sense="min", optimize=None):
        """Exact extremum of a linear objective over the pinned version.

        Mirrors :meth:`Database.optimize
        <repro.query.database.Database.optimize>`: ``objective`` is an
        :class:`~repro.optimize.Objective`, its text form, or ``None``
        to read it from the query's ``<obj> : <query>`` prefix.
        """
        return dispatch.extremum(
            self, query, objective, sense=sense, optimize=optimize
        )

    def ask(self, query, *, optimize=None) -> bool:
        """Evaluate a closed (yes/no) query against the pinned version."""
        return dispatch.ask(self, query, optimize=optimize)

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
    from repro.storage import jsonio

    try:
        gtuple = jsonio.tuple_from_dict(entry)
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

    Both (and :meth:`install_program`) publish through the private
    :meth:`_publish` step, so a transaction commits the same way
    whichever routine carries it.

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
        #: One compiled plan per query shape, for every reader of this
        #: catalog: the database, its snapshots and the served reads.
        #: Keyed by the read schemas, so no commit has to touch it.
        self.plans = ShapeStore()

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
            base_state = {
                name: rel
                for name, rel in previous.relations.items()
                if name not in self.view_names
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
                views = candidates
            else:
                views, report = maintainer.initialize(base_state)
            base_state.update(_settle(previous.relations, views))
            self._publish(previous, [base_state], maintainer.view_names)
            self._maintainer = maintainer
            return self._committed, report

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

        The in-process path (:meth:`Database.commit
        <repro.query.database.Database.commit>`): ``relations`` is the
        transaction's proposed next state, committed through the same
        transaction and publish steps as :meth:`commit_mutations`, so
        it commits exactly what a mutation batch building the same
        state would.  The published version holds *copies* of the
        changed relations — the caller keeps mutating its working
        objects without ever reaching into the version.  Returns
        ``(version, records)``; a no-op commit keeps the current
        version token with 0 records.

        With a program installed, names of materialized views in
        ``relations`` are ignored (views are derived state) and the
        views are refreshed before the version is published.  Dropping
        a program input raises :class:`SchemaError` (the whole commit
        fails).
        """
        with self._write_lock:
            previous = self._committed
            before = previous.relations
            state = self._transact(before, relations)
            if state is not before:
                # The caller keeps mutating its changed objects.
                for name, rel in state.items():
                    theirs = relations.get(name)
                    if rel is theirs and rel is not before.get(name):
                        state[name] = rel.copy()
            ((_token, records),) = self._publish(
                previous, [state], self.view_names
            )
            return self._committed, records

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

        Equivalence guarantee (tested by the hypothesis suite): every
        transaction goes through the same transaction and publish steps
        as :meth:`commit_state`, so committing the batches as one group,
        one by one, or as the states they build gives the same results
        and the same committed catalog, diskless or durable — group
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
            views = self.view_names
            base = previous.relations
            states: list[Mapping[str, GeneralizedRelation]] = []
            slots: list[ReproError | int] = []
            for batch in batches:
                try:
                    state = self._transact(
                        base,
                        apply_mutations(
                            base, batch, protected=frozenset(views)
                        ),
                    )
                except ReproError as exc:
                    slots.append(exc)
                    continue
                slots.append(len(states))
                states.append(state)
                base = state
            published = self._publish(previous, states, views)
            final = self._committed.version
            return [
                TxnResult(version=final, error=slot)
                if isinstance(slot, ReproError)
                else TxnResult(*published[slot])
                for slot in slots
            ]

    def _transact(
        self,
        base: Mapping[str, GeneralizedRelation],
        proposed: Mapping[str, GeneralizedRelation],
    ) -> Mapping[str, GeneralizedRelation]:
        """The transaction step: the state one transaction commits.

        ``base`` is the predecessor state and ``proposed`` the
        transaction's next state.  Every relation passes the change
        rule (:func:`_settle`), so the result shares an object with
        ``base`` exactly where the transaction changed nothing; a
        transaction that changes nothing commits ``base`` itself, name
        order included.  With a program installed, the view names in
        ``proposed`` are ignored, dropping a program input raises
        :class:`SchemaError`, and the views are refreshed from the
        changed inputs and appended after them.
        """
        views = self.view_names
        state = _settle(
            base,
            {
                name: rel
                for name, rel in proposed.items()
                if name not in views
            },
        )
        changed = [
            name for name, rel in state.items() if base.get(name) is not rel
        ]
        if not changed and all(
            name in state or name in views for name in base
        ):
            return base
        maintainer = self._maintainer
        if maintainer is None:
            return state
        missing = sorted(
            name for name in maintainer.input_names if name not in state
        )
        if missing:
            raise SchemaError(
                f"cannot drop relation {missing[0]!r}: it is an input of "
                "the installed deductive program"
            )
        deltas = _input_deltas(maintainer, base, state, changed)
        old_views = {name: base[name] for name in views if name in base}
        refreshed, _report = maintainer.refresh(state, old_views, deltas)
        state.update(_settle(base, refreshed))
        return state

    def _publish(
        self,
        previous: CatalogVersion,
        states: Sequence[Mapping[str, GeneralizedRelation]],
        views: Sequence[str],
    ) -> list[tuple[int, int]]:
        """The publish step: commit consecutive transaction states.

        ``states`` follow ``previous`` in order, each settled against
        its predecessor by the change rule, so a name changed exactly
        when its object differs from the predecessor's, and dropped
        when the predecessor had it and the state has not.  It hands
        the changing states with their change sets to one
        :meth:`~repro.storage.engine.StorageEngine.commit_many` call
        (one fsync), which writes exactly those changes; it stamps each
        transaction's version token and the watermark of every view it
        changed, and swings the committed pointer once.  Returns
        ``(version, records)`` per state.
        """
        changes: list[set[str]] = []
        records: list[int] = []
        before: Mapping[str, GeneralizedRelation] = previous.relations
        for state in states:
            changed = {
                name for name, rel in state.items()
                if before.get(name) is not rel
            }
            dropped = sum(1 for name in before if name not in state)
            changes.append(changed)
            records.append(len(changed) + dropped)
            before = state
        written = [state for state, n in zip(states, records) if n]
        if self._engine is not None and written:
            self._engine.commit_many(
                written, [c for c, n in zip(changes, records) if n]
            )
            final = self._engine.version
        else:
            final = previous.version + len(written)
        token = final - len(written)
        stamps = previous.view_watermarks
        watermarks = {name: stamps[name] for name in views if name in stamps}
        published: list[tuple[int, int]] = []
        for changed, count in zip(changes, records):
            if count:
                token += 1
            for name in views:
                if name in changed or name not in watermarks:
                    watermarks[name] = token
            published.append((token, count))
        self._committed = CatalogVersion(
            final,
            states[-1] if states else previous.relations,
            view_watermarks=watermarks,
        )
        return published


def _settle(
    base: Mapping[str, GeneralizedRelation],
    proposed: Mapping[str, GeneralizedRelation],
) -> dict[str, GeneralizedRelation]:
    """The change rule of every commit: what each relation commits as.

    A relation equal (``==``) to its predecessor in ``base`` keeps the
    predecessor object; any other commits as proposed (no writer holds
    it: :meth:`VersionedCatalog.commit_state` copies its caller's).
    Equal relations may still list their tuples in another order, so
    keeping the predecessor keeps the committed tuple order too.
    """
    state = {}
    for name, rel in proposed.items():
        old = base.get(name)
        state[name] = (
            old if old is not None and (old is rel or old == rel) else rel
        )
    return state


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
        suffix = new.appended_since(old)
        if suffix is not None:
            added = GeneralizedRelation(new.schema, suffix)
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

