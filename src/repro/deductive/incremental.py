"""Semi-naive evaluation and incremental view maintenance.

The naive fixpoint of :meth:`repro.deductive.program.Program.evaluate`
re-evaluates every rule body against the *whole* IDB on every
iteration.  Because generalized relations are finitely represented and
the algebra is closed, the classic Datalog differentiation transfers
directly to the paper's setting: a fact derived for the first time in
round ``r`` must use at least one generalized tuple first derived in
round ``r - 1``, so it suffices to evaluate, per rule, one *delta
query* per positive occurrence of a recursive predicate — the body
with that occurrence replaced by the previous round's delta relation.

Each round canonicalizes only its delta: the genuinely-new tuples are
``simplify_relation(derived - current)`` (a *semantic* difference, so
re-derivations of already-known points never re-enter the frontier).
The view and the accumulated delta then grow by plain union.  That
union is already canonical: the delta's nonempty tuples are pointwise
disjoint from ``current`` (and from the accumulator, a subset of
``current``), so no tuple on one side can subsume one on the other,
and each side is subsumption-free by itself.  Re-simplifying it would
rescan the whole view every round to remove nothing.  Termination is
detected exactly as in the naive path — all deltas empty as point sets
— and the two strategies are observationally equivalent (the property
suite and the fuzz harness's ``"ivm"`` leg check this).

Differentiation is sound only where the body is *distributive* in the
changing predicate: conjunction, disjunction and existential
quantification distribute over unions of new tuples, but a positive
occurrence under ``FORALL``, under a (double) negation, or inside an
implication may newly fire only for a *mix* of old and new tuples.
Rules with such an occurrence fall back to full-body re-evaluation per
round (still monotone, still correct); rules whose body never mentions
a changing predicate are skipped entirely — the big win for
incremental refresh.

:class:`ViewMaintainer` packages the same machinery for the MVCC
catalog (:mod:`repro.query.catalog`): materialize a stratified
program's IDB once, then fold each committed mutation batch into the
views by seeding the stratum iteration with the batch's insert deltas.
Non-insert changes (``put``/semantic rewrites) and inserts reaching a
rule *negatively* cannot be folded monotonically; the affected stratum
(and anything downstream of a non-insert view change) is recomputed
from scratch instead — always sound, incremental whenever possible.

Bodies are planned once, not once per fire: :class:`RuleBodies`
compiles each rule's full body and each delta body on first use and
every later fire runs the stored plan (see ``docs/deductive.md``,
"Compiled rule bodies").
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import algebra
from repro.core.errors import EvaluationError, SchemaError
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.simplify import simplify_relation
from repro.obs import metrics, span
from repro.obs.metrics import COUNTERS
from repro.query.ast import (
    And,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Pred,
    Query,
)
from repro.deductive.rules import Rule, head_relation

if TYPE_CHECKING:
    from repro.query.evaluator import CompiledQuery

#: Reserved name prefix for staged delta relations.  Never appears in
#: user catalogs (the parser rejects leading underscores in relation
#: names anyway); delta queries are built by AST substitution, so the
#: prefix never reaches the parser.
DELTA_PREFIX = "__delta__"

#: Sentinel for a non-insert-only change to a relation: the new value
#: is not a superset of the old one, so downstream views cannot be
#: maintained by union — they must recompute.
DIRTY = object()


def delta_name(name: str) -> str:
    """The staging name delta tuples of ``name`` are bound under."""
    return DELTA_PREFIX + name


@dataclass(frozen=True)
class Occurrence:
    """One predicate occurrence in a rule body.

    ``negated`` is the classical polarity (under an odd number of
    negation-introducing contexts); ``brittle`` marks occurrences where
    delta substitution is not distributive (under ``FORALL``, any
    negation, or an implication) even when the polarity is positive.
    """

    name: str
    negated: bool
    brittle: bool


def occurrences(query: Query) -> tuple[Occurrence, ...]:
    """Every predicate occurrence of ``query``, in traversal order."""
    found: list[Occurrence] = []

    def walk(node: Query, negated: bool, brittle: bool) -> None:
        if isinstance(node, Pred):
            found.append(Occurrence(node.name, negated, brittle))
        elif isinstance(node, Not):
            walk(node.body, not negated, True)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part, negated, brittle)
        elif isinstance(node, Implies):
            walk(node.antecedent, not negated, True)
            walk(node.consequent, negated, brittle)
        elif isinstance(node, Exists):
            walk(node.body, negated, brittle)
        elif isinstance(node, Forall):
            walk(node.body, negated, True)

    walk(query, False, False)
    return tuple(found)


class _Substituter:
    """Replace the i-th positive occurrence of one predicate by name.

    Counts positive (non-negated) occurrences in the same traversal
    order as :func:`occurrences`, so an index computed there addresses
    the same atom here.
    """

    def __init__(self, name: str, index: int, new_name: str) -> None:
        self._name = name
        self._index = index
        self._new_name = new_name
        self._seen = 0

    def rewrite(self, node: Query, negated: bool = False) -> Query:
        if isinstance(node, Pred):
            if not negated and node.name == self._name:
                if self._seen == self._index:
                    self._seen += 1
                    return Pred(self._new_name, node.args)
                self._seen += 1
            return node
        if isinstance(node, Not):
            return Not(self.rewrite(node.body, not negated))
        if isinstance(node, (And, Or)):
            return type(node)(
                tuple(self.rewrite(part, negated) for part in node.parts)
            )
        if isinstance(node, Implies):
            return Implies(
                self.rewrite(node.antecedent, not negated),
                self.rewrite(node.consequent, negated),
            )
        if isinstance(node, (Exists, Forall)):
            return type(node)(
                node.var, node.sort, self.rewrite(node.body, negated)
            )
        return node


def _positives(
    occs: tuple[Occurrence, ...]
) -> tuple[tuple[str, int, bool], ...]:
    """``(name, index among name's positives, brittle)`` per positive occurrence."""
    seen: dict[str, int] = {}
    out = []
    for occ in occs:
        if not occ.negated:
            index = seen.get(occ.name, 0)
            seen[occ.name] = index + 1
            out.append((occ.name, index, occ.brittle))
    return tuple(out)


def _delta_positions(
    positives: tuple[tuple[str, int, bool], ...],
    changing: Mapping[str, object],
) -> list[int] | None:
    """Positions of the positives to differentiate on; ``None``: brittle."""
    out: list[int] = []
    for position, (name, _index, brittle) in enumerate(positives):
        if name in changing:
            if brittle:
                return None
            out.append(position)
    return out


def _delta_query(body: Query, positive: tuple[str, int, bool]) -> Query:
    """``body`` with one positive occurrence redirected to its delta."""
    name, index, _ = positive
    return _Substituter(name, index, delta_name(name)).rewrite(body)


def differentiate(
    body: Query, changing: Mapping[str, object]
) -> list[Query] | None:
    """The delta queries of ``body`` w.r.t. the changing predicates.

    Returns one substituted query per positive distributive occurrence
    of a changing predicate (the occurrence's atom redirected to its
    staged delta relation), an empty list when the body never mentions
    a changing predicate positively, or ``None`` when some positive
    occurrence is brittle — the caller must re-evaluate the full body.
    """
    positives = _positives(occurrences(body))
    positions = _delta_positions(positives, changing)
    if positions is None:
        return None
    return [_delta_query(body, positives[p]) for p in positions]


@dataclass
class StratumStats:
    """Instrumentation for one stratum evaluation."""

    mode: str = "seminaive"
    iterations: int = 0
    rules_fired: int = 0
    delta_tuples: int = 0


@dataclass
class _RuleShape:
    """A rule body's predicate occurrences, read once per bound body."""

    source: Query
    occurrences: tuple[Occurrence, ...]
    #: ``(name, index among positive occurrences of name, brittle)``
    #: per positive occurrence, in traversal order.
    positives: tuple[tuple[str, int, bool], ...]


@dataclass
class _Body:
    """One rule body or delta body and the plan compiled for it."""

    source: Query
    query: Query
    #: The relations ``query`` reads.
    names: tuple[str, ...]
    #: ``(optimize, schemas of names)`` the plan was compiled under.
    key: tuple = ()
    compiled: CompiledQuery | None = None


class RuleBodies:
    """Every rule's full and delta bodies, each compiled once.

    Thm 4.1's calculus-to-algebra translation depends only on a body
    and the schemas it reads, never on the data, so a body is lowered
    and rewritten once (:meth:`repro.query.evaluator.Evaluator.compile`)
    and every fire runs the compiled plan
    (:meth:`~repro.query.evaluator.Evaluator.run`).  A body is keyed by
    its rule and by the positive occurrence its delta substitution
    differentiates on (``None`` for the full body); its plan is
    recompiled when the resolved ``optimize`` setting or a read
    relation's schema differs from the last fire's.  One entry per
    (rule, occurrence), so memory is bounded by the program's size.

    Not thread-safe: the owner serializes access (the catalog refreshes
    views only under its write lock).
    """

    def __init__(self) -> None:
        self._shapes: dict[int, _RuleShape] = {}
        self._bodies: dict[tuple[int, int | None], _Body] = {}

    def shape(self, rule: Rule) -> _RuleShape:
        """The rule's occurrences, recomputed only when it is rebound."""
        shape = self._shapes.get(id(rule))
        if shape is None or shape.source is not rule.body_query:
            occs = occurrences(rule.body_query)
            shape = _RuleShape(rule.body_query, occs, _positives(occs))
            self._shapes[id(rule)] = shape
        return shape

    def delta_occurrences(
        self, rule: Rule, changing: Mapping[str, object]
    ) -> list[int] | None:
        """The positive occurrences to differentiate ``rule`` on.

        Mirrors :func:`differentiate` without building a query: one
        position per positive occurrence of a changing predicate, or
        ``None`` when one of them is brittle (fire the full body).
        """
        return _delta_positions(self.shape(rule).positives, changing)

    def run(
        self,
        rule: Rule,
        occurrence: int | None,
        relations: Mapping[str, GeneralizedRelation],
        *,
        max_tuples: int,
        max_extensions: int,
    ) -> GeneralizedRelation:
        """Evaluate one body of ``rule`` against ``relations``.

        ``occurrence`` is a position from :meth:`delta_occurrences`
        (that occurrence reads its staged delta relation) or ``None``
        for the full body.
        """
        from repro.query.evaluator import Evaluator

        body = self._body(rule, occurrence)
        evaluator = Evaluator(
            relations, max_tuples=max_tuples, max_extensions=max_extensions
        )
        key = (
            evaluator.optimizing,
            tuple(
                relations[name].schema if name in relations else None
                for name in body.names
            ),
        )
        if body.key != key:
            body.compiled = evaluator.compile(body.query)
            body.key = key
        return evaluator.run(body.compiled)

    def _body(self, rule: Rule, occurrence: int | None) -> _Body:
        body = self._bodies.get((id(rule), occurrence))
        if body is None or body.source is not rule.body_query:
            source = rule.body_query
            query = source
            if occurrence is not None:
                query = _delta_query(
                    source, self.shape(rule).positives[occurrence]
                )
            names = tuple(dict.fromkeys(occ.name for occ in occurrences(query)))
            body = _Body(source, query, names)
            self._bodies[(id(rule), occurrence)] = body
        return body


def seminaive_stratum(
    state: dict[str, GeneralizedRelation],
    rules: list[Rule],
    head_schemas: Mapping[str, Schema],
    stratum_names: set[str],
    seed_deltas: Mapping[str, GeneralizedRelation] | None,
    *,
    max_iterations: int,
    simplify: bool,
    max_tuples: int,
    max_extensions: int,
    bodies: RuleBodies | None = None,
) -> tuple[dict[str, GeneralizedRelation], StratumStats]:
    """Semi-naive fixpoint of one stratum, updating ``state`` in place.

    With ``seed_deltas`` ``None`` this is a from-scratch evaluation:
    round 0 evaluates every rule's full body (the stratum's IDB starts
    at whatever ``state`` holds, normally empty), later rounds run
    delta queries against the previous round's frontiers.  With seed
    deltas (incremental refresh) round 0 differentiates each rule with
    respect to the *seeded* predicates only — rules that never mention
    a changed input are not evaluated at all.

    Rule bodies are compiled through ``bodies``, so each body is lowered
    once per store rather than once per fire.  ``None`` makes a store
    for this call: a rule belongs to one stratum, so a from-scratch
    evaluation (``Program.evaluate``) still lowers each body once.

    Returns the accumulated per-head deltas (what this stratum added to
    ``state``, canonical and simplified) plus instrumentation.
    """
    stats = StratumStats()
    if not rules:
        return {}, stats
    if bodies is None:
        bodies = RuleBodies()

    def canonical(rel: GeneralizedRelation) -> GeneralizedRelation:
        return simplify_relation(rel) if simplify else rel

    accumulated: dict[str, GeneralizedRelation] = {}
    frontier: dict[str, GeneralizedRelation] = {}

    def absorb(derived: dict[str, GeneralizedRelation]) -> None:
        """Fold freshly-derived head tuples into state + frontiers."""
        frontier.clear()
        for head, rel in derived.items():
            current = state[head]
            delta = canonical(algebra.subtract(rel, current))
            if delta.is_empty():
                continue
            # delta is disjoint from current (and from previous, a
            # subset of it), so the unions stay canonical as they are.
            state[head] = algebra.union(current, delta)
            frontier[head] = delta
            stats.delta_tuples += len(delta)
            previous = accumulated.get(head)
            accumulated[head] = (
                delta
                if previous is None
                else algebra.union(previous, delta)
            )

    def fire(
        rule: Rule,
        changing: Mapping | None,
        staged: Mapping,
        derived: dict[str, GeneralizedRelation],
    ) -> None:
        """Fire the full body (``changing`` None) or its delta bodies."""
        targets = (
            None
            if changing is None
            else bodies.delta_occurrences(rule, changing)
        )
        for occurrence in [None] if targets is None else targets:
            stats.rules_fired += 1
            relations = dict(state)
            relations.update(staged)
            result = bodies.run(
                rule,
                occurrence,
                relations,
                max_tuples=max_tuples,
                max_extensions=max_extensions,
            )
            shaped = head_relation(
                rule, result, head_schemas[rule.head_name]
            )
            derived[rule.head_name] = (
                shaped
                if rule.head_name not in derived
                else algebra.union(derived[rule.head_name], shaped)
            )

    # Round 0: seed the frontier.
    derived: dict[str, GeneralizedRelation] = {}
    staged = {
        delta_name(name): rel for name, rel in (seed_deltas or {}).items()
    }
    for rule in rules:
        fire(rule, seed_deltas, staged, derived)
    absorb(derived)
    stats.iterations = 1

    # Later rounds: differentiate w.r.t. the previous round's frontier.
    recursive = [
        rule
        for rule in rules
        if any(
            name in stratum_names
            for name, _index, _brittle in bodies.shape(rule).positives
        )
    ]
    for _round in range(1, max_iterations):
        if not frontier:
            return accumulated, stats
        changing = dict(frontier)
        staged = {delta_name(name): rel for name, rel in changing.items()}
        derived = {}
        for rule in recursive:
            fire(rule, changing, staged, derived)
        absorb(derived)
        stats.iterations += 1
    if frontier:
        raise EvaluationError(
            f"no fixpoint within {max_iterations} iterations; the program "
            "may diverge on this database (raise max_iterations if it is "
            "simply slow to converge)"
        )
    return accumulated, stats


@dataclass
class RefreshReport:
    """What one :meth:`ViewMaintainer.refresh` did, for metrics/tests."""

    mode: str = "noop"
    seconds: float = 0.0
    changed_views: tuple[str, ...] = ()
    delta_tuples: int = 0
    rules_fired: int = 0
    strata: list[StratumStats] = field(default_factory=list)


class ViewMaintainer:
    """Materialized IDB views over one stratified program.

    Owns the program's stratification and schemas, and exposes the two
    operations the transactional core needs: :meth:`initialize` (full
    semi-naive evaluation against a committed EDB state) and
    :meth:`refresh` (fold a commit's deltas into the previous views).
    The maintainer itself is stateless with respect to catalog
    versions — callers pass the EDB state and old views explicitly, so
    one maintainer serves every version of a
    :class:`~repro.query.catalog.VersionedCatalog`.  It does own the
    program's compiled rule and delta bodies (:attr:`bodies`), so each
    is planned once for the maintainer's lifetime, not once per fire;
    callers serialize :meth:`initialize` and :meth:`refresh` (the
    catalog runs them under its write lock).
    """

    def __init__(
        self,
        program,
        edb_schemas: Mapping[str, Schema],
        *,
        max_tuples: int,
        max_extensions: int,
        max_iterations: int | None = None,
        simplify: bool = True,
    ) -> None:
        from repro.deductive.program import DEFAULT_MAX_ITERATIONS

        self.program = program
        self.max_tuples = max_tuples
        self.max_extensions = max_extensions
        self.max_iterations = (
            DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations
        )
        self.simplify = simplify
        #: The compiled rule and delta bodies every stratum fires.
        self.bodies = RuleBodies()
        for name in program.idb_names:
            if name in edb_schemas:
                raise SchemaError(
                    f"IDB predicate {name!r} clashes with an EDB relation"
                )
        self.strata: list[list[str]] = program.stratify(dict(edb_schemas))
        self.view_schemas: dict[str, Schema] = {
            name: program.schema(name) for name in program.idb_names
        }
        inputs: set[str] = set()
        for rule in program.rules:
            for occ in self.bodies.shape(rule).occurrences:
                if occ.name not in self.view_schemas:
                    inputs.add(occ.name)
        #: EDB relation names the program reads — the only relations
        #: whose changes can move a view.
        self.input_names: frozenset[str] = frozenset(inputs)

    @property
    def view_names(self) -> tuple[str, ...]:
        """The materialized view names, in declaration order."""
        return tuple(self.view_schemas)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _stratum_rules(self, layer: list[str]) -> list[Rule]:
        members = set(layer)
        return [r for r in self.program.rules if r.head_name in members]

    def initialize(
        self, edb_state: Mapping[str, GeneralizedRelation]
    ) -> tuple[dict[str, GeneralizedRelation], RefreshReport]:
        """Materialize every view from scratch against ``edb_state``."""
        report = RefreshReport(mode="recompute")
        started = time.perf_counter()
        registry = metrics()
        with span("deductive.refresh", mode="initialize"):
            state: dict[str, GeneralizedRelation] = dict(edb_state)
            for name, schema in self.view_schemas.items():
                state[name] = GeneralizedRelation.empty(schema)
            for layer in self.strata:
                _deltas, stats = seminaive_stratum(
                    state,
                    self._stratum_rules(layer),
                    self.view_schemas,
                    set(layer),
                    None,
                    max_iterations=self.max_iterations,
                    simplify=self.simplify,
                    max_tuples=self.max_tuples,
                    max_extensions=self.max_extensions,
                    bodies=self.bodies,
                )
                report.strata.append(stats)
                report.rules_fired += stats.rules_fired
                report.delta_tuples += stats.delta_tuples
        views = {name: state[name] for name in self.view_schemas}
        report.changed_views = tuple(self.view_schemas)
        report.seconds = time.perf_counter() - started
        COUNTERS["deductive.refresh.recompute"] += 1
        COUNTERS["deductive.rules_fired"] += report.rules_fired
        registry.histogram("deductive.refresh.seconds").observe(report.seconds)
        return views, report

    def refresh(
        self,
        edb_state: Mapping[str, GeneralizedRelation],
        old_views: Mapping[str, GeneralizedRelation],
        deltas: Mapping[str, object],
    ) -> tuple[dict[str, GeneralizedRelation], RefreshReport]:
        """Fold committed deltas into the views.

        ``deltas`` maps changed input names to either a
        :class:`GeneralizedRelation` of *inserted* tuples or the
        :data:`DIRTY` sentinel (the relation changed in a way that is
        not a pure insertion).  Views whose strata are untouched are
        carried over by reference; insert-only changes reaching rules
        positively are folded by semi-naive delta iteration; anything
        else recomputes the affected stratum (and, transitively,
        whatever its non-insert view changes poison downstream).
        Missing views (e.g. first refresh after adoption failed) fall
        back to :meth:`initialize`.
        """
        relevant = {
            name: delta
            for name, delta in deltas.items()
            if name in self.input_names
        }
        if not relevant:
            report = RefreshReport(mode="noop")
            return dict(old_views), report
        if any(name not in old_views for name in self.view_schemas):
            return self.initialize(edb_state)
        report = RefreshReport(mode="incremental")
        started = time.perf_counter()
        registry = metrics()
        changed: dict[str, object] = dict(relevant)
        changed_views: list[str] = []
        with span("deductive.refresh", mode="refresh"):
            state: dict[str, GeneralizedRelation] = dict(edb_state)
            state.update(old_views)
            for layer in self.strata:
                rules = self._stratum_rules(layer)
                occs = [
                    occ
                    for rule in rules
                    for occ in self.bodies.shape(rule).occurrences
                ]
                touched = {
                    occ.name for occ in occs if occ.name in changed
                }
                if not touched:
                    stat = StratumStats(mode="skip")
                    report.strata.append(stat)
                    continue
                negated_touch = any(
                    occ.negated and occ.name in changed for occ in occs
                )
                dirty_touch = any(
                    changed.get(name) is DIRTY for name in touched
                )
                if negated_touch or dirty_touch:
                    stats = self._recompute_stratum(
                        state, layer, rules, changed
                    )
                    report.mode = "recompute"
                else:
                    seed = {
                        name: changed[name]
                        for name in touched
                        if isinstance(
                            changed.get(name), GeneralizedRelation
                        )
                    }
                    deltas_out, stats = seminaive_stratum(
                        state,
                        rules,
                        self.view_schemas,
                        set(layer),
                        seed,
                        max_iterations=self.max_iterations,
                        simplify=self.simplify,
                        max_tuples=self.max_tuples,
                        max_extensions=self.max_extensions,
                        bodies=self.bodies,
                    )
                    changed.update(deltas_out)
                report.strata.append(stats)
                report.rules_fired += stats.rules_fired
                report.delta_tuples += stats.delta_tuples
                for name in layer:
                    if name in changed:
                        changed_views.append(name)
        views = {name: state[name] for name in self.view_schemas}
        report.changed_views = tuple(changed_views)
        report.seconds = time.perf_counter() - started
        COUNTERS[f"deductive.refresh.{report.mode}"] += 1
        COUNTERS["deductive.rules_fired"] += report.rules_fired
        registry.histogram("deductive.delta.tuples").observe(
            report.delta_tuples
        )
        registry.histogram("deductive.refresh.seconds").observe(report.seconds)
        return views, report

    def _recompute_stratum(
        self,
        state: dict[str, GeneralizedRelation],
        layer: list[str],
        rules: list[Rule],
        changed: dict[str, object],
    ) -> StratumStats:
        """Re-derive one stratum from scratch; classify its deltas."""
        old = {name: state[name] for name in layer}
        for name in layer:
            state[name] = GeneralizedRelation.empty(self.view_schemas[name])
        _deltas, stats = seminaive_stratum(
            state,
            rules,
            self.view_schemas,
            set(layer),
            None,
            max_iterations=self.max_iterations,
            simplify=self.simplify,
            max_tuples=self.max_tuples,
            max_extensions=self.max_extensions,
            bodies=self.bodies,
        )
        stats.mode = "recompute"
        for name in layer:
            inserted = algebra.subtract(state[name], old[name])
            removed = algebra.subtract(old[name], state[name])
            if not removed.is_empty():
                changed[name] = DIRTY
            elif not inserted.is_empty():
                changed[name] = simplify_relation(inserted)
            else:
                changed.pop(name, None)
                # Unchanged as a point set: keep the old canonical
                # object so versions can share it.
                state[name] = old[name]
        return stats


def insert_delta(
    schema: Schema, tuples
) -> GeneralizedRelation:
    """Build a delta relation for a batch of inserted tuples."""
    delta = GeneralizedRelation.empty(schema)
    for gtuple in tuples:
        delta.add(gtuple)
    return delta
