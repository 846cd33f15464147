"""Datalog programs: declaration, stratification, fixpoint evaluation."""

from __future__ import annotations

from collections.abc import Sequence

from repro.core import algebra
from repro.core.errors import EvaluationError, ReproValueError, SchemaError
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.simplify import simplify_relation
from repro.query.database import Database
from repro.deductive.incremental import occurrences
from repro.deductive.rules import Rule

DEFAULT_MAX_ITERATIONS = 50

#: Known evaluation strategies: ``"seminaive"`` iterates per-rule delta
#: queries (the default), ``"naive"`` re-evaluates every full body per
#: round — kept as the executable oracle the equivalence suite and the
#: fuzz harness's ``"ivm"`` leg compare against.
STRATEGIES = ("seminaive", "naive")


class Program:
    """A set of Datalog rules over declared IDB predicates.

    Usage::

        program = Program()
        program.declare("Busy", temporal=["t"], data=["robot"])
        program.rule("Busy(t, r) <- Perform(t1, t2, r, k) "
                     "& t1 <= t & t <= t2")
        result = program.evaluate(db)      # a Database with Busy filled

    Rules may be recursive; evaluation iterates strata to a *semantic*
    fixpoint (relations compared as point sets) under a
    ``max_iterations`` guard.
    """

    def __init__(self) -> None:
        self._idb: dict[str, Schema] = {}
        self._rules: list[Rule] = []

    @classmethod
    def from_text(cls, text: str) -> Program:
        """Parse a whole program.

        Syntax: one statement per line (blank lines and ``#`` comments
        ignored); declarations use the relation-header syntax, rules the
        arrow syntax::

            declare Busy(t:T, robot:D)
            Busy(t, r) <- Perform(a, b, r, k) & a <= t & t <= b

        A rule may span lines by ending continuation lines with ``\\``.
        """
        from repro.storage.textio import parse_header

        program = cls()
        pending = ""
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            statement = (pending + line).strip()
            pending = ""
            if statement.startswith("declare "):
                name, schema = parse_header(
                    "relation " + statement[len("declare "):]
                )
                if name in program._idb:
                    raise SchemaError(
                        f"IDB predicate {name!r} already declared"
                    )
                program._idb[name] = schema
            else:
                program.rule(statement)
        if pending:
            raise SchemaError("dangling line continuation at end of program")
        return program

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def declare(
        self,
        name: str,
        temporal: Sequence[str] = (),
        data: Sequence[str] = (),
    ) -> None:
        """Declare an IDB predicate and its schema."""
        if name in self._idb:
            raise SchemaError(f"IDB predicate {name!r} already declared")
        self._idb[name] = Schema.make(temporal, data)

    def rule(self, text: str) -> Rule:
        """Add a rule (head must be a declared IDB predicate)."""
        parsed = Rule.parse(text)
        if parsed.head_name not in self._idb:
            raise SchemaError(
                f"rule head {parsed.head_name!r} is not a declared IDB "
                "predicate; call declare() first"
            )
        self._rules.append(parsed)
        return parsed

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The program's rules, in declaration order."""
        return tuple(self._rules)

    @property
    def idb_names(self) -> tuple[str, ...]:
        """Declared IDB predicate names, in declaration order."""
        return tuple(self._idb)

    def schema(self, name: str) -> Schema:
        """The declared schema of one IDB predicate."""
        try:
            return self._idb[name]
        except KeyError:
            raise SchemaError(
                f"{name!r} is not a declared IDB predicate"
            ) from None

    # ------------------------------------------------------------------
    # dependency analysis
    # ------------------------------------------------------------------

    def stratify(self, edb_schemas: dict[str, Schema]) -> list[list[str]]:
        """Partition IDB predicates into strata.

        Standard stratified-negation semantics: a predicate must live in
        a strictly higher stratum than anything it depends on
        negatively, and at least as high as anything it depends on
        positively.  A cycle through negation raises
        :class:`EvaluationError`.
        """
        schemas = {**edb_schemas, **self._idb}
        for rule in self._rules:
            # Keyed rebinding: a body parsed against one database's
            # schemas is re-parsed when the mapping differs (a program
            # is reusable across databases with different EDB shapes).
            rule.ensure_bound(schemas)
        stratum = {name: 0 for name in self._idb}
        deps = [
            (rule.head_name, occ.name, occ.negated)
            for rule in self._rules
            for occ in occurrences(rule.body_query)
            if occ.name in self._idb
        ]
        n = len(self._idb)
        for _ in range(n * n + 1):
            changed = False
            for head, dep, is_negative in deps:
                needed = stratum[dep] + (1 if is_negative else 0)
                if stratum[head] < needed:
                    stratum[head] = needed
                    changed = True
            if not changed:
                break
        else:
            raise EvaluationError(
                "program is not stratifiable (cycle through negation)"
            )
        if any(level > n for level in stratum.values()):
            raise EvaluationError(
                "program is not stratifiable (cycle through negation)"
            )
        layers: dict[int, list[str]] = {}
        for name, level in stratum.items():
            layers.setdefault(level, []).append(name)
        return [layers[level] for level in sorted(layers)]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        db: Database,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        simplify: bool = True,
        strategy: str = "seminaive",
    ) -> Database:
        """Evaluate the program; returns a new Database with IDB filled.

        EDB relations are taken from ``db`` (and are never modified).
        Within each stratum, rules are iterated to a semantic fixpoint.

        ``strategy`` selects how each stratum reaches its fixpoint:
        ``"seminaive"`` (the default) iterates per-rule *delta* queries
        — each round only re-derives from the previous round's new
        tuples (see :mod:`repro.deductive.incremental`); ``"naive"``
        re-evaluates every full rule body per round, and is kept as the
        executable oracle.  Both produce semantically identical
        databases.
        """
        if strategy not in STRATEGIES:
            raise ReproValueError(
                f"unknown evaluation strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        for name in self._idb:
            if name in db:
                raise SchemaError(
                    f"IDB predicate {name!r} clashes with an EDB relation"
                )
        out = Database(
            max_tuples=db.max_tuples, max_extensions=db.max_extensions
        )
        for name in db.names:
            out.register(name, db.relation(name))
        for name, schema in self._idb.items():
            out.register(name, GeneralizedRelation.empty(schema))
        strata = self.stratify(db.schemas())
        if strategy == "seminaive":
            self._evaluate_seminaive(out, strata, max_iterations, simplify)
            return out
        for layer in strata:
            layer_rules = [
                r for r in self._rules if r.head_name in set(layer)
            ]
            self._fixpoint(out, layer_rules, max_iterations, simplify)
        return out

    def _evaluate_seminaive(
        self,
        out: Database,
        strata: list[list[str]],
        max_iterations: int,
        simplify: bool,
    ) -> None:
        """Run every stratum through the semi-naive delta iteration."""
        from repro.deductive.incremental import seminaive_stratum
        from repro.obs import metrics, span
        from repro.obs.metrics import COUNTERS

        registry = metrics()
        state = {name: out.relation(name) for name in out.names}
        with span("deductive.evaluate", strategy="seminaive"):
            for layer in strata:
                layer_rules = [
                    r for r in self._rules if r.head_name in set(layer)
                ]
                _deltas, stats = seminaive_stratum(
                    state,
                    layer_rules,
                    self._idb,
                    set(layer),
                    None,
                    max_iterations=max_iterations,
                    simplify=simplify,
                    max_tuples=out.max_tuples,
                    max_extensions=out.max_extensions,
                )
                COUNTERS["deductive.rules_fired"] += stats.rules_fired
                registry.histogram("deductive.iterations").observe(
                    stats.iterations
                )
        for name in self._idb:
            out.register(name, state[name])

    def _fixpoint(
        self,
        db: Database,
        rules: list[Rule],
        max_iterations: int,
        simplify: bool,
    ) -> None:
        """Iterate ``rules`` to a fixpoint by full-body fires (the
        oracle), each lowered afresh under its head: no plan store."""
        from repro.query.evaluator import Evaluator

        if not rules:
            return
        for iteration in range(max_iterations):
            changed = False
            for rule in rules:
                evaluator = Evaluator.of(db)
                head = (rule.head_args, self._idb[rule.head_name])
                derived = evaluator.run(
                    evaluator.compile(rule.body_query, head=head)
                )
                current = db.relation(rule.head_name)
                merged = algebra.union(current, derived)
                if simplify:
                    merged = simplify_relation(merged)
                if not algebra.equivalent(merged, current):
                    db.register(rule.head_name, merged)
                    changed = True
            if not changed:
                return
        raise EvaluationError(
            f"no fixpoint within {max_iterations} iterations; the program "
            "may diverge on this database (raise max_iterations if it is "
            "simply slow to converge)"
        )
