"""Computing temporal-logic satisfaction sets as generalized relations.

Each formula φ over a model (a set of named event relations) denotes
``Sat(φ) ⊆ Z`` — the instants where it holds.  Because generalized
relations are closed under the full algebra, ``Sat(φ)`` is itself a
generalized unary relation, computed bottom-up:

=============  =====================================================
``p``          the event relation, data-selected and projected
``¬φ``         complement w.r.t. Z
``φ ∧ ψ``      intersection; ``φ ∨ ψ`` union
``X φ``        satisfaction set shifted by −1 (``t ⊨ Xφ ⟺ t+1 ⊨ φ``)
``F φ``        downward closure: ``{t : ∃u ≥ t, u ⊨ φ}``
``G φ``        ``¬F¬φ``
``φ U ψ``      ``{t : ∃u ≥ t. u ⊨ ψ ∧ ∀v ∈ [t, u). v ⊨ φ}``
=============  =====================================================

Model checking a property "from now on" is then a single emptiness (or
membership) question on the satisfaction set — the "query evaluation on
a special type of database" the paper's introduction describes.
"""

from __future__ import annotations

from repro.core import algebra
from repro.core.errors import EvaluationError, ReproTypeError
from repro.core.relations import GeneralizedRelation, Schema
from repro.tl.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Next,
    Not,
    Or,
    Previous,
    Since,
    Until,
)

_T = Schema.make(temporal=["t"])


class Model:
    """A temporal structure: named event relations over one time line."""

    def __init__(
        self,
        relations: dict[str, GeneralizedRelation] | None = None,
        max_extensions: int = 1_000_000,
    ) -> None:
        self._relations: dict[str, GeneralizedRelation] = {}
        self.max_extensions = max_extensions
        for name, rel in (relations or {}).items():
            self.register(name, rel)

    def register(self, name: str, relation: GeneralizedRelation) -> None:
        """Register an event relation (any schema; atoms select/project)."""
        self._relations[name] = relation

    def relation(self, name: str) -> GeneralizedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(f"unknown event relation {name!r}") from None

    # ------------------------------------------------------------------
    # satisfaction sets
    # ------------------------------------------------------------------

    def sat(self, formula: Formula) -> GeneralizedRelation:
        """The satisfaction set of ``formula`` as a unary relation."""
        if isinstance(formula, Atom):
            return self._atom(formula)
        if isinstance(formula, Not):
            return algebra.complement(
                self.sat(formula.body), max_extensions=self.max_extensions
            )
        if isinstance(formula, And):
            parts = [self.sat(p) for p in formula.parts]
            out = parts[0]
            for part in parts[1:]:
                out = algebra.intersect(out, part)
            return out
        if isinstance(formula, Or):
            parts = [self.sat(p) for p in formula.parts]
            out = parts[0]
            for part in parts[1:]:
                out = algebra.union(out, part)
            return out
        if isinstance(formula, Next):
            return algebra.shift_column(self.sat(formula.body), "t", -1)
        if isinstance(formula, Previous):
            return algebra.shift_column(self.sat(formula.body), "t", 1)
        if isinstance(formula, Eventually):
            return self._downward_closure(self.sat(formula.body))
        if isinstance(formula, Always):
            inner = algebra.complement(
                self.sat(formula.body), max_extensions=self.max_extensions
            )
            closed = self._downward_closure(inner)
            return algebra.complement(
                closed, max_extensions=self.max_extensions
            )
        if isinstance(formula, Until):
            return self._until(
                self.sat(formula.hold), self.sat(formula.release), future=True
            )
        if isinstance(formula, Since):
            return self._until(
                self.sat(formula.hold), self.sat(formula.release), future=False
            )
        raise ReproTypeError(f"unexpected formula node: {formula!r}")

    def holds_at(self, formula: Formula, instant: int) -> bool:
        """Whether the formula holds at one instant."""
        return self.sat(formula).contains([instant])

    def holds_everywhere(self, formula: Formula) -> bool:
        """Whether the formula holds at every instant (validity in the model)."""
        return algebra.complement(
            self.sat(formula), max_extensions=self.max_extensions
        ).is_empty()

    def holds_somewhere(self, formula: Formula) -> bool:
        """Whether the formula holds at some instant."""
        return not self.sat(formula).is_empty()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _atom(self, formula: Atom) -> GeneralizedRelation:
        rel = self.relation(formula.name)
        for attr, value in formula.selection:
            rel = algebra.select_data(rel, attr, value)
        column = formula.column
        if column is None:
            temporal = rel.schema.temporal_names
            if len(temporal) != 1:
                raise EvaluationError(
                    f"atom {formula} needs column= (relation has temporal "
                    f"attributes {temporal})"
                )
            column = temporal[0]
        projected = algebra.project(rel, [column])
        return algebra.rename(projected, {column: "t"})

    def _downward_closure(self, sat_set: GeneralizedRelation) -> GeneralizedRelation:
        """``{t : ∃u >= t, u ∈ sat_set}`` (upward for past operators)."""
        pair = algebra.product(
            GeneralizedRelation.universe(_T),
            algebra.rename(sat_set, {"t": "u"}),
        )
        selected = algebra.select(pair, "t <= u")
        return algebra.project(selected, ["t"])

    def _until(
        self,
        hold: GeneralizedRelation,
        release: GeneralizedRelation,
        future: bool,
    ) -> GeneralizedRelation:
        """``{t : ∃u ⋈ t. u ∈ release ∧ ∀v strictly between. v ∈ hold}``.

        Computed as pairs minus the "bad" pairs witnessed by a violating
        instant of ``¬hold`` strictly between t (inclusive) and u.
        """
        universe_t = GeneralizedRelation.universe(_T)
        pairs = algebra.select(
            algebra.product(universe_t, algebra.rename(release, {"t": "u"})),
            "t <= u" if future else "t >= u",
        )
        not_hold = algebra.complement(
            hold, max_extensions=self.max_extensions
        )
        violations = algebra.product(
            algebra.product(
                universe_t,
                algebra.rename(not_hold, {"t": "v"}),
            ),
            algebra.rename(GeneralizedRelation.universe(_T), {"t": "u"}),
        )
        if future:
            bad = algebra.select(violations, "t <= v & v < u")
        else:
            bad = algebra.select(violations, "t >= v & v > u")
        bad_pairs = algebra.project(bad, ["t", "u"])
        good_pairs = algebra.subtract(pairs, bad_pairs)
        return algebra.project(good_pairs, ["t"])
