"""Negation / complement of generalized relations (Appendix A.6).

The complement of a relation ``r`` of temporal arity ``m`` is computed
per the paper, over free extensions of per-column periods ``k_i``:

* enumerate all ``Π k_i`` free extensions;
* a free extension not appearing in ``r`` contributes one unconstrained
  tuple;
* a free extension appearing in ``r`` with constraint systems
  ``D_1 ∨ ... ∨ D_p`` contributes the tuples of ``¬D_1 ∧ ... ∧ ¬D_p``,
  expanded to disjunctive normal form *incrementally*: conjoin one
  negated system at a time and reduce after every step, so that the
  intermediate representation stays within the ``(N+1)^{m(m+1)}`` bound
  of Theorem A.1 instead of blowing up to ``(m(m+1))^N`` terms.

The paper uses one period, the relation's lcm, for every column
(``uniform_period=True``).  By default each column takes the lcm of
its *component*, the columns it is transitively co-constrained with,
so the enumeration costs ``Π k_comp^|comp|`` instead of ``k^m``.
Either way each tuple is split by :func:`repro.core.normalize.split`
with those periods, pruned against its closure.

Singleton lrps are then "de-singularized": ``{c}`` becomes the periodic
lrp ``(c mod k) + kZ`` with its repetition counter pinned by constraints,
so that every tuple's free extension is a plain offset vector and the
enumeration above is exhaustive.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.arith import lcm
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError
from repro.core.lrp import LRP
from repro.core.normalize import (
    DEFAULT_MAX_TUPLES,
    relation_period,
    split,
    to_x_space,
    transcribe,
)
from repro.core.tuples import GeneralizedTuple
from repro.perf import prefilter
from repro.obs.metrics import COUNTERS

DEFAULT_MAX_EXTENSIONS = 1_000_000


def _on_grid(
    offsets: Sequence[int],
    singleton: Sequence[bool],
    dbm: DBM,
    periods: Sequence[int],
) -> tuple[tuple[int, ...], DBM]:
    """Re-origin every singleton counter onto its column's grid.

    Returns the reduced offsets and ``dbm`` (a shifted copy where a pin
    moves), in which the counter of a singleton ``{c}`` on period ``k``
    measures from ``c mod k``: ``shift_variable`` implements ``n := n +
    delta`` on the variable's value set, so ``delta = c // k`` moves the
    pin ``n = 0`` to ``n = c // k``.
    """
    out = list(offsets)
    for i, (c, is_single) in enumerate(zip(offsets, singleton)):
        if is_single:
            out[i] = c % periods[i]
            if c // periods[i]:
                dbm = dbm.shift_variable(i, c // periods[i])
    return tuple(out), dbm


def negate_dbm(dbm: DBM, size: int) -> list[DBM]:
    """Return DBMs whose union is the complement of ``dbm``'s solution set.

    Each stored finite bound ``v_i - v_j <= b`` contributes one disjunct
    ``v_j - v_i <= -b - 1`` (the integer negation).  An unconstrained
    system has an empty complement; an unsatisfiable one complements to
    the single unconstrained system.
    """
    bounds = list(dbm.iter_bounds())
    if not dbm.copy().close():
        return [DBM(size)]
    out: list[DBM] = []
    for i, j, bound in bounds:
        piece = DBM(size)
        if i >= 0 and j >= 0:
            piece.add_difference(j, i, -bound - 1)
        elif j < 0:
            # negation of v_i <= bound
            piece.add_lower(i, bound + 1)
        else:
            # negation of v_j >= -bound
            piece.add_upper(j, -bound - 1)
        out.append(piece)
    return out


def complement_constraint_systems(
    systems: Sequence[DBM], size: int
) -> list[DBM]:
    """Compute ``¬D_1 ∧ ... ∧ ¬D_p`` as a reduced list of DBMs.

    This is the incremental DNF expansion of Appendix A.6: conjoin one
    negated system at a time, dropping unsatisfiable conjuncts and
    deduplicating by canonical closure after every step.
    """
    current: list[DBM] = [DBM(size)]
    for system in systems:
        negated = negate_dbm(system, size)
        if not negated:
            return []
        # Every negated piece carries exactly one written bound, so an
        # O(1) closed-path test decides whether conjoining it can stay
        # satisfiable — skipping the pieces the canonical-key check
        # below would discard anyway, without building the merge.
        piece_bounds = [
            next(iter(piece.iter_bounds()), None) for piece in negated
        ]
        next_round: dict[tuple, DBM] = {}
        for conjunct in current:
            # Every conjunct kept so far is satisfiable, so its
            # canonical key is its closed bound rows.
            closed_conjunct = conjunct.canonical_key()
            for piece, bound in zip(negated, piece_bounds):
                if bound is not None and not prefilter.added_bound_satisfiable(
                    closed_conjunct, *bound
                ):
                    COUNTERS["perf.prefilter_negation_skip"] += 1
                    continue
                merged = conjunct.intersect(piece)
                # Satisfiability and deduplication both go through the
                # canonical key, which closes a *copy*: the stored
                # bounds must remain exactly the written ones, because
                # the decomposed complement's counters use per-column
                # scales and closure would synthesize cross-scale
                # difference bounds (sound in n-space, untranslatable
                # to X-space).
                key = merged.canonical_key()
                if key == ("UNSAT", size):
                    continue
                if key not in next_round:
                    next_round[key] = merged
        current = _drop_subsumed(list(next_round.values()))
        if not current:
            return []
    return current


def _drop_subsumed(systems: list[DBM]) -> list[DBM]:
    """Remove systems whose solution set is contained in another's.

    Quadratic in the list length but each check is a closed-matrix
    comparison; this is the "keep the strongest" reduction that bounds
    the expansion polynomially for a fixed schema.
    """
    kept: list[DBM] = []
    for candidate in systems:
        if any(candidate.implies(other) for other in kept):
            continue
        kept = [other for other in kept if not other.implies(candidate)]
        kept.append(candidate)
    return kept


def complement_tuples(
    tuples: Sequence[GeneralizedTuple],
    arity: int,
    data: tuple = (),
    max_tuples: int = DEFAULT_MAX_TUPLES,
    max_extensions: int = DEFAULT_MAX_EXTENSIONS,
    uniform_period: bool = False,
) -> list[GeneralizedTuple]:
    """Complement same-data generalized tuples w.r.t. ``Z^arity``.

    Handles the empty input (complement is all of ``Z^arity``) and the
    0-ary edge case (the complement of a nonempty 0-ary relation is
    empty; of an empty one, the single empty tuple).

    By default the free-extension enumeration uses *per-component*
    periods: columns that are never constrained against each other (in
    any tuple) keep independent periods, so the enumeration costs
    ``Π k_comp^|comp|`` instead of the paper's uniform ``k^m``.  Pass
    ``uniform_period=True`` for the paper's literal algorithm (same
    semantics, coarser splitting).
    """
    if arity == 0:
        nonempty = any(t.dbm.copy().close() for t in tuples)
        if nonempty:
            return []
        return [GeneralizedTuple.make([], data=data)]
    if uniform_period:
        k_cols = [relation_period(tuples)] * arity
    else:
        k_cols = _column_periods(
            tuples, _column_components(tuples, arity), arity
        )
    total = 1
    for k in k_cols:
        total *= k
        if total > max_extensions:
            raise NormalizationLimitError(
                f"complement would enumerate more than {max_extensions} "
                "free extensions"
            )
    # Structural accounting (Theorem 3.6's blow-up parameter): number of
    # free-extension combinations this complement enumerates.
    COUNTERS["perf.complement_extensions"] += total
    groups: dict[tuple[int, ...], list[DBM]] = {}
    budget = 0
    for gtuple in tuples:
        rows = gtuple.closure()
        if rows is None:
            continue
        plan = split(gtuple, range(arity), k_cols, max_tuples, rows)
        if plan is None:
            continue
        for combo in plan.combos(rows):
            n_dbm = transcribe(plan, combo)
            # Decided one by one: these systems are too small for the
            # kernel's batched sweep to pay for itself.
            if not n_dbm.copy().close():
                continue
            budget += 1
            if budget > max_tuples:
                raise NormalizationLimitError(
                    f"complement exceeded {max_tuples} normalized tuples"
                )
            offsets, n_dbm = _on_grid(
                [lrp.offset for lrp in combo],
                [lrp.period == 0 for lrp in combo],
                n_dbm,
                k_cols,
            )
            groups.setdefault(offsets, []).append(n_dbm)
    out: list[GeneralizedTuple] = []
    periodic = [False] * arity
    for offsets in itertools.product(*(range(k) for k in k_cols)):
        systems = groups.get(offsets)
        if systems is None:
            dbms: list[DBM] = [DBM(arity)]
        else:
            dbms = complement_constraint_systems(systems, arity)
        lrps = tuple(LRP.make(c, k) for c, k in zip(offsets, k_cols))
        for n_dbm in dbms:
            x_dbm = to_x_space(offsets, periodic, k_cols, n_dbm)
            out.append(GeneralizedTuple(lrps=lrps, dbm=x_dbm, data=data))
    return out


# ----------------------------------------------------------------------
# per-component-period complement (a refinement of Appendix A.6)
# ----------------------------------------------------------------------


def _column_components(
    tuples: Sequence[GeneralizedTuple], arity: int
) -> list[int]:
    """Union-find over columns: co-constrained columns share a component.

    Returns a representative id per column.  Two columns are merged when
    *any* tuple holds a difference constraint between them; unary bounds
    do not connect columns.
    """
    parent = list(range(arity))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for gtuple in tuples:
        for i, j, _bound in gtuple.dbm.iter_bounds():
            if i >= 0 and j >= 0:
                union(i, j)
    return [find(i) for i in range(arity)]


def _column_periods(
    tuples: Sequence[GeneralizedTuple],
    components: list[int],
    arity: int,
) -> list[int]:
    """Per-column period: lcm of lrp periods across each component."""
    by_component: dict[int, int] = {}
    for gtuple in tuples:
        for col in range(arity):
            period = gtuple.lrps[col].period
            if period != 0:
                root = components[col]
                by_component[root] = lcm(by_component.get(root, 1), period)
    return [by_component.get(components[col], 1) for col in range(arity)]
