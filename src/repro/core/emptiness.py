"""Emptiness decision for generalized tuples and relations (Theorem 3.5).

The paper decides nonemptiness by projecting a relation down to one
column and checking the remaining unary constraints.  With the n-space
representation of :mod:`repro.core.normalize` we can do slightly better:
a normalized tuple is nonempty iff its difference system over the free
repetition counters is satisfiable, which the DBM closure decides
directly (and integer-exactly).  Both the decision and the witness split
every attribute onto the tuple's lcm with
:func:`repro.core.normalize.split`, pruned against the tuple's closure,
and take their verdicts from one batched
:func:`~repro.perf.kernel.sat_batch`.  The asymptotics match the
theorem: polynomial in the number of tuples and in the schema size.
"""

from __future__ import annotations

from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.normalize import (
    DEFAULT_MAX_TUPLES,
    satisfiable_combos,
    split,
    tuple_period,
)
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple


def _normal_forms(
    gtuple: GeneralizedTuple, period: int, rows: tuple, max_tuples: int
) -> list[tuple[tuple[LRP, ...], DBM]]:
    """The satisfiable normal-form combos of a satisfiable tuple on its
    lcm ``period``, with their counter systems, in product order."""
    arity = gtuple.temporal_arity
    plan = split(gtuple, range(arity), [period] * arity, max_tuples, rows)
    return [] if plan is None else satisfiable_combos(plan, rows)


def tuple_is_empty(
    gtuple: GeneralizedTuple, max_tuples: int = DEFAULT_MAX_TUPLES
) -> bool:
    """Whether a generalized tuple denotes the empty set.

    Satisfiability is read off the tuple's carried closure
    (:meth:`~repro.core.tuples.GeneralizedTuple.closure`), so a stored
    tuple is decided without closing its DBM again.  A tuple with no
    written bound is the product of its lrps, and an lrp
    ``{c + kn | n in Z}`` is never empty (Def. 2.1), so such a tuple
    is nonempty as soon as its closure is satisfiable; it is decided
    without normalizing and never raises
    :class:`~repro.core.errors.NormalizationLimitError`.  A tuple whose
    lrps fail the residue condition of Section 3.2.1 against that
    closure is empty, and :func:`~repro.core.normalize.split` decides
    so without normalizing either.  Otherwise the tuple is nonempty iff
    one of its residue-feasible normal-form combos is satisfiable.
    """
    rows = gtuple.closure()
    if rows is None:
        # First: an unsatisfiable system may carry a diagonal marker
        # that iter_bounds cannot expose.
        return True
    if next(gtuple.dbm.iter_bounds(), None) is None:
        return False
    return not _normal_forms(gtuple, tuple_period(gtuple), rows, max_tuples)


def relation_is_empty(
    relation: GeneralizedRelation, max_tuples: int = DEFAULT_MAX_TUPLES
) -> bool:
    """Whether a generalized relation denotes the empty set."""
    return all(tuple_is_empty(t, max_tuples=max_tuples) for t in relation)


def tuple_witness(
    gtuple: GeneralizedTuple, max_tuples: int = DEFAULT_MAX_TUPLES
) -> tuple[int, ...] | None:
    """Return one concrete temporal point of the tuple, or ``None``.

    The witness is the DBM solution of the first satisfiable normal-form
    combo, the first tuple :func:`~repro.core.normalize.normalize_tuple`
    yields, mapped back as ``X_i = c_i + k * n_i``.
    """
    rows = gtuple.closure()
    if rows is None:
        return None
    k = tuple_period(gtuple)
    normal = _normal_forms(gtuple, k, rows, max_tuples)
    if not normal:
        return None
    combo, n_dbm = normal[0]
    counters = n_dbm.solution()
    return tuple(lrp.offset + k * n for lrp, n in zip(combo, counters))


def relation_witness(
    relation: GeneralizedRelation, max_tuples: int = DEFAULT_MAX_TUPLES
) -> tuple | None:
    """Return one concrete point (schema order) of the relation, or ``None``."""
    for gtuple in relation:
        temporal = tuple_witness(gtuple, max_tuples=max_tuples)
        if temporal is not None:
            return relation.join_point(temporal, gtuple.data)
    return None


def count_in_window(
    relation: GeneralizedRelation, low: int, high: int
) -> int:
    """Number of concrete points with temporal coordinates in ``[low, high]``."""
    return sum(1 for _ in relation.enumerate(low, high))
