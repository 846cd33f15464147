"""Emptiness decision for generalized tuples and relations (Theorem 3.5).

The paper decides nonemptiness by projecting a relation down to one
column and checking the remaining unary constraints.  With the n-space
representation of :mod:`repro.core.normalize` we can do slightly better:
a normalized tuple is nonempty iff its difference system over the free
repetition counters is satisfiable, which the DBM closure decides
directly (and integer-exactly).  The asymptotics match the theorem:
polynomial in the number of tuples and in the schema size.
"""

from __future__ import annotations

from repro.core.normalize import (
    DEFAULT_MAX_TUPLES,
    iter_normalize_tuple,
)
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple


def tuple_is_empty(
    gtuple: GeneralizedTuple, max_tuples: int = DEFAULT_MAX_TUPLES
) -> bool:
    """Whether a generalized tuple denotes the empty set.

    A tuple with no written bound is the product of its lrps, and an
    lrp ``{c + kn | n in Z}`` is never empty (Def. 2.1), so such a tuple
    is nonempty as soon as its closure is satisfiable; it is decided
    without normalizing and never raises
    :class:`~repro.core.errors.NormalizationLimitError`.  Otherwise
    normalization is streamed and stops at the first satisfiable
    normal-form tuple, so the common case is far cheaper than a full
    normalization.
    """
    if not gtuple.dbm.copy().close():
        # First: an unsatisfiable system may carry a diagonal marker
        # that iter_bounds cannot expose.
        return True
    if next(gtuple.dbm.iter_bounds(), None) is None:
        return False
    for _ in iter_normalize_tuple(gtuple, max_tuples=max_tuples):
        return False
    return True


def relation_is_empty(
    relation: GeneralizedRelation, max_tuples: int = DEFAULT_MAX_TUPLES
) -> bool:
    """Whether a generalized relation denotes the empty set."""
    return all(tuple_is_empty(t, max_tuples=max_tuples) for t in relation)


def tuple_witness(
    gtuple: GeneralizedTuple, max_tuples: int = DEFAULT_MAX_TUPLES
) -> tuple[int, ...] | None:
    """Return one concrete temporal point of the tuple, or ``None``.

    The witness is reconstructed from an n-space DBM solution:
    ``X_i = c_i + k * n_i``.
    """
    for normalized in iter_normalize_tuple(gtuple, max_tuples=max_tuples):
        counters = normalized.n_dbm.solution()
        if counters is None:  # pragma: no cover - filtered by iterator
            continue
        k = normalized.period
        return tuple(
            c + k * n for c, n in zip(normalized.offsets, counters)
        )
    return None


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
