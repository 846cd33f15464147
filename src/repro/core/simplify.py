"""Redundancy elimination for generalized relations.

Section 3.1 of the paper notes that "in practice, one would also attempt
to eliminate the redundancies that might appear between the tuples of
the merged relation" but leaves the problem aside.  This module supplies
the practical pieces:

* dropping tuples that denote the empty set;
* dropping tuples *subsumed* by another single tuple (a sound, cheap
  approximation of full redundancy: exact minimization would need
  set-cover reasoning across tuples).
"""

from __future__ import annotations

from repro.core.emptiness import tuple_is_empty
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple


def tuple_subsumes(big: GeneralizedTuple, small: GeneralizedTuple) -> bool:
    """Whether ``big``'s point set contains ``small``'s.

    Checked as emptiness of ``small - big`` via the Figure 1 tuple
    subtraction, which stays symbolic (no enumeration).
    """
    from repro.core.algebra import subtract_tuples

    if big.data != small.data:
        return tuple_is_empty(small)
    return all(tuple_is_empty(piece) for piece in subtract_tuples(small, big))


def simplify_relation(relation: GeneralizedRelation) -> GeneralizedRelation:
    """Remove empty tuples and tuples subsumed by another tuple.

    The result denotes exactly the same point set.  Subsumption checks
    are pairwise within a data bucket (quadratic in the number of tuples
    sharing one data vector): a nonempty tuple is never subsumed by one
    with different data, so tuples across buckets are never compared.
    Tuples are considered in insertion order, keeping earlier
    witnesses, and the survivors keep their original relative order.
    """
    nonempty = [t for t in relation if not tuple_is_empty(t)]
    buckets: dict[tuple, list[int]] = {}
    for index, candidate in enumerate(nonempty):
        kept = buckets.setdefault(candidate.data, [])
        if any(tuple_subsumes(nonempty[i], candidate) for i in kept):
            continue
        kept[:] = [
            i for i in kept if not tuple_subsumes(candidate, nonempty[i])
        ]
        kept.append(index)
    survivors = sorted(i for kept in buckets.values() for i in kept)
    return GeneralizedRelation(
        relation.schema, [nonempty[i] for i in survivors]
    )
