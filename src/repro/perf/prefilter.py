"""Cheap rejection tests for pairwise tuple operations.

The quadratic pairwise loops of the algebra (``intersect``, ``join``,
``subtract``, complement's DNF expansion) spend most of their time on
pairs whose combination is provably empty.  Each helper here rejects
such a pair with a few integer operations, before any CRT solving, DBM
copying or Floyd–Warshall closure happens:

* **residue compatibility** — two lrps ``c1 + p1·Z`` and ``c2 + p2·Z``
  intersect iff ``gcd(p1, p2)`` divides ``c1 − c2`` (the solvability
  condition of the CRT), an exact test.  ``join`` and ``intersect``
  apply it to a whole bucket at once through a residue index
  (``repro.core.algebra._ResidueIndex``), so the pairs it rejects on
  the indexed attribute are never formed; they still count as
  ``prefilter_lrp_skip``;
* **interval overlap** — on closed systems, attribute ``i``'s value
  range on each side is ``[-b(0,i), b(i,0)]``; disjoint ranges on any
  shared attribute make the conjunction unsatisfiable, again exactly;
* **single-bound satisfiability** — adding one constraint
  ``X_u - X_v <= w`` to a closed satisfiable system is unsatisfiable iff
  the closure's reverse path gives ``b(v, u) + w < 0`` (any new negative
  cycle must traverse the new edge, and ``b(v, u)`` is the cheapest way
  back).

The closed systems are passed as bound rows in matrix form (row and
column 0 the zero variable), the form
:meth:`GeneralizedTuple.closure <repro.core.tuples.GeneralizedTuple.closure>`
reads off a stored tuple's canonical key and
:meth:`DBM.canonical_key <repro.core.dbm.DBM.canonical_key>` returns for
a satisfiable system, so a stored tuple is tested without closing it
again.

All three tests are exact (they reject only pairs the full computation
would also discard), so the filtered operations return the same results
as the unfiltered ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.lrp import LRP

#: A satisfiable system's closed bound matrix: ``rows[i][j]`` bounds
#: ``X_i - X_j`` (index 0 is the zero variable, ``None`` is +infinity).
ClosedRows = Sequence[Sequence[int | None]]


def lrp_pair_compatible(a: "LRP", b: "LRP") -> bool:
    """Whether two lrps have a nonempty intersection (exact, no CRT)."""
    pa = a.period
    pb = b.period
    if pa == 0:
        return b.contains(a.offset)
    if pb == 0:
        return a.contains(b.offset)
    return (a.offset - b.offset) % gcd(pa, pb) == 0


def lrps_compatible(
    lrps1: Sequence["LRP"],
    lrps2: Sequence["LRP"],
    pairs: Sequence[tuple[int, int]] | None = None,
) -> bool:
    """Componentwise lrp compatibility.

    With ``pairs`` omitted the vectors are matched positionally (the
    ``intersect`` case); otherwise only the ``(i1, i2)`` index pairs are
    tested (the shared attributes of a join).
    """
    if pairs is None:
        for a, b in zip(lrps1, lrps2):
            if not lrp_pair_compatible(a, b):
                return False
        return True
    for i1, i2 in pairs:
        if not lrp_pair_compatible(lrps1[i1], lrps2[i2]):
            return False
    return True


def intervals_compatible(
    closed1: ClosedRows,
    closed2: ClosedRows,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> bool:
    """Whether every shared attribute's value ranges overlap.

    Both arguments are closed bound rows.  ``pairs`` works as in
    :func:`lrps_compatible`.  A ``False`` verdict is exact: some shared
    attribute cannot take a common value, so the conjunction of the two
    systems (under the pairing) is unsatisfiable.
    """
    if pairs is None:
        pairs = [(i, i) for i in range(len(closed1) - 1)]
    zero1 = closed1[0]
    zero2 = closed2[0]
    for i1, i2 in pairs:
        up1 = closed1[i1 + 1][0]
        neg_lo2 = zero2[i2 + 1]
        if up1 is not None and neg_lo2 is not None and up1 + neg_lo2 < 0:
            return False
        up2 = closed2[i2 + 1][0]
        neg_lo1 = zero1[i1 + 1]
        if up2 is not None and neg_lo1 is not None and up2 + neg_lo1 < 0:
            return False
    return True


def added_bound_satisfiable(
    closed: ClosedRows, u: int, v: int, w: int
) -> bool:
    """Whether a closed satisfiable system stays satisfiable after adding
    ``X_u - X_v <= w`` (indices as in ``iter_bounds``: -1 = zero var).

    Exact: a negative cycle created by one new edge must use that edge,
    and the cheapest return path ``v → u`` is the closure entry.
    """
    back = closed[v + 1][u + 1]
    return back is None or back + w >= 0


def residue_in_window(
    residue: int, modulus: int, low: int | None, high: int | None
) -> bool:
    """Whether some ``d ≡ residue (mod modulus)`` lies in ``[low, high]``.

    ``None`` is an infinite end; modulus 0 asks for ``d = residue``.
    """
    if modulus == 0:
        return (low is None or low <= residue) and (
            high is None or residue <= high
        )
    if low is None or high is None:
        return True
    return low + (residue - low) % modulus <= high


def residues_meet(
    lrps: Sequence["LRP"], rows: ClosedRows, attrs: Sequence[int]
) -> bool:
    """Whether the lrps of ``attrs`` can meet the closed windows ``rows``.

    The residue condition of Section 3.2.1 against a tuple's closure:
    the windows of :func:`repro.core.normalize._feasible_combos`, tested
    on the one combo of the tuple's own lrps, without building it.
    Every point of the tuple passes, so a failure proves it empty.
    :func:`repro.core.normalize.split` tests only the attributes it
    splits: an empty tuple's attributes outside a projection's cluster
    still pass through it unchanged, and dropping them would change
    the output.
    """
    zero = rows[0]
    for pos, a in enumerate(attrs):
        lrp = lrps[a]
        row = rows[a + 1]
        low = zero[a + 1]
        if not residue_in_window(
            lrp.offset, lrp.period, None if low is None else -low, row[0]
        ):
            return False
        for b in attrs[:pos]:
            low = rows[b + 1][a + 1]
            high = row[b + 1]
            if low is None and high is None:
                continue
            other = lrps[b]
            if not residue_in_window(
                lrp.offset - other.offset,
                gcd(lrp.period, other.period),
                None if low is None else -low,
                high,
            ):
                return False
    return True
