"""Relational algebra on generalized relations (Section 3 of the paper).

Every operation consumes and produces :class:`GeneralizedRelation`
values; none of them enumerates the (possibly infinite) denoted point
sets.  The data components are handled "as in a traditional relational
database" (Section 3's preamble); the temporal components follow the
paper's algorithms:

* union — merge (3.1);
* intersection — pairwise tuple intersection via lrp CRT (3.2);
* subtraction — the Figure 1 decomposition
  ``t1 - t2 = (t1 - t2*) ∪ (t̄2 ∩ t1)`` folded over the subtrahend (3.3);
* projection — per-tuple *partial* normalization, then integer-exact
  elimination in n-space (3.4, Theorems 3.1/3.2);
* selection — constraint conjunction (3.5);
* cross product and natural join (3.6, 3.7);
* complement — Appendix A.6 via :mod:`repro.core.negation`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Hashable, Iterable, Iterator, Sequence
from math import gcd, prod

from repro.arith import lcm
from repro.core.constraints import (
    Atom,
    VarVarAtom,
    atoms_to_dbm,
    parse_atoms,
)
from repro.core.dbm import DBM
from repro.core.errors import DomainError, ReproValueError, SchemaError
from repro.core.lrp import LRP
from repro.core.negation import (
    DEFAULT_MAX_EXTENSIONS,
    complement_tuples,
)
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import Attribute, GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.obs import trace as obs
from repro.perf import kernel, prefilter
from repro.obs.metrics import COUNTERS
from repro.perf.config import get_config


#: Per-operation cost hints for the logical planner's cost model
#: (:mod:`repro.plan.cost`): the *selectivity / expansion factor* each
#: unary operation (and subtraction, of its left side) applies to its
#: input cardinality estimate.  Pairwise joins and intersections use the
#: model's one constant pair selectivity instead.  These are coarse
#: structural priors, but they encode the real asymmetries: selection
#: only narrows constraints (never grows tuple counts), projection may
#: split tuples during partial normalization, and complement is
#: exponential in schema width (Appendix A.6), so reordering must keep
#: it late and narrow.
COST_HINTS: dict[str, float] = {
    "select": 0.6,
    "select_data": 0.5,
    "select_data_equal": 0.5,
    "project": 1.25,
    "subtract": 1.0,
    "complement": 4.0,
}


def _traced(op_name: str, pairwise: bool = False):
    """Wrap an algebra operation in an ``algebra.<op>`` span.

    When tracing is off the wrapper costs one :func:`repro.obs.trace.span`
    call (a context-variable read and a branch) per *operation* — never
    per tuple.
    When a recorder is installed the span carries the structural cost
    attributes of :mod:`repro.analysis.counters`: input/output tuple
    counts, the result's schema width and, for pairwise operations, the
    number of tuple combinations examined; the optimization layer's
    counter deltas (prefilter rejections, plan memo hits, kernel closures)
    observed during the span are attached automatically.
    """

    def decorate(fn):
        span_name = f"algebra.{op_name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = obs.span(span_name)
            if sp is obs.NULL_SPAN:
                return fn(*args, **kwargs)
            with sp:
                result = fn(*args, **kwargs)
                inputs = [
                    a for a in args[:2] if isinstance(a, GeneralizedRelation)
                ]
                sp.set(
                    input_tuples=sum(len(r) for r in inputs),
                    output_tuples=len(result),
                    schema_width=len(result.schema),
                )
                if pairwise and len(inputs) == 2:
                    sp.set(pairs_examined=len(inputs[0]) * len(inputs[1]))
                return result

        return wrapper

    return decorate

# ----------------------------------------------------------------------
# DBM assembly helpers
# ----------------------------------------------------------------------


def _assemble_dbm(
    size: int, sides: Sequence[tuple[DBM, Sequence[int]]]
) -> DBM:
    """Conjoin DBMs over a fresh ``size``-variable system, row by row.

    Each side is ``(dbm, rows)`` where ``rows[k]`` is the result matrix
    row of the side's matrix row ``k`` (row 0, the zero variable, maps
    to 0; the maps are injective).  Every entry takes the minimum of the
    bounds the sides place on it.  ``_closed`` and ``_dirty`` end up as
    the same sequence of :meth:`DBM.add_difference` / ``add_upper`` /
    ``add_lower`` calls on ``DBM(size)`` would leave them: the writes
    that tightened an entry, in side order then row-major order, tracked
    up to the matrix dimension.
    """
    n = size + 1
    b: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 0
    dirty: list[tuple[int, int]] = []
    for dbm, rows in sides:
        for si, src_row in enumerate(dbm._b):
            ti = rows[si]
            row = b[ti]
            for sj, bound in enumerate(src_row):
                if bound is None or si == sj:
                    continue
                tj = rows[sj]
                current = row[tj]
                if current is None or bound < current:
                    row[tj] = bound
                    dirty.append((ti, tj))
    out = DBM.__new__(DBM)
    out._n = n
    out._b = b
    out._closed = not dirty
    out._dirty = dirty if len(dirty) <= n else None
    return out


def _require_same_schema(r1: GeneralizedRelation, r2: GeneralizedRelation) -> None:
    if r1.schema != r2.schema:
        raise SchemaError(
            f"schemas differ: {r1.schema} vs {r2.schema}; "
            "use rename()/project() to align them"
        )


# ----------------------------------------------------------------------
# union / intersection (Sections 3.1, 3.2)
# ----------------------------------------------------------------------


@_traced("union")
def union(r1: GeneralizedRelation, r2: GeneralizedRelation) -> GeneralizedRelation:
    """Set union: merge the tuple lists (Section 3.1).

    Canonical-key deduplication happens on insertion; deeper redundancy
    elimination is :func:`repro.core.simplify.simplify_relation`'s job,
    mirroring the paper's "we do not consider this problem" remark.
    """
    _require_same_schema(r1, r2)
    # r1's tuples are already deduplicated and checked: copy, don't re-add.
    out = r1.copy()
    for t in r2:
        out.add(t)
    return out


@_traced("intersect", pairwise=True)
def intersect(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Set intersection: pairwise tuple intersections (Section 3.2.2).

    Only tuples with equal data values whose lrps meet can intersect, so
    each ``r1`` tuple is paired only with the ``r2`` tuples
    :func:`_pairs` finds for it: same data bucket and, with prefilters
    on, a compatible residue on the first temporal attribute.  Kept
    pairs come out in nested-loop order.  Unsatisfiable meets (nonempty
    lrp intersections whose merged constraints have no solution) denote
    the empty set and are dropped.  With prefilters enabled, provably
    empty pairs are rejected before the CRT + DBM work, deciding from
    the closure each stored tuple carries.  Either way the result is
    tuple-for-tuple that of the plain double loop over ``r1 × r2``.
    """
    _require_same_schema(r1, r2)
    out = GeneralizedRelation.empty(r1.schema)
    pre = get_config().prefilter_enabled
    window = (0, 0, 0, 0) if r1.schema.temporal_arity else None
    data = operator.attrgetter("data")
    candidates = [
        _intersect_candidate(t1, t2, pre)
        for t1, t2 in _pairs(r1, r2, data, data, window)
    ]
    for meet in _close_candidates(candidates):
        if meet is not None:
            out.add(meet)
    return out


def _partition(
    tuples: Iterable[GeneralizedTuple], key
) -> dict[Hashable, list[GeneralizedTuple]]:
    """Bucket tuples by ``key(tuple)``, keeping their order in each bucket."""
    buckets: dict[Hashable, list[GeneralizedTuple]] = {}
    for t in tuples:
        buckets.setdefault(key(t), []).append(t)
    return buckets


def _pairs(
    r1: GeneralizedRelation,
    r2: GeneralizedRelation,
    key1,
    key2,
    window: tuple[int, int, int, int] | None,
    skip: str = "perf.prefilter_lrp_skip",
) -> Iterator[tuple[GeneralizedTuple, GeneralizedTuple]]:
    """The pairs of ``r1 × r2`` a pairwise operation examines, in
    nested-loop ``(i, j)`` order.

    Only pairs with equal data keys can meet, so ``r2`` is partitioned
    once by ``key2`` and each ``r1`` tuple is paired with the bucket of
    its ``key1``.  With prefilters on and a temporal ``window = (i1, i2,
    low, high)``, each bucket is also indexed by the lrp residues of its
    ``i2`` attribute (:class:`_ResidueIndex`), and a left tuple meets
    only the right tuples whose ``i2`` lrp can differ from its ``i1``
    lrp by some ``d`` in ``[low, high]``; a shared attribute is the
    window ``[0, 0]``.  The pairs that index excludes are exactly those
    the per-pair residue test would reject, and they add to the ``skip``
    counter as that test would.  ``pair_candidates`` counts the pairs
    yielded.
    """
    buckets = _partition(r2, key2)
    if not get_config().prefilter_enabled:
        window = None
    indexes: dict[Hashable, _ResidueIndex] = {}
    for t1 in r1:
        key = key1(t1)
        bucket = buckets.get(key)
        if bucket is None:
            continue
        if window is None:
            COUNTERS["perf.pair_candidates"] += len(bucket)
            for t2 in bucket:
                yield t1, t2
            continue
        i1, i2, low, high = window
        index = indexes.get(key)
        if index is None:
            index = indexes[key] = _ResidueIndex(bucket, i2)
        partners = index.partners(t1.lrps[i1], low, high)
        COUNTERS[skip] += len(bucket) - len(partners)
        COUNTERS["perf.pair_candidates"] += len(partners)
        for j in partners:
            yield t1, bucket[j]


class _ResidueIndex:
    """A bucket's positions by the lrp residue of one temporal attribute.

    ``c1 + p1·n`` meets ``c2 + p2·n`` iff ``c1 ≡ c2 (mod gcd(p1, p2))``
    (Section 3.2.1); more generally, some point of the second lies at a
    distance ``d`` from some point of the first iff ``c2 ≡ c1 + d (mod
    gcd(p1, p2))``.  The right lrps are grouped by period ``p2``; for a
    left period ``p1`` each group is split once by offset modulo ``g =
    gcd(p1, p2)``, so a lookup over a window of distances returns
    exactly the partners in the classes ``c1 + d mod g``.  A window of
    at least ``g`` distances matches the whole group.  Singletons fit
    the same rule: ``gcd(p, 0) = p`` makes a singleton meet a
    progression iff its value lies on it, and two singletons
    (``g = 0``) are compared by value.
    """

    __slots__ = ("_by_period", "_classes")

    def __init__(self, bucket: list[GeneralizedTuple], attr: int) -> None:
        self._by_period: dict[int, list[tuple[int, int]]] = {}
        for pos, t in enumerate(bucket):
            lrp = t.lrps[attr]
            self._by_period.setdefault(lrp.period, []).append(
                (lrp.offset, pos)
            )
        self._classes: dict[tuple[int, int], dict[int, list[int]]] = {}

    def partners(self, lrp: LRP, low: int, high: int) -> list[int]:
        """Sorted positions of the bucket tuples whose lrp has a point
        ``x2`` with ``low <= x2 - x1 <= high`` for some point ``x1`` of
        ``lrp``."""
        found: list[int] = []
        width = high - low + 1
        for period, members in self._by_period.items():
            g = gcd(lrp.period, period)
            if g and width >= g:
                found.extend([pos for _, pos in members])
                continue
            if not g and width > len(members):
                first = lrp.offset + low
                last = lrp.offset + high
                found.extend(
                    [pos for offset, pos in members if first <= offset <= last]
                )
                continue
            classes = self._classes.get((period, g))
            if classes is None:
                classes = {}
                for offset, pos in members:
                    residue = offset % g if g else offset
                    classes.setdefault(residue, []).append(pos)
                self._classes[(period, g)] = classes
            # Fewer than g distances: each lands in its own class.
            for value in range(lrp.offset + low, lrp.offset + high + 1):
                found.extend(classes.get(value % g if g else value, ()))
        found.sort()
        return found


def _intersect_candidate(
    t1: GeneralizedTuple, t2: GeneralizedTuple, pre: bool
) -> GeneralizedTuple | None:
    """The candidate meet of a same-data pair, before its satisfiability check."""
    if pre:
        # The residue index of :func:`_pairs` already paired attribute 0
        # exactly; test only the others.
        if not prefilter.lrps_compatible(t1.lrps[1:], t2.lrps[1:]):
            COUNTERS["perf.prefilter_lrp_skip"] += 1
            return None
        closed1 = t1.closure()
        if closed1 is None:
            return None
        closed2 = t2.closure()
        if closed2 is None:
            return None
        if not prefilter.intervals_compatible(closed1, closed2):
            COUNTERS["perf.prefilter_interval_skip"] += 1
            return None
    return t1.intersect(t2)


def _close_candidates(
    candidates: list[GeneralizedTuple | None],
) -> list[GeneralizedTuple | None]:
    """Collect-then-close the candidates' satisfiability probes.

    One batched closure replaces a scalar copy-and-close per candidate;
    unsatisfiable candidates are nulled out.  Each survivor's canonical
    key is prefilled from its closed probe, so the downstream
    deduplicating ``relation.add`` pays no further closure.
    """
    pending = [
        (idx, candidate.dbm.copy())
        for idx, candidate in enumerate(candidates)
        if candidate is not None
    ]
    verdicts = kernel.close_batch([probe for _, probe in pending])
    out: list[GeneralizedTuple | None] = [None] * len(candidates)
    for (idx, probe), sat in zip(pending, verdicts):
        if not sat:
            continue
        candidate = candidates[idx]
        if candidate._key is None:
            candidate._key = (
                candidate.lrps,
                tuple(tuple(row) for row in probe._b),
                candidate.data,
            )
        out[idx] = candidate
    return out


# ----------------------------------------------------------------------
# subtraction (Section 3.3, Figure 1)
# ----------------------------------------------------------------------


def lrp_subtract_pieces(
    minuend: LRP, meet: LRP
) -> list[tuple[LRP, int | None, int | None]]:
    """Subtract ``meet`` (a sub-lrp of ``minuend``) from ``minuend``.

    Returns pieces ``(lrp, upper, lower)`` whose union is the difference;
    ``upper``/``lower`` are optional extra unary bounds (``X <= upper``,
    ``X >= lower``) needed when a single point is carved out of an
    infinite progression — a case the paper's Sub never meets because it
    subtracts equal-period lrps, but which arises naturally when one
    operand is a singleton.
    """
    if meet == minuend:
        return []
    if minuend.period == 0:
        # meet ⊆ {c} and meet != minuend means meet is empty: impossible
        # here because callers pass a nonempty intersection.
        raise ReproValueError("nonempty sub-lrp of a singleton must equal it")
    if meet.period == 0:
        point = meet.offset
        return [
            (minuend, point - 1, None),
            (minuend, None, point + 1),
        ]
    pieces = minuend.split(meet.period)
    return [(piece, None, None) for piece in pieces if piece != meet]


def subtract_tuples(
    t1: GeneralizedTuple, t2: GeneralizedTuple
) -> list[GeneralizedTuple]:
    """Subtract one generalized tuple from another (Section 3.3.3).

    Implements ``t1 - t2 = (t1 - t2*) ∪ (t̄2 ∩ t1)`` (Figure 1):

    * ``t1 - t2*`` — free-extension subtraction with ``t1``'s constraints
      kept, using a disjoint "staircase" decomposition (component ``i``
      outside the intersection, components before ``i`` inside it);
    * ``t̄2 ∩ t1`` — for each atomic constraint of ``t2``, a tuple over
      the intersected free extension carrying ``t1``'s constraints plus
      the negated atom.
    """
    if t1.temporal_arity != t2.temporal_arity:
        raise SchemaError("temporal arities differ")
    closed1 = t1.closure()
    if closed1 is None:
        return []  # t1 is empty; so is the difference
    closed2 = t2.closure()
    if closed2 is None:
        return [t1]  # subtracting the empty set
    if t1.data != t2.data:
        return [t1]
    if get_config().prefilter_enabled:
        if not prefilter.lrps_compatible(t1.lrps, t2.lrps):
            # Some component meets are empty: same [t1] the loop below
            # would return, minus the CRT work.
            COUNTERS["perf.prefilter_lrp_skip"] += 1
            return [t1]
        if not prefilter.intervals_compatible(closed1, closed2):
            # t1 ∩ t2 is empty, so the difference *is* t1 — skipping the
            # staircase decomposition returns it in one piece instead of
            # as the equivalent carved-up union.
            COUNTERS["perf.prefilter_subtract_skip"] += 1
            return [t1]
    arity = t1.temporal_arity
    meets: list[LRP] = []
    for a, b in zip(t1.lrps, t2.lrps):
        meet = a.intersect(b)
        if meet is None:
            return [t1]
        meets.append(meet)
    out: list[GeneralizedTuple] = []
    # Every piece below is t1's system plus at most two bounds; the
    # delta records them so the fast filter can decide satisfiability
    # against t1's closure instead of re-closing each piece.
    deltas: list[tuple] = []
    # Part 1: t1 restricted to free extensions missing the intersection.
    for i in range(arity):
        for piece, upper, lower in lrp_subtract_pieces(t1.lrps[i], meets[i]):
            lrps = list(t1.lrps)
            for prefix in range(i):
                lrps[prefix] = meets[prefix]
            lrps[i] = piece
            dbm = t1.dbm.copy()
            if upper is not None:
                dbm.add_upper(i, upper)
            if lower is not None:
                dbm.add_lower(i, lower)
            out.append(GeneralizedTuple(tuple(lrps), dbm, t1.data))
            deltas.append(("unary", i, upper, lower))
    # Part 2: points on the shared free extension violating t2's constraints.
    for i, j, bound in t2.dbm.iter_bounds():
        dbm = t1.dbm.copy()
        if i >= 0 and j >= 0:
            dbm.add_difference(j, i, -bound - 1)
            deltas.append(("edge", j, i, -bound - 1))
        elif j < 0:
            dbm.add_lower(i, bound + 1)
            deltas.append(("edge", -1, i, -bound - 1))
        else:
            dbm.add_upper(j, -bound - 1)
            deltas.append(("edge", j, -1, -bound - 1))
        out.append(GeneralizedTuple(tuple(meets), dbm, t1.data))
    if get_config().incremental_enabled:
        # Closure-delta fast path: one or two edges added to t1's closed
        # satisfiable system.  A new negative cycle must traverse a new
        # edge, and the cheapest return path is a closure entry, so each
        # piece's satisfiability is an O(1) lookup (see
        # :func:`repro.perf.prefilter.added_bound_satisfiable`).
        COUNTERS["perf.closure_delta"] += len(out)
        return [
            t
            for t, delta in zip(out, deltas)
            if _delta_satisfiable(closed1, delta)
        ]
    return [t for t in out if t.dbm.copy().close()]


def _delta_satisfiable(closed1: prefilter.ClosedRows, delta: tuple) -> bool:
    """Whether t1's closed system stays satisfiable under a piece's delta.

    ``("edge", u, v, w)`` is one added bound ``X_u - X_v <= w``;
    ``("unary", i, upper, lower)`` is up to two bounds on one attribute.
    For the latter, a negative cycle can use the upper edge, the lower
    edge, or both back to back (``upper < lower``); each case is an O(1)
    closure lookup, together exhaustive over simple cycles.
    """
    kind = delta[0]
    if kind == "edge":
        _, u, v, w = delta
        return prefilter.added_bound_satisfiable(closed1, u, v, w)
    _, i, upper, lower = delta
    if upper is not None and lower is not None and upper < lower:
        return False
    if upper is not None and not prefilter.added_bound_satisfiable(
        closed1, i, -1, upper
    ):
        return False
    if lower is not None and not prefilter.added_bound_satisfiable(
        closed1, -1, i, -lower
    ):
        return False
    return True


@_traced("subtract", pairwise=True)
def subtract(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Set difference, folding tuple subtraction over ``r2`` (Section 3.3.2).

    A subtrahend with other data values leaves a minuend as it is, so
    ``r2`` is partitioned by data tuple and each minuend folds only over
    its own bucket, in ``r2`` order; the result is tuple-for-tuple the
    fold over all of ``r2``.
    """
    _require_same_schema(r1, r2)
    out = GeneralizedRelation.empty(r1.schema)
    buckets = _partition(r2, lambda t: t.data)
    for t1 in r1:
        for t in _subtract_fold(t1, buckets):
            out.add(t)
    return out


def _subtract_fold(
    t1: GeneralizedTuple, buckets: dict[Hashable, list[GeneralizedTuple]]
) -> list[GeneralizedTuple]:
    """Fold ``t1`` over its same-data subtrahends.

    Against a subtrahend with other data, :func:`subtract_tuples` returns
    its minuend unchanged (or nothing, for an unsatisfiable one), so such
    a step of the full fold only deduplicates: a minuend with no same-data
    subtrahend folds to ``_dedup([t1])``, and with none at all to ``[t1]``.
    """
    subtrahends = buckets.get(t1.data)
    if subtrahends is None:
        return _dedup([t1]) if buckets else [t1]
    current = [t1]
    for t2 in subtrahends:
        next_round: list[GeneralizedTuple] = []
        for t in current:
            next_round.extend(subtract_tuples(t, t2))
        current = _dedup(next_round)
        if not current:
            break
    return current


def _dedup(tuples: list[GeneralizedTuple]) -> list[GeneralizedTuple]:
    """Deduplicate by semantic key, dropping provably-empty tuples.

    The semantic key (see :meth:`GeneralizedTuple.semantic_key`) folds
    constraint-forced values into the lrps and singleton lrps into the
    closure, so equivalent tuples produced by different operation orders
    — a pinned-DBM variant here, a singleton-lrp variant there — collapse
    to one representative instead of accumulating across the fold.
    """
    seen: set[tuple] = set()
    out: list[GeneralizedTuple] = []
    for t in tuples:
        key = t.semantic_key()
        if key[0] == "EMPTY":
            continue
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


# ----------------------------------------------------------------------
# projection (Section 3.4)
# ----------------------------------------------------------------------


@_traced("project")
def project(
    relation: GeneralizedRelation,
    names: Sequence[str],
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> GeneralizedRelation:
    """Project onto the named attributes, in the given order.

    Temporal eliminations go through the paper's normalization
    (Theorem 3.2) restricted to the constraint-connected cluster of the
    dropped attributes — the "partial normalization" optimization of
    Section 3.4 — and are integer-exact by Theorem 3.1.  With prefilters
    on, the residue condition of Section 3.2.1 is tested against the
    closure each tuple carries before anything is normalized: a tuple
    whose cluster lrps cannot meet its closed windows is never planned,
    and a split combo that cannot is never formed (:func:`_combos`).
    Re-orderings and data-only changes never normalize: each tuple's
    output is its carried closure restricted to the kept attributes.
    """
    schema = relation.schema
    for name in names:
        if not schema.has(name):
            raise SchemaError(f"cannot project onto unknown attribute {name!r}")
    if len(set(names)) != len(names):
        raise SchemaError("projection attribute list has duplicates")
    new_attrs = tuple(schema.attribute(name) for name in names)
    new_schema = Schema(new_attrs)
    keep_t = [
        schema.temporal_index(a.name) for a in new_attrs if a.temporal
    ]
    keep_d = [
        schema.data_index(a.name) for a in new_attrs if not a.temporal
    ]
    dropped_t = [
        i
        for i in range(schema.temporal_arity)
        if i not in set(keep_t)
    ]
    out = GeneralizedRelation.empty(new_schema)
    tuples = list(relation)
    if not dropped_t:
        # Dropping rows/columns of a closure is the exact eliminant of
        # the variables dropped, so the kept part of the carried closure
        # is the projected system, closed, and its canonical key.
        kept_rows = [0] + [i + 1 for i in keep_t]
        for gtuple in tuples:
            rows = gtuple.closure()
            # Unsatisfiable tuples denote the empty set; dropping them is
            # semantics-preserving and keeps stored DBMs marker-free.
            if rows is None:
                continue
            bounds = tuple(
                [tuple([rows[i][j] for j in kept_rows]) for i in kept_rows]
            )
            projected = GeneralizedTuple(
                lrps=tuple(gtuple.lrps[i] for i in keep_t),
                dbm=DBM.from_closure(bounds),
                data=tuple(gtuple.data[i] for i in keep_d),
            )
            projected._key = (projected.lrps, bounds, projected.data)
            out.add(projected)
        return out
    if kernel.kernel_active():
        finals = list(
            _project_batched(tuples, keep_t, dropped_t, keep_d, max_tuples)
        )
        _prefill_keys(finals)
        for final in finals:
            out.add(final)
        return out
    for gtuple in tuples:
        data = tuple(gtuple.data[i] for i in keep_d)
        for projected in project_tuple_temporal(
            gtuple, keep_t, dropped_t, max_tuples=max_tuples
        ):
            out.add(
                GeneralizedTuple(
                    lrps=projected.lrps, dbm=projected.dbm, data=data
                )
            )
    return out


def _prefill_keys(finals: list[GeneralizedTuple]) -> None:
    """Batch the canonical-key closures of freshly built tuples.

    ``relations.add`` dedups on :meth:`GeneralizedTuple.canonical_key`,
    which closes a probe copy per tuple; prefilling the cached ``_key``
    with one batched sweep turns that into a set lookup.  The key format
    mirrors :meth:`DBM.canonical_key` exactly (closed bound rows for
    satisfiable systems, the ``("UNSAT", size)`` marker otherwise).
    """
    pending = [t for t in finals if t._key is None]
    if not pending:
        return
    dbm_keys = kernel.canonical_keys_batch([t.dbm for t in pending])
    for t, dbm_key in zip(pending, dbm_keys):
        t._key = (t.lrps, dbm_key, t.data)


class _ProjectPlan:
    """Per-tuple combinatorics for temporal elimination.

    Shared by the scalar and batched projection paths so both enumerate
    exactly the same combos with the same bookkeeping.  ``choices[d]``
    lists the split lrps of cluster attribute ``cluster_order[d]`` (all
    of period ``k``, or the one singleton it is), and ``split_sizes`` is
    the size of their product; :func:`_combos` walks that product.
    ``feasible`` is ``None`` until the residue test has run against the
    tuple's closure, then ``(combos, excluded)``: a plan belongs to one
    tuple, whose closure never changes, so a memoized plan keeps it.
    """

    __slots__ = (
        "cluster",
        "cluster_order",
        "cluster_pos",
        "k",
        "choices",
        "split_sizes",
        "outside_ops",
        "kept_cluster",
        "kept_cluster_attrs",
        "kept_rows",
        "template_entries",
        "new_index",
        "out_rows",
        "mat_template",
        "feasible",
    )


def _project_plan(
    gtuple: GeneralizedTuple,
    keep: Sequence[int],
    dropped: Sequence[int],
    max_tuples: int,
    rows: tuple | None = None,
) -> _ProjectPlan | None:
    """Compute one tuple's cluster, period, splits and bound partition.

    Plans depend only on the tuple (immutable after construction) and
    the projection arguments, so they are memoized on the tuple itself
    — like the canonical/semantic key memos — and repeated projections
    over a stored relation skip the replan.

    With ``rows``, the tuple's closure, the cluster lrps are first
    tested against its closed windows (:func:`_residues_meet`).  A
    tuple that fails has only empty combos: it gets no plan (``None``),
    adds its whole split product to ``perf.prefilter_residue_skip``, and
    neither raises ``NormalizationLimitError`` nor adds to
    ``normalize_expansion``.
    """
    memo_key = (tuple(keep), tuple(dropped), max_tuples)
    memo = gtuple._plans
    if memo is not None:
        plan = memo.get(memo_key)
        if plan is not None:
            # A plan with feasible combos passed the test already.
            if (
                rows is not None
                and plan.feasible is None
                and not _residues_meet(gtuple.lrps, rows, plan.cluster_order)
            ):
                COUNTERS["perf.prefilter_residue_skip"] += plan.split_sizes
                return None
            # The blow-up still happens downstream on every run.
            COUNTERS["perf.normalize_expansion"] += plan.split_sizes
            COUNTERS["perf.plan_memo_hits"] += 1
            return plan
    cluster = _constraint_cluster(gtuple, dropped)
    cluster_order = sorted(cluster)
    # Period of the cluster only.
    lrps = gtuple.lrps
    k = 1
    for i in cluster_order:
        period = lrps[i].period
        if period:
            k = lcm(k, period)
    # Each periodic cluster lrp splits into k // period lrps of period k
    # (Lemma 3.1); the explosion is bounded by max_tuples.
    split_sizes = 1
    for i in cluster_order:
        period = lrps[i].period
        if period:
            split_sizes *= k // period
    if rows is not None and not _residues_meet(lrps, rows, cluster_order):
        COUNTERS["perf.prefilter_residue_skip"] += split_sizes
        return None
    if split_sizes > max_tuples:
        from repro.core.errors import NormalizationLimitError

        raise NormalizationLimitError(
            f"projection would normalize into {split_sizes} tuples "
            f"(limit {max_tuples})"
        )
    # Partial normalization's blow-up parameter (Section 3.4/3.8).
    COUNTERS["perf.normalize_expansion"] += split_sizes
    plan = _ProjectPlan()
    plan.cluster = cluster
    plan.cluster_order = cluster_order
    cluster_pos = {attr: idx for idx, attr in enumerate(cluster_order)}
    plan.cluster_pos = cluster_pos
    plan.k = k
    # An lrp whose period already equals k splits into itself, so it
    # skips the split.
    choices = []
    for i in cluster_order:
        lrp = lrps[i]
        period = lrp.period
        if period == 0 or period == k:
            choices.append([lrp])
        else:
            choices.append(lrp.split(k))
    plan.choices = choices
    plan.split_sizes = split_sizes
    plan.feasible = None
    # Partition the bound matrix directly (same row-major order as
    # iter_bounds): cluster bounds are transcribed to template row
    # indices (0 is the zero variable, cluster positions are 1-based),
    # outside bounds straight to output DBM *matrix cells* — every
    # non-cluster attribute survives projection (dropped ones are
    # cluster seeds by definition), and ``X_i - X_j <= b``, ``X_i <= b``
    # and ``X_i >= -b`` all store ``b`` at one ``_set`` cell.
    new_index = {attr: idx for idx, attr in enumerate(keep)}
    template_entries = []
    outside_ops = []
    b = gtuple.dbm._b
    n = gtuple.dbm._n
    for row_i in range(n):
        row = b[row_i]
        ai = row_i - 1
        in_i = ai in cluster
        for row_j in range(n):
            bound = row[row_j]
            if bound is None or row_i == row_j:
                continue
            aj = row_j - 1
            if in_i or aj in cluster:
                template_entries.append(
                    (
                        cluster_pos[ai] + 1 if ai >= 0 else 0,
                        cluster_pos[aj] + 1 if aj >= 0 else 0,
                        bound,
                    )
                )
            else:
                outside_ops.append(
                    (
                        new_index[ai] + 1 if ai >= 0 else 0,
                        new_index[aj] + 1 if aj >= 0 else 0,
                        bound,
                    )
                )
    plan.template_entries = template_entries
    plan.outside_ops = outside_ops
    plan.new_index = new_index
    dropped_set = set(dropped)
    kept_cluster = []
    kept_cluster_attrs = []
    for pos, i in enumerate(cluster_order):
        if i not in dropped_set:
            kept_cluster.append(pos)
            kept_cluster_attrs.append(i)
    plan.kept_cluster = kept_cluster
    plan.kept_cluster_attrs = kept_cluster_attrs
    plan.kept_rows = tuple([0] + [pos + 1 for pos in kept_cluster])
    plan.out_rows = [0] + [new_index[attr] + 1 for attr in kept_cluster_attrs]
    n_out = len(keep) + 1
    plan.mat_template = [
        [0 if i == j else None for j in range(n_out)] for i in range(n_out)
    ]
    if memo is None:
        memo = gtuple._plans = {}
    memo[memo_key] = plan
    return plan


def _project_combo(
    gtuple: GeneralizedTuple,
    plan: _ProjectPlan,
    combo: tuple[LRP, ...],
    keep: Sequence[int],
) -> GeneralizedTuple | None:
    """Scalar elimination of one split combo (``None`` when empty)."""
    cluster_order = plan.cluster_order
    cluster_pos = plan.cluster_pos
    k = plan.k
    offsets = {
        attr: lrp.offset for attr, lrp in zip(cluster_order, combo)
    }
    singles = {
        attr: lrp.period == 0 for attr, lrp in zip(cluster_order, combo)
    }
    n_dbm = DBM(len(cluster_order))
    for pos, lrp in enumerate(combo):
        if lrp.period == 0:
            n_dbm.add_value(pos, 0)
    # template_entries is the cluster-bound list in template row space
    # (row 0 = zero variable, cluster position + 1 otherwise), shared
    # with the batched kernel path.
    offs = [0] + [lrp.offset for lrp in combo]
    for ti, tj, bound in plan.template_entries:
        n_bound = (bound - offs[ti] + offs[tj]) // k
        ni = ti - 1
        nj = tj - 1
        if ni >= 0 and nj >= 0:
            n_dbm.add_difference(ni, nj, n_bound)
        elif nj < 0:
            n_dbm.add_upper(ni, n_bound)
        else:
            n_dbm.add_lower(nj, -n_bound)
    if not n_dbm.close():
        return None
    projected_n = n_dbm.project(plan.kept_cluster)
    if not projected_n.close():
        return None
    kept_cluster_attrs = plan.kept_cluster_attrs
    # Assemble the output tuple in `keep` order.
    lrps: list[LRP] = []
    for attr in keep:
        if attr in plan.cluster:
            lrps.append(combo[cluster_pos[attr]])
        else:
            lrps.append(gtuple.lrps[attr])
    new_index = plan.new_index
    out_dbm = DBM(len(keep))
    # Cluster constraints, mapped back to X-space.
    for i, j, bound in projected_n.iter_bounds():
        ai = kept_cluster_attrs[i] if i >= 0 else -1
        aj = kept_cluster_attrs[j] if j >= 0 else -1
        if ai >= 0 and singles[ai] and aj < 0:
            continue
        if aj >= 0 and singles[aj] and ai < 0:
            continue
        ci = offsets[ai] if ai >= 0 else 0
        cj = offsets[aj] if aj >= 0 else 0
        x_bound = k * bound + ci - cj
        ni = new_index[ai] if ai >= 0 else -1
        nj = new_index[aj] if aj >= 0 else -1
        if ni >= 0 and nj >= 0:
            out_dbm.add_difference(ni, nj, x_bound)
        elif nj < 0:
            out_dbm.add_upper(ni, x_bound)
        else:
            out_dbm.add_lower(nj, -x_bound)
    # Projecting a closed n-space system yields a closed system, and the
    # affine X-space transcription preserves the triangle inequality
    # entry for entry, so when no entry was skipped (no kept singleton
    # pins) the output is born closed — downstream canonicalization pays
    # no re-closure (any outside bounds added below re-open it with a
    # tracked edit list, keeping the incremental path eligible).
    if not any(singles[attr] for attr in kept_cluster_attrs):
        out_dbm._closed = True
        out_dbm._dirty = []
    # Outside constraints survive verbatim (they touch no cluster attr);
    # outside_ops already carries them as output-matrix cells.
    for ri, rj, bound in plan.outside_ops:
        out_dbm._set(ri, rj, bound)
    return GeneralizedTuple(tuple(lrps), out_dbm, gtuple.data)


def project_tuple_temporal(
    gtuple: GeneralizedTuple,
    keep: Sequence[int],
    dropped: Sequence[int],
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> list[GeneralizedTuple]:
    """Eliminate the ``dropped`` temporal attributes from one tuple.

    Only the constraint-connected cluster of the dropped attributes is
    normalized; attributes outside the cluster keep their lrps and
    mutual constraints untouched.  This is the scalar path
    (``REPRO_KERNEL=python``, or no numpy); it plans and enumerates
    combos exactly as :func:`_project_batched` does, residue pruning
    included, and closes each combo with :func:`_project_combo`.
    """
    planned = _planned_combos(gtuple, keep, dropped, max_tuples)
    if planned is None:
        return []  # empty tuple: empty projection
    plan, combos = planned
    results: list[GeneralizedTuple] = []
    for combo in combos:
        projected = _project_combo(gtuple, plan, combo, keep)
        if projected is not None:
            results.append(projected)
    return results


def _planned_combos(
    gtuple: GeneralizedTuple,
    keep: Sequence[int],
    dropped: Sequence[int],
    max_tuples: int,
) -> tuple[_ProjectPlan, list[tuple[LRP, ...]]] | None:
    """One tuple's plan and the combos to normalize, or ``None`` when the
    tuple is empty.

    With prefilters on, emptiness is read off the closure the tuple
    carries and its residues are tested against it.  With them off, a
    copy of the tuple's system is closed and the full product runs, so
    the naive configuration pays what it always paid.
    """
    if get_config().prefilter_enabled:
        rows = gtuple.closure()
        if rows is None:
            return None
    elif gtuple.dbm.copy().close():
        rows = None
    else:
        return None
    plan = _project_plan(gtuple, keep, dropped, max_tuples, rows)
    if plan is None:
        return None
    return plan, _combos(plan, rows)


def _residue_in_window(
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


def _residues_meet(
    lrps: Sequence[LRP], rows: tuple, attrs: Sequence[int]
) -> bool:
    """Whether the lrps of ``attrs`` can meet the closed windows ``rows``.

    The residue condition of Section 3.2.1 against the closure: the
    windows of :func:`_feasible_combos`, tested on the one combo of the
    tuple's own lrps, without building it (this runs once per tuple).
    Every point of the tuple passes, so a failure proves it empty.  Only
    the cluster attributes are tested: an empty tuple's attributes
    outside the cluster still pass through projection unchanged, and
    dropping them would change the output.
    """
    zero = rows[0]
    for pos, a in enumerate(attrs):
        lrp = lrps[a]
        row = rows[a + 1]
        low = zero[a + 1]
        if not _residue_in_window(
            lrp.offset, lrp.period, None if low is None else -low, row[0]
        ):
            return False
        for b in attrs[:pos]:
            low = rows[b + 1][a + 1]
            high = row[b + 1]
            if low is None and high is None:
                continue
            other = lrps[b]
            if not _residue_in_window(
                lrp.offset - other.offset,
                gcd(lrp.period, other.period),
                None if low is None else -low,
                high,
            ):
                return False
    return True


def _combos(
    plan: _ProjectPlan, rows: tuple | None
) -> list[tuple[LRP, ...]]:
    """The split combos of ``plan`` to normalize, in ``itertools.product``
    order.

    Without ``rows`` this is the whole product.  With ``rows``, the
    tuple's closure, only the combos whose lrps meet its closed windows
    (:func:`_feasible_combos`).  A combo left out has an n-space system
    with no integer solution, which the kernel or :func:`_project_combo`
    would reject, so the output is unchanged.  Each combo left out adds
    one to ``perf.prefilter_residue_skip``.

    ``rows`` must belong to a tuple that passed :func:`_residues_meet`
    (:func:`_project_plan` returned its plan): a product of one combo is
    then that tuple's own lrps, already tested.  The result is kept in
    ``plan.feasible``.
    """
    choices = plan.choices
    if rows is None:
        return list(itertools.product(*choices))
    if plan.feasible is None:
        if plan.split_sizes == 1:
            plan.feasible = ([tuple([lrp for (lrp,) in choices])], 0)
        else:
            plan.feasible = _feasible_combos(plan.cluster_order, choices, rows)
    combos, excluded = plan.feasible
    COUNTERS["perf.prefilter_residue_skip"] += excluded
    return combos


def _feasible_combos(
    attrs: Sequence[int], choices: list[list[LRP]], rows: tuple
) -> tuple[list[tuple[LRP, ...]], int]:
    """The combos of ``itertools.product(*choices)`` whose lrps meet the
    closed windows ``rows``, in product order, and how many were left out.

    The combos grow one position at a time, and a choice is kept only if
    it passes its own window and the windows against the choices already
    made.  ``choices[d]`` holds lrps of attribute ``attrs[d]`` that share
    one period (``k`` for split lrps, 0 for a singleton).  ``rows[i][j]`` bounds ``X_i - X_j``, with row 0 the zero
    variable and attribute ``a`` at row ``a + 1``.  A combo meets the
    windows when each ``X_a`` has a value of its lrp in
    ``[-rows[0][a+1], rows[a+1][0]]`` and each difference ``X_a - X_b``
    has a value ``≡ c_a - c_b (mod gcd(p_a, p_b))`` in
    ``[-rows[b+1][a+1], rows[a+1][b+1]]`` (exactly ``c_a - c_b`` when
    the gcd is 0).
    """
    zero = rows[0]
    partial: list[tuple[LRP, ...]] = [()]
    below = prod(len(options) for options in choices)
    excluded = 0
    for depth, a in enumerate(attrs):
        options = choices[depth]
        below //= len(options)  # combos under one choice at this depth
        row = rows[a + 1]
        low = zero[a + 1]
        low = None if low is None else -low
        fitting = [
            lrp
            for lrp in options
            if _residue_in_window(lrp.offset, lrp.period, low, row[0])
        ]
        excluded += (len(options) - len(fitting)) * below * len(partial)
        period = options[0].period
        windows = []
        for prior, b in enumerate(attrs[:depth]):
            low = rows[b + 1][a + 1]
            high = row[b + 1]
            modulus = gcd(period, choices[prior][0].period)
            if (low is None and high is None) or (
                modulus and (low is None or high is None)
            ):
                continue  # every difference fits
            windows.append(
                (prior, modulus, None if low is None else -low, high)
            )
        if not windows:
            partial = [combo + (lrp,) for combo in partial for lrp in fitting]
        else:
            extended = []
            for combo in partial:
                for lrp in fitting:
                    offset = lrp.offset
                    for prior, modulus, low, high in windows:
                        if not _residue_in_window(
                            offset - combo[prior].offset, modulus, low, high
                        ):
                            excluded += below
                            break
                    else:
                        extended.append(combo + (lrp,))
            partial = extended
        if not partial:
            break  # every subtree left out is already counted
    return partial, excluded


def _project_batched(
    tuples: list[GeneralizedTuple],
    keep: Sequence[int],
    dropped: Sequence[int],
    keep_d: Sequence[int],
    max_tuples: int,
):
    """Batched temporal elimination across a whole relation.

    Yields finished output tuples (data already projected via
    ``keep_d``) in exactly the scalar path's order: plans and combos are
    enumerated identically (:func:`_project_plan`, :func:`_combos`,
    residue pruning included); only the per-combo n-space closure,
    projection and X-space transcription run as grouped vectorized
    sweeps in :func:`repro.perf.kernel.project_batch`.  With prefilters
    on, a tuple is satisfiable iff its carried closure exists, so no
    tuple is closed here.  Combos with singleton splits take the scalar
    combo path (their n-space pins are not template-expressible), as do
    whole groups the kernel rejects for exactness.
    """
    plans: list[_ProjectPlan | None] = []
    jobs: list[tuple] = []
    combo_refs: list[list[tuple] | None] = []
    for gtuple in tuples:
        planned = _planned_combos(gtuple, keep, dropped, max_tuples)
        if planned is None:
            plans.append(None)
            combo_refs.append(None)
            continue
        plan, combos = planned
        plans.append(plan)
        template = None
        template_usable = True
        refs: list[tuple] = []
        for combo in combos:
            if any(lrp.period == 0 for lrp in combo):
                refs.append((combo, None))
                continue
            if template is None and template_usable:
                template = kernel.bounds_template(
                    plan.template_entries, len(plan.cluster_order) + 1
                )
                template_usable = template is not None
            if template is None:
                refs.append((combo, None))
                continue
            offsets = (0,) + tuple(lrp.offset for lrp in combo)
            jobs.append(
                (template[0], template[1], offsets, plan.k, plan.kept_rows)
            )
            refs.append((combo, len(jobs) - 1))
        combo_refs.append(refs)
    job_results = kernel.project_batch(jobs) if jobs else []
    for gtuple, plan, refs in zip(tuples, plans, combo_refs):
        if plan is None:
            continue
        data = tuple(gtuple.data[i] for i in keep_d)
        for combo, job_idx in refs:
            if job_idx is None or job_results[job_idx] is kernel.SCALAR:
                projected = _project_combo(gtuple, plan, combo, keep)
                if projected is not None:
                    yield GeneralizedTuple(
                        lrps=projected.lrps, dbm=projected.dbm, data=data
                    )
                continue
            result = job_results[job_idx]
            if result is not None:
                yield _assemble_projected(
                    gtuple, plan, combo, keep, result, data
                )


def _assemble_projected(
    gtuple: GeneralizedTuple,
    plan: _ProjectPlan,
    combo: tuple[LRP, ...],
    keep: Sequence[int],
    x_bounds: list[list[int | None]],
    data: tuple,
) -> GeneralizedTuple:
    """Build one output tuple from a kernel-transcribed X-space matrix.

    ``x_bounds`` is the closed bound matrix over ``plan.kept_rows``; it
    is installed directly as a closed DBM (the transcription preserves
    closure), then any outside bounds re-open it with tracked edits.
    """
    cluster_pos = plan.cluster_pos
    cluster = plan.cluster
    lrps = tuple(
        combo[cluster_pos[attr]] if attr in cluster else gtuple.lrps[attr]
        for attr in keep
    )
    mat: list[list[int | None]] = [row[:] for row in plan.mat_template]
    out_rows = plan.out_rows
    for a, ra in enumerate(out_rows):
        x_row = x_bounds[a]
        row = mat[ra]
        for b, rb in enumerate(out_rows):
            if a != b and x_row[b] is not None:
                row[rb] = x_row[b]
    out_dbm = DBM.__new__(DBM)
    out_dbm._n = len(mat)
    out_dbm._b = mat
    out_dbm._closed = True
    out_dbm._dirty = []
    for ri, rj, bound in plan.outside_ops:
        out_dbm._set(ri, rj, bound)
    # Bypass the dataclass __init__: lrps/data are already tuples and
    # the arity invariant holds by construction.
    out = GeneralizedTuple.__new__(GeneralizedTuple)
    out.lrps = lrps
    out.dbm = out_dbm
    out.data = data
    out._key = None
    out._skey = None
    out._plans = None
    return out


def _constraint_cluster(
    gtuple: GeneralizedTuple, seeds: Sequence[int]
) -> set[int]:
    """Attributes transitively constraint-connected to the ``seeds``."""
    b = gtuple.dbm._b
    arity = gtuple.temporal_arity
    cluster = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        row = b[node + 1]
        for other in range(arity):
            if other not in cluster and (
                row[other + 1] is not None
                or b[other + 1][node + 1] is not None
            ):
                cluster.add(other)
                frontier.append(other)
    return cluster


# ----------------------------------------------------------------------
# selection (Section 3.5)
# ----------------------------------------------------------------------


@_traced("select")
def select(
    relation: GeneralizedRelation, condition: str | Sequence[Atom]
) -> GeneralizedRelation:
    """Add restricted constraints to every tuple (Section 3.5).

    The condition refers to the schema's temporal attribute names; data
    selections go through :func:`select_data`.  Each tuple keeps its
    written constraints plus the condition's.  Satisfiability is decided
    by conjoining the condition's few bounds into the closure the tuple
    already carries (:meth:`DBM.conjoin_closed`; the closure of
    ``closure(D) ∧ E`` is that of ``D ∧ E``), and that result becomes
    the new tuple's canonical key, so nothing is closed from scratch.
    With incremental closure off (``REPRO_NO_INCREMENTAL``) each
    conjunction is closed from its written form instead.
    """
    atoms = (
        parse_atoms(condition) if isinstance(condition, str) else list(condition)
    )
    for atom in atoms:
        _check_temporal_atom(relation.schema, atom)
    extra = atoms_to_dbm(atoms, relation.schema.temporal_names)
    out = GeneralizedRelation.empty(relation.schema)
    incremental = get_config().incremental_enabled
    for gtuple in relation:
        # The stored constraint set stays as written (negation cost
        # tracks the written atoms); satisfiability is decided on the
        # side, on a closed copy.
        merged = gtuple.dbm.intersect(extra)
        if not incremental:
            if merged.copy().close():
                out.add(GeneralizedTuple(gtuple.lrps, merged, gtuple.data))
            continue
        carried = gtuple.closure()
        if carried is None:
            continue
        closed = DBM.from_closure(carried)
        if not closed.conjoin_closed(extra):
            continue
        selected = GeneralizedTuple(gtuple.lrps, merged, gtuple.data)
        selected._key = (
            gtuple.lrps,
            tuple(tuple(row) for row in closed._b),
            gtuple.data,
        )
        out.add(selected)
    return out


def _check_temporal_atom(schema: Schema, atom: Atom) -> None:
    names = set(schema.temporal_names)
    if atom.left not in names:
        raise SchemaError(
            f"selection atom {atom} references non-temporal or unknown "
            f"attribute {atom.left!r}"
        )
    if isinstance(atom, VarVarAtom) and atom.right not in names:
        raise SchemaError(
            f"selection atom {atom} references non-temporal or unknown "
            f"attribute {atom.right!r}"
        )


@_traced("select_data")
def select_data(
    relation: GeneralizedRelation, name: str, value: Hashable
) -> GeneralizedRelation:
    """Keep tuples whose data attribute ``name`` equals ``value``."""
    idx = relation.schema.data_index(name)
    out = GeneralizedRelation.empty(relation.schema)
    for gtuple in relation:
        if gtuple.data[idx] == value:
            out.add(gtuple)
    return out


@_traced("select_data_equal")
def select_data_equal(
    relation: GeneralizedRelation, name1: str, name2: str
) -> GeneralizedRelation:
    """Keep tuples whose data attributes ``name1`` and ``name2`` coincide."""
    i1 = relation.schema.data_index(name1)
    i2 = relation.schema.data_index(name2)
    out = GeneralizedRelation.empty(relation.schema)
    for gtuple in relation:
        if gtuple.data[i1] == gtuple.data[i2]:
            out.add(gtuple)
    return out


# ----------------------------------------------------------------------
# cross product and join (Sections 3.6, 3.7)
# ----------------------------------------------------------------------


@_traced("product", pairwise=True)
def product(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Cross product: all tuple combinations, constraints side by side."""
    overlap = set(r1.schema.names) & set(r2.schema.names)
    if overlap:
        raise SchemaError(
            f"cross product requires disjoint attribute names; shared: "
            f"{sorted(overlap)} (rename first)"
        )
    new_schema = Schema(r1.schema.attributes + r2.schema.attributes)
    a1 = r1.schema.temporal_arity
    a2 = r2.schema.temporal_arity
    rows1 = range(a1 + 1)
    rows2 = [0] + [a1 + 1 + i for i in range(a2)]
    out = GeneralizedRelation.empty(new_schema)
    carried = get_config().prefilter_enabled

    def satisfiable(t: GeneralizedTuple) -> bool:
        if carried:
            return t.closure() is not None
        return t.dbm.copy().close()

    for t1 in r1:
        if not satisfiable(t1):
            continue  # empty tuple: nothing to combine
        for t2 in r2:
            if not satisfiable(t2):
                continue
            dbm = _assemble_dbm(a1 + a2, ((t1.dbm, rows1), (t2.dbm, rows2)))
            out.add(
                GeneralizedTuple(
                    lrps=t1.lrps + t2.lrps,
                    dbm=dbm,
                    data=t1.data + t2.data,
                )
            )
    return out


@_traced("join", pairwise=True)
def join(
    r1: GeneralizedRelation,
    r2: GeneralizedRelation,
    condition: str | Sequence[Atom] = (),
) -> GeneralizedRelation:
    """Natural join on all shared attribute names (Section 3.7),
    optionally restricted by a selection ``condition`` (a theta-join).

    Shared temporal attributes are intersected (lrp CRT + constraint
    union); shared data attributes must hold equal values.  The result
    schema is ``r1``'s attributes followed by ``r2``'s non-shared ones,
    and ``condition`` refers to its temporal attribute names.

    The data side is a hash join: ``r2`` is partitioned once on its
    shared data columns (one bucket when there are none) and each ``r1``
    tuple is paired only with the bucket carrying its values.  With
    prefilters on, each bucket is also indexed by lrp residue
    (Section 3.2.1, :func:`_pairs`): on the first shared temporal
    attribute or, without one, on the condition's first two-sided
    window between a left and a right attribute.  A pair whose lrps
    cannot meet there is never formed.  The remaining pairs are tested
    against the condition's other windows and the closures the stored
    tuples carry.

    Each candidate's constraints are both sides' plus the condition's,
    assembled in one pass, and closed once.  Without a condition the
    result is tuple-for-tuple that of the double loop.  With one, it is
    that of ``select(join(r1, r2), condition)`` minus the tuples whose
    lrps cannot meet the condition's windows (each denotes the empty
    set); with prefilters off nothing is removed.
    """
    shared = [a for a in r1.schema.attributes if r2.schema.has(a.name)]
    for attr in shared:
        other = r2.schema.attribute(attr.name)
        if other.temporal != attr.temporal:
            raise SchemaError(
                f"attribute {attr.name!r} is temporal on one side and "
                "data on the other"
            )
    r2_only = [a for a in r2.schema.attributes if not r1.schema.has(a.name)]
    new_schema = Schema(r1.schema.attributes + tuple(r2_only))
    result_t_names = new_schema.temporal_names
    atoms = (
        parse_atoms(condition) if isinstance(condition, str) else list(condition)
    )
    for atom in atoms:
        _check_temporal_atom(new_schema, atom)
    out = GeneralizedRelation.empty(new_schema)
    shared_t = [
        (r1.schema.temporal_index(a.name), r2.schema.temporal_index(a.name))
        for a in shared
        if a.temporal
    ]
    shared_d = [
        (r1.schema.data_index(a.name), r2.schema.data_index(a.name))
        for a in shared
        if not a.temporal
    ]
    d2_only_idx = [
        r2.schema.data_index(a.name) for a in r2_only if not a.temporal
    ]
    t2_only = [
        (r2.schema.temporal_index(a.name), result_t_names.index(a.name))
        for a in r2_only
        if a.temporal
    ]
    a1 = r1.schema.temporal_arity
    arity = len(result_t_names)
    pre = get_config().prefilter_enabled
    # Matrix row maps for the DBM assembler (row 0 is the zero variable).
    # The result's temporal attributes are r1's, then r2's own.
    rows1 = range(a1 + 1)
    rows2 = [0] + [
        result_t_names.index(n) + 1 for n in r2.schema.temporal_names
    ]
    conditioned: tuple[tuple[DBM, range], ...] = ()
    windows: list[tuple[int, int | None, int | None, int | None]] = []
    if atoms:
        extra = atoms_to_dbm(atoms, result_t_names)
        if not extra.copy().close():
            return out
        conditioned = ((extra, range(arity + 1)),)
        if pre:
            windows = _windows(extra)
    window = None
    skip = "perf.prefilter_lrp_skip"
    if shared_t:
        window = (*shared_t[0], 0, 0)
    else:
        right = {pos: i2 for i2, pos in t2_only}
        for found in windows:
            a, b, low, high = found
            if b is not None and b < a1 <= a and None not in (low, high):
                windows.remove(found)
                window = (b, right[a], low, high)
                skip = "perf.prefilter_residue_skip"
                break
    context = (
        rows1,
        rows2,
        conditioned,
        shared_t,
        t2_only,
        d2_only_idx,
        windows,
        arity,
        pre,
    )
    idx1 = [i for i, _ in shared_d]
    idx2 = [j for _, j in shared_d]
    candidates = [
        _join_candidate(t1, t2, context)
        for t1, t2 in _pairs(
            r1,
            r2,
            lambda t: tuple([t.data[i] for i in idx1]),
            lambda t: tuple([t.data[j] for j in idx2]),
            window,
            skip,
        )
    ]
    for joined in _close_candidates(candidates):
        if joined is not None:
            out.add(joined)
    return out


def _windows(
    extra: DBM,
) -> list[tuple[int, int | None, int | None, int | None]]:
    """The windows ``(a, b, low, high)`` a condition's DBM places on
    ``x_a - x_b`` (``b = None``: on ``x_a``), ``None`` an open end.

    Pairs come with ``a > b``, each after ``a``'s own bounds, in
    row order.
    """
    rows = extra._b
    out: list[tuple[int, int | None, int | None, int | None]] = []
    for a in range(len(rows) - 1):
        row = rows[a + 1]
        for b in (None, *range(a)):
            j = 0 if b is None else b + 1
            low = rows[j][a + 1]
            high = row[j]
            if low is not None or high is not None:
                out.append((a, b, None if low is None else -low, high))
    return out


def _join_candidate(
    t1: GeneralizedTuple, t2: GeneralizedTuple, context: tuple
) -> GeneralizedTuple | None:
    """The candidate joined tuple of a data-matching pair, before its
    satisfiability check."""
    (
        rows1,
        rows2,
        conditioned,
        shared_t,
        t2_only,
        d2_only_idx,
        windows,
        arity,
        pre,
    ) = context
    if pre:
        # The residue index of :func:`_pairs` already paired the first
        # shared temporal attribute exactly; test only the others.
        if not prefilter.lrps_compatible(t1.lrps, t2.lrps, shared_t[1:]):
            COUNTERS["perf.prefilter_lrp_skip"] += 1
            return None
        closed1 = t1.closure()
        if closed1 is None:
            return None
        closed2 = t2.closure()
        if closed2 is None:
            return None
        if shared_t and not prefilter.intervals_compatible(
            closed1, closed2, shared_t
        ):
            COUNTERS["perf.prefilter_interval_skip"] += 1
            return None
    else:
        if not t1.dbm.copy().close() or not t2.dbm.copy().close():
            return None
    lrps: list[LRP | None] = [*t1.lrps, *[None] * len(t2_only)]
    for i1, i2 in shared_t:
        meet = t1.lrps[i1].intersect(t2.lrps[i2])
        if meet is None:
            return None
        lrps[i1] = meet
    for i2, pos in t2_only:
        lrps[pos] = t2.lrps[i2]
    for a, b, low, high in windows:
        lrp = lrps[a]
        if b is None:
            meets = _residue_in_window(lrp.offset, lrp.period, low, high)
        else:
            other = lrps[b]
            meets = _residue_in_window(
                lrp.offset - other.offset,
                gcd(lrp.period, other.period),
                low,
                high,
            )
        if not meets:
            COUNTERS["perf.prefilter_residue_skip"] += 1
            return None
    dbm = _assemble_dbm(
        arity, ((t1.dbm, rows1), (t2.dbm, rows2), *conditioned)
    )
    data = t1.data + tuple(t2.data[i] for i in d2_only_idx)
    return GeneralizedTuple(tuple(lrps), dbm, data)


# ----------------------------------------------------------------------
# complement (Appendix A.6)
# ----------------------------------------------------------------------


@_traced("complement")
def complement(
    relation: GeneralizedRelation,
    data_domains: dict[str, Sequence[Hashable]] | None = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    max_extensions: int = DEFAULT_MAX_EXTENSIONS,
) -> GeneralizedRelation:
    """Complement w.r.t. ``Z^k`` on the temporal sort.

    Purely temporal relations need no extra input.  Relations with data
    attributes need ``data_domains``: a finite universe per data
    attribute (the temporal sort is still complemented symbolically over
    all of Z).
    """
    schema = relation.schema
    arity = schema.temporal_arity
    if schema.data_arity == 0:
        tuples = complement_tuples(
            list(relation),
            arity=arity,
            max_tuples=max_tuples,
            max_extensions=max_extensions,
        )
        return GeneralizedRelation(schema, tuples)
    if data_domains is None:
        raise DomainError(
            "complement of a relation with data attributes requires "
            "data_domains (a finite universe per data attribute)"
        )
    for name in schema.data_names:
        if name not in data_domains:
            raise DomainError(f"data_domains is missing attribute {name!r}")
    import itertools

    by_data: dict[tuple, list[GeneralizedTuple]] = {}
    for gtuple in relation:
        by_data.setdefault(gtuple.data, []).append(gtuple)
    out = GeneralizedRelation.empty(schema)
    domains = [list(data_domains[name]) for name in schema.data_names]
    for data in itertools.product(*domains):
        group = by_data.get(tuple(data), [])
        for t in complement_tuples(
            group,
            arity=arity,
            data=tuple(data),
            max_tuples=max_tuples,
            max_extensions=max_extensions,
        ):
            out.add(t)
    return out


# ----------------------------------------------------------------------
# renaming and shifting (support operations for the query engine)
# ----------------------------------------------------------------------


@_traced("rename")
def rename(
    relation: GeneralizedRelation, mapping: dict[str, str]
) -> GeneralizedRelation:
    """Rename attributes; tuple contents are untouched."""
    for old in mapping:
        if not relation.schema.has(old):
            raise SchemaError(f"cannot rename unknown attribute {old!r}")
    new_attrs = tuple(
        Attribute(mapping.get(a.name, a.name), a.temporal)
        for a in relation.schema.attributes
    )
    # Keys do not depend on attribute names: the copy's tuples and key
    # set carry over without re-inserting.
    out = relation.copy()
    out.schema = Schema(new_attrs)
    return out


@_traced("shift_column")
def shift_column(
    relation: GeneralizedRelation, name: str, delta: int
) -> GeneralizedRelation:
    """Shift a temporal column: each point's ``name`` value moves by ``delta``.

    Used to evaluate successor terms: the atom ``P(t + c, ...)`` holds
    exactly when ``(t + c, ...) ∈ P``, i.e. ``t`` ranges over ``P``'s
    first column shifted by ``-c``.
    """
    if delta == 0:
        return relation
    idx = relation.schema.temporal_index(name)
    out = GeneralizedRelation.empty(relation.schema)
    for gtuple in relation:
        lrp = gtuple.lrps[idx]
        shifted = LRP.make(lrp.offset + delta, lrp.period)
        lrps = list(gtuple.lrps)
        lrps[idx] = shifted
        out.add(
            GeneralizedTuple(
                tuple(lrps),
                gtuple.dbm.shift_variable(idx, delta),
                gtuple.data,
            )
        )
    return out


def equivalent(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> bool:
    """Semantic equality: both differences are empty."""
    return subtract(r1, r2).is_empty() and subtract(r2, r1).is_empty()
