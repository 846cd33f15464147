"""Exact optimization of linear objectives over generalized tuples.

``MINIMIZE``/``MAXIMIZE`` ask for the extremum of ``Xi`` or ``Xi - Xj``
over the (possibly infinite) point set of a generalized relation.  The
answer is computed *exactly*, never by sampling:

* **Unboundedness** is decided from the canonical (shortest-path
  closed) DBM with singleton lrps pinned.  A missing closure entry
  (``Xi`` has no lower bound, say) is turned into a constructive
  certificate: a concrete witness point plus a set of coordinates that
  can be shifted by multiples of the lcm of their lrp periods while
  staying inside the tuple — closure transitivity guarantees no finite
  difference constraint crosses into the shifted set, and periodicity
  guarantees lrp membership is preserved.  The objective then improves
  without bound along the shift family.

* **Finite optima** are found by a monotone pinning search: the
  minimum of ``Xi`` is the least ``m`` such that ``tuple ∧ Xi <= m`` is
  nonempty, a monotone predicate probed with the fuzz-verified
  emptiness decision (:func:`repro.core.emptiness.tuple_is_empty`) and
  binary-searched over the CRT-compatible candidate ladder: members of
  ``Xi``'s lrp for a single variable, the residue class
  ``(oi - oj) mod gcd(pi, pj)`` for a difference.  The DBM closure
  bound caps one end of the ladder, a concrete witness point seeds the
  other, so the search always terminates with the exact optimum.

Aggregation across a relation keeps argmin/argmax provenance: the
:class:`OptimizationResult` names the tuple that attains the optimum
and a concrete point witnessing it (or the unboundedness certificate).
It is a branch-and-bound over the tuples: each tuple's closure bound
relaxes its optimum, so the exact search runs best bound first and
stops once no remaining bound can beat the best exact answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.obs.metrics import COUNTERS
from repro.core.dbm import DBM
from repro.core.emptiness import tuple_is_empty, tuple_witness
from repro.core.errors import ReproValueError
from repro.core.lrp import common_period
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.core.tuples import GeneralizedTuple
from repro.optimize.objective import Objective

__all__ = [
    "OptimizationResult",
    "TupleOptimum",
    "UnboundedCertificate",
    "optimize_relation",
    "optimize_tuple",
]


@dataclass(frozen=True)
class UnboundedCertificate:
    """A constructive proof that an objective has no finite optimum.

    Starting from ``point`` (a concrete member of the tuple), shifting
    the coordinates in ``coordinates`` by ``steps * direction * period``
    yields, for every ``steps >= 0``, another member of the tuple along
    which the objective strictly improves.
    """

    point: tuple[int, ...]
    coordinates: tuple[int, ...]
    period: int
    direction: int  # +1: shift up, -1: shift down

    def shifted(self, steps: int) -> tuple[int, ...]:
        """The certificate's witness point after ``steps`` shifts."""
        delta = steps * self.direction * self.period
        return tuple(
            value + delta if index in self.coordinates else value
            for index, value in enumerate(self.point)
        )

    def to_dict(self) -> dict:
        """JSON-safe rendering (for the serve wire protocol)."""
        return {
            "point": list(self.point),
            "coordinates": list(self.coordinates),
            "period": self.period,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class TupleOptimum:
    """The optimum of an objective over one generalized tuple."""

    status: str  # "optimal" | "unbounded" | "empty"
    value: int | None = None
    witness: tuple[int, ...] | None = None
    certificate: UnboundedCertificate | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """The optimum of an objective over a whole relation.

    ``status`` is ``"optimal"`` (finite optimum, with ``value``, a
    concrete ``witness`` point and the ``argopt`` tuple attaining it),
    ``"unbounded"`` (no finite optimum; ``certificate`` proves it), or
    ``"empty"`` (the relation has no points at all).
    """

    sense: str  # "min" | "max"
    objective: Objective
    status: str  # "optimal" | "unbounded" | "empty"
    value: int | None = None
    witness: tuple[int, ...] | None = None
    argopt: GeneralizedTuple | None = None
    certificate: UnboundedCertificate | None = None
    tuples_examined: int = 0
    schema: object | None = None  # the optimized relation's Schema

    @property
    def infinity(self) -> str | None:
        """``"-inf"``/``"+inf"`` for unbounded results, else ``None``."""
        if self.status != "unbounded":
            return None
        return "-inf" if self.sense == "min" else "+inf"

    def argopt_restriction(self, schema=None) -> GeneralizedRelation:
        """The argopt tuple restricted to objective = optimum.

        This is the *relational* face of the result — what an
        ``Optimize`` plan node evaluates to: the tuple attaining the
        optimum with the objective pinned to its optimal value, or the
        empty relation when the input was empty or unbounded (no point
        attains ``±∞``).  ``schema`` defaults to the schema of the
        relation that was optimized.
        """
        if schema is None:
            schema = self.schema
        out = GeneralizedRelation.empty(schema)
        if self.status != "optimal" or self.argopt is None:
            return out
        i = schema.temporal_index(self.objective.name)
        dbm = self.argopt.dbm.copy()
        if self.objective.minus is None:
            dbm.add_value(i, self.value)
        else:
            j = schema.temporal_index(self.objective.minus)
            dbm.add_difference(i, j, self.value)
            dbm.add_difference(j, i, -self.value)
        out.add(
            GeneralizedTuple(
                lrps=self.argopt.lrps, dbm=dbm, data=self.argopt.data
            )
        )
        return out

    def to_dict(self) -> dict:
        """JSON-safe rendering (for the serve wire protocol)."""
        return {
            "sense": self.sense,
            "objective": str(self.objective),
            "status": self.status,
            "value": self.value if self.status == "optimal" else self.infinity,
            "witness": list(self.witness) if self.witness else None,
            "argopt": str(self.argopt) if self.argopt is not None else None,
            "certificate": (
                self.certificate.to_dict() if self.certificate else None
            ),
            "tuples_examined": self.tuples_examined,
        }

    def __str__(self) -> str:
        head = f"{self.sense} {self.objective}"
        if self.status == "empty":
            return f"{head}: relation is empty"
        if self.status == "unbounded":
            cert = self.certificate
            lines = [f"{head} = {self.infinity} (unbounded)"]
            if cert is not None:
                sign = "+" if cert.direction > 0 else "-"
                lines.append(
                    f"  certificate: from point {cert.point} shift "
                    f"coordinates {list(cert.coordinates)} by "
                    f"{sign}{cert.period}k"
                )
            if self.argopt is not None:
                lines.append(f"  tuple: {self.argopt}")
            return "\n".join(lines)
        lines = [f"{head} = {self.value}"]
        if self.witness is not None:
            lines.append(f"  witness: {self.witness}")
        if self.argopt is not None:
            lines.append(f"  argopt: {self.argopt}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-tuple optimization
# ----------------------------------------------------------------------


def _pinned_closure(gtuple: GeneralizedTuple) -> DBM | None:
    """The tuple's closure with singleton lrps pinned (``None`` if empty).

    The raw DBM does not know that a period-0 lrp fixes its coordinate;
    folding those pins in before closing makes the closure entries an
    exact boundedness oracle (periodic lrps are bi-infinite, so they
    never bound anything on their own).  The pins are added to the
    closure the tuple already carries, so only they are closed over.
    """
    carried = gtuple.closure()
    if carried is None:
        return None
    dbm = DBM.from_closure(carried)
    for index, lrp in enumerate(gtuple.lrps):
        if lrp.period == 0:
            dbm.add_value(index, lrp.offset)
    return dbm if dbm.close() else None


def _relaxation(
    dbm: DBM, sense: str, i: int, j: int | None
) -> int | None:
    """The pinned closure's bound on the objective, as a sort key.

    Keys order optima best-first: the key of a minimum is its value,
    the key of a maximum its negation.  A tuple's exact optimum never
    beats its closure bound, so its key is ``>=`` the one returned
    here.  ``None`` means the closure leaves the objective unbounded
    (the bound :func:`optimize_tuple` reads is missing).
    """
    if j is None:
        bound = dbm.bound(-1, i) if sense == "min" else dbm.bound(i, -1)
    else:
        bound = dbm.bound(j, i) if sense == "min" else dbm.bound(i, j)
    return None if bound is None else -bound


def _probe(
    gtuple: GeneralizedTuple,
    constrain,
    max_tuples: int,
) -> bool:
    """Is the tuple restricted by ``constrain(dbm)`` nonempty?"""
    COUNTERS["optimize.probes"] += 1
    dbm = gtuple.dbm.copy()
    constrain(dbm)
    probe = GeneralizedTuple(lrps=gtuple.lrps, dbm=dbm, data=gtuple.data)
    return not tuple_is_empty(probe, max_tuples)


def _shift_certificate(
    gtuple: GeneralizedTuple,
    coordinates: tuple[int, ...],
    direction: int,
    max_tuples: int,
) -> UnboundedCertificate:
    point = tuple_witness(gtuple, max_tuples)
    if point is None:  # pragma: no cover - caller checks emptiness first
        raise ReproValueError("cannot optimize over an empty tuple")
    period = common_period([gtuple.lrps[v] for v in coordinates])
    return UnboundedCertificate(
        point=point,
        coordinates=coordinates,
        period=period,
        direction=direction,
    )


def _unbounded_single(
    gtuple: GeneralizedTuple,
    dbm: DBM,
    i: int,
    sense: str,
    max_tuples: int,
) -> UnboundedCertificate:
    """Certificate for an unbounded single-variable objective.

    For min: every coordinate with no closure lower bound can be
    shifted down together; for max, symmetrically up.
    """
    if sense == "min":
        coords = tuple(
            v
            for v in range(gtuple.temporal_arity)
            if dbm.bound(-1, v) is None
        )
        direction = -1
    else:
        coords = tuple(
            v
            for v in range(gtuple.temporal_arity)
            if dbm.bound(v, -1) is None
        )
        direction = 1
    return _shift_certificate(gtuple, coords, direction, max_tuples)


def _unbounded_difference(
    gtuple: GeneralizedTuple,
    dbm: DBM,
    i: int,
    j: int,
    max_tuples: int,
) -> UnboundedCertificate:
    """Certificate for unbounded ``max(Xi - Xj)`` (``b[i][j]`` missing).

    The set ``T = {v : b[v][j] = None}`` contains ``i`` and can be
    shifted up as a block — unless the implicit zero variable is in
    ``T``, in which case the complement (which contains ``j``) is
    shifted down instead.  Either way ``Xi - Xj`` grows without bound.
    """
    arity = gtuple.temporal_arity
    if dbm.bound(-1, j) is None:
        # Zero variable is in T: shift the complement (incl. Xj) down.
        coords = tuple(v for v in range(arity) if dbm.bound(v, j) is not None)
        direction = -1
    else:
        coords = tuple(v for v in range(arity) if dbm.bound(v, j) is None)
        direction = 1
    return _shift_certificate(gtuple, coords, direction, max_tuples)


def _search_min_single(
    gtuple: GeneralizedTuple, i: int, floor: int, max_tuples: int
) -> int:
    """Least attainable value of ``Xi`` (known finite, ``>= floor``)."""
    lrp = gtuple.lrps[i]
    if lrp.period == 0:
        return lrp.offset
    low = lrp.first_at_or_above(floor)
    witness = tuple_witness(gtuple, max_tuples)
    high = witness[i]
    lo_k, hi_k = 0, (high - low) // lrp.period
    while lo_k < hi_k:
        mid = (lo_k + hi_k) // 2
        candidate = low + mid * lrp.period
        if _probe(gtuple, lambda d: d.add_upper(i, candidate), max_tuples):
            hi_k = mid
        else:
            lo_k = mid + 1
    return low + lo_k * lrp.period


def _search_max_single(
    gtuple: GeneralizedTuple, i: int, ceiling: int, max_tuples: int
) -> int:
    """Greatest attainable value of ``Xi`` (known finite, ``<= ceiling``)."""
    lrp = gtuple.lrps[i]
    if lrp.period == 0:
        return lrp.offset
    witness = tuple_witness(gtuple, max_tuples)
    low = witness[i]
    high = lrp.last_at_or_below(ceiling)
    lo_k, hi_k = 0, (high - low) // lrp.period
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        candidate = low + mid * lrp.period
        if _probe(gtuple, lambda d: d.add_lower(i, candidate), max_tuples):
            lo_k = mid
        else:
            hi_k = mid - 1
    return low + lo_k * lrp.period


def _search_max_difference(
    gtuple: GeneralizedTuple, i: int, j: int, ceiling: int, max_tuples: int
) -> int:
    """Greatest attainable ``Xi - Xj`` (known finite, ``<= ceiling``).

    Attainable differences live in the residue class
    ``(oi - oj) mod gcd(pi, pj)``; a witness point seeds the ladder
    from below, the closure bound caps it from above.
    """
    step = math.gcd(gtuple.lrps[i].period, gtuple.lrps[j].period)
    witness = tuple_witness(gtuple, max_tuples)
    low = witness[i] - witness[j]
    if step == 0:
        # Both coordinates are singletons: the difference is fixed.
        return low
    high = low + ((ceiling - low) // step) * step

    def feasible(m: int) -> bool:
        # Xi - Xj >= m  ==  Xj - Xi <= -m
        return _probe(gtuple, lambda d: d.add_difference(j, i, -m), max_tuples)

    lo_k, hi_k = 0, (high - low) // step
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if feasible(low + mid * step):
            lo_k = mid
        else:
            hi_k = mid - 1
    return low + lo_k * step


def _witness_at(
    gtuple: GeneralizedTuple,
    i: int,
    j: int | None,
    value: int,
    max_tuples: int,
) -> tuple[int, ...] | None:
    """A concrete point of the tuple attaining the optimum."""
    dbm = gtuple.dbm.copy()
    if j is None:
        dbm.add_value(i, value)
    else:
        dbm.add_difference(i, j, value)
        dbm.add_difference(j, i, -value)
    pinned = GeneralizedTuple(lrps=gtuple.lrps, dbm=dbm, data=gtuple.data)
    return tuple_witness(pinned, max_tuples)


def optimize_tuple(
    gtuple: GeneralizedTuple,
    sense: str,
    i: int,
    j: int | None = None,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> TupleOptimum:
    """Exact optimum of ``Xi`` (or ``Xi - Xj``) over one tuple.

    ``sense`` is ``"min"`` or ``"max"``; ``i``/``j`` are 0-based
    temporal coordinate indices.  Returns a :class:`TupleOptimum` whose
    status is ``"empty"``, ``"unbounded"`` (with a shift certificate),
    or ``"optimal"`` (with the exact value and a witness point).
    """
    if sense not in ("min", "max"):
        raise ReproValueError(f"sense must be 'min' or 'max', got {sense!r}")
    arity = gtuple.temporal_arity
    for index in (i,) if j is None else (i, j):
        if not 0 <= index < arity:
            raise ReproValueError(
                f"objective coordinate {index} out of range for arity {arity}"
            )
    if j == i:
        raise ReproValueError("objective Xi - Xi is identically zero")
    with obs.span("optimize.tuple", sense=sense):
        COUNTERS["optimize.tuples"] += 1
        if tuple_is_empty(gtuple, max_tuples):
            return TupleOptimum(status="empty")
        dbm = _pinned_closure(gtuple)
        if dbm is None:  # pragma: no cover - emptiness was checked above
            raise ReproValueError("cannot optimize over an empty tuple")
        if j is None:
            bound = dbm.lower(i) if sense == "min" else dbm.upper(i)
            if bound is None:
                COUNTERS["optimize.unbounded"] += 1
                certificate = _unbounded_single(
                    gtuple, dbm, i, sense, max_tuples
                )
                return TupleOptimum(
                    status="unbounded", certificate=certificate
                )
            if sense == "min":
                value = _search_min_single(gtuple, i, bound, max_tuples)
            else:
                value = _search_max_single(gtuple, i, bound, max_tuples)
        else:
            # min(Xi - Xj) == -max(Xj - Xi): one search routine suffices.
            a, b = (j, i) if sense == "min" else (i, j)
            bound = dbm.bound(a, b)
            if bound is None:
                COUNTERS["optimize.unbounded"] += 1
                certificate = _unbounded_difference(
                    gtuple, dbm, a, b, max_tuples
                )
                return TupleOptimum(
                    status="unbounded", certificate=certificate
                )
            value = _search_max_difference(gtuple, a, b, bound, max_tuples)
            if sense == "min":
                value = -value
        witness = _witness_at(gtuple, i, j, value, max_tuples)
        return TupleOptimum(status="optimal", value=value, witness=witness)


# ----------------------------------------------------------------------
# relation-level aggregation
# ----------------------------------------------------------------------


def optimize_relation(
    relation: GeneralizedRelation,
    objective: Objective,
    sense: str,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> OptimizationResult:
    """Exact optimum of ``objective`` across every tuple of a relation.

    Empty tuples are skipped; any unbounded tuple makes the whole
    relation unbounded (its certificate and tuple are reported); the
    finite case keeps argmin/argmax provenance — which tuple attains
    the global optimum, and a concrete witness point inside it.

    The answer is that of optimizing every tuple in relation order and
    keeping the first unbounded tuple, else the first tuple attaining
    the best value, but it is found by branch-and-bound.  Each tuple's
    pinned closure bounds its optimum (:func:`_relaxation`), read off
    the closure the tuple carries.  Tuples the closure leaves unbounded
    are tried first, in relation order; the first nonempty one is the
    answer.  Otherwise tuples run the exact search best bound first,
    ties by relation index, until no remaining bound can beat the best
    exact answer (or tie it from an earlier index).  Tuples that cannot
    hold the optimum are never searched.  ``tuples_examined`` keeps its
    meaning: the tuples the relation-order scan would have visited.
    """
    schema = relation.schema
    i = schema.temporal_index(objective.name)
    j = (
        schema.temporal_index(objective.minus)
        if objective.minus is not None
        else None
    )
    with obs.span(
        "optimize.relation", sense=sense, objective=str(objective)
    ) as sp:
        COUNTERS["optimize.relations"] += 1
        tuples = list(relation)
        bounded: list[tuple[int, int]] = []
        for index, gtuple in enumerate(tuples):
            dbm = _pinned_closure(gtuple)
            if dbm is None:
                continue  # empty: its optimum cannot exist
            key = _relaxation(dbm, sense, i, j)
            if key is not None:
                bounded.append((key, index))
                continue
            outcome = optimize_tuple(
                gtuple, sense, i, j, max_tuples=max_tuples
            )
            if outcome.status == "unbounded":
                sp.set(status="unbounded", tuples=index + 1)
                return OptimizationResult(
                    sense=sense,
                    objective=objective,
                    status="unbounded",
                    argopt=gtuple,
                    certificate=outcome.certificate,
                    tuples_examined=index + 1,
                    schema=schema,
                )
        bounded.sort()
        best: TupleOptimum | None = None
        best_rank: tuple[int, int] | None = None
        for key, index in bounded:
            if best_rank is not None and (key, index) > best_rank:
                break  # no remaining tuple can beat or tie earlier
            outcome = optimize_tuple(
                tuples[index], sense, i, j, max_tuples=max_tuples
            )
            if outcome.status == "empty":
                continue
            rank = (
                outcome.value if sense == "min" else -outcome.value,
                index,
            )
            if best_rank is None or rank < best_rank:
                best, best_rank = outcome, rank
        examined = len(tuples)
        if best is None:
            sp.set(status="empty", tuples=examined)
            return OptimizationResult(
                sense=sense,
                objective=objective,
                status="empty",
                tuples_examined=examined,
                schema=schema,
            )
        sp.set(status="optimal", tuples=examined, value=best.value)
        return OptimizationResult(
            sense=sense,
            objective=objective,
            status="optimal",
            value=best.value,
            witness=best.witness,
            argopt=tuples[best_rank[1]],
            tuples_examined=examined,
            schema=schema,
        )
