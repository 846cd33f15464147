"""Shared test utilities: brute-force reference semantics and generators.

The backbone of the suite is *differential testing*: every symbolic
algebra operation is compared against plain set operations on the
relations' denoted point sets restricted to a finite window.  Windows
are chosen larger than the lcm of the periods in play so that periodic
behaviour is exercised, not just one fundamental domain.
"""

from __future__ import annotations

import random

from repro.core import algebra
from repro.core.constraints import Op, VarConstAtom, VarVarAtom
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple

SMALL_PERIODS = [0, 1, 2, 3, 4, 6]
SMALL_OFFSETS = range(-6, 7)


def random_lrp(rng: random.Random, periods=SMALL_PERIODS) -> LRP:
    """A random small lrp."""
    period = rng.choice(periods)
    offset = rng.choice(list(SMALL_OFFSETS))
    return LRP.make(offset, period)


def random_dbm(rng: random.Random, arity: int, n_constraints: int | None = None) -> DBM:
    """A random restricted-constraint system over ``arity`` attributes."""
    dbm = DBM(arity)
    if n_constraints is None:
        n_constraints = rng.randint(0, arity + 1)
    for _ in range(n_constraints):
        kind = rng.random()
        const = rng.randint(-6, 6)
        i = rng.randrange(arity)
        if kind < 0.4 and arity >= 2:
            j = rng.randrange(arity)
            if j != i:
                dbm.add_difference(i, j, const)
                continue
        if kind < 0.7:
            dbm.add_upper(i, const)
        else:
            dbm.add_lower(i, const)
    return dbm


def random_tuple(
    rng: random.Random,
    arity: int,
    data_choices: list[tuple] | None = None,
) -> GeneralizedTuple:
    """A random generalized tuple of the given temporal arity."""
    lrps = [random_lrp(rng) for _ in range(arity)]
    data = rng.choice(data_choices) if data_choices else ()
    return GeneralizedTuple(
        lrps=tuple(lrps), dbm=random_dbm(rng, arity), data=data
    )


def random_relation(
    rng: random.Random,
    schema: Schema,
    n_tuples: int,
    data_choices: list[tuple] | None = None,
) -> GeneralizedRelation:
    """A random generalized relation over ``schema``."""
    if schema.data_arity and not data_choices:
        raise ValueError("data_choices required for schemas with data")
    out = GeneralizedRelation.empty(schema)
    for _ in range(n_tuples):
        out.add(
            random_tuple(
                rng, schema.temporal_arity, data_choices=data_choices
            )
        )
    return out


def window_universe(schema: Schema, low: int, high: int, data_choices=()):
    """All schema-order points with temporal coordinates in the window."""
    import itertools

    temporal_axes = [range(low, high + 1)] * schema.temporal_arity
    data_axes = list(data_choices) if schema.data_arity else [()]
    points = set()
    for data in data_axes:
        for temporal in itertools.product(*temporal_axes):
            dummy = GeneralizedRelation.empty(schema)
            points.add(dummy.join_point(temporal, data))
    return points


def assert_same_window(
    symbolic: GeneralizedRelation,
    expected_points: set,
    low: int,
    high: int,
    context: str = "",
) -> None:
    """Assert the symbolic relation matches the expected window point set."""
    got = symbolic.snapshot(low, high)
    missing = expected_points - got
    extra = got - expected_points
    assert not missing and not extra, (
        f"{context}: window [{low},{high}] mismatch; "
        f"missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
    )


def project_tuple_temporal(
    gtuple: GeneralizedTuple,
    keep,
    dropped,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> list[GeneralizedTuple]:
    """Scalar reference: eliminate the ``dropped`` temporal attributes
    of one tuple.

    Plans and enumerates combos exactly as ``algebra.project`` does,
    residue pruning included, and closes every combo with the scalar
    ``algebra._project_combo``, never through the kernel.
    """
    planned = algebra._planned_combos(gtuple, keep, dropped, max_tuples)
    if planned is None:
        return []  # empty tuple: empty projection
    plan, combos = planned
    results = []
    for combo in combos:
        projected = algebra._project_combo(gtuple, plan, combo, keep)
        if projected is not None:
            results.append(projected)
    return results


# ----------------------------------------------------------------------
# nested-loop references for the pairwise operations
# ----------------------------------------------------------------------


def merge_reference(size: int, sides) -> DBM:
    """``DBM(size)`` plus each side's bounds, one ``add_*`` call apiece.

    ``sides`` holds ``(dbm, mapping)`` with ``mapping[i]`` the result
    variable of the side's variable ``i``.
    """
    out = DBM(size)
    for dbm, mapping in sides:
        for i, j, bound in dbm.iter_bounds():
            ni = mapping[i] if i >= 0 else -1
            nj = mapping[j] if j >= 0 else -1
            if ni >= 0 and nj >= 0:
                out.add_difference(ni, nj, bound)
            elif nj < 0:
                out.add_upper(ni, bound)
            else:
                out.add_lower(nj, -bound)
    return out


def join_reference(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Natural join as the plain nested loop over every tuple pair."""
    s1, s2 = r1.schema, r2.schema
    r2_only = [a for a in s2.attributes if not s1.has(a.name)]
    schema = Schema(s1.attributes + tuple(r2_only))
    names = schema.temporal_names
    map1 = [names.index(n) for n in s1.temporal_names]
    map2 = [names.index(n) for n in s2.temporal_names]
    shared_d = [
        (s1.data_index(n), s2.data_index(n))
        for n in s1.data_names
        if s2.has(n)
    ]
    extra_d = [s2.data_index(a.name) for a in r2_only if not a.temporal]
    out = GeneralizedRelation.empty(schema)
    for t1 in r1:
        for t2 in r2:
            if any(t1.data[i] != t2.data[j] for i, j in shared_d):
                continue
            lrps: list = [None] * len(names)
            for i1, pos in enumerate(map1):
                lrps[pos] = t1.lrps[i1]
            for i2, pos in enumerate(map2):
                lrp = t2.lrps[i2]
                if lrps[pos] is not None:
                    lrp = lrps[pos].intersect(lrp)
                    if lrp is None:
                        break
                lrps[pos] = lrp
            else:
                dbm = merge_reference(
                    len(names), ((t1.dbm, map1), (t2.dbm, map2))
                )
                if dbm.copy().close():
                    data = t1.data + tuple(t2.data[j] for j in extra_d)
                    out.add(GeneralizedTuple(tuple(lrps), dbm, data))
    return out


def intersect_reference(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Intersection as the plain nested loop over every tuple pair."""
    out = GeneralizedRelation.empty(r1.schema)
    for t1 in r1:
        for t2 in r2:
            meet = t1.intersect(t2)
            if meet is not None and meet.dbm.copy().close():
                out.add(meet)
    return out


def subtract_reference(
    r1: GeneralizedRelation, r2: GeneralizedRelation
) -> GeneralizedRelation:
    """Difference as each minuend folded over every subtrahend."""
    out = GeneralizedRelation.empty(r1.schema)
    for t1 in r1:
        current = [t1]
        for t2 in r2:
            step: list[GeneralizedTuple] = []
            for t in current:
                step.extend(algebra.subtract_tuples(t, t2))
            current = algebra._dedup(step)
            if not current:
                break
        for t in current:
            out.add(t)
    return out
