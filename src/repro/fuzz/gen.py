"""Seeded random generation of fuzz cases.

Relations are drawn from the same distributions as the
:mod:`repro.testing` strategies (via the shared ``seeded_*``
generators) or, a third of the time, are finite point lists inside the
comparison window; expressions are plan-IR trees grown bottom-up from
a pool of typed subexpressions, so every operation is produced with
well-formed schemas by construction.  Everything is driven by one
:class:`random.Random`: a ``(seed, profile)`` pair replays the exact
same case on any machine.

Off-by-ones hide at edges, which uniform draws rarely hit, so the
generator places some on purpose: the two primary relations always
get a pair of tuples that touch (:func:`_touch`), and theta-join
windows put an edge on the distance between two singleton points of
their sides (:func:`_theta_join`).  Projections that keep no temporal
attribute decide emptiness, which only differs from reading the
closure on tuples whose constraints are satisfiable but whose lrps
meet no point.  So one primary tuple is confined to such a gap
(:func:`_gap`), one projection in three keeps only data attributes,
and half of those read a selection that pins a temporal attribute to
one point (:func:`_point_condition`).  A join with a complement input
is answered within the box of its partner's points when that partner
is bounded, which random growth seldom makes it; so a fixed share of
cases ends in such a join over a partner selected into the window
(:func:`_bounded_negation`), its bounds on the box's edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.constraints import VarConstAtom, VarVarAtom, Op
from repro.core.errors import SchemaError
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.fuzz.case import Case, scan_names
from repro.plan import nodes as ir
from repro.testing import seeded_relation

#: The data pool cases draw data values from (and complement against).
DATA_POOL = ("a", "b")

_OPS = ("<=", ">=", "=", "<", ">")

#: Per-mille probability that a base relation is a finite point list.
_POINTS_PERMILLE = 333

#: Per-mille probability that a case ends in a join of a bounded
#: partner with a complement (:func:`_bounded_negation`).
_BOUNDED_NEGATION_PERMILLE = 150


@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs for case generation.

    The defaults keep every case small enough for exhaustive window
    checking: the finite oracle materializes each leaf over the
    comparison window (enlarged by the projection margin), so value
    magnitude and tuple counts trade directly against throughput.
    ``max_bound`` reaches only selection and theta-window constants:
    base relations are drawn by :func:`repro.testing.seeded_relation`,
    whose constraint counts and bounds are its own.
    """

    max_tuples: int = 3
    max_bound: int = 5
    max_period: int = 6
    max_ops: int = 5
    #: Per-mille probability that the primary schema carries a data column.
    data_permille: int = 300
    #: Per-mille probability that a third leaf over a secondary schema exists.
    secondary_permille: int = 500
    low: int = -4
    high: int = 4
    #: Cap on any subexpression's temporal arity (join/product growth).
    max_temporal_arity: int = 3


DEFAULT_PROFILE = FuzzProfile()


def case_seed(base_seed: int, index: int) -> int:
    """The per-case seed for case ``index`` of a ``--seed base_seed`` run."""
    return base_seed * 1_000_003 + index


def generate_case(seed: int, profile: FuzzProfile = DEFAULT_PROFILE) -> Case:
    """Deterministically generate one fuzz case from ``seed``."""
    rng = random.Random(seed)
    with_data = rng.randrange(1000) < profile.data_permille
    arity = rng.randint(1, 2)
    data_choices: tuple[tuple, ...] = (
        tuple((v,) for v in DATA_POOL) if with_data else ((),)
    )
    primary = Schema.make(
        temporal=[f"T{i + 1}" for i in range(arity)],
        data=["D1"] if with_data else [],
    )
    relations = {
        name: _relation(rng, primary, data_choices, profile)
        for name in ("R0", "R1")
    }
    _touch(rng, relations, profile)
    _gap(rng, relations, profile)
    pool: list[ir.PlanNode] = [ir.Scan(name, primary) for name in relations]
    if rng.randrange(1000) < profile.secondary_permille:
        secondary_names = rng.choice(_secondary_name_choices(arity))
        secondary = Schema.make(temporal=list(secondary_names))
        relations["S"] = _relation(rng, secondary, ((),), profile)
        pool.append(ir.Scan("S", secondary))
    for _ in range(rng.randint(1, profile.max_ops)):
        grown = _grow(rng, pool, relations, profile)
        if grown is not None:
            pool.append(grown)
    expr = pool[-1]
    if rng.randrange(1000) < _BOUNDED_NEGATION_PERMILLE:
        expr = _bounded_negation(rng, pool, profile) or expr
    used = scan_names(expr)
    return Case(
        relations={n: r for n, r in relations.items() if n in used},
        expr=expr,
        low=profile.low,
        high=profile.high,
        data_domains={"D1": list(DATA_POOL)} if with_data else {},
        seed=seed,
    )


def _relation(
    rng: random.Random,
    schema: Schema,
    data_choices: tuple[tuple, ...],
    profile: FuzzProfile,
) -> GeneralizedRelation:
    """A base relation: a finite point list or, more often, one drawn
    like the :mod:`repro.testing` strategies."""
    if rng.randrange(1000) < _POINTS_PERMILLE:
        return _point_list(rng, schema, data_choices, profile)
    return seeded_relation(
        rng,
        temporal_arity=schema.temporal_arity,
        data_choices=data_choices,
        max_tuples=profile.max_tuples,
        max_period=profile.max_period,
        schema=schema,
    )


def _point_list(
    rng: random.Random,
    schema: Schema,
    data_choices: tuple[tuple, ...],
    profile: FuzzProfile,
) -> GeneralizedRelation:
    """One to ``max_tuples`` points, every coordinate a singleton lrp
    inside the comparison window."""
    out = GeneralizedRelation.empty(schema)
    for _ in range(rng.randint(1, profile.max_tuples)):
        point = [
            rng.randint(profile.low, profile.high)
            for _ in range(schema.temporal_arity)
        ]
        out.add(GeneralizedTuple.make(point, data=rng.choice(data_choices)))
    return out


def _secondary_name_choices(primary_arity: int) -> list[tuple[str, ...]]:
    """Secondary temporal schemas: overlapping, disjoint and mixed names."""
    if primary_arity == 1:
        return [("T1",), ("T2",), ("T1", "T2"), ("T2", "T3")]
    return [("T1",), ("T3",), ("T2", "T3"), ("T3", "T4")]


_GROW_KINDS = (
    "subtract",
    "union",
    "intersect",
    "select",
    "project",
    "join",
    "complement",
    "product",
    "theta-join",
)


def _grow(
    rng: random.Random,
    pool: list[ir.PlanNode],
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> ir.PlanNode | None:
    """Try to add one operation node over existing pool entries.

    Starts from a randomly drawn operation kind and falls through the
    remaining kinds in a fixed rotation until one is constructible, so
    a draw is never silently wasted (the flaw the old ``dbms`` strategy
    had with difference constraints).
    """
    start = rng.randrange(len(_GROW_KINDS))
    for step in range(len(_GROW_KINDS)):
        kind = _GROW_KINDS[(start + step) % len(_GROW_KINDS)]
        built = _try_grow(rng, kind, pool, relations, profile)
        if built is not None:
            return built
    return None


_SET_OPS = {"union": ir.Union, "intersect": ir.Intersect, "subtract": ir.Subtract}


def _try_grow(
    rng: random.Random,
    kind: str,
    pool: list[ir.PlanNode],
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> ir.PlanNode | None:
    if kind in _SET_OPS:
        by_schema: dict[Schema, list[ir.PlanNode]] = {}
        for node in pool:
            by_schema.setdefault(node.schema, []).append(node)
        group = rng.choice(list(by_schema.values()))
        left = rng.choice(group)
        right = rng.choice(group)
        return _SET_OPS[kind](left, right)
    if kind == "select":
        candidates = [n for n in pool if n.schema.temporal_arity >= 1]
        if not candidates:
            return None
        child = rng.choice(candidates)
        return ir.Select(child, _random_condition(rng, child.schema, profile))
    if kind == "project":
        candidates = [n for n in pool if n.schema.temporal_arity >= 1]
        if not candidates:
            return None
        child = rng.choice(candidates)
        names = _random_projection(rng, child.schema)
        closed = not set(names) & set(child.schema.temporal_names)
        if closed and rng.randrange(2):
            child = ir.Select(child, _point_condition(rng, child.schema, profile))
        return ir.Project(child, names)
    if kind == "complement":
        return ir.Complement(rng.choice(pool))
    if kind == "join":
        left = rng.choice(pool)
        right = rng.choice(pool)
        return _join(left, right, profile)
    if kind == "theta-join":
        candidates = [
            join
            for left in pool
            for right in pool
            if _cross_pairs(left.schema, right.schema)
            and (join := _join(left, right, profile)) is not None
        ]
        if not candidates or rng.randrange(2):
            band = _band_partner(rng, pool, relations, profile)
            if band is not None:
                candidates = [band]
        if not candidates:
            return None
        return _theta_join(rng, candidates, relations, profile)
    if kind == "product":
        candidates = [
            (left, right)
            for left in pool
            for right in pool
            if not set(left.schema.names) & set(right.schema.names)
            and left.schema.temporal_arity + right.schema.temporal_arity
            <= profile.max_temporal_arity
        ]
        if not candidates:
            return None
        return ir.Product(*rng.choice(candidates))
    return None


def _random_condition(
    rng: random.Random, schema: Schema, profile: FuzzProfile
) -> str:
    atoms = []
    names = schema.temporal_names
    for _ in range(rng.randint(1, 2)):
        left = rng.choice(names)
        op = Op(rng.choice(_OPS))
        const = rng.randint(-profile.max_bound, profile.max_bound)
        if len(names) >= 2 and rng.randrange(2):
            right = rng.choice([n for n in names if n != left])
            atoms.append(str(VarVarAtom(left, op, right, const)))
        else:
            atoms.append(str(VarConstAtom(left, op, const)))
    return " & ".join(atoms)


def _point_condition(
    rng: random.Random, schema: Schema, profile: FuzzProfile
) -> str:
    """``T = v`` for a temporal attribute ``T`` and a point ``v`` of the
    window: every tuple whose range holds ``v`` but whose lrp misses it
    keeps a satisfiable constraint system and denotes the empty set."""
    name = rng.choice(schema.temporal_names)
    return f"{name} = {rng.randint(profile.low, profile.high)}"


def _join(
    left: ir.PlanNode, right: ir.PlanNode, profile: FuzzProfile
) -> ir.Join | None:
    """The natural join, or ``None`` when it cannot be built."""
    join = ir.Join(left, right)
    try:
        schema = join.schema
    except SchemaError:
        return None
    if schema.temporal_arity > profile.max_temporal_arity:
        return None
    return join


def _cross_pairs(s1: Schema, s2: Schema) -> list[tuple[str, str]]:
    """Temporal attribute pairs with one side's own attribute each."""
    return [
        (a, b)
        for a in s1.temporal_names
        if not s2.has(a)
        for b in s2.temporal_names
        if not s1.has(b)
    ]


def _theta_join(
    rng: random.Random,
    joins: list[ir.Join],
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> ir.PlanNode:
    """``σ(left ⋈ right)`` by a window ``low <= b - a <= high`` between
    the sides (possibly one value), which the plan rewrite folds into the
    join.

    When some join's sides hold singleton points of ``a`` and ``b``
    inside the comparison window, the window is anchored on two of
    them: its low or high edge sits exactly on their distance, where an
    off-by-one in pairing them would show.
    """
    width = rng.randint(0, profile.max_bound)
    anchors = [
        (join, a, b, vb - va)
        for join in joins
        for a, b in _cross_pairs(join.left.schema, join.right.schema)
        for va in _singletons(join.left, a, relations, profile)
        for vb in _singletons(join.right, b, relations, profile)
    ]
    if anchors:
        join, a, b, distance = rng.choice(anchors)
        low = distance - width * rng.randrange(2)
    else:
        join = rng.choice(joins)
        a, b = rng.choice(_cross_pairs(join.left.schema, join.right.schema))
        low = rng.randint(-profile.max_bound, profile.max_bound)
    if not width:
        window = str(VarVarAtom(b, Op.EQ, a, low))
    else:
        window = (
            f"{VarVarAtom(b, Op.GE, a, low)} & "
            f"{VarVarAtom(b, Op.LE, a, low + width)}"
        )
    return ir.Select(join, window)


def _band_partner(
    rng: random.Random,
    pool: list[ir.PlanNode],
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> ir.Join | None:
    """A pool entry joined with a fresh point list over one attribute it
    lacks: the sides share no temporal attribute, so a window on the
    join pairs them through the residue index."""
    lefts = [
        node
        for node in pool
        if 1 <= node.schema.temporal_arity < profile.max_temporal_arity
    ]
    if not lefts:
        return None
    left = rng.choice(lefts)
    attr = next(
        f"T{i}" for i in range(1, len(left.schema.names) + 2)
        if not left.schema.has(f"T{i}")
    )
    name = f"P{sum(name.startswith('P') for name in relations)}"
    schema = Schema.make(temporal=[attr])
    relations[name] = _point_list(rng, schema, ((),), profile)
    return _join(left, ir.Scan(name, schema), profile)


def _singletons(
    node: ir.PlanNode,
    name: str,
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> list[int]:
    """The window values of singleton lrps of attribute ``name`` in the
    relations ``node`` scans."""
    found = set()
    for scan in node.walk():
        if isinstance(scan, ir.Scan) and name in scan.schema.temporal_names:
            i = scan.schema.temporal_names.index(name)
            found.update(
                t.lrps[i].offset
                for t in relations[scan.name]
                if not t.lrps[i].period
            )
    return sorted(v for v in found if profile.low <= v <= profile.high)


def _touch(
    rng: random.Random,
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> None:
    """Make a tuple of one primary relation touch a copy of itself in
    the other.

    A point ``u`` of the tuple's lrp on one attribute, inside the
    window and the tuple's bounds, becomes the tuple's upper bound
    there, and a copy bounded below by ``u`` joins the other relation:
    the two tuples share exactly the points on ``X_i = u``, the edge
    case of every interval test between tuples.
    """
    names = ["R0", "R1"]
    rng.shuffle(names)
    source, target = (relations[name] for name in names)
    if not len(source):
        return
    pos = rng.randrange(len(source))
    gtuple = source.tuples[pos]
    i = rng.randrange(gtuple.temporal_arity)
    closed = gtuple.dbm.copy()
    if not closed.close():
        return
    lo, hi = closed.lower(i), closed.upper(i)
    points = [
        u
        for u in range(profile.low, profile.high + 1)
        if gtuple.lrps[i].contains(u)
        and (lo is None or lo <= u)
        and (hi is None or u <= hi)
    ]
    if not points:
        return
    u = rng.choice(points)
    below = gtuple.dbm.copy()
    below.add_upper(i, u)
    above = gtuple.dbm.copy()
    above.add_lower(i, u)
    tuples = list(source)
    tuples[pos] = GeneralizedTuple(gtuple.lrps, below, gtuple.data)
    relations[names[0]] = GeneralizedRelation(source.schema, tuples)
    target.add(GeneralizedTuple(gtuple.lrps, above, gtuple.data))


def _gap(
    rng: random.Random,
    relations: dict[str, GeneralizedRelation],
    profile: FuzzProfile,
) -> None:
    """Confine one tuple of a primary relation to the gap between two
    points of one of its periodic lrps.

    On attribute ``i`` with lrp ``c + p·n`` (``p >= 2``) the tuple gets
    ``u + 1 <= X_i <= u + p - 1`` for a point ``u`` of the lrp near the
    window, where that gap meets the tuple's own range.  Its constraint
    system stays satisfiable, but it now denotes the empty set: only
    the lrps show it.
    """
    name = rng.choice(["R0", "R1"])
    relation = relations[name]
    periodic = [
        (pos, i)
        for pos, gtuple in enumerate(relation)
        for i, lrp in enumerate(gtuple.lrps)
        if lrp.period >= 2
    ]
    if not periodic:
        return
    pos, i = rng.choice(periodic)
    gtuple = relation.tuples[pos]
    closed = gtuple.dbm.copy()
    if not closed.close():
        return
    lo, hi = closed.lower(i), closed.upper(i)
    lrp = gtuple.lrps[i]
    gaps = [
        u
        for u in range(profile.low - lrp.period, profile.high + 1)
        if lrp.contains(u)
        and (hi is None or u + 1 <= hi)
        and (lo is None or lo <= u + lrp.period - 1)
    ]
    if not gaps:
        return
    u = rng.choice(gaps)
    dbm = gtuple.dbm.copy()
    dbm.add_lower(i, u + 1)
    dbm.add_upper(i, u + lrp.period - 1)
    tuples = list(relation)
    tuples[pos] = GeneralizedTuple(gtuple.lrps, dbm, gtuple.data)
    relations[name] = GeneralizedRelation(relation.schema, tuples)


def _bounded_negation(
    rng: random.Random, pool: list[ir.PlanNode], profile: FuzzProfile
) -> ir.Join | None:
    """``σ(X) ⋈ ¬B`` for pool entries ``X`` and ``B``, ``B`` with no
    data attribute and only temporal attributes of ``X``, and ``σ``
    bounding each of them by window values, so every tuple of the
    join's partner is bounded where the complement is taken."""
    pairs = [
        (x, b)
        for x in pool
        for b in pool
        if not b.schema.data_arity
        and b.schema.temporal_arity
        and set(b.schema.names) <= set(x.schema.temporal_names)
    ]
    if not pairs:
        return None
    x, b = rng.choice(pairs)
    atoms = []
    for name in b.schema.names:
        low = rng.randint(profile.low, profile.high)
        high = rng.randint(low, profile.high)
        atoms.append(f"{name} >= {low} & {name} <= {high}")
    partner = ir.Select(x, " & ".join(atoms))
    complement = ir.Complement(b)
    if rng.randrange(2):
        return ir.Join(complement, partner)
    return ir.Join(partner, complement)


def _random_projection(rng: random.Random, schema: Schema) -> tuple[str, ...]:
    """A random attribute list.

    One time in three it keeps only the data attributes (none at all
    without them), a projection decided by emptiness.  Otherwise it
    keeps at least one temporal attribute: either a proper subset
    (exercising temporal elimination) or a permutation of the full list
    (exercising pure re-ordering).
    """
    names = list(schema.names)
    temporal = list(schema.temporal_names)
    if not rng.randrange(3):
        return tuple(schema.data_names)
    if len(names) >= 2 and rng.randrange(3):
        keep_size = rng.randint(1, len(names) - 1)
        must_keep = rng.choice(temporal)
        others = [n for n in names if n != must_keep]
        kept = {must_keep, *rng.sample(others, keep_size - 1)} if keep_size > 1 else {
            must_keep
        }
        chosen = [n for n in names if n in kept]
    else:
        chosen = names[:]
    rng.shuffle(chosen)
    return tuple(chosen)
