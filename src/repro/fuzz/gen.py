"""Seeded random generation of fuzz cases.

Relations are drawn from the same distributions as the
:mod:`repro.testing` strategies (via the shared ``seeded_*``
generators), and expressions are grown bottom-up from a pool of typed
subexpressions, so every operation is produced with well-formed
schemas by construction.  Everything is driven by one
:class:`random.Random`: a ``(seed, profile)`` pair replays the exact
same case on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.constraints import VarConstAtom, VarVarAtom, Op
from repro.core.relations import Schema
from repro.fuzz.case import Case
from repro.fuzz.expr import (
    Complement,
    Expr,
    Intersect,
    Join,
    Leaf,
    Product,
    Project,
    Select,
    Subtract,
    Union,
)
from repro.testing import seeded_relation

#: The data pool cases draw data values from (and complement against).
DATA_POOL = ("a", "b")

_OPS = ("<=", ">=", "=", "<", ">")


@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs for case generation.

    The defaults keep every case small enough for exhaustive window
    checking: the finite oracle materializes each leaf over the
    comparison window (enlarged by the projection margin), so value
    magnitude and tuple counts trade directly against throughput.
    """

    max_tuples: int = 3
    max_constraints: int = 3
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
        name: seeded_relation(
            rng,
            temporal_arity=arity,
            data_choices=data_choices,
            max_tuples=profile.max_tuples,
            max_period=profile.max_period,
            schema=primary,
        )
        for name in ("R0", "R1")
    }
    pool: list[tuple[Expr, Schema]] = [
        (Leaf(name), primary) for name in relations
    ]
    if rng.randrange(1000) < profile.secondary_permille:
        secondary_names = rng.choice(_secondary_name_choices(arity))
        secondary = Schema.make(temporal=list(secondary_names))
        relations["S"] = seeded_relation(
            rng,
            temporal_arity=len(secondary_names),
            data_choices=((),),
            max_tuples=profile.max_tuples,
            max_period=profile.max_period,
            schema=secondary,
        )
        pool.append((Leaf("S"), secondary))
    for _ in range(rng.randint(1, profile.max_ops)):
        grown = _grow(rng, pool, profile)
        if grown is not None:
            pool.append(grown)
    expr = pool[-1][0]
    used = expr.leaf_names()
    return Case(
        relations={n: r for n, r in relations.items() if n in used},
        expr=expr,
        low=profile.low,
        high=profile.high,
        data_domains={"D1": list(DATA_POOL)} if with_data else {},
        seed=seed,
    )


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
    pool: list[tuple[Expr, Schema]],
    profile: FuzzProfile,
) -> tuple[Expr, Schema] | None:
    """Try to add one operation node over existing pool entries.

    Starts from a randomly drawn operation kind and falls through the
    remaining kinds in a fixed rotation until one is constructible, so
    a draw is never silently wasted (the flaw the old ``dbms`` strategy
    had with difference constraints).
    """
    start = rng.randrange(len(_GROW_KINDS))
    for step in range(len(_GROW_KINDS)):
        kind = _GROW_KINDS[(start + step) % len(_GROW_KINDS)]
        built = _try_grow(rng, kind, pool, profile)
        if built is not None:
            return built
    return None


def _try_grow(
    rng: random.Random,
    kind: str,
    pool: list[tuple[Expr, Schema]],
    profile: FuzzProfile,
) -> tuple[Expr, Schema] | None:
    env_like = pool
    if kind in ("union", "intersect", "subtract"):
        by_schema: dict[Schema, list[Expr]] = {}
        for e, s in env_like:
            by_schema.setdefault(s, []).append(e)
        groups = [g for g in by_schema.values()]
        group = rng.choice(groups)
        left = rng.choice(group)
        right = rng.choice(group)
        node_cls = {"union": Union, "intersect": Intersect, "subtract": Subtract}[
            kind
        ]
        schema = next(s for e, s in env_like if e is left)
        return node_cls(left, right), schema
    if kind == "select":
        candidates = [(e, s) for e, s in env_like if s.temporal_arity >= 1]
        if not candidates:
            return None
        child, schema = rng.choice(candidates)
        condition = _random_condition(rng, schema, profile)
        return Select(child, condition), schema
    if kind == "project":
        candidates = [(e, s) for e, s in env_like if s.temporal_arity >= 1]
        if not candidates:
            return None
        child, schema = rng.choice(candidates)
        names = _random_projection(rng, schema)
        node = Project(child, names)
        return node, Schema(tuple(schema.attribute(n) for n in names))
    if kind == "complement":
        child, schema = rng.choice(env_like)
        return Complement(child), schema
    if kind == "join":
        left, s1 = rng.choice(env_like)
        right, s2 = rng.choice(env_like)
        schema = _joined_schema(s1, s2, profile)
        if schema is None:
            return None
        return Join(left, right), schema
    if kind == "theta-join":
        candidates = [
            (left, s1, right, s2, schema)
            for left, s1 in env_like
            for right, s2 in env_like
            if _cross_pairs(s1, s2)
            and (schema := _joined_schema(s1, s2, profile)) is not None
        ]
        if not candidates:
            return None
        left, s1, right, s2, schema = rng.choice(candidates)
        return _theta_join(rng, left, s1, right, s2, profile), schema
    if kind == "product":
        candidates = []
        for left, s1 in env_like:
            for right, s2 in env_like:
                if set(s1.names) & set(s2.names):
                    continue
                if (
                    s1.temporal_arity + s2.temporal_arity
                    > profile.max_temporal_arity
                ):
                    continue
                candidates.append((left, s1, right, s2))
        if not candidates:
            return None
        left, s1, right, s2 = rng.choice(candidates)
        return Product(left, right), Schema(s1.attributes + s2.attributes)
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


def _joined_schema(s1: Schema, s2: Schema, profile: FuzzProfile) -> Schema | None:
    """The natural join's schema, or ``None`` when it cannot be built."""
    for attr in s1.attributes:
        if s2.has(attr.name) and s2.attribute(attr.name).temporal != attr.temporal:
            return None
    extra = tuple(a for a in s2.attributes if not s1.has(a.name))
    schema = Schema(s1.attributes + extra)
    if schema.temporal_arity > profile.max_temporal_arity:
        return None
    return schema


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
    left: Expr,
    s1: Schema,
    right: Expr,
    s2: Schema,
    profile: FuzzProfile,
) -> Expr:
    """``σ(left ⋈ right)`` by a window ``low <= b - a <= high`` between
    the sides (possibly one value), which the plan rewrite folds into the
    join."""
    a, b = rng.choice(_cross_pairs(s1, s2))
    low = rng.randint(-profile.max_bound, profile.max_bound)
    width = rng.randint(0, 3)
    if not width:
        window = str(VarVarAtom(b, Op.EQ, a, low))
    else:
        window = (
            f"{VarVarAtom(b, Op.GE, a, low)} & "
            f"{VarVarAtom(b, Op.LE, a, low + width)}"
        )
    return Select(Join(left, right), window)


def _random_projection(rng: random.Random, schema: Schema) -> tuple[str, ...]:
    """A random attribute list keeping at least one temporal attribute.

    Either a proper subset (exercising temporal elimination) or a
    permutation of the full list (exercising pure re-ordering).
    """
    names = list(schema.names)
    temporal = list(schema.temporal_names)
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
