"""The window-aware join: ``join(r1, r2, condition)`` is a theta-join.

Over seeded random relations (periods with mixed gcds, singletons, data
buckets, with and without a shared temporal attribute) and conditions
(two-sided, one-sided, equality and negative windows):

* (a) ``join(r1, r2, cond)`` is ``select(join(r1, r2), cond)`` minus the
  tuples whose lrps cannot meet the condition's windows, tuple for
  tuple: lrps, stored DBM bounds, data, canonical key and order;
* (b) the same holds with ``select`` over the nested-loop join of
  ``tests/helpers.py``, which forms every pair without prefilters or a
  residue index;
* (c) their point sets agree over a finite window;
* (d) a projection that drops a window attribute is tuple-identical
  either way;
* (e) the ``stream_ingest`` reachability view is tuple-identical at
  every refresh to a run whose compiled plans unfold each conditioned
  join back to a selection over a join.

The fuzz generator's plan leg folds selections into joins too: some
case among generator seeds 0-49 carries a conditioned join after
rewriting, and none diverges.
"""

from __future__ import annotations

import random
import sys
from math import gcd
from pathlib import Path

import pytest

from repro.core import algebra
from repro.core.constraints import atoms_to_dbm, parse_atoms
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.perf.config import overrides
from repro.plan import nodes as ir
from repro.plan import rewrite

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

import stream  # noqa: E402

from tests.helpers import join_reference  # noqa: E402

SEEDS = range(8)
PERIODS = (0, 0, 2, 3, 4, 6, 9, 12)
WINDOW = (-14, 14)


def _c(value: int) -> str:
    """`` + value`` / `` - value``, for condition text."""
    return f" + {value}" if value >= 0 else f" - {-value}"


def _relation(rng, temporal, data) -> GeneralizedRelation:
    schema = Schema.make(temporal=temporal, data=data)
    rel = GeneralizedRelation.empty(schema)
    for _ in range(rng.randint(1, 10)):
        lrps = [
            LRP.make(rng.randint(-9, 9), rng.choice(PERIODS)) for _ in temporal
        ]
        atoms = []
        for name in temporal:
            if rng.random() < 0.3:
                atoms.append(f"{name} >= {rng.randint(-12, 4)}")
            if rng.random() < 0.3:
                atoms.append(f"{name} <= {rng.randint(-4, 12)}")
        if len(temporal) > 1 and rng.random() < 0.4:
            a, b = rng.sample(temporal, 2)
            atoms.append(f"{a} <= {b}{_c(rng.randint(-3, 3))}")
        dbm = atoms_to_dbm(parse_atoms(" & ".join(atoms)), temporal)
        values = tuple(rng.choice("ab") for _ in data)
        rel.add(GeneralizedTuple.make(lrps, data=values, dbm=dbm))
    return rel


def _inputs(rng, shared: bool):
    """Two relations; ``shared`` gives them the temporal attribute ``w``."""
    t1 = ["s"] + (["w"] if shared else []) + (["u"] if rng.random() < 0.3 else [])
    t2 = (["w"] if shared else []) + ["t"]
    d1 = ["x"] + (["y"] if rng.random() < 0.6 else [])
    d2 = (["y"] if rng.random() < 0.6 else []) + ["z"]
    return _relation(rng, t1, d1), _relation(rng, t2, d2)


def _conditions(rng, shared: bool) -> list[tuple[str, bool]]:
    """``(condition, every atom names s)`` pairs of every kind."""
    low = rng.randint(-6, 6)
    high = low + rng.randint(0, 7)
    out = [
        (f"t >= s{_c(low)} & t <= s{_c(high)}", True),
        (f"s <= t{_c(-low)} & s >= t{_c(-high)} & s >= {rng.randint(-8, 2)}",
         True),
        (f"t <= s{_c(high)}", True),
        (f"s >= t{_c(low)}", True),
        ("s = t + 3", True),
        (f"s = t{_c(low)}", True),
        (f"t < s - {abs(low) + 1} & t >= s - {abs(low) + 4}", True),
        (f"t >= s{_c(low)} & t <= s{_c(high)} & t <= {rng.randint(0, 9)}",
         False),
    ]
    if shared:
        out += [
            (f"t >= w{_c(low)} & t <= w{_c(high)}", False),
            (f"w <= s{_c(high)} & s <= t{_c(-low)} & t <= s + 9", False),
        ]
    return out


def _windows_empty(gtuple: GeneralizedTuple, names, condition: str) -> bool:
    """Whether the tuple's lrps miss some window of ``condition``.

    Brute force over each window's distances: an attribute pair's
    difference can be ``d`` iff ``d`` is congruent to the offsets'
    difference modulo the periods' gcd (exact for two singletons).
    """
    rows = atoms_to_dbm(parse_atoms(condition), names)._b
    lrps = gtuple.lrps
    for a in range(len(names)):
        for b in (None, *range(len(names))):
            if b == a:
                continue
            j = 0 if b is None else b + 1
            high, low = rows[a + 1][j], rows[j][a + 1]
            if high is None and low is None:
                continue
            low = None if low is None else -low
            if b is None:
                diff, g = lrps[a].offset, lrps[a].period
            else:
                diff = lrps[a].offset - lrps[b].offset
                g = gcd(lrps[a].period, lrps[b].period)
            if not g:
                meets = (low is None or low <= diff) and (
                    high is None or diff <= high
                )
            elif low is None or high is None:
                meets = True
            else:
                meets = any((d - diff) % g == 0 for d in range(low, high + 1))
            if not meets:
                return True
    return False


def _tuples(relation: GeneralizedRelation) -> list[tuple]:
    return [
        (
            t.lrps,
            tuple(tuple(row) for row in t.dbm._b),
            t.data,
            t.canonical_key(),
        )
        for t in relation
    ]


def _cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        for shared in (False, True):
            for _ in range(3):
                r1, r2 = _inputs(rng, shared)
                for condition, names_s in _conditions(rng, shared):
                    yield r1, r2, condition, names_s


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_join_is_select_join_minus_window_empty_tuples(seed):
    removed = kept = 0
    rng = random.Random(seed)
    for shared in (False, True):
        for _ in range(3):
            r1, r2 = _inputs(rng, shared)
            for condition, _ in _conditions(rng, shared):
                fused = algebra.join(r1, r2, condition)
                selected = algebra.select(algebra.join(r1, r2), condition)
                names = selected.schema.temporal_names
                expected = [
                    t for t in selected
                    if not _windows_empty(t, names, condition)
                ]
                assert fused.schema == selected.schema
                assert _tuples(fused) == _tuples(
                    GeneralizedRelation(selected.schema, expected)
                ), condition
                removed += len(selected) - len(expected)
                kept += len(expected)
                # (c) the removed tuples denote nothing.
                assert fused.snapshot(*WINDOW) == selected.snapshot(*WINDOW)
    assert kept and removed


@pytest.mark.parametrize("seed", SEEDS)
def test_without_prefilters_theta_join_is_select_join(seed):
    rng = random.Random(seed)
    for shared in (False, True):
        r1, r2 = _inputs(rng, shared)
        for condition, _ in _conditions(rng, shared):
            fused = algebra.join(r1, r2, condition)
            selected = algebra.select(join_reference(r1, r2), condition)
            names = selected.schema.temporal_names
            expected = [
                t for t in selected
                if not _windows_empty(t, names, condition)
            ]
            assert _tuples(fused) == _tuples(
                GeneralizedRelation(selected.schema, expected)
            ), condition


def test_projection_dropping_a_window_attribute_is_unchanged():
    checked = 0
    for r1, r2, condition, names_s in _cases():
        if not names_s:
            continue
        keep = [n for n in algebra.join(r1, r2).schema.names if n != "s"]
        fused = algebra.project(algebra.join(r1, r2, condition), keep)
        selected = algebra.project(
            algebra.select(algebra.join(r1, r2), condition), keep
        )
        assert _tuples(fused) == _tuples(selected), condition
        checked += len(fused)
    assert checked


def test_unsatisfiable_condition_joins_to_nothing():
    rng = random.Random(0)
    r1, r2 = _inputs(rng, shared=False)
    assert len(algebra.join(r1, r2)) > 0
    for condition in ("s < s", "s <= t - 1 & t <= s - 1"):
        assert len(algebra.join(r1, r2, condition)) == 0
        assert len(algebra.select(algebra.join(r1, r2), condition)) == 0


def test_only_rewritten_plans_carry_join_conditions():
    from repro.api import Database
    from repro.query.evaluator import Evaluator

    db = Database()
    for name in ("Reach", "Edge"):
        db.create(name, temporal=["t"], data=["src", "dst"])
    body = db.parse(
        "EXISTS s. EXISTS u. (Reach(s, x, u) & Edge(t, u, z) "
        "& s <= t & t <= s + 4)"
    )
    naive, rewritten, _ = Evaluator.of(db, optimize=True).plan(body)
    conditions = [
        node.condition
        for node in rewritten.walk()
        if isinstance(node, ir.Join) and node.condition
    ]
    assert conditions == ["t <= s + 4 & s <= t"]
    for plan in (naive, Evaluator.of(db, optimize=False).plan(body)[1]):
        assert not any(
            isinstance(node, ir.Join) and node.condition
            for node in plan.walk()
        )


# ----------------------------------------------------------------------
# (e) the maintained reachability view
# ----------------------------------------------------------------------


def _unfold(plan: ir.PlanNode) -> tuple[ir.PlanNode, int]:
    """Every ``Join(condition)`` back to ``Select(Join)``; how many."""
    count = 0

    def unfold(node: ir.PlanNode) -> ir.PlanNode:
        nonlocal count
        children = tuple(unfold(child) for child in node.children)
        if children != node.children:
            node = node.replace_children(children)
        if isinstance(node, ir.Join) and node.condition:
            count += 1
            return ir.Select(
                ir.Join(node.left, node.right, labels=node.labels),
                node.condition,
            )
        return node

    return unfold(plan), count


def _reach_at_every_refresh(batches) -> list[list[tuple]]:
    from repro.api import Database, Program

    db = Database()
    db.create("Edge", temporal=["t"], data=["src", "dst"])
    db.install_program(Program.from_text(stream.PROGRAM))
    views = []
    for batch in batches:
        db.append_stream("Edge", batch)
        views.append(_tuples(db.relation("Reach")))
    return views


@pytest.mark.parametrize("seed", (0, 1))
def test_reach_view_matches_unfolded_plans(seed, monkeypatch):
    count, nodes, batches, edges = stream.SMOKE_SIZE
    shapes = stream._shapes(count, nodes, batches, edges)
    rng = random.Random(seed)
    for shape in shapes:
        batches_in = stream._stream(shape, nodes, rng)
        with overrides(optimize=True):
            fused = _reach_at_every_refresh(batches_in)
            real = rewrite.window_joins
            unfolded = []

            def window_joins(plan):
                plan, count = _unfold(real(plan)[0])
                unfolded.append(count)
                return plan, 0

            monkeypatch.setattr(rewrite, "window_joins", window_joins)
            plain = _reach_at_every_refresh(batches_in)
            monkeypatch.undo()
        assert sum(unfolded) > 0
        assert fused == plain
        assert fused[-1]


# ----------------------------------------------------------------------
# the fuzz plan leg
# ----------------------------------------------------------------------


def test_fuzz_plan_leg_folds_windows_into_joins():
    from repro.fuzz.diff import run_case
    from repro.fuzz.gen import generate_case

    folded = []
    for seed in range(50):
        case = generate_case(seed)
        plan, _ = rewrite.optimize_plan(case.expr, relations=case.relations)
        if any(
            isinstance(node, ir.Join) and node.condition
            for node in plan.walk()
        ):
            folded.append(seed)
            result = run_case(case)
            assert not result.failing, result.summary()
    assert folded
