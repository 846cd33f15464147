"""Tests for the optimization layer (``repro.perf``).

Two pillars:

* unit tests for the pieces — configuration, ``DBM.conjoin_closed``
  against Floyd–Warshall, closure-state-preserving copies, prefilter
  soundness, semantic deduplication;
* differential equivalence — every algebra operation must denote the
  same point set (and, for intersection/join, the same tuples) as a
  reference that uses none of the optimizations: the nested loops of
  ``tests/helpers.py``, or a brute-force window snapshot, across 150+
  seeded random cases.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS, reset_metrics
from repro.perf import prefilter
from repro.perf.config import (
    PerfConfig,
    configure,
    get_config,
    overrides,
)
from tests.helpers import (
    intersect_reference,
    join_reference,
    random_dbm,
    random_relation,
    subtract_reference,
    window_universe,
)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


class TestConfig:
    def test_overrides_restores_previous_values(self):
        before = get_config()
        with overrides(kernel="python", optimize=False):
            inner = get_config()
            assert inner.kernel == "python"
            assert not inner.optimize
        assert get_config() == before

    def test_overrides_nest(self):
        with overrides(kernel="numpy"):
            with overrides(kernel="python"):
                assert get_config().kernel == "python"
            assert get_config().kernel == "numpy"

    def test_unknown_kernel_is_rejected(self):
        before = get_config()
        with pytest.raises(ValueError, match="bogus"):
            configure(kernel="bogus")
        with pytest.raises(ValueError, match="bogus"):
            with overrides(kernel="bogus"):
                pass  # pragma: no cover - never entered
        assert get_config() == before

    def test_misspelled_kernel_env_is_rejected(self, monkeypatch):
        from repro.perf import config as perf_config

        for raw, expected in (("", "auto"), (" NumPy ", "numpy")):
            monkeypatch.setenv("REPRO_KERNEL", raw)
            assert perf_config._from_env().kernel == expected
        monkeypatch.setenv("REPRO_KERNEL", "numpi")
        with pytest.raises(ValueError, match="numpi") as raised:
            perf_config._from_env()
        message = str(raised.value)
        assert all(name in message for name in perf_config.KERNEL_BACKENDS)
        monkeypatch.delenv("REPRO_KERNEL")
        assert perf_config._from_env().kernel == "auto"

    def test_field_names(self):
        assert [f.name for f in fields(PerfConfig)] == ["kernel", "optimize"]


# ----------------------------------------------------------------------
# conjoin_closed (the incremental closure) vs Floyd–Warshall
# ----------------------------------------------------------------------


def _matrix(dbm: DBM) -> list[list]:
    return [row[:] for row in dbm._b]


def _edges(dbm: DBM) -> list[tuple[int, int, int]]:
    """``dbm``'s bounds as matrix entries (row/column 0 the zero variable)."""
    return [(i + 1, j + 1, bound) for i, j, bound in dbm.iter_bounds()]


def _written(base: DBM, edges) -> DBM:
    """A copy of ``base`` with ``edges`` written, not yet closed."""
    out = base.copy()
    for i, j, bound in edges:
        out._set(i, j, bound)
    return out


class TestIncrementalClosure:
    @pytest.mark.parametrize("seed", range(60))
    def test_incremental_matches_full_closure(self, seed):
        """Conjoining bounds into a closed system must give the verdict
        and the matrix of the Floyd–Warshall closure of the written
        conjunction."""
        rng = random.Random(seed)
        arity = rng.randint(1, 4)
        base = random_dbm(rng, arity, n_constraints=rng.randint(0, 4))
        closed = base.copy()
        if not closed.close():
            closed = base = DBM(arity)  # conjoin_closed needs a satisfiable closure
        edges = _edges(random_dbm(rng, arity, n_constraints=rng.randint(1, 3)))
        subject = DBM.from_closure(closed._b)
        full = _written(base, edges)
        verdict = subject.conjoin_closed(edges)
        assert verdict == full.copy().close()
        if verdict:
            full.close()
            assert _matrix(subject) == _matrix(full)

    def test_incremental_detects_unsatisfiable(self):
        dbm = DBM(2)
        dbm.add_lower(0, 5)
        assert dbm.close()
        subject = DBM.from_closure(dbm._b)
        # X0 <= 3 contradicts X0 >= 5.
        assert not subject.conjoin_closed([(1, 0, 3)])
        assert not _written(dbm, [(1, 0, 3)]).close()

    def test_edge_that_tightens_nothing_leaves_the_closure(self):
        dbm = DBM(2)
        dbm.add_upper(0, 4)
        dbm.add_difference(1, 0, 2)
        assert dbm.close()
        subject = DBM.from_closure(dbm._b)
        # X1 <= 9 is already implied by X1 - X0 <= 2 and X0 <= 4.
        assert subject.conjoin_closed([(2, 0, 9)])
        assert _matrix(subject) == _matrix(dbm)
        full = _written(dbm, [(2, 0, 9)])
        assert full.close() and _matrix(full) == _matrix(subject)

    def test_close_is_idempotent(self):
        rng = random.Random(7)
        dbm = random_dbm(rng, 3, n_constraints=4)
        assert dbm.close() == dbm.close()
        once = _matrix(dbm)
        dbm.close()
        assert _matrix(dbm) == once


class TestClosurePreservingOps:
    def test_copy_preserves_closure_state(self):
        dbm = DBM(2)
        dbm.add_upper(0, 5)
        dbm.close()
        clone = dbm.copy()
        assert clone._closed
        assert clone.close()
        assert _matrix(clone) == _matrix(dbm)

    def test_extend_preserves_closure(self):
        dbm = DBM(2)
        dbm.add_upper(0, 5)
        dbm.add_lower(1, -3)
        dbm.close()
        wider = dbm.extend(2)
        assert wider._closed
        assert wider.size == 4
        assert wider.close()


# ----------------------------------------------------------------------
# prefilter soundness
# ----------------------------------------------------------------------


class TestPrefilters:
    def test_lrp_residue_filter_agrees_with_crt(self):
        rng = random.Random(11)
        for _ in range(300):
            a = LRP.make(rng.randint(-8, 8), rng.choice([0, 1, 2, 3, 4, 6]))
            b = LRP.make(rng.randint(-8, 8), rng.choice([0, 1, 2, 3, 4, 6]))
            compatible = prefilter.lrp_pair_compatible(a, b)
            assert compatible == (a.intersect(b) is not None)

    def test_interval_filter_never_rejects_satisfiable_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            d1 = random_dbm(rng, 2, n_constraints=3)
            d2 = random_dbm(rng, 2, n_constraints=3)
            if not (d1.copy().close() and d2.copy().close()):
                continue
            # A satisfiable system's canonical key is its closed rows.
            closed1 = d1.canonical_key()
            closed2 = d2.canonical_key()
            if prefilter.intervals_compatible(closed1, closed2):
                continue
            # rejected: the conjunction must genuinely be unsatisfiable
            assert not d1.intersect(d2).close()

    def test_added_bound_filter_is_exact(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(200):
            base = random_dbm(rng, 2, n_constraints=3)
            closed = base.copy()
            if not closed.close():
                continue
            u, v = rng.choice([(0, 1), (1, 0), (0, -1), (-1, 0), (1, -1)])
            w = rng.randint(-10, 10)
            verdict = prefilter.added_bound_satisfiable(
                closed.canonical_key(), u, v, w
            )
            probe = closed.copy()
            probe._set(u + 1, v + 1, w)  # _set keeps the tighter bound
            assert verdict == probe.close()
            checked += 1
        assert checked > 50


# ----------------------------------------------------------------------
# semantic deduplication
# ----------------------------------------------------------------------


def _tuple_of(lrps, bounds, arity=1):
    dbm = DBM(arity)
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None:
            dbm.add_lower(i, lo)
        if hi is not None:
            dbm.add_upper(i, hi)
    return GeneralizedTuple(lrps=tuple(lrps), dbm=dbm)


class TestSemanticDedup:
    def test_redundant_bounds_collapse(self):
        """Same point set written two ways deduplicates to one tuple."""
        a = _tuple_of([LRP.make(0, 3)], [(0, 9)])
        b = _tuple_of([LRP.make(0, 3)], [(0, 9)])
        b.dbm.add_upper(0, 11)  # redundant: already X0 <= 9
        out = algebra._dedup([a, b])
        assert len(out) == 1

    def test_empty_tuples_are_dropped(self):
        empty = _tuple_of([LRP.make(0, 3)], [(5, 2)])  # 5 <= X0 <= 2
        alive = _tuple_of([LRP.make(1, 3)], [(0, 9)])
        out = algebra._dedup([empty, alive])
        assert out == [alive]

    def test_pinned_singleton_lrp_collapses_with_point(self):
        """[2 + 3n] with X0 = 5 denotes {5}, same as the point lrp [5]."""
        periodic = _tuple_of([LRP.make(2, 3)], [(5, 5)])
        point = _tuple_of([LRP.point(5)], [(5, 5)])
        assert periodic.semantic_key() == point.semantic_key()
        assert len(algebra._dedup([periodic, point])) == 1

    def test_different_sets_do_not_collapse(self):
        a = _tuple_of([LRP.make(0, 3)], [(0, 9)])
        b = _tuple_of([LRP.make(1, 3)], [(0, 9)])
        assert len(algebra._dedup([a, b])) == 2


# ----------------------------------------------------------------------
# differential equivalence against the references (170+ seeded cases)
# ----------------------------------------------------------------------

SCHEMA2 = Schema.make(temporal=["A", "B"])
WINDOW = (-10, 14)  # covers > lcm(1..4,6) so periodicity is exercised
#: Projection witnesses lie within this distance of the window: every
#: constant and offset is at most 6 in size, every period at most 6.
MARGIN = 40


def _keys(relation: GeneralizedRelation) -> set:
    return {t.canonical_key() for t in relation}


def _snap(relation: GeneralizedRelation):
    return relation.snapshot(*WINDOW)


# Seeds 1000-1049 draw 2-4 tuples per side; seeds 3000-3007 draw 3.
BINARY_CASES = [
    pytest.param(1000 + seed, None, id=str(seed)) for seed in range(50)
] + [pytest.param(3000 + seed, 3, id=f"s{3000 + seed}") for seed in range(8)]


@pytest.mark.parametrize("seed,size", BINARY_CASES)
def test_equivalence_intersect_join_subtract(seed, size):
    """Three operations x 58 seeds = 174 differential cases.

    Intersection and join must produce the *same tuples* as the nested
    loops (prefilters only skip provably-empty work); subtraction may
    factor the result differently, so it is compared on the denoted
    point sets.
    """
    rng = random.Random(seed)
    r1 = random_relation(rng, SCHEMA2, size or rng.randint(2, 4))
    r2 = random_relation(rng, SCHEMA2, size or rng.randint(2, 4))
    assert _keys(algebra.intersect(r1, r2)) == _keys(
        intersect_reference(r1, r2)
    )
    assert _keys(algebra.join(r1, r2)) == _keys(join_reference(r1, r2))
    assert _snap(algebra.subtract(r1, r2)) == _snap(subtract_reference(r1, r2))


@pytest.mark.parametrize("seed", range(12))
def test_equivalence_complement_and_project(seed):
    """Complement and projection against brute-force window snapshots."""
    rng = random.Random(2000 + seed)
    schema1 = Schema.make(temporal=["A"])
    small = random_relation(rng, schema1, rng.randint(1, 3))
    wide = random_relation(rng, SCHEMA2, rng.randint(2, 3))
    universe = window_universe(schema1, *WINDOW)
    assert _snap(algebra.complement(small)) == universe - _snap(small)
    low, high = WINDOW
    witnessed = {
        (b,)
        for _, b in wide.snapshot(low - MARGIN, high + MARGIN)
        if low <= b <= high
    }
    assert _snap(algebra.project(wide, ["B"])) == witnessed


def test_prefilter_counters_fire_on_disjoint_relations():
    """Residue-incompatible pairs must be rejected by the prefilter."""
    r1 = GeneralizedRelation.empty(SCHEMA2)
    r2 = GeneralizedRelation.empty(SCHEMA2)
    r1.add(_tuple_of([LRP.make(0, 4), LRP.make(0, 4)], [(0, 20), (0, 20)], 2))
    r2.add(_tuple_of([LRP.make(1, 4), LRP.make(1, 4)], [(0, 20), (0, 20)], 2))
    reset_metrics()
    out = algebra.intersect(r1, r2)
    assert len(out) == 0
    assert COUNTERS["perf.prefilter_lrp_skip"] >= 1
