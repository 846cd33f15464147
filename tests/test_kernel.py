"""Property and regression tests for the batched closure kernel.

The vectorized backend (``repro.perf.kernel``) must be bound-for-bound
equivalent to the scalar Python path: same satisfiability verdicts, same
closed matrices, same canonical keys, same projected relations.  These
tests state that equivalence as hypothesis properties over random
constraint systems (including unsatisfiable ones and mixed-arity
batches), pin the closure-state regressions the kernel work surfaced,
and replay the fuzz corpus with the numpy backend forced on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.fuzz.case import load_case
from repro.fuzz.diff import run_case
from repro.obs.metrics import COUNTERS, reset_metrics
from repro.perf import kernel
from repro.perf.config import overrides
from repro.testing import dbms, generalized_relations
from tests.helpers import random_relation
from tests.test_corpus import CORPUS_FILES

HAVE_NUMPY = kernel._numpy() is not None
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (perf extra)"
)


def _diagonal_negative(dbm: DBM) -> bool:
    return any(dbm._b[i][i] is not None and dbm._b[i][i] < 0 for i in range(dbm._n))


def _assert_genuinely_closed(dbm: DBM) -> None:
    """A DBM claiming ``_closed`` must be a fixpoint of closure."""
    assert dbm._closed
    probe = dbm.copy()
    probe._closed = False
    probe._dirty = None
    assert probe.close()
    assert probe._b == dbm._b


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_python_always_honored(self):
        with overrides(kernel="python"):
            assert kernel.kernel_backend() == "python"
            assert not kernel.kernel_active()

    @needs_numpy
    def test_numpy_and_auto_resolve_to_numpy(self):
        for mode in ("numpy", "auto"):
            with overrides(kernel=mode):
                assert kernel.kernel_backend() == "numpy"
                assert kernel.kernel_active()

    def test_python_backend_close_batch_is_scalar_loop(self):
        ds = [DBM(2) for _ in range(4)]
        for d in ds:
            d.add_difference(0, 1, 3)
        with overrides(kernel="python"):
            reset_metrics()
            verdicts = kernel.close_batch(ds)
        assert verdicts == [True] * 4
        assert COUNTERS["perf.kernel.batch_closures"] == 0
        for d in ds:
            _assert_genuinely_closed(d)


# ----------------------------------------------------------------------
# batched closure ≡ scalar closure
# ----------------------------------------------------------------------


@needs_numpy
class TestClosureEquivalence:
    @given(st.lists(dbms(arity=3, max_constraints=6), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_close_batch_matches_scalar(self, batch):
        scalars = [d.copy() for d in batch]
        expected = [d.close() for d in scalars]
        with overrides(kernel="numpy"):
            got = kernel.close_batch(batch)
        assert got == expected
        for d, s, sat in zip(batch, scalars, expected):
            assert d._closed
            if sat:
                # Satisfiable systems agree on every tightened bound.
                assert d._b == s._b
                _assert_genuinely_closed(d)
            else:
                # For unsatisfiable ones only the negative diagonal is
                # contractual, exactly as after a scalar close().
                assert _diagonal_negative(d)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_arity_batches_group_by_dimension(self, data):
        arities = data.draw(
            st.lists(st.integers(1, 4), min_size=2, max_size=10)
        )
        batch = [data.draw(dbms(arity=a, max_constraints=4)) for a in arities]
        expected = [d.copy().close() for d in batch]
        with overrides(kernel="numpy"):
            got = kernel.close_batch(batch)
        assert got == expected
        for d in batch:
            assert d._closed

    @given(st.lists(dbms(arity=2, max_constraints=5), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_sat_batch_parity_without_mutation(self, batch):
        before = [[row[:] for row in d._b] for d in batch]
        flags = [d._closed for d in batch]
        expected = [d.copy().close() for d in batch]
        with overrides(kernel="numpy"):
            got = kernel.sat_batch(batch)
        assert got == expected
        assert [d._b for d in batch] == before
        assert [d._closed for d in batch] == flags

    @given(st.lists(dbms(arity=3, max_constraints=5), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_canonical_keys_batch_parity_without_mutation(self, batch):
        before = [[row[:] for row in d._b] for d in batch]
        flags = [d._closed for d in batch]
        expected = [d.canonical_key() for d in batch]
        with overrides(kernel="numpy"):
            got = kernel.canonical_keys_batch(batch)
        assert got == expected
        assert [d._b for d in batch] == before
        assert [d._closed for d in batch] == flags

    def test_oversized_bounds_fall_back_to_scalar(self):
        huge = kernel.MAX_ABS_BOUND * 4
        batch = []
        for _ in range(kernel.MIN_BATCH):
            d = DBM(2)
            d.add_difference(0, 1, huge)
            d.add_difference(1, 0, -huge + 1)
            batch.append(d)
        with overrides(kernel="numpy"):
            reset_metrics()
            verdicts = kernel.close_batch(batch)
        assert verdicts == [True] * len(batch)
        assert COUNTERS["perf.kernel.batch_closures"] == 0
        assert COUNTERS["perf.kernel.scalar_fallbacks"] == len(batch)
        for d in batch:
            _assert_genuinely_closed(d)

    def test_batch_counters_observe_vectorized_sweeps(self):
        batch = []
        for i in range(kernel.MIN_BATCH + 2):
            d = DBM(2)
            d.add_difference(0, 1, i)
            batch.append(d)
        with overrides(kernel="numpy"):
            reset_metrics()
            kernel.close_batch(batch)
        assert COUNTERS["perf.kernel.batch_closures"] == 1
        assert COUNTERS["perf.kernel.batch_dbms"] == len(batch)
        assert COUNTERS["perf.kernel.scalar_fallbacks"] == 0


# ----------------------------------------------------------------------
# projection through the kernel
# ----------------------------------------------------------------------


@needs_numpy
class TestProjectionKernel:
    @given(generalized_relations(temporal_arity=3, max_tuples=3))
    @settings(max_examples=40, deadline=None)
    def test_project_backends_agree_tuple_for_tuple(self, rel):
        name = rel.schema.temporal_names[0]
        with overrides(kernel="python"):
            expected = algebra.project(rel, [name])
        with overrides(kernel="numpy"):
            got = algebra.project(rel, [name])
        assert {t.canonical_key() for t in got} == {
            t.canonical_key() for t in expected
        }

    @given(generalized_relations(temporal_arity=2, max_tuples=3))
    @settings(max_examples=40, deadline=None)
    def test_projected_tuples_reclose_to_themselves(self, rel):
        # The batched path emits born-closed DBMs (and the scalar path
        # preserves closure flags); both claims must survive a re-close.
        name = rel.schema.temporal_names[1]
        with overrides(kernel="numpy"):
            out = algebra.project(rel, [name])
        for gtuple in out:
            if gtuple.dbm._closed:
                _assert_genuinely_closed(gtuple.dbm)

    def test_dbm_project_returns_closed_system(self):
        d = DBM(3)
        d.add_difference(0, 1, 5)
        d.add_difference(1, 2, -2)
        d.add_upper(2, 7)
        out = d.project([0, 2])
        _assert_genuinely_closed(out)

    def test_scalar_projection_preserves_closed_flag_honestly(self):
        # Regression: _project_combo once kept stale closure state when
        # kept-cluster singletons pinned values after the grid close.
        lrps = (LRP.make(0, 2), LRP.make(1, 3), LRP.point(4))
        dbm = DBM(3)
        dbm.add_difference(0, 1, 4)
        dbm.add_difference(1, 2, 2)
        rel = GeneralizedRelation.empty(Schema.make(temporal=["A", "B", "C"]))
        rel.add(GeneralizedTuple(lrps=lrps, dbm=dbm))
        with overrides(kernel="python"):
            out = algebra.project(rel, ["A", "C"])
        assert len(list(out)) >= 1
        for gtuple in out:
            if gtuple.dbm._closed:
                _assert_genuinely_closed(gtuple.dbm)

    def test_backends_agree_on_seeded_relations(self):
        rng = random.Random(0xC105)
        schema = Schema.make(temporal=["A", "B", "C"], data=["D"])
        for trial in range(25):
            rel = random_relation(
                rng, schema, n_tuples=4, data_choices=[("x",), ("y",)]
            )
            keep = rng.choice([["A"], ["B", "D"], ["A", "C"], ["D"]])
            with overrides(kernel="python"):
                expected = algebra.project(rel, keep)
            with overrides(kernel="numpy"):
                got = algebra.project(rel, keep)
            assert {t.canonical_key() for t in got} == {
                t.canonical_key() for t in expected
            }, f"trial {trial}: backends disagree on project({keep})"


# ----------------------------------------------------------------------
# per-tuple projection plan memo
# ----------------------------------------------------------------------


def _memo_relation() -> GeneralizedRelation:
    lrps = (LRP.make(0, 2), LRP.make(1, 3))
    dbm = DBM(2)
    dbm.add_difference(0, 1, 4)
    rel = GeneralizedRelation.empty(Schema.make(temporal=["A", "B"]))
    rel.add(GeneralizedTuple(lrps=lrps, dbm=dbm))
    return rel


class TestPlanMemo:
    def test_memo_populated_and_hit_when_caches_on(self):
        rel = _memo_relation()
        with overrides(kernel="python"):
            reset_metrics()
            first = algebra.project(rel, ["A"])
            assert COUNTERS["perf.plan_memo_hits"] == 0
            assert any(t._plans for t in rel)
            second = algebra.project(rel, ["A"])
            assert COUNTERS["perf.plan_memo_hits"] >= 1
        assert {t.canonical_key() for t in first} == {
            t.canonical_key() for t in second
        }


# ----------------------------------------------------------------------
# corpus replay with the numpy backend forced on
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean_under_numpy_kernel(path):
    case = load_case(path)
    case.validate()
    with overrides(kernel="numpy"):
        result = run_case(case)
    assert not result.failing, (
        f"{path.name} regressed under the numpy kernel "
        f"({case.note or 'no note'}):\n{result.summary()}"
    )
