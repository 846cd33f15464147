"""Projection by shape: one plan per tuple shape, array passes for
large shape groups, and output tuple-identical to projecting tuple by
tuple.

A projection groups its input tuples by shape (their periods and
written-bound pattern), plans each shape once and hands each group to
``kernel.project_batch``, which runs a group with enough split combos
as array operations and answers ``SCALAR`` for the rest.  Whatever path
a group takes, projecting a whole relation must equal projecting each
tuple alone and adding the outputs in order: the same lrps, written
matrices, closure flags, keys and order, and the same normalization and
residue-skip counts.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS
from repro.perf import kernel
from repro.perf.config import overrides

HAVE_NUMPY = kernel._numpy() is not None
BACKENDS = ["numpy", "python"] if HAVE_NUMPY else ["python"]
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (perf extra)"
)
COUNTED = ("perf.normalize_expansion", "perf.prefilter_residue_skip")
PERIODS = (0, 1, 2, 3, 4, 6, 8, 12)


def _exact(relation):
    """Everything that makes two outputs tuple-identical, in order."""
    return [
        (t.lrps, t.dbm._b, t.dbm._closed, t.data, t.canonical_key())
        for t in relation
    ]


def _counted(run):
    """``run()``'s result and its deltas of the normalization counters."""
    before = [COUNTERS[name] for name in COUNTED]
    result = run()
    return result, [COUNTERS[n] - b for n, b in zip(COUNTED, before)]


def _alone(relation, names, **kwargs):
    """Each tuple projected alone, the outputs added in order."""
    out = None
    for gtuple in relation:
        single = GeneralizedRelation(relation.schema, [gtuple])
        part = algebra.project(single, names, **kwargs)
        if out is None:
            out = GeneralizedRelation.empty(part.schema)
        for projected in part:
            out.add(projected)
    return out


def _assert_by_shape_equals_alone(relation, names, **kwargs):
    whole, whole_counts = _counted(
        lambda: algebra.project(relation, names, **kwargs)
    )
    alone, alone_counts = _counted(lambda: _alone(relation, names, **kwargs))
    if alone is not None:
        assert _exact(whole) == _exact(alone), f"project({names})"
    else:
        assert len(whole) == 0
    assert whole_counts == alone_counts


def _tuple(lrps, bounds, data=("a",)):
    """A tuple over ``lrps`` with ``bounds`` as ``(i, j, b)`` matrix
    cells: ``X_i - X_j <= b``, with row 0 the zero variable."""
    dbm = DBM(len(lrps))
    for i, j, bound in bounds:
        if i and j:
            dbm.add_difference(i - 1, j - 1, bound)
        elif j == 0:
            dbm.add_upper(i - 1, bound)
        else:
            dbm.add_lower(j - 1, -bound)
    return GeneralizedTuple(tuple(lrps), dbm, data)


def _lrp(rng, period):
    if period == 0:
        return LRP.point(rng.randint(-10, 30))
    return LRP.make(rng.randrange(period), period)


def _shaped_relation(rng, arity):
    """A few shapes, each with several tuples of its own periods and
    written-bound pattern; offsets and bound values vary per tuple."""
    schema = Schema.make(
        temporal=[f"X{i}" for i in range(arity)], data=["d"]
    )
    rel = GeneralizedRelation.empty(schema)
    cells = [(i, j) for i in range(arity + 1) for j in range(arity + 1)]
    for _ in range(rng.randint(1, 3)):
        periods = [rng.choice(PERIODS) for _ in range(arity)]
        pattern = [
            (i, j) for i, j in cells if i != j and rng.random() < 0.35
        ]
        for _ in range(rng.randint(1, 14)):
            bounds = [(i, j, rng.randint(-6, 24)) for i, j in pattern]
            rel.add(
                _tuple(
                    [_lrp(rng, p) for p in periods],
                    bounds,
                    (rng.choice("ab"),),
                )
            )
    return rel


class TestProjectionByShape:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(st.integers(0, 100_000), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_whole_relation_equals_tuple_by_tuple(self, backend, seed, arity):
        rng = random.Random(seed)
        rel = _shaped_relation(rng, arity)
        names = [n for n in rel.schema.names if rng.random() < 0.5]
        rng.shuffle(names)
        if set(rel.schema.temporal_names) <= set(names) or not (
            set(rel.schema.temporal_names) & set(names)
        ):
            names = [rel.schema.temporal_names[0], "d"]
        with overrides(kernel=backend):
            _assert_by_shape_equals_alone(rel, names)


def _group(rng, n, periods, pattern):
    """``n`` satisfiable tuples of one shape (every bound admits 0)."""
    return [
        _tuple(
            [_lrp(rng, p) for p in periods],
            [(i, j, rng.randint(0, 30)) for i, j in pattern],
        )
        for _ in range(n)
    ]


#: X1 - X2 <= b, X2 - X1 <= b', 0 <= X2 <= b'': a window on the pair.
PAIR = [(1, 2), (2, 1), (2, 0), (0, 2)]


def _relation(tuples, arity=2):
    schema = Schema.make(temporal=[f"X{i}" for i in range(arity)], data=["d"])
    return GeneralizedRelation(schema, tuples)


def _answers(monkeypatch):
    """Record, per ``project_batch`` call, whether it ran the group as
    array operations."""
    answers = []
    real = kernel.project_batch

    def project_batch(shape, tuples, closures):
        answer = real(shape, tuples, closures)
        answers.append((len(tuples), answer is not kernel.SCALAR))
        return answer

    monkeypatch.setattr(kernel, "project_batch", project_batch)
    return answers


@needs_numpy
class TestShapeGroups:
    def test_groups_above_and_below_the_gate(self, monkeypatch):
        rng = random.Random(1)
        # 12 combos per tuple (lcm 24 over periods 6 and 8): 20 tuples
        # are far above the gate, one tuple of periods 4, 4 below it.
        big = _group(rng, 20, [6, 8], PAIR)
        small = _group(rng, 1, [4, 4], PAIR)
        rel = _relation(big[:10] + small + big[10:])
        answers = _answers(monkeypatch)
        with overrides(kernel="numpy"):
            _assert_by_shape_equals_alone(rel, ["X0", "d"])
        whole = answers[:2]  # the whole-relation call: one per shape
        assert sorted(array for _n, array in whole) == [False, True]
        assert [n for n, array in whole if array][0] > 1

    def test_singleton_in_the_cluster_runs_scalar(self, monkeypatch):
        rng = random.Random(2)
        rel = _relation(_group(rng, 20, [6, 0, 8], PAIR + [(3, 1)]), 3)
        answers = _answers(monkeypatch)
        with overrides(kernel="numpy"):
            _assert_by_shape_equals_alone(rel, ["X0", "d"])
        assert not answers[0][1]

    def test_bound_above_the_template_bound_runs_scalar(self, monkeypatch):
        rng = random.Random(3)
        tuples = _group(rng, 20, [6, 8], PAIR)
        huge = kernel.MAX_TEMPLATE_BOUND + 5
        tuples[7] = _tuple(
            [LRP.make(1, 6), LRP.make(3, 8)],
            [(1, 2, huge), (2, 1, 4), (2, 0, huge), (0, 2, 0)],
        )
        rel = _relation(tuples)
        answers = _answers(monkeypatch)
        with overrides(kernel="numpy"):
            _assert_by_shape_equals_alone(rel, ["X0", "d"])
        assert not answers[0][1]

    def test_residue_failures_inside_an_array_group(self, monkeypatch):
        rng = random.Random(4)
        tuples = _group(rng, 20, [6, 8], PAIR)
        # X0 ≡ 1 (mod 6) and X1 ≡ 0 (mod 8) differ by an odd number, so
        # X0 = X1 has no solution: the whole product of 12 is skipped.
        tuples[3] = _tuple(
            [LRP.make(1, 6), LRP.make(0, 8)],
            [(1, 2, 0), (2, 1, 0), (2, 0, 40), (0, 2, 0)],
        )
        rel = _relation(tuples)
        answers = _answers(monkeypatch)
        with overrides(kernel="numpy"):
            before = COUNTERS["perf.prefilter_residue_skip"]
            _assert_by_shape_equals_alone(rel, ["X0", "d"])
            assert COUNTERS["perf.prefilter_residue_skip"] > before
        assert answers[0][1]


class TestNormalizationLimit:
    @staticmethod
    def _tuples():
        residue_empty = _tuple(
            [LRP.make(1, 6), LRP.make(0, 8)], [(1, 2, 0), (2, 1, 0)]
        )
        small = _tuple([LRP.make(0, 4), LRP.make(1, 4)], [(1, 2, 3)])
        meets = _tuple(
            [LRP.make(1, 6), LRP.make(0, 8)], [(1, 2, 1), (2, 1, -1)]
        )
        wider = _tuple(
            [LRP.make(1, 6), LRP.make(0, 16)], [(1, 2, 1), (2, 1, -1)]
        )
        return residue_empty, small, meets, wider

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raised_at_the_first_tuple_that_would_raise(self, backend):
        residue_empty, small, meets, wider = self._tuples()
        with overrides(kernel=backend):
            with pytest.raises(NormalizationLimitError) as alone:
                algebra.project(_relation([meets]), ["X0"], max_tuples=5)
            rel = _relation([residue_empty, small, wider, meets])
            with pytest.raises(NormalizationLimitError) as whole:
                algebra.project(rel, ["X0"], max_tuples=5)
            with pytest.raises(NormalizationLimitError) as first:
                algebra.project(_relation([wider]), ["X0"], max_tuples=5)
        # The first tuple in input order whose residues meet raises.
        assert str(whole.value) == str(first.value) != str(alone.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_residue_empty_tuples_never_raise(self, backend):
        residue_empty, small, _meets, _wider = self._tuples()
        rel = _relation([residue_empty, small, residue_empty])
        with overrides(kernel=backend):
            _assert_by_shape_equals_alone(rel, ["X0", "d"], max_tuples=5)
