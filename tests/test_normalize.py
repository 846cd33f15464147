"""Tests for the normalization algorithm (Theorem 3.2, Example 3.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import lcm
from repro.core import algebra
from repro.core.constraints import atoms_to_dbm, parse_atoms
from repro.core.emptiness import tuple_witness
from repro.core.errors import NormalizationLimitError
from repro.core.lrp import LRP
from repro.core.negation import (
    _column_components,
    _column_periods,
)
from repro.core.normalize import (
    NormalizedTuple,
    iter_normalize_tuple,
    normalize_relation_tuples,
    normalize_tuple,
    relation_period,
    split,
    transcribe,
    tuple_explosion_size,
    tuple_period,
)
from repro.core.tuples import GeneralizedTuple
from repro.obs.metrics import COUNTERS

from tests.helpers import random_tuple


def make(lrps, constraints=""):
    names = [f"X{i + 1}" for i in range(len(lrps))]
    dbm = atoms_to_dbm(parse_atoms(constraints), names)
    return GeneralizedTuple.make(lrps, dbm=dbm)


def figure2_tuple() -> GeneralizedTuple:
    """The tuple of Figure 2 / Example 3.2."""
    return make(
        ["4n + 3", "8n + 1"],
        "X1 >= X2 & X1 <= X2 + 5 & X2 >= 2",
    )


class TestPeriods:
    def test_tuple_period(self):
        assert tuple_period(make(["4n + 3", "8n + 1"])) == 8
        assert tuple_period(make([3, 7])) == 1
        assert tuple_period(make(["6n", "4n"])) == 12

    def test_relation_period(self):
        tuples = [make(["4n"]), make(["6n"])]
        assert relation_period(tuples) == 12

    def test_explosion_size(self):
        t = make(["2n", "3n"])
        assert tuple_explosion_size(t, 6) == 3 * 2


class TestExample32:
    """The paper's Example 3.2, step by step."""

    def test_normalized_tuple_count(self):
        # 4n+3 splits into {8n+3, 8n+7}; 8n+1 stays.  One of the two
        # resulting tuples has contradictory constraints and is dropped.
        result = normalize_tuple(figure2_tuple())
        assert len(result) == 1

    def test_surviving_tuple_matches_paper(self):
        (nt,) = normalize_tuple(figure2_tuple())
        assert nt.period == 8
        assert nt.offsets == (3, 1)
        gt = nt.to_generalized()
        # Paper's normal form: [8n+3, 8n+1] ∧ X1 = X2+2 ∧ X2 >= 9.
        assert gt.lrps == (LRP.make(3, 8), LRP.make(1, 8))
        assert gt.contains([11, 9]) and gt.contains([19, 17])
        assert not gt.contains([3, 1])  # X2 >= 9 after snapping
        assert not gt.contains([11, 17])

    def test_dropped_tuple_is_inconsistent(self):
        results = normalize_tuple(figure2_tuple(), keep_empty=True)
        assert len(results) == 2
        empties = [nt for nt in results if nt.is_empty()]
        assert len(empties) == 1
        assert empties[0].offsets == (7, 1)

    def test_semantics_preserved(self):
        t = figure2_tuple()
        window = (-5, 40)
        original = set(t.enumerate(*window))
        covered = set()
        for nt in normalize_tuple(t):
            covered |= set(nt.to_generalized().enumerate(*window))
        assert covered == original


class TestNormalizeTuple:
    def test_singletons_only(self):
        t = make([3, 7], "X1 <= X2")
        (nt,) = normalize_tuple(t)
        assert nt.period == 1
        assert nt.singleton == (True, True)
        assert not nt.is_empty()

    def test_singleton_contradiction_detected(self):
        t = make([9, 7], "X1 <= X2")
        assert normalize_tuple(t) == []

    def test_explicit_period_multiple(self):
        t = make(["2n"])
        result = normalize_tuple(t, period=6)
        assert len(result) == 3
        assert {nt.offsets[0] for nt in result} == {0, 2, 4}

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            normalize_tuple(make(["4n"]), period=6)

    def test_limit_enforced(self):
        t = make(["2n", "3n", "5n"])  # lcm 30 -> 15*10*6 = 900 tuples
        with pytest.raises(NormalizationLimitError):
            normalize_tuple(t, max_tuples=100)

    def test_lazy_iteration_stops_early(self):
        t = make(["2n", "3n"])
        iterator = iter_normalize_tuple(t)
        first = next(iterator)
        assert isinstance(first, NormalizedTuple)

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_normalization_preserves_semantics(self, seed, arity):
        rng = random.Random(seed)
        t = random_tuple(rng, arity)
        window = (-12, 12)
        original = set(t.enumerate(*window))
        covered = set()
        for nt in normalize_tuple(t):
            covered |= set(nt.to_generalized().enumerate(*window))
        assert covered == original

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_normal_form_tuples_are_disjoint(self, seed):
        """Normalization partitions: no point is covered twice."""
        rng = random.Random(seed)
        t = random_tuple(rng, 2)
        pieces = [nt.to_generalized() for nt in normalize_tuple(t)]
        window = (-10, 10)
        for a in range(window[0], window[1] + 1):
            for b in range(window[0], window[1] + 1):
                hits = sum(p.contains([a, b]) for p in pieces)
                assert hits <= 1


class TestRelationNormalization:
    def test_common_period(self):
        tuples = [make(["2n"]), make(["3n"])]
        period, normalized = normalize_relation_tuples(tuples)
        assert period == 6
        assert len(normalized) == 3 + 2

    def test_relation_limit(self):
        tuples = [make(["7n"]), make(["11n"]), make(["13n"])]
        with pytest.raises(NormalizationLimitError):
            normalize_relation_tuples(tuples, max_tuples=50)


def _satisfiable(plan, combos):
    """Each combo with a satisfiable counter system, with that system's
    bound matrix, in the given order."""
    out = []
    for combo in combos:
        n_dbm = transcribe(plan, combo)
        if n_dbm.copy().close():
            out.append((combo, n_dbm._b))
    return out


def _parameterizations(rng, tuples, gtuple):
    """``(attrs, periods)`` of the three pruned callers for ``gtuple``:
    the tuple's lcm, the relation's column components, and the
    constraint cluster of one dropped attribute on the cluster's lcm."""
    arity = gtuple.temporal_arity
    attrs = list(range(arity))
    components = _column_components(tuples, arity)
    dropped = [rng.randrange(arity)]
    cluster = sorted(algebra._constraint_cluster(gtuple, dropped))
    k = 1
    for a in cluster:
        if gtuple.lrps[a].period:
            k = lcm(k, gtuple.lrps[a].period)
    return {
        "tuple lcm": (attrs, [tuple_period(gtuple)] * arity),
        "component": (attrs, _column_periods(tuples, components, arity)),
        "cluster": (cluster, [k] * len(cluster)),
    }


class TestSplitRoutine:
    """One split routine serves every caller; pruning against the
    tuple's closure keeps exactly the satisfiable combos, in order."""

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_pruned_combos_are_the_satisfiable_product(self, seed, arity):
        rng = random.Random(seed)
        tuples = [random_tuple(rng, arity) for _ in range(rng.randint(1, 3))]
        for gtuple in tuples:
            rows = gtuple.closure()
            if rows is None:
                continue
            for name, (attrs, periods) in _parameterizations(
                rng, tuples, gtuple
            ).items():
                full = split(gtuple, attrs, periods)
                want = _satisfiable(full, full.combos())
                before = COUNTERS["perf.prefilter_residue_skip"]
                pruned = split(gtuple, attrs, periods, rows=rows)
                if pruned is None:
                    got = []
                    formed = 0
                else:
                    combos = pruned.combos(rows)
                    got = _satisfiable(pruned, combos)
                    formed = len(combos)
                skipped = COUNTERS["perf.prefilter_residue_skip"] - before
                assert got == want, name
                assert formed + skipped == full.size, name

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_witness_solves_the_first_normal_form_tuple(self, seed, arity):
        rng = random.Random(seed)
        t = random_tuple(rng, arity)
        normal = normalize_tuple(t)
        witness = tuple_witness(t)
        if not normal:
            assert witness is None
            return
        first = normal[0]
        counters = first.n_dbm.copy().solution()
        assert witness == tuple(
            c + first.period * n for c, n in zip(first.offsets, counters)
        )
