"""A work guard for deciding from the closure stored tuples carry.

Every tuple stored in a relation carries its closure (the canonical-key
memo ``relation.add`` fills).  Selection, ``MINIMIZE``/``MAXIMIZE`` and
the pairwise operations decide from it, and skip exact work that cannot
change the answer.  These checks count work and never time it, on the
smoke inputs of the end-to-end benchmark (``benchmarks/e2e``, seeds
0-3):

* ``select`` over a relation of keyed tuples calls ``DBM.close`` zero
  times;
* every ``minimize`` text runs the exact per-tuple search
  (``optimize.tuples``) fewer times than its relation has tuples, and a
  planted 200-tuple relation whose best tuple has the tightest bound
  runs it once;
* ``pair_candidates`` equals the number of data-matching pairs whose
  lrps meet on the first shared temporal attribute, the pairs the
  residue index keeps.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.relations import GeneralizedRelation, Schema
from repro.optimize import Objective, core as optimize_core
from repro.perf import prefilter
from repro.perf.config import PERF_COUNTERS

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

from queries import SMOKE_SIZES, Inputs  # noqa: E402

SEEDS = (0, 1, 2, 3)
CASES = [
    (workload, seed) for workload in sorted(SMOKE_SIZES) for seed in SEEDS
]


def _optimize_tuples() -> int:
    return obs.metrics().counter("optimize.tuples").value


@pytest.mark.parametrize(("workload", "seed"), CASES)
def test_select_over_keyed_tuples_never_closes(workload, seed, monkeypatch):
    inputs = Inputs(SMOKE_SIZES[workload], seed)
    db = inputs.build()
    # The temporal selections of the query templates.
    conditions = {
        "R": ["a >= {k} & a <= {k120}", "b <= a + 40 & a >= {k}"],
        "S": ["b >= {k}", "c >= b + 30 & b <= {k120}"],
        "T": ["a >= {k} & a <= {k120}"],
    }
    relations = {name: db.relation(name) for name in conditions}
    assert all(t._key is not None for r in relations.values() for t in r)
    closes = []
    real_close = DBM.close

    def counting_close(self):
        closes.append(self)
        return real_close(self)

    monkeypatch.setattr(DBM, "close", counting_close)
    selected = 0
    for name, texts in conditions.items():
        for text in texts:
            for k in inputs.offsets:
                out = algebra.select(
                    relations[name], text.format(k=k, k120=k + 120)
                )
                selected += len(out)
    monkeypatch.undo()
    assert closes == []
    assert selected > 0


@pytest.mark.parametrize(("workload", "seed"), CASES)
def test_minimize_searches_fewer_tuples_than_it_holds(
    workload, seed, monkeypatch
):
    inputs = Inputs(SMOKE_SIZES[workload], seed)
    db = inputs.build()
    searches = []
    real = optimize_core.optimize_relation

    def counting(relation, *args, **kwargs):
        before = _optimize_tuples()
        result = real(relation, *args, **kwargs)
        searches.append((len(relation), _optimize_tuples() - before))
        return result

    monkeypatch.setattr(optimize_core, "optimize_relation", counting)
    for name, _call, text, _k in inputs.distinct():
        if name == "minimize":
            db.query(text)
    assert searches
    for size, searched in searches:
        # Only a one-tuple relation may need a search per tuple.
        assert searched < max(size, 2)
    if workload == "query_cold":
        assert any(size > 1 for size, _ in searches)


def test_tightest_bound_is_searched_alone():
    schema = Schema.make(temporal=["a"])
    rel = GeneralizedRelation.empty(schema)
    lows = list(range(200))
    random.Random(7).shuffle(lows)
    for low in lows:
        rel.add_tuple([f"{low % 5} + 5n"], f"a >= {10 + low} & a <= 5000")
    assert len(rel) == 200
    before = _optimize_tuples()
    result = optimize_core.optimize_relation(rel, Objective("a"), "min")
    assert _optimize_tuples() - before == 1
    assert result.value == 10
    assert result.tuples_examined == 200


def _residue_pairs(r1, r2, shared_t, shared_d) -> int:
    """Data-matching pairs whose lrps meet on ``shared_t[0]``."""
    count = 0
    for t1 in r1:
        for t2 in r2:
            if any(t1.data[i] != t2.data[j] for i, j in shared_d):
                continue
            if not shared_t or prefilter.lrp_pair_compatible(
                t1.lrps[shared_t[0][0]], t2.lrps[shared_t[0][1]]
            ):
                count += 1
    return count


def _join_residue_pairs(r1, r2) -> int:
    s1, s2 = r1.schema, r2.schema
    shared = [a for a in s1.attributes if s2.has(a.name)]
    shared_t = [
        (s1.temporal_index(a.name), s2.temporal_index(a.name))
        for a in shared
        if a.temporal
    ]
    shared_d = [
        (s1.data_index(a.name), s2.data_index(a.name))
        for a in shared
        if not a.temporal
    ]
    return _residue_pairs(r1, r2, shared_t, shared_d)


def _intersect_residue_pairs(r1, r2) -> int:
    arity = r1.schema.temporal_arity
    shared_t = [(0, 0)] if arity else []
    shared_d = [(i, i) for i in range(r1.schema.data_arity)]
    return _residue_pairs(r1, r2, shared_t, shared_d)


@pytest.mark.parametrize(("workload", "seed"), CASES)
def test_pair_candidates_are_the_residue_matches(workload, seed, monkeypatch):
    inputs = Inputs(SMOKE_SIZES[workload], seed)
    db = inputs.build()
    checked = []

    def guarded(real, reference):
        def run(r1, r2):
            expected = reference(r1, r2)
            before = PERF_COUNTERS["pair_candidates"]
            result = real(r1, r2)
            checked.append(
                (PERF_COUNTERS["pair_candidates"] - before, expected)
            )
            return result

        return run

    monkeypatch.setattr(
        algebra, "join", guarded(algebra.join, _join_residue_pairs)
    )
    monkeypatch.setattr(
        algebra,
        "intersect",
        guarded(algebra.intersect, _intersect_residue_pairs),
    )
    for _name, call, text, _k in inputs.distinct():
        if call == "ask":
            db.ask(text)
        else:
            db.query(text)
    assert checked
    assert [got for got, _ in checked] == [want for _, want in checked]
    assert sum(want for _, want in checked) > 0
