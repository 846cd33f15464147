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
  lrps meet on the first shared temporal attribute or, for a join
  with a condition and no shared temporal attribute, can meet inside
  the condition's first two-sided window between a left and a right
  attribute: the pairs the residue index keeps;
* a projection that eliminates a temporal attribute normalizes exactly
  the split combos whose lrps meet the tuple's closed windows, and a
  projection that only reorders or drops data calls ``DBM.close`` and
  ``kernel.pack`` zero times.  These run on the ``query_cold`` inputs
  and on a ``stream_ingest`` smoke stream (``benchmarks/e2e/stream.py``).
"""

from __future__ import annotations

import itertools
import random
import sys
from math import gcd
from pathlib import Path

import pytest

from repro.core import algebra
from repro.arith import lcm
from repro.core.constraints import atoms_to_dbm, parse_atoms
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.obs.metrics import COUNTERS
from repro.optimize import Objective, core as optimize_core
from repro.perf import kernel, prefilter
from repro.perf.config import overrides

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.append(str(E2E))

import stream  # noqa: E402
from queries import SMOKE_SIZES, Inputs  # noqa: E402

SEEDS = (0, 1, 2, 3)
CASES = [
    (workload, seed) for workload in sorted(SMOKE_SIZES) for seed in SEEDS
]


def _optimize_tuples() -> int:
    return COUNTERS["optimize.tuples"]


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


def _in_window(lrp1: LRP, lrp2: LRP, low: int, high: int) -> bool:
    """Whether some ``x2 - x1`` lies in ``[low, high]``, brute force."""
    g = gcd(lrp1.period, lrp2.period)
    diff = lrp2.offset - lrp1.offset
    if not g:
        return low <= diff <= high
    return any((diff - d) % g == 0 for d in range(low, high + 1))


def _residue_pairs(r1, r2, shared_t, shared_d, window=None) -> int:
    """Data-matching pairs whose lrps meet on ``shared_t[0]``, or else
    whose ``window = (i1, i2, low, high)`` lrps can meet inside it."""
    count = 0
    for t1 in r1:
        for t2 in r2:
            if any(t1.data[i] != t2.data[j] for i, j in shared_d):
                continue
            if shared_t:
                if not prefilter.lrp_pair_compatible(
                    t1.lrps[shared_t[0][0]], t2.lrps[shared_t[0][1]]
                ):
                    continue
            elif window is not None:
                i1, i2, low, high = window
                if not _in_window(t1.lrps[i1], t2.lrps[i2], low, high):
                    continue
            count += 1
    return count


def _cross_window(s1, s2, condition: str):
    """The condition's first two-sided ``right - left`` window, as
    ``(i1, i2, low, high)``: right attributes in order, then left."""
    atoms = parse_atoms(condition)
    if not atoms:
        return None
    names = s1.temporal_names + tuple(
        n for n in s2.temporal_names if not s1.has(n)
    )
    rows = atoms_to_dbm(atoms, names)._b
    for name in names[len(s1.temporal_names):]:
        a = names.index(name) + 1
        for i1 in range(len(s1.temporal_names)):
            high, low = rows[a][i1 + 1], rows[i1 + 1][a]
            if high is not None and low is not None:
                return i1, s2.temporal_index(name), -low, high
    return None


def _join_residue_pairs(r1, r2, condition="") -> int:
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
    window = _cross_window(s1, s2, condition)
    return _residue_pairs(r1, r2, shared_t, shared_d, window)


def _intersect_residue_pairs(r1, r2) -> int:
    arity = r1.schema.temporal_arity
    shared_t = [(0, 0)] if arity else []
    shared_d = [(i, i) for i in range(r1.schema.data_arity)]
    return _residue_pairs(r1, r2, shared_t, shared_d)


def _guard_pairs(monkeypatch) -> list[tuple[int, int, str]]:
    """Record ``(pair_candidates, expected, condition)`` per join/intersect."""
    checked: list[tuple[int, int, str]] = []

    def guarded(real, reference):
        def run(r1, r2, **condition):
            expected = reference(r1, r2, **condition)
            before = COUNTERS["perf.pair_candidates"]
            result = real(r1, r2, **condition)
            checked.append(
                (
                    COUNTERS["perf.pair_candidates"] - before,
                    expected,
                    condition.get("condition", ""),
                )
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
    return checked


@pytest.mark.parametrize(("workload", "seed"), CASES)
def test_pair_candidates_are_the_residue_matches(workload, seed, monkeypatch):
    inputs = Inputs(SMOKE_SIZES[workload], seed)
    db = inputs.build()
    checked = _guard_pairs(monkeypatch)
    for _name, call, text, _k in inputs.distinct():
        if call == "ask":
            db.ask(text)
        else:
            db.query(text)
    assert checked
    assert [got for got, *_ in checked] == [want for _, want, _ in checked]
    assert sum(want for _, want, _ in checked) > 0


def test_stream_pair_candidates_are_the_windowed_matches(monkeypatch):
    from repro.api import Database, Program

    count, nodes, batches, edges = stream.SMOKE_SIZE
    shape = stream._shapes(count, nodes, batches, edges)[0]
    db = Database()
    db.create("Edge", temporal=["t"], data=["src", "dst"])
    # Only rewritten plans carry join conditions.
    with overrides(optimize=True):
        db.install_program(Program.from_text(stream.PROGRAM))
        checked = _guard_pairs(monkeypatch)
        for batch in stream._stream(shape, nodes, random.Random(0)):
            db.append_stream("Edge", batch)
    monkeypatch.undo()
    windowed = [(got, want) for got, want, cond in checked if cond]
    assert windowed and sum(want for _, want in windowed) > 0
    assert [got for got, *_ in checked] == [want for _, want, _ in checked]


def _has_member(lrp: LRP, low, high) -> bool:
    """Whether ``lrp`` has a value in ``[low, high]`` (``None``: unbounded)."""
    if lrp.period and (low is None or high is None):
        return True
    if low is None:
        return lrp.offset <= high
    if high is None:
        return lrp.offset >= low
    return next(lrp.enumerate(low, high), None) is not None


def _cluster(gtuple, seeds) -> list[int]:
    """Attributes linked to ``seeds`` by written difference constraints."""
    links = {
        (i, j) for i, j, _bound in gtuple.dbm.iter_bounds() if i >= 0 <= j
    }
    cluster = set(seeds)
    grown = True
    while grown:
        grown = False
        for i, j in links:
            if (i in cluster) != (j in cluster):
                cluster |= {i, j}
                grown = True
    return sorted(cluster)


def _feasible_combos(relation, names) -> int:
    """Split combos of an elimination whose lrps meet the closed windows."""
    schema = relation.schema
    keep = [schema.temporal_index(n) for n in names if n in schema.temporal_names]
    dropped = [i for i in range(schema.temporal_arity) if i not in keep]
    count = 0
    for gtuple in relation:
        rows = gtuple.closure()
        if rows is None:
            continue
        attrs = _cluster(gtuple, dropped)
        lrps = [gtuple.lrps[a] for a in attrs]
        k = 1
        for lrp in lrps:
            k = lcm(k, lrp.period) if lrp.period else k
        for combo in itertools.product(*(lrp.split(k) for lrp in lrps)):
            count += all(
                _has_member(
                    lrp,
                    None if rows[0][a + 1] is None else -rows[0][a + 1],
                    rows[a + 1][0],
                )
                for a, lrp in zip(attrs, combo)
            ) and all(
                _has_member(
                    LRP.make(
                        combo[q].offset - combo[p].offset,
                        gcd(combo[q].period, combo[p].period),
                    ),
                    None if rows[a + 1][b + 1] is None else -rows[a + 1][b + 1],
                    rows[b + 1][a + 1],
                )
                for p, q in itertools.combinations(range(len(attrs)), 2)
                for a, b in [(attrs[p], attrs[q])]
            )
    return count


def _guard_projections(monkeypatch):
    """Record, per projection, (formed, feasible) for eliminations and
    (closes, packs) for reorders and data-only drops."""
    eliminations, reorders = [], []
    work = {"jobs": 0, "scalar": 0, "combos": 0, "closes": 0, "packs": 0}
    real_project = algebra.project
    real_batch = kernel.project_batch
    real_combo = algebra._project_combo
    real_close = DBM.close
    real_pack = kernel.pack

    def project(relation, names, *args, **kwargs):
        temporal = set(relation.schema.temporal_names)
        eliminates = not temporal <= set(names)
        expected = _feasible_combos(relation, names) if eliminates else None
        before = dict(work)
        result = real_project(relation, names, *args, **kwargs)
        delta = {key: work[key] - before[key] for key in work}
        if eliminates:
            # A combo the kernel hands back as SCALAR is redone by
            # _project_combo: count it once.
            formed = delta["jobs"] + delta["combos"] - delta["scalar"]
            eliminations.append((formed, expected))
        else:
            reorders.append((delta["closes"], delta["packs"]))
        return result

    def project_batch(jobs):
        results = real_batch(jobs)
        work["jobs"] += len(jobs)
        work["scalar"] += sum(r is kernel.SCALAR for r in results)
        return results

    def project_combo(*args):
        work["combos"] += 1
        return real_combo(*args)

    def close(self):
        work["closes"] += 1
        return real_close(self)

    def pack(dbms):
        work["packs"] += 1
        return real_pack(dbms)

    monkeypatch.setattr(algebra, "project", project)
    monkeypatch.setattr(kernel, "project_batch", project_batch)
    monkeypatch.setattr(algebra, "_project_combo", project_combo)
    monkeypatch.setattr(DBM, "close", close)
    monkeypatch.setattr(kernel, "pack", pack)
    return eliminations, reorders


def _assert_guarded(eliminations, reorders) -> None:
    assert eliminations and reorders
    assert [got for got, _ in eliminations] == [
        want for _, want in eliminations
    ]
    assert sum(want for _, want in eliminations) > 0
    assert all(closes == 0 and packs == 0 for closes, packs in reorders)


@pytest.mark.parametrize("seed", SEEDS)
def test_projection_normalizes_only_residue_feasible_combos(seed, monkeypatch):
    inputs = Inputs(SMOKE_SIZES["query_cold"], seed)
    db = inputs.build()
    eliminations, reorders = _guard_projections(monkeypatch)
    for _name, call, text, _k in inputs.distinct():
        if call == "ask":
            db.ask(text)
        else:
            db.query(text)
    monkeypatch.undo()
    _assert_guarded(eliminations, reorders)


def test_stream_projection_normalizes_only_residue_feasible_combos(
    tmp_path, monkeypatch
):
    from repro.api import Database, Program

    count, nodes, batches, edges = stream.SMOKE_SIZE
    shape = stream._shapes(count, nodes, batches, edges)[0]
    batches = stream._stream(shape, nodes, random.Random(0))
    db = Database.open(str(tmp_path / "db"))
    try:
        db.create("Edge", temporal=["t"], data=["src", "dst"])
        db.commit()
        db.install_program(Program.from_text(stream.PROGRAM))
        eliminations, reorders = _guard_projections(monkeypatch)
        for batch in batches:
            db.append_stream("Edge", batch)
        monkeypatch.undo()
    finally:
        db.close()
    _assert_guarded(eliminations, reorders)
