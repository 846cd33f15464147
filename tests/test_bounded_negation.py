"""A join answers a complement input within its partner's box.

``X ⋈ ¬B`` keeps only points of ``X``, so the engine joins ``X`` with
``subtract(bounding_box(X), B)`` in place of ``B``'s complement over
Z whenever ``X`` is bounded on ``B``'s attributes.  Every case here
checks the point set against the whole-complement path, and that
``perf.complement_boxed`` moves exactly when the box is used.
"""

import pytest

from repro.core import algebra
from repro.core.errors import NormalizationLimitError
from repro.core.relations import GeneralizedRelation, Schema
from repro.obs.metrics import COUNTERS
from repro.plan import nodes as ir
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.query import Database

WINDOW = (-60, 60)

A = Schema.make(temporal=["a"])
AC = Schema.make(temporal=["a", "c"])
AB = Schema.make(temporal=["a", "b"])
AD = Schema.make(temporal=["a"], data=["s"])


def _relation(schema, rows):
    out = GeneralizedRelation.empty(schema)
    for row in rows:
        out.add_tuple(*row)
    return out


RELATIONS = {
    # Two bounded tuples, one periodic, one a single point.
    "X": _relation(A, [(["1 + 3n"], "a >= -5 & a <= 20"), ([30], "")]),
    "XC": _relation(
        AC, [(["0 + 2n", "0 + 1n"], "a >= 0 & a <= 12 & c >= a & c <= a + 4")]
    ),
    "U": _relation(A, [(["0 + 4n"], "a >= 0")]),
    "B": _relation(A, [(["0 + 2n"], "a >= 4 & a <= 10"), ([25], "")]),
    "BB": _relation(
        AB, [(["0 + 1n", "0 + 1n"], "a >= 0 & a <= 6 & b = a + 1")]
    ),
    "BD": _relation(AD, [(["0 + 5n"], "a >= 0 & a <= 30", ["p"])]),
}


def _run(plan, memo=None):
    ctx = ExecutionContext(
        relations=RELATIONS, data_domain={"p", "q"}, memo=memo
    )
    before = COUNTERS["perf.complement_boxed"]
    result = NativeEngine().run(plan, ctx)
    return result, COUNTERS["perf.complement_boxed"] - before, ctx


def _scan(name):
    return ir.Scan(name, RELATIONS[name].schema)


def _points(relation):
    return relation.snapshot(*WINDOW)


def _expected(left, right, condition=""):
    """The join over the whole complement of the complement side."""
    sides = []
    for side in (left, right):
        if isinstance(side, ir.Complement):
            child = RELATIONS[side.child.name]
            domains = {name: ["p", "q"] for name in child.schema.data_names}
            sides.append(
                algebra.complement(child, data_domains=domains or None)
            )
        else:
            sides.append(
                NativeEngine().run(side, ExecutionContext(RELATIONS))
            )
    return algebra.join(*sides, condition=condition)


NOT_B = ir.Complement(_scan("B"))
BOXED = [
    ("right", ir.Join(_scan("X"), NOT_B)),
    ("left", ir.Join(NOT_B, _scan("X"))),
    ("theta", ir.Join(_scan("XC"), NOT_B, condition="c >= a + 2")),
    ("selected", ir.Join(ir.Select(_scan("U"), "a <= 16"), NOT_B)),
    ("empty-partner", ir.Join(ir.Select(_scan("X"), "a >= 100"), NOT_B)),
]


@pytest.mark.parametrize(
    "plan", [pytest.param(plan, id=name) for name, plan in BOXED]
)
def test_boxed_join_has_the_complement_paths_points(plan):
    result, boxed, ctx = _run(plan)
    expected = _expected(plan.left, plan.right, plan.condition)
    assert result.schema == expected.schema
    assert _points(result) == _points(expected)
    assert boxed == 1
    assert len(ctx.boxed) == 1


def test_empty_partner_gets_the_empty_box():
    plan = BOXED[-1][1]
    result, _, ctx = _run(plan)
    assert result.is_empty()
    assert list(ctx.boxed.values()) == ["empty"]


def test_box_is_snapped_onto_the_partners_points():
    # X's points lie in 1 + 3n over [-5, 20] and at 30.
    box = algebra.bounding_box(RELATIONS["X"], A)
    (gtuple,) = box
    assert (gtuple.dbm.lower(0), gtuple.dbm.upper(0)) == (-5, 30)
    inner = GeneralizedRelation.empty(A)
    inner.add_tuple(["1 + 3n"], "a >= -6 & a <= 21")
    (gtuple,) = algebra.bounding_box(inner, A)
    assert (gtuple.dbm.lower(0), gtuple.dbm.upper(0)) == (-5, 19)


FALLBACKS = [
    ("unbounded-partner", ir.Join(_scan("U"), NOT_B)),
    ("data-attribute", ir.Join(_scan("X"), ir.Complement(_scan("BD")))),
    ("missing-attribute", ir.Join(_scan("X"), ir.Complement(_scan("BB")))),
]


@pytest.mark.parametrize(
    "plan", [pytest.param(plan, id=name) for name, plan in FALLBACKS]
)
def test_fallback_takes_the_whole_complement(plan):
    result, boxed, ctx = _run(plan)
    expected = _expected(plan.left, plan.right)
    assert result == expected
    assert boxed == 0
    assert not ctx.boxed


def test_shared_complement_keeps_the_whole_complement():
    # One complement object read by the join and by the union: with a
    # memo its result is kept for the second use, so it is not boxed.
    plan = ir.Union(ir.Join(_scan("X"), NOT_B), NOT_B)
    assert id(NOT_B) in plan.shared
    result, boxed, _ = _run(plan, memo={})
    assert boxed == 0
    whole = algebra.complement(RELATIONS["B"])
    assert _points(result) == _points(whole)


def test_unshared_complement_under_a_memo_is_boxed():
    result, boxed, ctx = _run(ir.Join(_scan("X"), NOT_B), memo={})
    assert boxed == 1
    assert id(NOT_B) not in ctx.memo  # the box is no complement to reuse


def test_closed_projection_reads_the_boxed_join_lazily():
    plan = ir.Project(ir.Join(_scan("X"), NOT_B), ())
    result, boxed, ctx = _run(plan)
    assert boxed == 1
    assert not result.is_empty()
    assert ctx.unbuilt
    # X's one point in [4, 6] (at 4) lies in B: the closed projection
    # is false.
    covered = ir.Project(
        ir.Join(ir.Select(_scan("X"), "a >= 4 & a <= 6"), NOT_B), ()
    )
    result, boxed, _ = _run(covered)
    assert boxed == 1
    assert result.is_empty()


def test_size_guard_falls_back_to_the_complement():
    # Box minus B folds through more than 2 pieces; B's complement
    # stays within 2 normalized tuples.
    box = algebra.bounding_box(RELATIONS["X"], A)
    with pytest.raises(NormalizationLimitError):
        algebra.subtract(box, RELATIONS["B"], max_tuples=2)
    ctx = ExecutionContext(relations=RELATIONS, max_tuples=2)
    before = COUNTERS["perf.complement_boxed"]
    result = NativeEngine().run(ir.Join(_scan("X"), NOT_B), ctx)
    assert COUNTERS["perf.complement_boxed"] == before
    expected = _expected(_scan("X"), NOT_B)
    assert _points(result) == _points(expected)


@pytest.fixture
def negation_db():
    db = Database()
    slot = db.create("Slot", temporal=["a"])
    slot.add_tuple(["0 + 5n"], "a >= 0 & a <= 100")
    load = db.create("Load", temporal=["a", "b"], data=["s"])
    load.add_tuple(
        ["0 + 10n", "0 + 1n"], "a >= 20 & a <= 60 & b = a + 3", ["x"]
    )
    return db


NEGATED = 'Slot(a) & ~(EXISTS b. Load(a, b, "x")) & a >= 10 & a <= 70'


#: The box per plan: the rewritten plan pushes the window below the
#: join, the naive plan joins all of ``Slot``.
BOXES = [(True, "a in [10, 70]"), (False, "a in [0, 100]")]


@pytest.mark.parametrize("optimize, box", BOXES, ids=["optimized", "naive"])
def test_explain_shows_the_complements_size_and_box(negation_db, optimize, box):
    report = negation_db.explain(NEGATED, optimize=optimize)
    (line,) = [row for row in str(report).splitlines() if "complement" in row]
    (node,) = [n for n in report.plan.walk() if isinstance(n, ir.Complement)]
    annotation = report.annotations[id(node)]
    assert annotation == ir.Boxed(annotation.tuples, box)
    assert line.endswith(f"-> {annotation.tuples} tuple(s) within box {box}")
    dumped = report.to_dict()

    def complements(entry):
        if entry["op"] == "complement":
            yield entry
        for child in entry.get("children", ()):
            yield from complements(child)

    (entry,) = complements(dumped["plan"])
    assert entry["box"] == box
    assert entry["out_tuples"] == annotation.tuples


@pytest.mark.parametrize("optimize, box", BOXES, ids=["optimized", "naive"])
def test_explain_analyze_puts_the_subtract_under_the_complement(
    negation_db, optimize, box
):
    trace = negation_db.trace(NEGATED, optimize=optimize)
    (span,) = [
        s for s in trace.root.walk()
        if s.name.endswith(".complement") and not s.name.startswith("algebra.")
    ]
    names = [child.name for child in span.children]
    assert "algebra.subtract" in names
    assert "algebra.complement" not in names
    assert span.attrs["box"] == box


def test_negated_query_points(negation_db):
    result = negation_db.query(NEGATED)
    # Slot points 10..70 step 5, minus Load's a in {20, 30, ..., 60}.
    got = sorted(point for (point,) in result.snapshot(0, 100))
    assert got == [10, 15, 25, 35, 45, 55, 65, 70]
