"""Every directive gets the same answer through every query front door.

A query reaches the engine through the embedded ``Database``, a pinned
``Snapshot`` or the wire (``SyncClient`` against a live
``ReproServer``).  All three share one directive dispatcher, so for
each directive the paths must agree on the result relation, on the
optimization verdict and on the rendered plan text — with the plan
rewrite passes off and on.  Every plan face, with or without
``ANALYZE`` and ``MINIMIZE``/``MAXIMIZE``, is ``str()`` of one
executed ``PlanReport``.
"""

import json

import pytest

from repro.core.relations import GeneralizedRelation
from repro.optimize import OptimizationResult
from repro.perf.config import overrides
from repro.plan.report import PlanReport
from repro.query import Database, QueryTrace
from repro.query.parser import Directive, split_directive
from repro.serve import ReproServer, SyncClient

QUERY = "EXISTS a. Train(d, a, s) & d >= 0 & d <= 500"

#: (test id, query text, the faces its answer has)
MATRIX = [
    ("plain", QUERY, {"result"}),
    ("explain", f"EXPLAIN {QUERY}", {"plan"}),
    ("explain-analyze", f"EXPLAIN ANALYZE {QUERY}", {"result", "plan"}),
    ("minimize", f"MINIMIZE d : {QUERY}", {"result", "optimum"}),
    ("maximize", f"MAXIMIZE d : {QUERY}", {"result", "optimum"}),
    ("explain-minimize", f"EXPLAIN MINIMIZE d : {QUERY}", {"plan"}),
    (
        "explain-analyze-maximize",
        f"EXPLAIN ANALYZE MAXIMIZE d : {QUERY}",
        {"result", "plan"},
    ),
]

_EXPLAINS = (Directive.EXPLAIN, Directive.EXPLAIN_ANALYZE)
_OPTIMIZES = (Directive.MINIMIZE, Directive.MAXIMIZE)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    db = Database.open(str(tmp_path_factory.mktemp("front") / "db"))
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    train = db.relation("Train")
    train.add_tuple(["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"])
    train.add_tuple(["17 + 60n", "75 + 60n"], "dep = arr - 58", ["fast"])
    slot = db.create("Slot", temporal=["a"])
    slot.add_tuple(["0 + 5n"], "a >= 0 & a <= 300")
    slot.add_tuple(["2 + 7n"], "a >= 150 & a <= 400")
    load = db.create("Load", temporal=["a", "b"], data=["x"])
    load.add_tuple(
        ["0 + 10n", "1 + 3n"],
        "a >= 20 & a <= 200 & b >= a & b <= a + 6",
        ["svc"],
    )
    load.add_tuple(
        ["0 + 4n", "0 + 1n"], "a >= 180 & a <= 260 & b = a + 2", ["svc"]
    )
    load.add_tuple(
        ["0 + 1n", "0 + 1n"], "a >= 0 & a <= 400 & b = a", ["other"]
    )
    db.commit()
    server = ReproServer.for_database(db).start_in_thread()
    client = SyncClient(port=server.port)
    yield db, client
    client.close()
    server.stop_in_thread()
    db.close()


def _relation(rel: GeneralizedRelation) -> tuple:
    return str(rel.schema), sorted(str(t) for t in rel.tuples)


def _local_faces(answer) -> dict:
    """The comparable faces of an in-process answer."""
    if isinstance(answer, GeneralizedRelation):
        return {"result": _relation(answer)}
    if isinstance(answer, OptimizationResult):
        return {
            "result": _relation(answer.argopt_restriction()),
            # The wire ships JSON; compare against the same encoding.
            "optimum": json.loads(json.dumps(answer.to_dict())),
        }
    if isinstance(answer, QueryTrace):
        assert isinstance(answer.plan(), PlanReport)
        return {
            "result": _relation(answer.result),
            "plan": str(answer.plan()),
        }
    assert isinstance(answer, PlanReport)
    return {"plan": str(answer)}


def _wire_faces(client: SyncClient, text: str) -> dict:
    """The comparable faces of the same query over the wire."""
    directive, _ = split_directive(text)
    faces: dict = {}
    if directive in _EXPLAINS:
        plan, trace = client.explain(text)
        faces["plan"] = plan
        if directive is Directive.EXPLAIN_ANALYZE:
            assert trace["trace"]["name"] == "query.evaluate"
            faces["result"] = _relation(client.query(text))
        else:
            assert trace is None
        return faces
    faces["result"] = _relation(client.query(text))
    if directive in _OPTIMIZES:
        faces["optimum"] = client.optimize(text)
    return faces


@pytest.mark.parametrize("optimize", [False, True], ids=["naive", "optimized"])
@pytest.mark.parametrize(
    "text, faces",
    [pytest.param(text, faces, id=name) for name, text, faces in MATRIX],
)
def test_directive_agrees_on_every_path(served, text, faces, optimize):
    db, client = served
    with overrides(optimize=optimize):
        embedded = _local_faces(db.query(text))
        pinned = _local_faces(db.snapshot().query(text))
        wire = _wire_faces(client, text)
    assert set(embedded) == faces
    assert pinned == embedded
    assert wire == embedded
    if "plan" in faces:
        state = "optimized" if optimize else "naive"
        lines = embedded["plan"].splitlines()
        assert lines[0].startswith(f"plan [{state}] for: ")
        for word, sense in (("MINIMIZE", "min"), ("MAXIMIZE", "max")):
            if word in text:
                # The plan sits under the root optimize_query executes.
                assert lines[1].startswith(f"  optimize[{sense} d]")


@pytest.mark.parametrize("optimize", [False, True], ids=["naive", "optimized"])
def test_ask_agrees_on_every_path(served, optimize):
    db, client = served
    closed = 'EXISTS d. EXISTS a. Train(d, a, "fast") & d >= 60'
    with overrides(optimize=optimize):
        answers = {db.ask(closed), db.snapshot().ask(closed), client.ask(closed)}
    assert answers == {True}


#: Between a fast arrival (15 mod 60) and a slow departure (2 mod 60).
_GAP = 'Train(d, a, "fast") & Train(b, e, "slow") & b >= a + {lo} & b <= a + {hi}'

#: (test id, closed query text, its answer): a projection that keeps no
#: temporal attribute decides by emptiness, over a join lazily.
ASKS = [
    # Satisfiable constraints, but no fast departure (17 mod 60) in them.
    ("false", 'EXISTS d. EXISTS a. Train(d, a, "fast") & d >= 60 & d <= 70', False),
    (
        "true-join",
        "EXISTS d. EXISTS a. EXISTS b. EXISTS e. " + _GAP.format(lo=40, hi=50),
        True,
    ),
    # Candidates satisfy every constraint, but no fast departure
    # (17 mod 60) lies in [60, 70].
    (
        "false-join",
        "EXISTS d. EXISTS a. EXISTS b. EXISTS e. "
        + _GAP.format(lo=40, hi=50)
        + " & d >= 60 & d <= 70",
        False,
    ),
    (
        "data-exists",
        "EXISTS s. EXISTS d. EXISTS a. Train(d, a, s) & d >= 60 & d <= 70",
        True,
    ),
    # The 4-way join is shared (dedup-subtrees): materialized under
    # the projection onto d and s, then read as is by the closed one.
    (
        "shared-join",
        "EXISTS d. EXISTS s. "
        "(EXISTS a. EXISTS b. EXISTS e. Train(d, a, s) & Train(b, e, s) "
        "& b >= a + 40 & b <= a + 50) & "
        "(EXISTS d. EXISTS a. EXISTS b. EXISTS e. Train(d, a, s) "
        "& Train(b, e, s) & b >= a + 40 & b <= a + 50)",
        True,
    ),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["naive", "optimized"])
@pytest.mark.parametrize(
    "closed, expected",
    [pytest.param(text, answer, id=name) for name, text, answer in ASKS],
)
def test_closed_ask_agrees_on_every_path(served, optimize, closed, expected):
    db, client = served
    with overrides(optimize=optimize):
        answers = {db.ask(closed), db.snapshot().ask(closed), client.ask(closed)}
    assert answers == {expected}


@pytest.mark.parametrize("optimize", [False, True], ids=["naive", "optimized"])
def test_data_only_exists_agrees_on_every_path(served, optimize):
    # Only the slow service departs in [60, 70] (at 62).
    text = "EXISTS d. EXISTS a. Train(d, a, s) & d >= 60 & d <= 70"
    db, client = served
    with overrides(optimize=optimize):
        embedded = _relation(db.query(text))
        pinned = _relation(db.snapshot().query(text))
        wire = _relation(client.query(text))
    assert embedded == pinned == wire
    (only,) = embedded[1]
    assert "slow" in only


#: The e2e ``negated_projection`` template, and its body without the
#: window: both join ``Slot`` with a complement, which the engine
#: answers within the box of ``Slot``'s points.
NEGATED = [
    (
        "negated-projection",
        'Slot(a) & ~(EXISTS b. Load(a, b, "svc")) & a >= 100 & a <= 300',
    ),
    ("negated-unwindowed", 'Slot(a) & ~(EXISTS b. Load(a, b, "svc"))'),
]


@pytest.mark.parametrize("optimize", [False, True], ids=["naive", "optimized"])
@pytest.mark.parametrize(
    "text", [pytest.param(text, id=name) for name, text in NEGATED]
)
def test_negated_projection_agrees_on_every_path(served, optimize, text):
    db, client = served
    with overrides(optimize=optimize):
        embedded = db.query(text)
        pinned = db.snapshot().query(text)
        wire = client.query(text)
    assert _relation(embedded) == _relation(pinned) == _relation(wire)
    # Slot's points not in Load's svc extension, read point by point.
    slot, load = db.relation("Slot"), db.relation("Load")
    expected = {
        (a,)
        for (a,) in slot.snapshot(0, 400)
        if not any(load.contains([a, b], ["svc"]) for b in range(a, a + 7))
    }
    if "<=" in text:
        expected = {(a,) for (a,) in expected if 100 <= a <= 300}
    assert embedded.snapshot(-10, 410) == expected
    assert expected


def test_query_rejects_a_plan_only_answer(served):
    from repro.core.errors import ServeError

    _, client = served
    with pytest.raises(ServeError, match="explain"):
        client.query(f"EXPLAIN {QUERY}")
    with pytest.raises(ServeError, match="EXPLAIN"):
        client.explain(QUERY)
