"""Tests for the query language parser and sort inference."""

import pytest

from repro.core.errors import ParseError
from repro.core.relations import Schema
from repro.query import (
    And,
    Cmp,
    CmpOp,
    DataConst,
    DataEq,
    DataVar,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Pred,
    Sort,
    TempConst,
    TempVar,
    free_variables,
    parse_query,
)

SCHEMAS = {
    "Perform": Schema.make(temporal=["t1", "t2"], data=["robot", "task"]),
    "Tick": Schema.make(temporal=["t"]),
    "Label": Schema.make(data=["name"]),
}


def parse(text):
    return parse_query(text, SCHEMAS)


class TestAtoms:
    def test_predicate_with_mixed_args(self):
        q = parse('Perform(t1, t2 + 3, x, "task2")')
        assert q == Pred(
            "Perform",
            (
                TempVar("t1"),
                TempVar("t2", 3),
                DataVar("x"),
                DataConst("task2"),
            ),
        )

    def test_temporal_constant_argument(self):
        q = parse("Tick(5)")
        assert q == Pred("Tick", (TempConst(5),))

    def test_offset_folding_on_constants(self):
        q = parse("Tick(5 + 2)")
        assert q == Pred("Tick", (TempConst(7),))

    def test_comparison(self):
        q = parse("t1 + 5 <= t2")
        assert q == Cmp(TempVar("t1", 5), CmpOp.LE, TempVar("t2"))

    def test_comparison_with_constant(self):
        q = parse("t1 < 10")
        assert q == Cmp(TempVar("t1"), CmpOp.LT, TempConst(10))

    def test_data_equality_with_string(self):
        q = parse('x = "task1"')
        assert q == DataEq(DataVar("x"), DataConst("task1"))

    def test_data_equality_between_vars(self):
        # z is forced to data sort by its predicate position.
        q = parse('EXISTS z. Perform(t1, t2, z, "t") & z = w')
        body = q.body
        assert isinstance(body, And)
        assert body.parts[1] == DataEq(DataVar("z"), DataVar("w"))

    def test_negative_temporal_constant(self):
        q = parse("t1 >= -5")
        assert q == Cmp(TempVar("t1"), CmpOp.GE, TempConst(-5))


class TestConnectivesAndQuantifiers:
    def test_precedence(self):
        q = parse("Tick(t) & Tick(u) | Tick(v)")
        assert isinstance(q, Or)
        assert isinstance(q.parts[0], And)

    def test_implication_binds_loosest(self):
        q = parse("Tick(t) & Tick(u) -> Tick(v)")
        assert isinstance(q, Implies)
        assert isinstance(q.antecedent, And)

    def test_negation(self):
        q = parse("~Tick(t)")
        assert isinstance(q, Not)

    def test_quantifier_sorts_inferred(self):
        q = parse("EXISTS t. Tick(t)")
        assert isinstance(q, Exists) and q.sort is Sort.TEMPORAL
        q = parse('EXISTS x. Perform(a, b, x, "task1")')
        assert q.sort is Sort.DATA

    def test_forall(self):
        q = parse("FORALL t. Tick(t) -> t >= 0")
        assert isinstance(q, Forall)

    def test_nested_quantifiers(self):
        q = parse("EXISTS t. FORALL u. Tick(t) & (Tick(u) -> u <= t)")
        assert isinstance(q, Exists)
        assert isinstance(q.body, Forall)

    def test_example_4_1_parses(self):
        text = """
        EXISTS x. EXISTS y. EXISTS t1. EXISTS t2.
        FORALL t3. FORALL t4. FORALL z.
          (Perform(t1, t2, x, "task2")
             & t1 <= t3 & t3 <= t4 & t4 <= t2 & t1 + 5 <= t2)
          -> ~Perform(t3, t4, y, z)
        """
        q = parse(text)
        assert not free_variables(q)


class TestErrors:
    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
            parse("Nope(t)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("Tick(t, u)")

    def test_sort_clash(self):
        with pytest.raises(ParseError):
            parse('Perform(x, t2, x, "task1")')

    def test_string_in_temporal_position(self):
        with pytest.raises(ParseError):
            parse('Tick("now")')

    def test_data_inequality_rejected(self):
        with pytest.raises(ParseError):
            parse('x <= "task1"')

    def test_successor_on_data_var(self):
        with pytest.raises(ParseError):
            parse('EXISTS x. Perform(t1, t2, x, "q") & Label(x + 1)')

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("Tick(t) Tick(u)")
        # Column 9 is the second ``Tick``, not the space before it.
        assert (exc.value.line, exc.value.column) == (1, 9)
        assert "(at line 1, column 9)" in str(exc.value)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("(Tick(t)")
        assert (exc.value.line, exc.value.column) == (1, 9)
        assert "(at line 1, column 9)" in str(exc.value)

    def test_multiline_error_reports_line_and_column(self):
        # Position is line/column into the source, not a byte offset:
        # the error is at column 8 of line 2, byte offset 17.
        with pytest.raises(ParseError) as exc:
            parse("EXISTS t.\nTick(t,")
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert "(at line 2, column 8)" in str(exc.value)
        assert "position" not in str(exc.value)

    def test_bad_character_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse("Tick(t) %")
        assert exc.value.line == 1
        assert exc.value.column is not None

    def test_bad_character_after_whitespace_is_named(self):
        with pytest.raises(ParseError) as exc:
            parse("a @ b")
        assert "unexpected character '@'" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (1, 3)

    def test_bad_character_after_newline_is_named(self):
        with pytest.raises(ParseError) as exc:
            parse("EXISTS t.\n  Tick(t) # note")
        assert "unexpected character '#'" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (2, 11)


class TestFreeVariables:
    def test_free_and_bound(self):
        q = parse("EXISTS t. Tick(t) & Tick(u)")
        assert free_variables(q) == {"u": Sort.TEMPORAL}

    def test_closed(self):
        q = parse("EXISTS t. Tick(t)")
        assert free_variables(q) == {}

    def test_mixed_sorts(self):
        q = parse('Perform(t1, t2, x, "task1")')
        assert free_variables(q) == {
            "t1": Sort.TEMPORAL,
            "t2": Sort.TEMPORAL,
            "x": Sort.DATA,
        }


class TestNotEqualSugar:
    def test_temporal_not_equal(self):
        q = parse("t1 != 3")
        assert isinstance(q, Not)
        assert q.body == Cmp(TempVar("t1"), CmpOp.EQ, TempConst(3))

    def test_data_not_equal(self):
        q = parse('EXISTS x. Perform(t1, t2, x, "k") & x != "robot1"')
        body = q.body
        assert isinstance(body.parts[1], Not)
        assert body.parts[1].body == DataEq(DataVar("x"), DataConst("robot1"))

    def test_var_var_not_equal_evaluates(self):
        from repro.query import Database

        db = Database()
        db.create("R", temporal=["a", "b"])
        db.relation("R").add_tuple(["n", "n"], "a <= b & a >= b - 2")
        res = db.query("R(t, u) & t != u")
        assert res.contains([0, 1]) and res.contains([0, 2])
        assert not res.contains([1, 1])
