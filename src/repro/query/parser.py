"""Parser for the two-sorted first-order query language.

Concrete syntax (case-insensitive keywords)::

    query  :=  'EXISTS' var '.' query
            |  'FORALL' var '.' query
            |  implication
    implication := disjunction [ '->' query ]
    disjunction := conjunction ('|' conjunction)*
    conjunction := factor ('&' factor)*
    factor :=  '~' factor | '(' query ')' | atom
    atom   :=  NAME '(' term (',' term)* ')'        -- predicate
            |  term REL term                        -- comparison
    term   :=  NAME [ ('+' | '-') INT ]  |  INT  |  STRING
    REL    :=  '<=' | '>=' | '=' | '!=' | '<' | '>'

Example (the paper's Example 4.1)::

    EXISTS x. EXISTS y. EXISTS t1. EXISTS t2. FORALL t3. FORALL t4. FORALL z.
      (Perform(t1, t2, x, "task2") & t1 <= t3 & t3 <= t4 & t4 <= t2
         & t1 + 5 <= t2)
      -> ~Perform(t3, t4, y, z)

Variable sorts are inferred: a variable used in a temporal argument
position of a predicate (per the supplied schemas) or in a comparison is
temporal; one used in a data position or equated with a string constant
is data.  Conflicting uses raise :class:`ParseError`.

:func:`query_shape` reduces a query text to its *shape*: its tokens
with the integer and string literals lifted into slots, plus the
lifted values.  Texts that differ only in those literals share one
shape, and :func:`parse_query` parses a shape with each slot standing
as its slot constant (:func:`repro.plan.nodes.slot_constant`), so one
parse and one plan serve them all (``docs/planner.md``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.core.errors import ParseError, ReproTypeError
from repro.core.relations import Schema
from repro.plan.nodes import LIFT_LIMIT, slot_constant
from repro.query.ast import (
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
    Query,
    Sort,
    TempConst,
    TempVar,
    Term,
)

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"[^"]*"|'[^']*')
      | (?P<int>-?\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>->|<=|>=|!=|=|<|>|\(|\)|,|\.|&|\||~|\+|-)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"exists", "forall"}


_COMPARISONS = frozenset({"<=", ">=", "=", "<", ">", "!="})


@dataclass
class _Token:
    kind: str
    text: str
    position: int
    #: The slot a lifted literal stands in (see :func:`query_shape`).
    slot: int | None = None

    def literal(self) -> int | str:
        """An ``int`` or ``string`` token's value, or its slot constant."""
        if self.slot is not None:
            return slot_constant(self.slot)
        return int(self.text) if self.kind == "int" else self.text


@dataclass
class _RawTerm:
    """A term before sort resolution."""

    var: str | None = None
    int_value: int | None = None
    #: A string constant, or the slot constant of a lifted one.
    str_value: str | int | None = None
    offset: int = 0


@dataclass
class _RawPred:
    name: str
    args: list[_RawTerm]


@dataclass
class _RawCmp:
    left: _RawTerm
    op: CmpOp
    right: _RawTerm


@dataclass
class _RawNot:
    body: object


@dataclass
class _RawAnd:
    parts: list


@dataclass
class _RawOr:
    parts: list


@dataclass
class _RawImplies:
    antecedent: object
    consequent: object


@dataclass
class _RawQuant:
    exists: bool
    var: str
    body: object


def _located(text: str, message: str, position: int) -> ParseError:
    """A :class:`ParseError` carrying line/column, not just an offset.

    Positions are byte offsets into ``text``; reporting them raw is
    useless for multi-line queries, so every parser raise site goes
    through here to translate the offset into 1-based line/column.
    """
    position = min(position, len(text))
    line = text.count("\n", 0, position) + 1
    column = position - text.rfind("\n", 0, position)
    return ParseError(message, position, line=line, column=column)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        pos = match.start(kind)  # past the whitespace the match eats
        if kind == "bad":
            raise _located(text, f"unexpected character {text[pos]!r}", pos)
        value = match.group(kind)
        if kind == "string":
            value = value[1:-1]
        elif kind == "name" and value.lower() in _KEYWORDS:
            kind = "keyword"
        tokens.append(_Token(kind, value, pos))
    return tokens


def _liftable(kinds: list[str], texts: list[str]) -> list[int]:
    """Indices of the literal tokens a shape lifts into slots.

    Every string and every integer that starts a term (not a ``+ c``
    offset) is lifted, unless the text holds an integer of magnitude
    ``LIFT_LIMIT`` or more, or a comparison of two literal terms
    (lowering folds that to a truth value by reading both values):
    then nothing is, and the whole text is the key.
    """

    def offset(index: int) -> bool:
        return index > 0 and texts[index - 1] in ("+", "-") and (
            kinds[index - 1] == "op"
        )

    def literal_term(index: int) -> bool:
        # The comparison side ending (left) or starting (right) here.
        if not 0 <= index < len(kinds):
            return False
        if kinds[index] == "int" and offset(index):
            index -= 2  # the term's head, before its "+ c"
        return index >= 0 and kinds[index] in ("int", "string")

    lifted = []
    for index, kind in enumerate(kinds):
        if kind == "int":
            if abs(int(texts[index])) >= LIFT_LIMIT:
                return []
            if not offset(index):
                lifted.append(index)
        elif kind == "string":
            lifted.append(index)
        elif (
            kind == "op"
            and texts[index] in _COMPARISONS
            and literal_term(index - 1)
            and literal_term(index + 1)
        ):
            return []
    return lifted


@dataclass(frozen=True)
class QueryShape:
    """A query text with its literals lifted into slots.

    ``key`` identifies the shape: the token texts, each lifted literal
    replaced by a marker of its kind.  ``values`` holds the lifted
    literals in slot order (``int`` or ``str``), ``predicates`` the
    names the text applies as predicates and ``lifted`` the indices of
    the lifted tokens.
    """

    text: str
    key: tuple
    values: tuple
    predicates: tuple[str, ...]
    lifted: tuple[int, ...]


_LIFTED = {"int": ("int",), "string": ("string",)}


def query_shape(text: str) -> QueryShape:
    """The shape of a query text (see :class:`QueryShape`).

    Tokenizing is the only work done here; a malformed text raises the
    :class:`ParseError` :func:`parse_query` would.
    """
    kinds: list[str] = []
    texts: list[str] = []
    for string, number, name, op, bad in _TOKEN_RE.findall(text):
        if bad:
            _tokenize(text)  # raises, located
        if string:
            kinds.append("string")
            texts.append(string[1:-1])
        elif number:
            kinds.append("int")
            texts.append(number)
        else:
            kinds.append("name" if name else "op")
            texts.append(name or op)
    key: list = texts[:]
    predicates = []
    for index, kind in enumerate(kinds):
        if kind == "string":
            key[index] = ("string", texts[index])
        elif kind == "name" and index + 1 < len(texts) and (
            texts[index + 1] == "("
        ):
            predicates.append(texts[index])
    lifted = _liftable(kinds, texts)
    values: list[int | str] = []
    for index in lifted:
        kind = kinds[index]
        key[index] = _LIFTED[kind]
        values.append(int(texts[index]) if kind == "int" else texts[index])
    return QueryShape(
        text=text,
        key=tuple(key),
        values=tuple(values),
        predicates=tuple(dict.fromkeys(predicates)),
        lifted=tuple(lifted),
    )


class _Parser:
    def __init__(self, text: str, tokens: list[_Token] | None = None) -> None:
        self.text = text
        self.tokens = _tokenize(text) if tokens is None else tokens
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def error(self, message: str, position: int) -> ParseError:
        return _located(self.text, message, position)

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of query", len(self.text))
        self.index += 1
        return token

    def expect(self, text: str) -> None:
        token = self.next()
        if token.text != text:
            raise self.error(
                f"expected {text!r}, got {token.text!r}", token.position
            )

    def query(self):
        token = self.peek()
        if token is not None and token.kind == "keyword":
            self.next()
            var_token = self.next()
            if var_token.kind != "name":
                raise self.error(
                    "expected a variable after quantifier", var_token.position
                )
            self.expect(".")
            body = self.query()
            return _RawQuant(
                exists=token.text.lower() == "exists",
                var=var_token.text,
                body=body,
            )
        return self.implication()

    def implication(self):
        left = self.disjunction()
        token = self.peek()
        if token is not None and token.kind == "op" and token.text == "->":
            self.next()
            right = self.query()
            return _RawImplies(left, right)
        return left

    def disjunction(self):
        parts = [self.conjunction()]
        while (t := self.peek()) is not None and t.text == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else _RawOr(parts)

    def conjunction(self):
        parts = [self.factor()]
        while (t := self.peek()) is not None and t.text == "&":
            self.next()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else _RawAnd(parts)

    def factor(self):
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of query", len(self.text))
        if token.text == "~":
            self.next()
            return _RawNot(self.factor())
        if token.text == "(":
            # Could be a parenthesised query; terms never start with "(".
            self.next()
            inner = self.query()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self):
        token = self.peek()
        if token is not None and token.kind == "name":
            following = (
                self.tokens[self.index + 1]
                if self.index + 1 < len(self.tokens)
                else None
            )
            if following is not None and following.text == "(":
                name = self.next().text
                self.expect("(")
                args = [self.term()]
                while (t := self.peek()) is not None and t.text == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return _RawPred(name, args)
        left = self.term()
        op_token = self.next()
        if op_token.text not in _COMPARISONS:
            raise self.error(
                f"expected a comparison, got {op_token.text!r}",
                op_token.position,
            )
        right = self.term()
        if op_token.text == "!=":
            # Sugar: a != b  ==  ~(a = b), on either sort.
            return _RawNot(_RawCmp(left, CmpOp.EQ, right))
        return _RawCmp(left, CmpOp(op_token.text), right)

    def term(self) -> _RawTerm:
        token = self.next()
        if token.kind == "string":
            return _RawTerm(str_value=token.literal())
        if token.kind == "int":
            value = token.literal()
            offset = self._optional_offset()
            return _RawTerm(int_value=value + offset)
        if token.kind == "name":
            return _RawTerm(var=token.text, offset=self._optional_offset())
        raise self.error(f"unexpected token {token.text!r}", token.position)

    def _optional_offset(self) -> int:
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in "+-":
            sign = 1 if token.text == "+" else -1
            self.next()
            int_token = self.next()
            if int_token.kind != "int":
                raise self.error(
                    "expected an integer offset", int_token.position
                )
            return sign * int(int_token.text)
        return 0


# ----------------------------------------------------------------------
# sort resolution
# ----------------------------------------------------------------------


class _SortContext:
    def __init__(self, schemas: dict[str, Schema]) -> None:
        self.schemas = schemas
        self.sorts: dict[str, Sort] = {}

    def note(self, var: str, sort: Sort) -> None:
        existing = self.sorts.get(var)
        if existing is not None and existing != sort:
            raise ParseError(
                f"variable {var!r} used at both temporal and data sort"
            )
        self.sorts[var] = sort

    def collect(self, node) -> None:
        if isinstance(node, _RawPred):
            schema = self.schemas.get(node.name)
            if schema is None:
                raise ParseError(f"unknown predicate {node.name!r}")
            if len(node.args) != len(schema):
                raise ParseError(
                    f"{node.name} expects {len(schema)} arguments, got "
                    f"{len(node.args)}"
                )
            for arg, attr in zip(node.args, schema.attributes):
                if arg.var is not None:
                    self.note(
                        arg.var,
                        Sort.TEMPORAL if attr.temporal else Sort.DATA,
                    )
                elif arg.str_value is not None and attr.temporal:
                    raise ParseError(
                        f"string constant in temporal position of {node.name}"
                    )
                elif arg.int_value is not None and not attr.temporal:
                    # ints are fine as data constants too; nothing to note
                    pass
        elif isinstance(node, _RawCmp):
            for side in (node.left, node.right):
                if side.str_value is not None:
                    # data equality: both variable sides are data-sorted
                    if node.op is not CmpOp.EQ:
                        raise ParseError(
                            "data terms admit only equality comparisons"
                        )
                    for other in (node.left, node.right):
                        if other.var is not None:
                            self.note(other.var, Sort.DATA)
                    return
        elif isinstance(node, _RawNot):
            self.collect(node.body)
        elif isinstance(node, (_RawAnd, _RawOr)):
            for part in node.parts:
                self.collect(part)
        elif isinstance(node, _RawImplies):
            self.collect(node.antecedent)
            self.collect(node.consequent)
        elif isinstance(node, _RawQuant):
            self.collect(node.body)

    def second_pass(self, node) -> None:
        """Temporal-default pass: comparisons force temporal sorts."""
        if isinstance(node, _RawCmp):
            if any(
                side.str_value is not None for side in (node.left, node.right)
            ):
                return
            sides = [s for s in (node.left, node.right) if s.var is not None]
            if any(self.sorts.get(s.var) == Sort.DATA for s in sides):
                return  # resolved as data equality later
            for side in sides:
                self.note(side.var, Sort.TEMPORAL)
        elif isinstance(node, _RawNot):
            self.second_pass(node.body)
        elif isinstance(node, (_RawAnd, _RawOr)):
            for part in node.parts:
                self.second_pass(part)
        elif isinstance(node, _RawImplies):
            self.second_pass(node.antecedent)
            self.second_pass(node.consequent)
        elif isinstance(node, _RawQuant):
            self.second_pass(node.body)

    def sort_of(self, var: str) -> Sort:
        return self.sorts.get(var, Sort.TEMPORAL)


def _resolve_term(raw: _RawTerm, ctx: _SortContext, temporal: bool) -> Term:
    if raw.str_value is not None:
        return DataConst(raw.str_value)
    if raw.int_value is not None:
        return TempConst(raw.int_value) if temporal else DataConst(raw.int_value)
    if temporal:
        return TempVar(raw.var, raw.offset)
    if raw.offset != 0:
        raise ParseError(f"successor applied to data variable {raw.var!r}")
    return DataVar(raw.var)


def _resolve(node, ctx: _SortContext) -> Query:
    if isinstance(node, _RawPred):
        schema = ctx.schemas[node.name]
        args = tuple(
            _resolve_term(arg, ctx, attr.temporal)
            for arg, attr in zip(node.args, schema.attributes)
        )
        return Pred(node.name, args)
    if isinstance(node, _RawCmp):
        is_data = any(
            side.str_value is not None
            or (side.var is not None and ctx.sorts.get(side.var) == Sort.DATA)
            for side in (node.left, node.right)
        )
        if is_data:
            if node.op is not CmpOp.EQ:
                raise ParseError("data terms admit only equality comparisons")
            left = _resolve_term(node.left, ctx, temporal=False)
            right = _resolve_term(node.right, ctx, temporal=False)
            return DataEq(left, right)
        left = _resolve_term(node.left, ctx, temporal=True)
        right = _resolve_term(node.right, ctx, temporal=True)
        return Cmp(left, node.op, right)
    if isinstance(node, _RawNot):
        return Not(_resolve(node.body, ctx))
    if isinstance(node, _RawAnd):
        return And(tuple(_resolve(p, ctx) for p in node.parts))
    if isinstance(node, _RawOr):
        return Or(tuple(_resolve(p, ctx) for p in node.parts))
    if isinstance(node, _RawImplies):
        return Implies(
            _resolve(node.antecedent, ctx), _resolve(node.consequent, ctx)
        )
    if isinstance(node, _RawQuant):
        body = _resolve(node.body, ctx)
        sort = ctx.sort_of(node.var)
        cls = Exists if node.exists else Forall
        return cls(node.var, sort, body)
    raise ReproTypeError(f"unexpected raw node {node!r}")  # pragma: no cover


class Directive(enum.Enum):
    """What a query string asks the engine to do with the query."""

    QUERY = "query"
    EXPLAIN = "explain"
    EXPLAIN_ANALYZE = "explain analyze"
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


_DIRECTIVE_RE = re.compile(
    r"^\s*explain\b(?P<analyze>\s+analyze\b)?\s*", re.IGNORECASE
)

_OPTIMIZE_RE = re.compile(
    r"^\s*(?P<sense>minimize|maximize)\b\s*", re.IGNORECASE
)


def split_directive(text: str) -> tuple[Directive, str]:
    """Split a leading directive off a query string.

    Recognizes ``EXPLAIN [ANALYZE]`` and ``MINIMIZE``/``MAXIMIZE``
    (whose remainder is ``<objective> : <query>`` — see
    :func:`repro.optimize.parse_objective`).  Returns the directive and
    the remaining text.  A keyword is only a directive in head position
    followed by a query — a relation actually *named* ``Explain`` or
    ``Minimize`` still works, because a predicate atom continues with
    ``(`` directly::

        split_directive("EXPLAIN ANALYZE EXISTS t. P(t)")
        (Directive.EXPLAIN_ANALYZE, "EXISTS t. P(t)")
        split_directive("MINIMIZE t : Event(t)")
        (Directive.MINIMIZE, "t : Event(t)")
        split_directive("Explain(t)")
        (Directive.QUERY, "Explain(t)")

    ``EXPLAIN MINIMIZE obj : query`` composes: this function returns
    :attr:`Directive.EXPLAIN` with ``MINIMIZE obj : query`` as the
    rest; callers split again to find the optimization directive
    underneath (:meth:`Database.query
    <repro.query.database.Database.query>` does).
    """
    match = _DIRECTIVE_RE.match(text)
    if match is not None:
        rest = text[match.end():]
        if not rest.startswith("("):
            # "Explain(...)" / "Explain Analyze(...)" are predicate atoms.
            if match.group("analyze"):
                return Directive.EXPLAIN_ANALYZE, rest
            return Directive.EXPLAIN, rest
    match = _OPTIMIZE_RE.match(text)
    if match is not None:
        rest = text[match.end():]
        if not rest.startswith("("):
            sense = match.group("sense").lower()
            directive = (
                Directive.MINIMIZE
                if sense == "minimize"
                else Directive.MAXIMIZE
            )
            return directive, rest
    return Directive.QUERY, text


def parse_query(text: str | QueryShape, schemas: dict[str, Schema]) -> Query:
    """Parse a query against the given predicate schemas.

    A :class:`QueryShape` parses with each lifted literal standing as
    its slot constant.
    """
    if isinstance(text, QueryShape):
        tokens = _tokenize(text.text)
        for slot, index in enumerate(text.lifted):
            tokens[index].slot = slot
        parser = _Parser(text.text, tokens)
        text = text.text
    else:
        parser = _Parser(text)
    raw = parser.query()
    leftover = parser.peek()
    if leftover is not None:
        raise _located(
            text,
            f"trailing input starting at {leftover.text!r}",
            leftover.position,
        )
    ctx = _SortContext(schemas)
    ctx.collect(raw)
    ctx.second_pass(raw)
    return _resolve(raw, ctx)
