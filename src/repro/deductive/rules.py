"""Datalog-style rules over generalized relations.

Section 5 of the paper situates the framework against Chomicki &
Imieliński's deductive approach: "we incorporate infinite predicates
with arbitrary arity directly into the database.  This makes operations
on temporal predicates easier and *does not exclude the eventual use of
a deductive layer*."  This package is that layer: Datalog rules whose
EDB and IDB relations are generalized (infinite) relations, evaluated
through the closed algebra.

A rule looks like::

    Busy(t, r) <- Perform(t1, t2, r, k) & t1 <= t & t <= t2

The body is any conjunction the query language accepts (positive atoms,
negated atoms, temporal comparisons, data equalities); the head lists
distinct variables and constants.  Safety requires every head variable
to be free in the body.

Recursion is supported with *semantic* fixpoint detection: because
generalized relations are finitely represented and equivalence is
decidable (Theorem 3.5 via double difference), iteration stops when no
IDB relation changes as a *set of points* — not merely syntactically.
A ``max_iterations`` guard keeps genuinely divergent programs (e.g.
``P(t + 1) <- P(t)`` seeded below an infinite progression) from
spinning; the paper's framework does not promise termination for those,
and neither do we.
"""

from __future__ import annotations

import re
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.core.errors import ParseError, SchemaError
from repro.core.relations import Schema
from repro.query.ast import Sort, free_variables
from repro.query.parser import parse_query

_HEAD_RE = re.compile(
    r"""^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*
    \((?P<args>[^)]*)\)\s*$""",
    re.VERBOSE,
)
_INT_RE = re.compile(r"^-?\d+$")
_STRING_RE = re.compile(r'^"[^"]*"$|^\'[^\']*\'$')


@dataclass(frozen=True)
class HeadArg:
    """One argument of a rule head: a variable or a constant."""

    var: str | None = None
    const: Hashable | None = None

    @property
    def is_var(self) -> bool:
        return self.var is not None


@dataclass
class Rule:
    """A parsed rule: head predicate, head arguments, body query text."""

    head_name: str
    head_args: tuple[HeadArg, ...]
    body_text: str
    body_query: object = field(default=None, repr=False)
    #: The schema mapping the body was last parsed against.  Binding is
    #: keyed to it so a program evaluated against one database rebinds
    #: cleanly when re-evaluated against a database whose EDB schemas
    #: differ — reusing the stale bound query was a silent-wrong-answer
    #: bug (see :meth:`ensure_bound`).
    bound_key: tuple = field(default=None, repr=False, compare=False)

    @classmethod
    def parse(cls, text: str) -> Rule:
        """Split ``Head(args) <- body`` and parse the head.

        The body is parsed later, once all predicate schemas (EDB and
        IDB) are known.
        """
        if "<-" not in text:
            raise ParseError(f"rule needs '<-': {text!r}")
        head_text, body_text = text.split("<-", 1)
        m = _HEAD_RE.match(head_text)
        if m is None:
            raise ParseError(f"malformed rule head: {head_text.strip()!r}")
        args: list[HeadArg] = []
        arg_body = m.group("args").strip()
        pieces = [p.strip() for p in arg_body.split(",")] if arg_body else []
        seen_vars: set[str] = set()
        for piece in pieces:
            if not piece:
                raise ParseError(f"empty argument in head: {head_text!r}")
            if _INT_RE.match(piece):
                args.append(HeadArg(const=int(piece)))
            elif _STRING_RE.match(piece):
                args.append(HeadArg(const=piece[1:-1]))
            else:
                if piece in seen_vars:
                    raise ParseError(
                        f"head variable {piece!r} repeated; bind it once "
                        "and equate in the body instead"
                    )
                seen_vars.add(piece)
                args.append(HeadArg(var=piece))
        return cls(
            head_name=m.group("name"),
            head_args=tuple(args),
            body_text=body_text.strip(),
        )

    @property
    def head_vars(self) -> tuple[str, ...]:
        """The head's variable names, in argument order."""
        return tuple(a.var for a in self.head_args if a.is_var)

    def ensure_bound(self, schemas: dict[str, Schema]) -> None:
        """Bind the body, rebinding if ``schemas`` changed since last time.

        A :class:`Rule` caches its parsed body, but the parse depends
        on the predicate schemas in scope.  Evaluating one
        :class:`~repro.deductive.program.Program` against two databases
        with different EDB schemas must therefore re-parse — this
        method compares the schema mapping against the one the cached
        body was built from and rebinds only on a mismatch.
        """
        key = tuple(sorted(schemas.items(), key=lambda item: item[0]))
        if self.body_query is None or self.bound_key != key:
            self.bind(schemas)

    def bind(self, schemas: dict[str, Schema]) -> None:
        """Parse the body against the known schemas and check safety."""
        self.bound_key = None
        self.body_query = parse_query(self.body_text, schemas)
        free = free_variables(self.body_query)
        _check_negation_safety(self.body_query, self.head_name)
        head_schema = schemas[self.head_name]
        if len(self.head_args) != len(head_schema):
            raise SchemaError(
                f"head {self.head_name} has {len(self.head_args)} args, "
                f"schema has {len(head_schema)}"
            )
        for arg, attr in zip(self.head_args, head_schema.attributes):
            if not arg.is_var:
                if attr.temporal and not isinstance(arg.const, int):
                    raise SchemaError(
                        f"constant {arg.const!r} in temporal position of "
                        f"{self.head_name}"
                    )
                continue
            if arg.var not in free:
                raise SchemaError(
                    f"unsafe rule: head variable {arg.var!r} is not free "
                    f"in the body of {self.head_name}"
                )
            var_sort = free[arg.var]
            want = Sort.TEMPORAL if attr.temporal else Sort.DATA
            if var_sort != want:
                raise SchemaError(
                    f"head variable {arg.var!r} is {var_sort.value} in the "
                    f"body but {want.value} in {self.head_name}'s schema"
                )
        # Stamped only after the parse and every safety check passed:
        # a failed bind must fail again (not be masked) on retry.
        self.bound_key = tuple(
            sorted(schemas.items(), key=lambda item: item[0])
        )

    def __str__(self) -> str:
        rendered = ", ".join(
            a.var if a.is_var else repr(a.const) for a in self.head_args
        )
        return f"{self.head_name}({rendered}) <- {self.body_text}"


def _check_negation_safety(body_query, head_name: str) -> None:
    """Reject free variables that occur only under a negation.

    In FO semantics, ``P(x) & ~Q(x, y)`` with ``y`` free derives ``x``
    whenever *some* ``y`` fails ``Q`` — almost never what a Datalog rule
    means.  The conventional reading is ``~(EXISTS y. Q(x, y))``; we
    require the user to write that quantifier, and flag the dangling
    variable otherwise.
    """
    from repro.query.ast import (
        And,
        Cmp,
        DataEq,
        DataVar,
        Exists,
        Forall,
        Implies,
        Not,
        Or,
        Pred,
        TempVar,
    )

    positive: set[str] = set()
    negated_only: set[str] = set()

    def atom_vars(node) -> set[str]:
        out: set[str] = set()
        if isinstance(node, Pred):
            for arg in node.args:
                if isinstance(arg, (TempVar, DataVar)):
                    out.add(arg.name)
        elif isinstance(node, Cmp):
            for term in (node.left, node.right):
                if isinstance(term, TempVar):
                    out.add(term.name)
        elif isinstance(node, DataEq):
            for term in (node.left, node.right):
                if isinstance(term, DataVar):
                    out.add(term.name)
        return out

    def walk(node, negated: bool, bound: set[str]) -> None:
        if isinstance(node, (Pred, Cmp, DataEq)):
            names = atom_vars(node) - bound
            if negated:
                negated_only.update(names)
            else:
                positive.update(names)
        elif isinstance(node, Not):
            walk(node.body, not negated, bound)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                walk(part, negated, bound)
        elif isinstance(node, Implies):
            walk(node.antecedent, not negated, bound)
            walk(node.consequent, negated, bound)
        elif isinstance(node, (Exists, Forall)):
            walk(node.body, negated, bound | {node.var})

    walk(body_query, False, set())
    dangling = negated_only - positive
    if dangling:
        raise SchemaError(
            f"unsafe rule for {head_name}: variable(s) "
            f"{sorted(dangling)} occur only under negation; quantify "
            "them inside the negation (e.g. ~(EXISTS v. ...))"
        )

