"""User-facing restricted constraints (Section 2.1 of the paper).

Restricted atomic constraints relate at most two temporal attributes with
unit coefficients::

    Xi <= Xj + a     Xi = Xj + a     Xi <= a     Xi >= a     Xi = a

This module defines an attribute-name-level representation of such atoms
(plus the strict forms ``<`` and ``>``, which over Z are sugar for the
non-strict ones), a parser for the concrete syntax used in the paper's
tables, and conversions to and from the index-based :class:`~repro.core.dbm.DBM`
representation.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from repro.core.dbm import DBM
from repro.core.errors import ConstraintError, ParseError


class Op(Enum):
    """Comparison operators on the temporal sort."""

    LE = "<="
    GE = ">="
    EQ = "="
    LT = "<"
    GT = ">"

    def flipped(self) -> Op:
        """The operator obtained by swapping the two sides."""
        return {
            Op.LE: Op.GE,
            Op.GE: Op.LE,
            Op.EQ: Op.EQ,
            Op.LT: Op.GT,
            Op.GT: Op.LT,
        }[self]


@dataclass(frozen=True)
class VarVarAtom:
    """``left op right + const`` over two temporal attributes."""

    left: str
    op: Op
    right: str
    const: int = 0

    def __str__(self) -> str:
        if self.const == 0:
            rhs = self.right
        elif self.const > 0:
            rhs = f"{self.right} + {self.const}"
        else:
            rhs = f"{self.right} - {-self.const}"
        return f"{self.left} {self.op.value} {rhs}"


@dataclass(frozen=True)
class VarConstAtom:
    """``left op const`` over one temporal attribute."""

    left: str
    op: Op
    const: int

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.const}"


Atom = VarVarAtom | VarConstAtom

_ATOM_RE = re.compile(
    r"""^\s*
    (?P<left>[A-Za-z_][A-Za-z_0-9]*)\s*
    (?P<op><=|>=|=|<|>)\s*
    (?P<rhs>.+?)\s*$""",
    re.VERBOSE,
)
_RHS_VAR_RE = re.compile(
    r"""^\s*
    (?P<var>[A-Za-z_][A-Za-z_0-9]*)\s*
    (?:(?P<sign>[+-])\s*(?P<const>[+-]?\d+)\s*)?$""",
    re.VERBOSE,
)
_RHS_CONST_RE = re.compile(r"^\s*(?P<const>[+-]?\d+)\s*$")


def parse_atom(text: str) -> Atom:
    """Parse one restricted atomic constraint.

    Accepts the paper's forms, e.g. ``"X1 <= X2 + 4"``, ``"X1 = X2 - 2"``,
    ``"X2 >= 2"``, as well as strict comparisons.
    """
    m = _ATOM_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse constraint atom: {text!r}")
    left = m.group("left")
    op = Op(m.group("op"))
    rhs = m.group("rhs")
    const_match = _RHS_CONST_RE.match(rhs)
    if const_match is not None:
        return VarConstAtom(left=left, op=op, const=int(const_match.group("const")))
    var_match = _RHS_VAR_RE.match(rhs)
    if var_match is None:
        raise ParseError(f"cannot parse right-hand side: {rhs!r}")
    const = 0
    if var_match.group("const") is not None:
        const = int(var_match.group("const"))
        if var_match.group("sign") == "-":
            const = -const
    return VarVarAtom(left=left, op=op, right=var_match.group("var"), const=const)


def parse_atoms(text: str) -> list[Atom]:
    """Parse a conjunction separated by ``&``, ``,``, ``and``, or ``∧``."""
    stripped = text.strip()
    if not stripped or stripped.lower() == "true":
        return []
    parts = re.split(r"&|,|∧|/\\|\band\b", stripped)
    return [parse_atom(part) for part in parts if part.strip()]


def atoms_to_dbm(
    atoms: Iterable[Atom], attribute_order: Sequence[str]
) -> DBM:
    """Compile atoms into a :class:`DBM` over ``attribute_order``.

    Strict comparisons are tightened to non-strict integer form
    (``a < b`` becomes ``a <= b - 1``), matching the paper's treatment.
    """
    index = {name: i for i, name in enumerate(attribute_order)}
    if len(index) != len(attribute_order):
        raise ConstraintError("attribute names must be distinct")
    dbm = DBM(len(attribute_order))
    for atom in atoms:
        if atom.left not in index:
            raise ConstraintError(f"unknown attribute {atom.left!r} in {atom}")
        i = index[atom.left]
        if isinstance(atom, VarConstAtom):
            _apply_var_const(dbm, i, atom.op, atom.const)
        else:
            if atom.right not in index:
                raise ConstraintError(
                    f"unknown attribute {atom.right!r} in {atom}"
                )
            j = index[atom.right]
            _apply_var_var(dbm, i, j, atom.op, atom.const)
    return dbm


def _apply_var_const(dbm: DBM, i: int, op: Op, const: int) -> None:
    if op is Op.LE:
        dbm.add_upper(i, const)
    elif op is Op.LT:
        dbm.add_upper(i, const - 1)
    elif op is Op.GE:
        dbm.add_lower(i, const)
    elif op is Op.GT:
        dbm.add_lower(i, const + 1)
    else:
        dbm.add_value(i, const)


def _apply_var_var(dbm: DBM, i: int, j: int, op: Op, const: int) -> None:
    if i == j:
        # Xi op Xi + const degenerates to a comparison between 0 and const.
        holds = {
            Op.LE: 0 <= const,
            Op.LT: 0 < const,
            Op.GE: 0 >= const,
            Op.GT: 0 > const,
            Op.EQ: const == 0,
        }[op]
        if not holds:
            dbm.add_difference(i, i, -1)  # mark unsatisfiable
        return
    if op is Op.LE:
        dbm.add_difference(i, j, const)
    elif op is Op.LT:
        dbm.add_difference(i, j, const - 1)
    elif op is Op.GE:
        dbm.add_difference(j, i, -const)
    elif op is Op.GT:
        dbm.add_difference(j, i, -const - 1)
    else:
        dbm.add_equality(i, j, const)


def dbm_to_atoms(dbm: DBM, attribute_order: Sequence[str]) -> list[Atom]:
    """Render the finite bounds of ``dbm`` as attribute-name atoms.

    Pairs of matching bounds are merged into equalities for readability.
    The result lists each constraint once, using ``<=``/``>=``/``=`` only.
    """
    if dbm.size != len(attribute_order):
        raise ConstraintError("attribute count does not match DBM size")
    bounds = {(i, j): bound for i, j, bound in dbm.iter_bounds()}
    atoms: list[Atom] = []
    emitted: set[tuple[int, int]] = set()
    for (i, j), bound in sorted(bounds.items()):
        if (i, j) in emitted:
            continue
        if i >= 0 and j >= 0:
            if bounds.get((j, i)) == -bound:
                atoms.append(
                    VarVarAtom(attribute_order[i], Op.EQ, attribute_order[j], bound)
                )
                emitted.add((j, i))
            else:
                atoms.append(
                    VarVarAtom(attribute_order[i], Op.LE, attribute_order[j], bound)
                )
        elif j < 0:
            # X_i - 0 <= bound, i.e. X_i <= bound.
            if bounds.get((-1, i)) == -bound:
                atoms.append(VarConstAtom(attribute_order[i], Op.EQ, bound))
                emitted.add((-1, i))
            else:
                atoms.append(VarConstAtom(attribute_order[i], Op.LE, bound))
        else:
            # 0 - X_j <= bound, i.e. X_j >= -bound.
            if bounds.get((j, -1)) == -bound:
                atoms.append(VarConstAtom(attribute_order[j], Op.EQ, -bound))
                emitted.add((j, -1))
            else:
                atoms.append(VarConstAtom(attribute_order[j], Op.GE, -bound))
    return atoms

