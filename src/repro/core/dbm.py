"""Difference-bound matrices: the engine for restricted constraints.

The paper's *restricted constraints* (Section 2.1) are exactly integer
difference constraints::

    Xi <= Xj + a     Xi = Xj + a     Xi <= a     Xi >= a     Xi = a

A conjunction of such constraints over temporal attributes ``X1..Xm`` is
represented here as a difference-bound matrix (DBM) over ``m`` variables
plus an implicit zero variable at index 0: entry ``b[i][j] = a`` encodes
``X_i - X_j <= a`` (with ``X_0 == 0``), and ``None`` encodes +infinity.

The DBM gives us, in one structure, everything Appendix A needs:

* *strongest-conjunct reduction* — adding a constraint keeps the minimum
  bound, so a system never holds more than ``m(m+1)`` atomic constraints,
  the bound the appendix uses;
* *satisfiability* — the Floyd–Warshall closure has a negative diagonal
  entry iff the constraint graph has a negative cycle; for difference
  systems with integer bounds, real and integer satisfiability coincide;
* *canonical form* — the closure is a normal form, so equality of closed
  matrices is equivalence of constraint systems;
* *projection* — dropping a row/column of the closure is exactly
  Fourier–Motzkin elimination for difference constraints, and is
  integer-exact when the variables range over all of Z (which is why the
  paper normalizes before projecting: normalization moves from lattice-
  valued attributes to free integer repetition counts).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.obs.metrics import COUNTERS
from repro.perf.config import get_config
from repro.core.errors import ReproValueError

Bound = int | None  # None encodes +infinity


def min_bound(a: Bound, b: Bound) -> Bound:
    """Minimum of two upper bounds, treating ``None`` as +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def add_bound(a: Bound, b: Bound) -> Bound:
    """Sum of two upper bounds, treating ``None`` as +infinity."""
    if a is None or b is None:
        return None
    return a + b


def close_batch(dbms: Sequence["DBM"]) -> list[bool]:
    """Close many DBMs at once; return their satisfiability verdicts.

    Semantically equal to ``[dbm.close() for dbm in dbms]`` but routed
    through :mod:`repro.perf.kernel`, which packs same-dimension systems
    into one array and closes them with a single vectorized
    Floyd–Warshall sweep when the numpy backend is active.  With the
    pure-Python backend this *is* the scalar loop.
    """
    from repro.perf import kernel

    return kernel.close_batch(list(dbms))


class DBM:
    """A conjunction of difference constraints over ``size`` variables.

    Index 0 is the implicit zero variable; user variables are 1-based
    internally, but every public method takes 0-based variable indices
    and translates.
    """

    __slots__ = ("_n", "_b", "_closed", "_dirty")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ReproValueError("DBM size must be >= 0")
        self._n = size + 1
        self._b: list[list[Bound]] = [
            [0 if i == j else None for j in range(self._n)]
            for i in range(self._n)
        ]
        self._closed = True  # the unconstrained system is trivially closed
        # Entries written since the matrix was last closed; None means
        # the edit history is unknown and only a full closure is safe.
        self._dirty: list[tuple[int, int]] | None = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_closure(cls, rows: Sequence[Sequence[Bound]]) -> DBM:
        """A closed system over a copy of already closed bound rows.

        ``rows`` is a satisfiable closure in matrix form, such as
        :meth:`GeneralizedTuple.closure
        <repro.core.tuples.GeneralizedTuple.closure>` returns.
        """
        out = cls.__new__(cls)
        out._n = len(rows)
        out._b = [list(row) for row in rows]
        out._closed = True
        out._dirty = []
        return out

    @property
    def size(self) -> int:
        """The number of (non-zero) variables."""
        return self._n - 1

    def copy(self) -> DBM:
        """Return an independent copy.

        Closure state travels with the copy: a copied already-closed
        matrix answers :meth:`close` in O(1), and pending dirty edges
        stay eligible for the incremental closure.
        """
        out = DBM.__new__(DBM)
        out._n = self._n
        out._b = [row[:] for row in self._b]
        out._closed = self._closed
        out._dirty = None if self._dirty is None else list(self._dirty)
        return out

    def _set(self, i: int, j: int, bound: int) -> None:
        current = self._b[i][j]
        if current is None or bound < current:
            self._b[i][j] = bound
            self._closed = False
            dirty = self._dirty
            if dirty is not None:
                if len(dirty) < self._n:
                    dirty.append((i, j))
                else:
                    # Too many edits for the incremental closure to beat
                    # Floyd–Warshall; stop tracking.
                    self._dirty = None

    def add_difference(self, i: int, j: int, bound: int) -> None:
        """Add ``X_i - X_j <= bound`` (0-based variable indices)."""
        self._check_var(i)
        self._check_var(j)
        if i == j:
            if bound < 0:
                # X_i - X_i <= negative: immediately unsatisfiable.
                self._set(0, 0, min_bound(self._b[0][0], bound))
            return
        self._set(i + 1, j + 1, bound)

    def add_upper(self, i: int, bound: int) -> None:
        """Add ``X_i <= bound``."""
        self._check_var(i)
        self._set(i + 1, 0, bound)

    def add_lower(self, i: int, bound: int) -> None:
        """Add ``X_i >= bound``."""
        self._check_var(i)
        self._set(0, i + 1, -bound)

    def add_equality(self, i: int, j: int, diff: int) -> None:
        """Add ``X_i = X_j + diff``."""
        self.add_difference(i, j, diff)
        self.add_difference(j, i, -diff)

    def add_value(self, i: int, value: int) -> None:
        """Add ``X_i = value``."""
        self.add_upper(i, value)
        self.add_lower(i, value)

    def _check_var(self, i: int) -> None:
        if not 0 <= i < self._n - 1:
            raise IndexError(f"variable index {i} out of range 0..{self._n - 2}")

    # ------------------------------------------------------------------
    # closure and satisfiability
    # ------------------------------------------------------------------

    def close(self) -> bool:
        """Close the system; return whether it is satisfiable.

        After a successful closure every entry holds the tightest implied
        bound.  An unsatisfiable system is detected by a negative value on
        the diagonal and left in that state (callers should discard it).

        ``close`` is idempotent (a ``_closed`` flag makes repeats O(n))
        and tightens incrementally in O(d·n²) when only ``d < n`` bounds
        were written since the last closure, instead of re-running the
        O(n³) Floyd–Warshall pass.
        """
        if self._closed:
            return self.is_satisfiable()
        dirty = self._dirty
        if (
            dirty is not None
            and dirty
            and len(set(dirty)) < self._n
            and get_config().incremental_enabled
        ):
            COUNTERS["perf.closure_incremental"] += 1
            self._close_incremental(list(dict.fromkeys(dirty)))
        else:
            COUNTERS["perf.closure_full"] += 1
            self._close_full()
        self._closed = True
        self._dirty = []
        return self.is_satisfiable()

    def _close_full(self) -> None:
        """The classic O(n³) Floyd–Warshall tightening pass."""
        n = self._n
        b = self._b
        for k in range(n):
            row_k = b[k]
            for i in range(n):
                b_ik = b[i][k]
                if b_ik is None:
                    continue
                row_i = b[i]
                for j in range(n):
                    b_kj = row_k[j]
                    if b_kj is None:
                        continue
                    candidate = b_ik + b_kj
                    current = row_i[j]
                    if current is None or candidate < current:
                        row_i[j] = candidate

    def _close_incremental(self, edges: list[tuple[int, int]]) -> None:
        """Re-close after writing only ``edges`` into a closed matrix.

        For each written entry ``b[u][v] = w`` (the constraint
        ``X_u - X_v <= w``), the closure of the old matrix plus that
        single edge is ``b'[i][j] = min(b[i][j], b[i][u] + w + b[v][j])``
        — one O(n²) sweep.  Processing the written edges sequentially is
        exact: each sweep uses entries that are already closed over the
        previously processed edges, and raw not-yet-processed writes only
        ever make entries tighter than required, never looser.
        """
        n = self._n
        b = self._b
        for u, v in edges:
            w = b[u][v]
            if w is None:  # pragma: no cover - dirty writes are finite
                continue
            row_v = b[v]
            for i in range(n):
                b_iu = b[i][u]
                if b_iu is None:
                    continue
                head = b_iu + w
                row_i = b[i]
                for j in range(n):
                    b_vj = row_v[j]
                    if b_vj is None:
                        continue
                    candidate = head + b_vj
                    current = row_i[j]
                    if current is None or candidate < current:
                        row_i[j] = candidate

    def conjoin_closed(self, other: DBM) -> bool:
        """Conjoin ``other``'s bounds into this closed system and re-close.

        Only the entries ``other`` tightens are processed, each by one
        :meth:`_close_incremental` sweep: the closure of ``closure(D) ∧
        E`` is the closure of ``D ∧ E``, so a closed ``D`` plus a few
        written bounds ``E`` closes in O(|E|·n²) with no cache lookup.
        Returns whether the conjunction is satisfiable.
        """
        if self._n != other._n:
            raise ReproValueError("DBM sizes differ")
        b = self._b
        written = []
        for i, (row, other_row) in enumerate(zip(b, other._b)):
            for j, bound in enumerate(other_row):
                if bound is not None and (row[j] is None or bound < row[j]):
                    row[j] = bound
                    written.append((i, j))
        if written:
            self._close_incremental(written)
        return self.is_satisfiable()

    def is_satisfiable(self) -> bool:
        """Return whether the (closed) system has an integer solution.

        Call :meth:`close` first if constraints were added since the last
        closure; this method closes on demand for safety.
        """
        if not self._closed:
            return self.close()
        for i in range(self._n):
            bound = self._b[i][i]
            if bound is not None and bound < 0:
                return False
        return True

    def canonical_key(self) -> tuple:
        """Return a hashable key identifying the closed constraint system.

        Two DBMs over the same variables with equal keys denote the same
        set of points (the closure is a canonical form for satisfiable
        difference systems).  The key is computed on a copy: the stored
        bounds stay exactly as written, which matters for negation —
        negating the closure would produce up to ``m(m+1)`` disjuncts
        where negating the written constraints produces only as many as
        were stated.
        """
        probe = self if self._closed else self.copy()
        if not probe.close():
            return ("UNSAT", self._n - 1)
        return tuple(tuple(row) for row in probe._b)

    def equivalent(self, other: DBM) -> bool:
        """Return whether both systems denote the same point set."""
        if self._n != other._n:
            return False
        return self.canonical_key() == other.canonical_key()

    def implies(self, other: DBM) -> bool:
        """Return whether every solution of ``self`` satisfies ``other``.

        An unsatisfiable system implies anything.  Neither operand is
        mutated (closures run on copies): callers rely on stored bounds
        staying exactly as written.
        """
        if self._n != other._n:
            raise ReproValueError("DBM sizes differ")
        mine_probe = self if self._closed else self.copy()
        if not mine_probe.close():
            return True
        probe = other.copy()
        if not probe.close():
            return False
        mine = mine_probe._b
        theirs = probe._b
        for i in range(self._n):
            for j in range(self._n):
                b_other = theirs[i][j]
                if b_other is None:
                    continue
                b_mine = mine[i][j]
                if b_mine is None or b_mine > b_other:
                    return False
        return True

    # ------------------------------------------------------------------
    # combination and transformation
    # ------------------------------------------------------------------

    def intersect(self, other: DBM) -> DBM:
        """Return the conjunction of both systems (pointwise min)."""
        if self._n != other._n:
            raise ReproValueError("DBM sizes differ")
        out = self.copy()
        for i in range(self._n):
            for j in range(self._n):
                merged = min_bound(out._b[i][j], other._b[i][j])
                if merged != out._b[i][j]:
                    out._set(i, j, merged)
        return out

    def project(self, keep: Sequence[int]) -> DBM:
        """Project onto the 0-based variables in ``keep`` (order preserved).

        The system is closed first; dropping rows/columns of the closure
        is the exact Fourier–Motzkin eliminant for difference constraints.
        Projection of an unsatisfiable system is unsatisfiable.
        """
        for i in keep:
            self._check_var(i)
        if not self.close():
            out = DBM(len(keep))
            out._b[0][0] = -1  # mark unsatisfiable
            out._closed = True
            return out
        out = DBM(len(keep))
        old_indices = [0] + [i + 1 for i in keep]
        out._b = [
            [self._b[oi][oj] for oj in old_indices] for oi in old_indices
        ]
        out._closed = True
        return out

    def permute(self, new_order: Sequence[int]) -> DBM:
        """Reorder variables: new variable ``p`` is old variable ``new_order[p]``."""
        if sorted(new_order) != list(range(self._n - 1)):
            raise ReproValueError("new_order must be a permutation of the variables")
        return self.project(new_order)

    def extend(self, extra: int) -> DBM:
        """Return a copy with ``extra`` fresh, unconstrained variables appended.

        Appending unconstrained variables preserves closure: no path can
        improve through a variable that has no finite bounds.
        """
        if extra < 0:
            raise ReproValueError("extra must be >= 0")
        out = DBM(self.size + extra)
        for i in range(self._n):
            for j in range(self._n):
                out._b[i][j] = self._b[i][j]
        out._closed = self._closed
        out._dirty = None if not self._closed else []
        return out

    def shift_variable(self, i: int, delta: int) -> DBM:
        """Substitute ``X_i := X_i + delta`` (the new variable's value set shifts by +delta).

        If ``Y = X_i + delta`` then a constraint ``X_i - X_j <= a`` becomes
        ``Y - X_j <= a + delta`` and ``X_j - X_i <= a`` becomes
        ``X_j - Y <= a - delta``.
        """
        self._check_var(i)
        out = self.copy()
        row = i + 1
        for j in range(self._n):
            if j == row:
                continue
            if out._b[row][j] is not None:
                out._b[row][j] += delta
            if out._b[j][row] is not None:
                out._b[j][row] -= delta
        return out

    def scale_down(self, divisor: int) -> DBM:
        """Divide every finite bound by ``divisor`` (must divide exactly).

        Used when mapping normalized attribute-space constraints (all
        bounds multiples of the common period ``k``) onto the repetition
        counters ``n_i = (X_i - c_i) / k``.
        """
        if divisor <= 0:
            raise ReproValueError("divisor must be positive")
        out = self.copy()
        for i in range(self._n):
            for j in range(self._n):
                bound = out._b[i][j]
                if bound is None:
                    continue
                if bound % divisor != 0:
                    raise ReproValueError(
                        f"bound {bound} not a multiple of {divisor}; "
                        "normalize before scaling"
                    )
                out._b[i][j] = bound // divisor
        return out

    def scale_up(self, factor: int) -> DBM:
        """Multiply every finite bound by ``factor`` (inverse of scale_down)."""
        if factor <= 0:
            raise ReproValueError("factor must be positive")
        out = self.copy()
        for i in range(self._n):
            for j in range(self._n):
                if out._b[i][j] is not None:
                    out._b[i][j] *= factor
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def bound(self, i: int, j: int) -> Bound:
        """Return the stored bound on ``X_i - X_j`` (0-based; -1 = zero var)."""
        return self._b[i + 1][j + 1]

    def upper(self, i: int) -> Bound:
        """Tightest implied upper bound on ``X_i`` (closes the system)."""
        self.close()
        return self._b[i + 1][0]

    def lower(self, i: int) -> Bound:
        """Tightest implied lower bound on ``X_i`` (closes the system)."""
        self.close()
        bound = self._b[0][i + 1]
        return None if bound is None else -bound

    def satisfied_by(self, point: Sequence[int]) -> bool:
        """Return whether the concrete point satisfies every constraint."""
        if len(point) != self._n - 1:
            raise ReproValueError(
                f"point has {len(point)} coordinates, expected {self._n - 1}"
            )
        values = (0, *point)
        for i in range(self._n):
            row = self._b[i]
            vi = values[i]
            for j in range(self._n):
                bound = row[j]
                if bound is not None and vi - values[j] > bound:
                    return False
        return True

    def solution(self) -> list[int] | None:
        """Return one integer solution, or ``None`` when unsatisfiable.

        Uses the standard shortest-path potential: after closure, setting
        ``X_i`` to its tightest upper bound ``b[i][0]`` satisfies every
        constraint (triangle inequality of the closure).  Variables with
        no finite upper bound are first capped by a bound large enough to
        exceed every implied lower bound, which cannot introduce a
        negative cycle.
        """
        if not self.close():
            return None
        big = 1 + sum(
            abs(bound) for row in self._b for bound in row if bound is not None
        )
        probe = self
        if any(self._b[i][0] is None for i in range(1, self._n)):
            probe = self.copy()
            for i in range(1, self._n):
                if probe._b[i][0] is None:
                    probe._set(i, 0, big)
            if not probe.close():  # pragma: no cover - cap cannot conflict
                raise AssertionError("capping unbounded variables broke the DBM")
        result = [probe._b[i][0] for i in range(1, probe._n)]
        assert self.satisfied_by(result)
        return result

    def iter_bounds(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(i, j, bound)`` for every finite stored bound.

        Indices follow the internal convention: -1 is the zero variable,
        otherwise 0-based user variables.  Diagonal entries are skipped.
        """
        for i in range(self._n):
            for j in range(self._n):
                if i == j:
                    continue
                bound = self._b[i][j]
                if bound is not None:
                    yield (i - 1, j - 1, bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DBM):
            return NotImplemented
        return self.equivalent(other)

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        parts = []
        for i, j, bound in self.iter_bounds():
            left = "0" if i < 0 else f"X{i}"
            right = "0" if j < 0 else f"X{j}"
            parts.append(f"{left} - {right} <= {bound}")
        return f"DBM({self.size}: {'; '.join(parts) or 'true'})"
