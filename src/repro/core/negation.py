"""Negation / complement of generalized relations (Appendix A.6).

The complement of a relation ``r`` of temporal arity ``m``, normalized to
period ``k``, is computed per the paper:

* enumerate all ``k^m`` free extensions of period ``k``;
* a free extension not appearing in ``r`` contributes one unconstrained
  tuple;
* a free extension appearing in ``r`` with constraint systems
  ``D_1 ∨ ... ∨ D_p`` contributes the tuples of ``¬D_1 ∧ ... ∧ ¬D_p``,
  expanded to disjunctive normal form *incrementally*: conjoin one
  negated system at a time and reduce after every step, so that the
  intermediate representation stays within the ``(N+1)^{m(m+1)}`` bound
  of Theorem A.1 instead of blowing up to ``(m(m+1))^N`` terms.

Singleton lrps are first "de-singularized": ``{c}`` becomes the periodic
lrp ``(c mod k) + kZ`` with its repetition counter pinned by constraints,
so that every tuple's free extension is a plain offset vector in
``[0, k)^m`` and the enumeration above is exhaustive.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError
from repro.core.normalize import (
    DEFAULT_MAX_TUPLES,
    NormalizedTuple,
    normalize_relation_tuples,
)
from repro.core.tuples import GeneralizedTuple
from repro.perf import prefilter
from repro.obs.metrics import COUNTERS
from repro.perf.config import get_config

DEFAULT_MAX_EXTENSIONS = 1_000_000


def desingularize(nt: NormalizedTuple) -> NormalizedTuple:
    """Rewrite singleton attributes as constrained periodic attributes.

    A singleton lrp ``{c}`` equals the periodic lrp ``(c mod k) + kZ``
    intersected with ``X = c``; in n-space the pin moves from ``n = 0``
    (with origin ``c``) to ``n = (c - c mod k) / k`` (with origin
    ``c mod k``).  The denoted point set is unchanged.
    """
    if not any(nt.singleton):
        return nt
    k = nt.period
    new_offsets: list[int] = []
    dbm = nt.n_dbm.copy()
    for i, (c, is_single) in enumerate(zip(nt.offsets, nt.singleton)):
        if not is_single:
            new_offsets.append(c)
            continue
        reduced = c % k
        shift = (c - reduced) // k
        new_offsets.append(reduced)
        if shift != 0:
            # Counter re-origins: n_new = n_old + shift.  shift_variable
            # implements n := n + delta on the variable's value set, so
            # delta = +shift moves the pin n_old = 0 to n_new = shift.
            dbm = dbm.shift_variable(i, shift)
    return NormalizedTuple(
        period=k,
        offsets=tuple(new_offsets),
        singleton=tuple(False for _ in nt.singleton),
        n_dbm=dbm,
        data=nt.data,
    )


def negate_dbm(dbm: DBM, size: int) -> list[DBM]:
    """Return DBMs whose union is the complement of ``dbm``'s solution set.

    Each stored finite bound ``v_i - v_j <= b`` contributes one disjunct
    ``v_j - v_i <= -b - 1`` (the integer negation).  An unconstrained
    system has an empty complement; an unsatisfiable one complements to
    the single unconstrained system.
    """
    bounds = list(dbm.iter_bounds())
    if not dbm.copy().close():
        return [DBM(size)]
    out: list[DBM] = []
    for i, j, bound in bounds:
        piece = DBM(size)
        if i >= 0 and j >= 0:
            piece.add_difference(j, i, -bound - 1)
        elif j < 0:
            # negation of v_i <= bound
            piece.add_lower(i, bound + 1)
        else:
            # negation of v_j >= -bound
            piece.add_upper(j, -bound - 1)
        out.append(piece)
    return out


def complement_constraint_systems(
    systems: Sequence[DBM], size: int
) -> list[DBM]:
    """Compute ``¬D_1 ∧ ... ∧ ¬D_p`` as a reduced list of DBMs.

    This is the incremental DNF expansion of Appendix A.6: conjoin one
    negated system at a time, dropping unsatisfiable conjuncts and
    deduplicating by canonical closure after every step.
    """
    current: list[DBM] = [DBM(size)]
    for system in systems:
        negated = negate_dbm(system, size)
        if not negated:
            return []
        pre = get_config().prefilter_enabled
        # Every negated piece carries exactly one written bound, so an
        # O(1) closed-path test decides whether conjoining it can stay
        # satisfiable — skipping the pieces the canonical-key check
        # below would discard anyway, without building the merge.
        piece_bounds = (
            [next(iter(piece.iter_bounds()), None) for piece in negated]
            if pre
            else None
        )
        next_round: dict[tuple, DBM] = {}
        for conjunct in current:
            # Every conjunct kept so far is satisfiable, so its
            # canonical key is its closed bound rows.
            closed_conjunct = conjunct.canonical_key() if pre else None
            for index, piece in enumerate(negated):
                if piece_bounds is not None:
                    bound = piece_bounds[index]
                    if bound is not None and not prefilter.added_bound_satisfiable(
                        closed_conjunct, *bound
                    ):
                        COUNTERS["perf.prefilter_negation_skip"] += 1
                        continue
                merged = conjunct.intersect(piece)
                # Satisfiability and deduplication both go through the
                # canonical key, which closes a *copy*: the stored
                # bounds must remain exactly the written ones, because
                # the decomposed complement's counters use per-column
                # scales and closure would synthesize cross-scale
                # difference bounds (sound in n-space, untranslatable
                # to X-space).
                key = merged.canonical_key()
                if key == ("UNSAT", size):
                    continue
                if key not in next_round:
                    next_round[key] = merged
        current = _drop_subsumed(list(next_round.values()))
        if not current:
            return []
    return current


def _drop_subsumed(systems: list[DBM]) -> list[DBM]:
    """Remove systems whose solution set is contained in another's.

    Quadratic in the list length but each check is a closed-matrix
    comparison; this is the "keep the strongest" reduction that bounds
    the expansion polynomially for a fixed schema.
    """
    kept: list[DBM] = []
    for candidate in systems:
        if any(candidate.implies(other) for other in kept):
            continue
        kept = [other for other in kept if not other.implies(candidate)]
        kept.append(candidate)
    return kept


def complement_normalized(
    normalized: Iterable[NormalizedTuple],
    arity: int,
    period: int,
    data: tuple = (),
    max_extensions: int = DEFAULT_MAX_EXTENSIONS,
) -> list[NormalizedTuple]:
    """Complement a set of same-data normalized tuples w.r.t. ``Z^arity``.

    ``normalized`` must all have the given period and data values.
    Raises :class:`NormalizationLimitError` when ``period ** arity``
    exceeds ``max_extensions`` (the inherent general-complexity blow-up).
    """
    if period ** arity > max_extensions:
        raise NormalizationLimitError(
            f"complement would enumerate {period ** arity} free extensions "
            f"(limit {max_extensions})"
        )
    COUNTERS["perf.complement_extensions"] += period ** arity
    groups: dict[tuple[int, ...], list[DBM]] = {}
    for nt in normalized:
        flat = desingularize(nt)
        groups.setdefault(flat.offsets, []).append(flat.n_dbm)
    out: list[NormalizedTuple] = []
    all_false = tuple(False for _ in range(arity))
    for offsets in itertools.product(range(period), repeat=arity):
        systems = groups.get(offsets)
        if systems is None:
            dbms: list[DBM] = [DBM(arity)]
        else:
            dbms = complement_constraint_systems(systems, arity)
        for dbm in dbms:
            out.append(
                NormalizedTuple(
                    period=period,
                    offsets=offsets,
                    singleton=all_false,
                    n_dbm=dbm,
                    data=data,
                )
            )
    return out


def complement_tuples(
    tuples: Sequence[GeneralizedTuple],
    arity: int,
    data: tuple = (),
    max_tuples: int = DEFAULT_MAX_TUPLES,
    max_extensions: int = DEFAULT_MAX_EXTENSIONS,
    uniform_period: bool = False,
) -> list[GeneralizedTuple]:
    """Complement same-data generalized tuples w.r.t. ``Z^arity``.

    Handles the empty input (complement is all of ``Z^arity``) and the
    0-ary edge case (the complement of a nonempty 0-ary relation is
    empty; of an empty one, the single empty tuple).

    By default the free-extension enumeration uses *per-component*
    periods: columns that are never constrained against each other (in
    any tuple) keep independent periods, so the enumeration costs
    ``Π k_comp^|comp|`` instead of the paper's uniform ``k^m``.  Pass
    ``uniform_period=True`` for the paper's literal algorithm (same
    semantics, coarser splitting).
    """
    if arity == 0:
        nonempty = any(t.dbm.copy().close() for t in tuples)
        if nonempty:
            return []
        return [GeneralizedTuple.make([], data=data)]
    if uniform_period:
        period, normalized = normalize_relation_tuples(
            tuples, max_tuples=max_tuples
        )
        result = complement_normalized(
            normalized,
            arity=arity,
            period=period,
            data=data,
            max_extensions=max_extensions,
        )
        return [nt.to_generalized() for nt in result]
    return _complement_tuples_decomposed(
        tuples,
        arity=arity,
        data=data,
        max_tuples=max_tuples,
        max_extensions=max_extensions,
    )


# ----------------------------------------------------------------------
# per-component-period complement (a refinement of Appendix A.6)
# ----------------------------------------------------------------------


def _column_components(
    tuples: Sequence[GeneralizedTuple], arity: int
) -> list[int]:
    """Union-find over columns: co-constrained columns share a component.

    Returns a representative id per column.  Two columns are merged when
    *any* tuple holds a difference constraint between them; unary bounds
    do not connect columns.
    """
    parent = list(range(arity))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for gtuple in tuples:
        for i, j, _bound in gtuple.dbm.iter_bounds():
            if i >= 0 and j >= 0:
                union(i, j)
    return [find(i) for i in range(arity)]


def _column_periods(
    tuples: Sequence[GeneralizedTuple],
    components: list[int],
    arity: int,
) -> list[int]:
    """Per-column period: lcm of lrp periods across each component."""
    from repro.arith import lcm

    by_component: dict[int, int] = {}
    for gtuple in tuples:
        for col in range(arity):
            period = gtuple.lrps[col].period
            if period != 0:
                root = components[col]
                by_component[root] = lcm(by_component.get(root, 1), period)
    return [by_component.get(components[col], 1) for col in range(arity)]


def _normalize_mixed(
    gtuple: GeneralizedTuple,
    k_cols: list[int],
    max_tuples: int,
) -> Iterable[tuple[tuple[int, ...], DBM]]:
    """Normalize one tuple onto per-column periods, desingularized.

    Yields ``(offsets, n_dbm)`` pairs: every column becomes a periodic
    lrp ``offset + k_col * n`` (original singletons pin their counter),
    and the constraints are transcribed onto the counters with the
    integer-exact floor of Theorem 3.2's step 5 (valid because any two
    co-constrained columns share their component's period).
    """
    import itertools

    if not gtuple.dbm.copy().close():
        return
    arity = gtuple.temporal_arity
    size = 1
    for col in range(arity):
        if gtuple.lrps[col].period != 0:
            size *= k_cols[col] // gtuple.lrps[col].period
    if size > max_tuples:
        raise NormalizationLimitError(
            f"decomposed normalization would produce {size} tuples "
            f"(limit {max_tuples})"
        )
    choices: list[list[tuple[int, int | None]]] = []
    for col in range(arity):
        lrp = gtuple.lrps[col]
        k = k_cols[col]
        if lrp.period == 0:
            # Singleton: offset reduced mod k, counter pinned.
            pin = (lrp.offset - lrp.offset % k) // k
            choices.append([(lrp.offset % k, pin)])
        else:
            choices.append(
                [(piece.offset, None) for piece in lrp.split(k)]
            )
    x_bounds = list(gtuple.dbm.iter_bounds())
    for combo in itertools.product(*choices):
        offsets = tuple(offset for offset, _pin in combo)
        n_dbm = DBM(arity)
        for col, (_offset, pin) in enumerate(combo):
            if pin is not None:
                n_dbm.add_value(col, pin)
        for i, j, bound in x_bounds:
            # Original X-space values: X = offset + k*n for both the
            # reduced singleton and the split periodic forms.
            ci = offsets[i] if i >= 0 else 0
            cj = offsets[j] if j >= 0 else 0
            k = k_cols[i] if i >= 0 else k_cols[j]
            n_bound = (bound - ci + cj) // k
            if i >= 0 and j >= 0:
                n_dbm.add_difference(i, j, n_bound)
            elif j < 0:
                n_dbm.add_upper(i, n_bound)
            else:
                n_dbm.add_lower(j, -n_bound)
        if n_dbm.copy().close():
            yield offsets, n_dbm


def _complement_tuples_decomposed(
    tuples: Sequence[GeneralizedTuple],
    arity: int,
    data: tuple,
    max_tuples: int,
    max_extensions: int,
) -> list[GeneralizedTuple]:
    components = _column_components(tuples, arity)
    k_cols = _column_periods(tuples, components, arity)
    total = 1
    for k in k_cols:
        total *= k
        if total > max_extensions:
            raise NormalizationLimitError(
                f"complement would enumerate more than {max_extensions} "
                "free extensions"
            )
    # Structural accounting (Theorem 3.6's blow-up parameter): number of
    # free-extension combinations this complement enumerates.
    COUNTERS["perf.complement_extensions"] += total
    groups: dict[tuple[int, ...], list[DBM]] = {}
    budget = 0
    for gtuple in tuples:
        for offsets, n_dbm in _normalize_mixed(gtuple, k_cols, max_tuples):
            budget += 1
            if budget > max_tuples:
                raise NormalizationLimitError(
                    f"decomposed complement exceeded {max_tuples} "
                    "normalized tuples"
                )
            groups.setdefault(offsets, []).append(n_dbm)
    out: list[GeneralizedTuple] = []
    for offsets in itertools.product(*(range(k) for k in k_cols)):
        systems = groups.get(offsets)
        if systems is None:
            dbms: list[DBM] = [DBM(arity)]
        else:
            dbms = complement_constraint_systems(systems, arity)
        for n_dbm in dbms:
            out.append(
                _mixed_to_generalized(offsets, k_cols, n_dbm, data)
            )
    return out


def _mixed_to_generalized(
    offsets: tuple[int, ...],
    k_cols: list[int],
    n_dbm: DBM,
    data: tuple,
) -> GeneralizedTuple:
    """Convert a per-column-period n-space tuple back to X-space."""
    from repro.core.lrp import LRP

    lrps = tuple(
        LRP.make(offset, k) for offset, k in zip(offsets, k_cols)
    )
    x_dbm = DBM(len(offsets))
    for i, j, bound in n_dbm.iter_bounds():
        if i >= 0 and j >= 0 and k_cols[i] != k_cols[j]:
            # A difference bound between counters of different scales
            # can only arise from closure through the zero variable, so
            # it is implied by the unary bounds we do keep — and it has
            # no X-space difference-constraint translation.  Skip it.
            continue
        ci = offsets[i] if i >= 0 else 0
        cj = offsets[j] if j >= 0 else 0
        k = k_cols[i] if i >= 0 else k_cols[j]
        x_bound = k * bound + ci - cj
        if i >= 0 and j >= 0:
            x_dbm.add_difference(i, j, x_bound)
        elif j < 0:
            x_dbm.add_upper(i, x_bound)
        else:
            x_dbm.add_lower(j, -x_bound)
    return GeneralizedTuple(lrps=lrps, dbm=x_dbm, data=data)
