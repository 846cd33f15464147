"""Normal form and normalization (Definition 3.2, Theorem 3.2, Figure 3).

A tuple is *in normal form* when all its periodic lrps share one period
``k`` and every constraint constant is compatible with the ``k``-grid.
Normalization is the paper's five-step algorithm:

1. split every periodic lrp onto the common period ``k`` (Lemma 3.1);
2. take the cross product of the splits, copying the constraints;
3. rewrite the constraints over the repetition counters;
4. discard tuples whose equality constraints cannot meet the grid;
5. shift inequality constants down onto the grid (integer flooring).

The payoff is Theorem 3.1: over the repetition counters ``n_i`` (which
range over all of Z), the constraints form a plain integer difference
system, where the real-variable projection algorithm (shortest-path
closure) is integer-exact.  All projection, emptiness and complement
computations therefore run in this normalized *n-space*.

One routine does steps 1-5 for every caller: :func:`split` plans a
tuple's split (which attributes, onto which period each), prunes the
combos against the tuple's closure with the residue test of Section
3.2.1 (:meth:`SplitPlan.combos`), and :func:`transcribe` writes one
combo's counter system.  The callers are four parameterizations:

* projection (Section 3.4's partial normalization): the constraint
  cluster of the dropped attributes, on the cluster's period, pruned;
* emptiness and witnesses (Theorem 3.5): every attribute, on the
  tuple's lcm, pruned;
* complement (Appendix A.6): every attribute, on its column
  component's period (or the relation's lcm for the paper's uniform
  algorithm), pruned;
* the paper's literal normal form (:func:`iter_normalize_tuple`): every
  attribute, on the tuple's lcm or a given multiple, not pruned.

Implementation notes:

* Singleton lrps (period 0) are kept as constants; their repetition
  counter is pinned to 0 via equality constraints, so the n-space system
  remains a pure difference system (Theorem 3.1 still applies).
* Steps 3–5 are fused: every X-space bound ``X_i - X_j <= b`` maps to the
  n-space bound ``n_i - n_j <= floor((b - c_i + c_j) / k_i)``, which is
  exact because ``n_i - n_j`` is an integer and two constrained
  attributes share their period.  Equality constraints map to two such
  bounds; step 4's divisibility filter falls out as an unsatisfiable
  n-space system (the two floored bounds cross).
* Pruning only drops combos whose counter system has no solution, so
  the satisfiable combos of a pruned plan are those of the full
  product, in the same order.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import gcd, prod

from repro.arith import lcm
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError, ReproValueError
from repro.core.lrp import LRP
from repro.core.tuples import GeneralizedTuple
from repro.perf import kernel, prefilter
from repro.obs.metrics import COUNTERS

DEFAULT_MAX_TUPLES = 1_000_000


@dataclass
class NormalizedTuple:
    """A generalized tuple in normal form, carried in n-space.

    Attributes:
        period: the common period ``k`` (>= 1).
        offsets: per temporal attribute, the lrp offset ``c_i`` (for a
            periodic attribute, reduced into ``[0, k)``) or the constant
            value (for a singleton attribute).
        singleton: per temporal attribute, whether the lrp is a constant.
        n_dbm: difference constraints over the repetition counters
            ``n_i = (X_i - c_i) / k``; counters of singleton attributes
            are pinned to 0.
        data: data-attribute values.
    """

    period: int
    offsets: tuple[int, ...]
    singleton: tuple[bool, ...]
    n_dbm: DBM
    data: tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ReproValueError("normalized period must be >= 1")
        if len(self.offsets) != len(self.singleton):
            raise ReproValueError("offsets/singleton length mismatch")
        if self.n_dbm.size != len(self.offsets):
            raise ReproValueError("n_dbm size does not match arity")

    @property
    def arity(self) -> int:
        """Number of temporal attributes."""
        return len(self.offsets)

    def lrps(self) -> tuple[LRP, ...]:
        """The lrp vector this normalized tuple denotes."""
        return tuple(
            LRP.point(c) if s else LRP.make(c, self.period)
            for c, s in zip(self.offsets, self.singleton)
        )

    def is_empty(self) -> bool:
        """Whether the denoted point set is empty (integer-exact)."""
        return not self.n_dbm.copy().close()

    def to_generalized(self) -> GeneralizedTuple:
        """Convert back to an X-space generalized tuple (:func:`to_x_space`)."""
        periods = [self.period] * self.arity
        x_dbm = to_x_space(self.offsets, self.singleton, periods, self.n_dbm)
        return GeneralizedTuple(lrps=self.lrps(), dbm=x_dbm, data=self.data)


def tuple_explosion_size(gtuple: GeneralizedTuple, period: int) -> int:
    """Number of normal-form tuples ``gtuple`` splits into for ``period``."""
    size = 1
    for lrp in gtuple.lrps:
        if lrp.period != 0:
            size *= period // lrp.period
    return size


def tuple_period(gtuple: GeneralizedTuple) -> int:
    """The lcm of the tuple's non-zero lrp periods (1 if none)."""
    return relation_period([gtuple])


def relation_period(tuples: Iterable[GeneralizedTuple]) -> int:
    """The lcm of all non-zero lrp periods across ``tuples`` (1 if none)."""
    k = 1
    for gtuple in tuples:
        for lrp in gtuple.lrps:
            if lrp.period != 0:
                k = lcm(k, lrp.period)
    return k


# ----------------------------------------------------------------------
# the split routine (steps 1-5, with residue pruning)
# ----------------------------------------------------------------------


class SplitPlan:
    """One tuple's split onto per-attribute periods (Lemma 3.1).

    ``choices[d]`` lists the split lrps of attribute ``attrs[d]`` (all
    of period ``periods[d]``, or the one singleton it is), and ``size``
    is the size of their product.  ``entries`` holds every written
    X-space bound that touches a split attribute as ``(row_i, row_j,
    b)``: row 0 is the zero variable and ``attrs[d]`` is row ``d + 1``.
    """

    __slots__ = (
        "attrs",
        "periods",
        "choices",
        "size",
        "entries",
    )

    def combos(self, rows: tuple | None = None) -> list[tuple[LRP, ...]]:
        """The split combos in ``itertools.product`` order.

        With ``rows``, the tuple's closure, only the combos whose lrps
        meet its closed windows (:func:`_feasible_combos`); each combo
        left out adds one to ``perf.prefilter_residue_skip``.  ``rows``
        must belong to a tuple that passed the residue test of
        :func:`split`: a product of one combo is then the tuple's own
        lrps, already tested.
        """
        if rows is None or self.size == 1:
            return list(itertools.product(*self.choices))
        combos, excluded = _feasible_combos(self.attrs, self.choices, rows)
        COUNTERS["perf.prefilter_residue_skip"] += excluded
        return combos


def split(
    gtuple: GeneralizedTuple,
    attrs: Sequence[int],
    periods: Sequence[int],
    max_tuples: int = DEFAULT_MAX_TUPLES,
    rows: tuple | None = None,
) -> SplitPlan | None:
    """Plan the split of ``gtuple``'s ``attrs`` onto ``periods`` (steps 1-2).

    ``periods[d]`` must be a positive multiple of the period of
    ``attrs[d]``'s lrp, and every bound touching a split attribute must
    stay among the split attributes (and the zero variable).

    With ``rows``, the tuple's closure, the split lrps are first tested
    against its closed windows
    (:func:`~repro.perf.prefilter.residues_meet`).  A tuple that fails
    has only empty combos: it gets no plan (``None``), adds its whole
    split product to ``perf.prefilter_residue_skip``, and neither raises
    :class:`NormalizationLimitError` nor adds to
    ``perf.normalize_expansion``.  Otherwise a split product above
    ``max_tuples`` raises (Section 3.8's blow-up), and the product is
    added to ``perf.normalize_expansion``.
    """
    lrps = gtuple.lrps
    size = 1
    for a, k in zip(attrs, periods):
        if lrps[a].period:
            size *= k // lrps[a].period
    if rows is not None and not prefilter.residues_meet(lrps, rows, attrs):
        COUNTERS["perf.prefilter_residue_skip"] += size
        return None
    if size > max_tuples:
        raise NormalizationLimitError(
            f"normalization would produce {size} tuples "
            f"(limit {max_tuples}); periods are too unrelated"
        )
    COUNTERS["perf.normalize_expansion"] += size
    plan = SplitPlan()
    plan.attrs = attrs
    plan.periods = periods
    # An lrp whose period already equals its target splits into itself.
    plan.choices = [
        [lrps[a]] if lrps[a].period in (0, k) else lrps[a].split(k)
        for a, k in zip(attrs, periods)
    ]
    plan.size = size
    # Plan row of each matrix row: 0 for the zero variable and for the
    # attributes not split, which share no bound with a split one.
    row_of = [0] * (len(lrps) + 1)
    for d, a in enumerate(attrs):
        row_of[a + 1] = d + 1
    entries = plan.entries = []
    for i, row in enumerate(gtuple.dbm._b):
        ti = row_of[i]
        for j, bound in enumerate(row):
            if bound is not None and i != j and (ti or row_of[j]):
                entries.append((ti, row_of[j], bound))
    return plan


def transcribe(plan: SplitPlan, combo: tuple[LRP, ...]) -> DBM:
    """Steps 3-5 fused: one combo's system over the repetition counters.

    Counter ``d`` is ``(X - c_d) / k_d`` for the combo's lrp ``c_d +
    k_d n`` of attribute ``plan.attrs[d]``; a singleton's counter is
    pinned at 0.  Every bound in ``plan.entries`` becomes ``n_i - n_j <=
    (b - c_i + c_j) // k_i``.  ``X_i - X_j <= b``, ``X_i <= b`` and
    ``X_j >= -b`` all store their bound at one matrix cell, so the
    entry's rows address it directly.
    """
    periods = plan.periods
    dbm = DBM(len(combo))
    offsets = [0]
    for row, lrp in enumerate(combo, 1):
        offsets.append(lrp.offset)
        if lrp.period == 0:
            dbm._set(row, 0, 0)
            dbm._set(0, row, 0)
    for ti, tj, bound in plan.entries:
        dbm._set(
            ti,
            tj,
            (bound - offsets[ti] + offsets[tj]) // periods[(ti or tj) - 1],
        )
    return dbm


def to_x_space(
    offsets: Sequence[int],
    singleton: Sequence[bool],
    periods: Sequence[int],
    n_dbm: DBM,
) -> DBM:
    """Map a counter system back to X-space, undoing :func:`transcribe`.

    A bound ``n_i - n_j <= b`` becomes ``X_i - X_j <= k_i*b + c_i - c_j``.
    Pins of singleton counters are dropped: the singleton lrp already
    encodes them.  A difference bound between counters of different
    periods can only arise from closure through the zero variable, so it
    is implied by the unary bounds kept, and it has no X-space
    difference-constraint translation: it is dropped too.
    """
    x_dbm = DBM(len(offsets))
    for i, j, bound in n_dbm.iter_bounds():
        a = i if i >= 0 else j  # the attribute whose period scales b
        if j < 0 or i < 0:
            if singleton[a]:
                continue
        elif periods[i] != periods[j]:
            continue
        ci = offsets[i] if i >= 0 else 0
        cj = offsets[j] if j >= 0 else 0
        x_dbm._set(i + 1, j + 1, periods[a] * bound + ci - cj)
    return x_dbm


def satisfiable_combos(
    plan: SplitPlan, rows: tuple | None = None
) -> list[tuple[tuple[LRP, ...], DBM]]:
    """The combos of ``plan`` with a satisfiable counter system, with
    that system, in product order.

    The combos are pruned against ``rows`` when given
    (:meth:`SplitPlan.combos`), and every verdict comes from one
    :func:`~repro.perf.kernel.sat_batch`.
    """
    combos = plan.combos(rows)
    dbms = [transcribe(plan, combo) for combo in combos]
    return [
        (combo, dbm)
        for combo, dbm, sat in zip(combos, dbms, kernel.sat_batch(dbms))
        if sat
    ]


def _feasible_combos(
    attrs: Sequence[int], choices: list[list[LRP]], rows: tuple
) -> tuple[list[tuple[LRP, ...]], int]:
    """The combos of ``itertools.product(*choices)`` whose lrps meet the
    closed windows ``rows``, in product order, and how many were left out.

    The combos grow one position at a time, and a choice is kept only if
    it passes its own window and the windows against the choices already
    made.  ``choices[d]`` holds lrps of attribute ``attrs[d]`` that share
    one period (the split period, or 0 for a singleton).  ``rows[i][j]``
    bounds ``X_i - X_j``, with row 0 the zero variable and attribute
    ``a`` at row ``a + 1``.  A combo meets the windows when each ``X_a``
    has a value of its lrp in ``[-rows[0][a+1], rows[a+1][0]]`` and each
    difference ``X_a - X_b`` has a value ``≡ c_a - c_b (mod gcd(p_a,
    p_b))`` in ``[-rows[b+1][a+1], rows[a+1][b+1]]`` (exactly ``c_a -
    c_b`` when the gcd is 0).
    """
    zero = rows[0]
    partial: list[tuple[LRP, ...]] = [()]
    below = prod(len(options) for options in choices)
    excluded = 0
    for depth, a in enumerate(attrs):
        options = choices[depth]
        below //= len(options)  # combos under one choice at this depth
        row = rows[a + 1]
        low = zero[a + 1]
        low = None if low is None else -low
        fitting = [
            lrp
            for lrp in options
            if prefilter.residue_in_window(
                lrp.offset, lrp.period, low, row[0]
            )
        ]
        excluded += (len(options) - len(fitting)) * below * len(partial)
        period = options[0].period
        windows = []
        for prior, b in enumerate(attrs[:depth]):
            low = rows[b + 1][a + 1]
            high = row[b + 1]
            modulus = gcd(period, choices[prior][0].period)
            if (low is None and high is None) or (
                modulus and (low is None or high is None)
            ):
                continue  # every difference fits
            windows.append(
                (prior, modulus, None if low is None else -low, high)
            )
        if not windows:
            partial = [combo + (lrp,) for combo in partial for lrp in fitting]
        else:
            extended = []
            for combo in partial:
                for lrp in fitting:
                    offset = lrp.offset
                    for prior, modulus, low, high in windows:
                        if not prefilter.residue_in_window(
                            offset - combo[prior].offset, modulus, low, high
                        ):
                            excluded += below
                            break
                    else:
                        extended.append(combo + (lrp,))
            partial = extended
        if not partial:
            break  # every subtree left out is already counted
    return partial, excluded


# ----------------------------------------------------------------------
# the paper's literal normal form
# ----------------------------------------------------------------------


def iter_normalize_tuple(
    gtuple: GeneralizedTuple,
    period: int | None = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    keep_empty: bool = False,
    *,
    satisfiable: bool = False,
) -> Iterator[NormalizedTuple]:
    """Normalize one generalized tuple (Theorem 3.2's five steps).

    Every attribute is split onto ``period``, which must be a positive
    common multiple of the tuple's lrp periods; by default the tuple's
    own lcm is used.  Nothing is pruned: tuples whose constraints become
    unsatisfiable on the grid (step 4) are dropped by their verdict
    unless ``keep_empty`` is set.

    Raises :class:`NormalizationLimitError` when the split would produce
    more than ``max_tuples`` normal-form tuples (Section 3.8's blow-up).
    A caller that has already found the tuple's constraint system
    satisfiable passes ``satisfiable=True`` to skip closing it again.
    """
    own = tuple_period(gtuple)
    if period is None:
        period = own
    if period < 1 or period % own != 0:
        raise ReproValueError(
            f"period {period} is not a positive multiple of the tuple's "
            f"lcm period {own}"
        )
    arity = gtuple.temporal_arity
    plan = split(gtuple, range(arity), [period] * arity, max_tuples)
    # An unsatisfiable constraint system denotes the empty set; it may be
    # recorded as a diagonal marker that iter_bounds cannot expose, so it
    # must be checked before the bounds are transcribed.
    if not satisfiable and not gtuple.dbm.copy().close():
        return
    if keep_empty:
        normal = [(combo, transcribe(plan, combo)) for combo in plan.combos()]
    else:
        normal = satisfiable_combos(plan)
    for combo, n_dbm in normal:
        yield NormalizedTuple(
            period=period,
            offsets=tuple([lrp.offset for lrp in combo]),
            singleton=tuple([lrp.period == 0 for lrp in combo]),
            n_dbm=n_dbm,
            data=gtuple.data,
        )


def normalize_tuple(
    gtuple: GeneralizedTuple,
    period: int | None = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    keep_empty: bool = False,
) -> list[NormalizedTuple]:
    """Materialized form of :func:`iter_normalize_tuple`."""
    return list(
        iter_normalize_tuple(
            gtuple, period=period, max_tuples=max_tuples, keep_empty=keep_empty
        )
    )


def normalize_relation_tuples(
    tuples: Iterable[GeneralizedTuple],
    period: int | None = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> tuple[int, list[NormalizedTuple]]:
    """Normalize a collection of tuples onto one common period.

    Returns ``(period, normalized_tuples)``.  The common period is the
    lcm over all tuples unless explicitly supplied.
    """
    tuple_list = list(tuples)
    if period is None:
        period = relation_period(tuple_list)
    total = 0
    out: list[NormalizedTuple] = []
    for gtuple in tuple_list:
        size = tuple_explosion_size(gtuple, period)
        total += size
        if total > max_tuples:
            raise NormalizationLimitError(
                f"relation normalization would exceed {max_tuples} tuples"
            )
        out.extend(normalize_tuple(gtuple, period=period, max_tuples=max_tuples))
    return period, out
