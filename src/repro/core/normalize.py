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

Implementation notes:

* Singleton lrps (period 0) are kept as constants; their repetition
  counter is pinned to 0 via equality constraints, so the n-space system
  remains a pure difference system (Theorem 3.1 still applies).
* Steps 3–5 are fused: every X-space bound ``X_i - X_j <= b`` maps to the
  n-space bound ``n_i - n_j <= floor((b - c_i + c_j) / k)``, which is
  exact because ``n_i - n_j`` is an integer.  Equality constraints map to
  two such bounds; step 4's divisibility filter falls out as an
  unsatisfiable n-space system (the two floored bounds cross).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.arith import lcm
from repro.core.dbm import DBM
from repro.core.errors import NormalizationLimitError, ReproValueError
from repro.core.lrp import LRP
from repro.core.tuples import GeneralizedTuple
from repro.perf import kernel
from repro.perf.config import PERF_COUNTERS

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

    def free_extension_key(self) -> tuple:
        """Identity of the free extension: offsets + singleton flags + data.

        Two normalized tuples of the same period with equal keys have the
        same free extension, the grouping complement and subtraction use.
        """
        return (self.period, self.offsets, self.singleton, self.data)

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
        """Convert back to an X-space generalized tuple.

        n-space bounds ``n_i - n_j <= b`` map to X-space bounds
        ``X_i - X_j <= k*b + c_i - c_j``.  Pins of singleton counters are
        dropped: the singleton lrp already encodes them.
        """
        k = self.period
        arity = self.arity
        x_dbm = DBM(arity)
        for i, j, bound in self.n_dbm.iter_bounds():
            # Skip pure pin constraints on singleton counters: they are
            # represented by the singleton lrp itself.
            if i >= 0 and j < 0 and self.singleton[i]:
                continue
            if j >= 0 and i < 0 and self.singleton[j]:
                continue
            ci = self.offsets[i] if i >= 0 else 0
            cj = self.offsets[j] if j >= 0 else 0
            x_bound = k * bound + ci - cj
            if i >= 0 and j >= 0:
                x_dbm.add_difference(i, j, x_bound)
            elif j < 0:
                x_dbm.add_upper(i, x_bound)
            else:
                x_dbm.add_lower(j, -x_bound)
        return GeneralizedTuple(lrps=self.lrps(), dbm=x_dbm, data=self.data)

    def project(self, keep: Sequence[int]) -> NormalizedTuple:
        """Project onto the temporal attributes at positions ``keep``.

        Exact over Z by Theorem 3.1: the n-space system is a difference
        system over free integer counters.
        """
        return NormalizedTuple(
            period=self.period,
            offsets=tuple(self.offsets[i] for i in keep),
            singleton=tuple(self.singleton[i] for i in keep),
            n_dbm=self.n_dbm.project(list(keep)),
            data=self.data,
        )

    def intersect(self, other: NormalizedTuple) -> NormalizedTuple | None:
        """Intersect two normalized tuples of the same period.

        Two equal-period lrps intersect iff their offsets agree modulo
        the period (the paper's Appendix A.3 observation); the result
        keeps the shared free extension and conjoins the n-space
        constraints.
        """
        if self.period != other.period:
            raise ReproValueError("normalized periods differ; re-normalize first")
        if self.arity != other.arity or self.data != other.data:
            return None
        k = self.period
        offsets: list[int] = []
        singleton: list[bool] = []
        # The n-counters of both sides measure from possibly different
        # constants when mixing singleton and periodic attributes, so
        # align the counter origin attribute by attribute.
        self_shift: list[int] = []
        other_shift: list[int] = []
        for (c1, s1), (c2, s2) in zip(
            zip(self.offsets, self.singleton), zip(other.offsets, other.singleton)
        ):
            if s1 and s2:
                if c1 != c2:
                    return None
                offsets.append(c1)
                singleton.append(True)
                self_shift.append(0)
                other_shift.append(0)
            elif s1:
                # {c1} ∩ (c2 + kZ): nonempty iff c1 ≡ c2 (mod k).
                if (c1 - c2) % k != 0:
                    return None
                offsets.append(c1)
                singleton.append(True)
                self_shift.append(0)
                other_shift.append((c1 - c2) // k)
            elif s2:
                if (c2 - c1) % k != 0:
                    return None
                offsets.append(c2)
                singleton.append(True)
                self_shift.append((c2 - c1) // k)
                other_shift.append(0)
            else:
                if c1 % k != c2 % k:
                    return None
                offsets.append(c1)
                singleton.append(False)
                self_shift.append(0)
                other_shift.append(0)
        left = _shift_counters(self.n_dbm, self_shift)
        right = _shift_counters(other.n_dbm, other_shift)
        merged = left.intersect(right)
        # Singletons arising from singleton-vs-periodic pairs must pin the
        # counter so both sides' bounds refer to the same point.
        for idx, s in enumerate(singleton):
            if s:
                merged.add_value(idx, 0)
        return NormalizedTuple(
            period=k,
            offsets=tuple(offsets),
            singleton=tuple(singleton),
            n_dbm=merged,
            data=self.data,
        )


def _shift_counters(dbm: DBM, shifts: Sequence[int]) -> DBM:
    """Substitute ``n_i := n_i + shift_i`` for every counter at once.

    Used to re-origin repetition counters when the reference constant of
    an attribute changes (e.g. aligning a periodic attribute's counter to
    a singleton value during intersection).  If the new counter is
    ``n'_i = n_i - shift_i`` (so the same point keeps its identity while
    the origin moves by ``k*shift_i``), a bound ``n_i - n_j <= b`` becomes
    ``n'_i - n'_j <= b - shift_i + shift_j``.
    """
    if all(s == 0 for s in shifts):
        return dbm.copy()
    out = dbm.copy()
    for i, s in enumerate(shifts):
        if s != 0:
            out = out.shift_variable(i, -s)
    return out


def tuple_explosion_size(gtuple: GeneralizedTuple, period: int) -> int:
    """Number of normal-form tuples ``gtuple`` splits into for ``period``."""
    size = 1
    for lrp in gtuple.lrps:
        if lrp.period != 0:
            size *= period // lrp.period
    return size


def tuple_period(gtuple: GeneralizedTuple) -> int:
    """The lcm of the tuple's non-zero lrp periods (1 if none)."""
    k = 1
    for lrp in gtuple.lrps:
        if lrp.period != 0:
            k = lcm(k, lrp.period)
    return k


def relation_period(tuples: Iterable[GeneralizedTuple]) -> int:
    """The lcm of all non-zero lrp periods across ``tuples`` (1 if none)."""
    k = 1
    for gtuple in tuples:
        for lrp in gtuple.lrps:
            if lrp.period != 0:
                k = lcm(k, lrp.period)
    return k


def iter_normalize_tuple(
    gtuple: GeneralizedTuple,
    period: int | None = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
    keep_empty: bool = False,
    *,
    satisfiable: bool = False,
) -> Iterator[NormalizedTuple]:
    """Lazily normalize one generalized tuple (Theorem 3.2's five steps).

    ``period`` must be a positive common multiple of the tuple's lrp
    periods; by default the tuple's own lcm is used.  Tuples whose
    constraints become unsatisfiable on the grid (step 4) are dropped
    unless ``keep_empty`` is set.

    Raises :class:`NormalizationLimitError` when the split would produce
    more than ``max_tuples`` normal-form tuples (Section 3.8's blow-up).
    Laziness lets decision procedures (e.g. emptiness) stop at the first
    witness instead of materializing the whole split.  A caller that
    has already found the tuple's constraint system satisfiable passes
    ``satisfiable=True`` to skip closing it again.
    """
    own = tuple_period(gtuple)
    if period is None:
        period = own
    if period < 1 or period % own != 0:
        raise ReproValueError(
            f"period {period} is not a positive multiple of the tuple's "
            f"lcm period {own}"
        )
    size = tuple_explosion_size(gtuple, period)
    if size > max_tuples:
        raise NormalizationLimitError(
            f"normalization would produce {size} tuples "
            f"(limit {max_tuples}); periods are too unrelated"
        )
    # Structural accounting (Section 3.8's blow-up parameter): how many
    # normal-form tuples this expansion denotes.
    PERF_COUNTERS["normalize_expansion"] += size
    # An unsatisfiable constraint system denotes the empty set; it may be
    # recorded as a diagonal marker that iter_bounds cannot expose, so it
    # must be checked before the bounds are transcribed.
    if not satisfiable and not gtuple.dbm.copy().close():
        return
    arity = gtuple.temporal_arity
    x_bounds = list(gtuple.dbm.iter_bounds())
    # Step 1: split every periodic lrp onto the common period.
    choices: list[list[LRP]] = [
        lrp.split(period) if lrp.period != 0 else [lrp]
        for lrp in gtuple.lrps
    ]
    # Step 2: cross product of the splits (steps 3-5 fused per combo in
    # :func:`_build_normalized`).
    if kernel.kernel_active() and size > 1 and not keep_empty:
        # Collect-then-close: build every combo's counter system first,
        # then resolve all emptiness checks (step 4) with one batched
        # closure sweep instead of a scalar closure per combo.  Trades
        # the generator's laziness for vectorization; yielded values are
        # identical to the scalar path's.
        builds = [
            _build_normalized(combo, period, arity, x_bounds, gtuple.data)
            for combo in _product(choices)
        ]
        verdicts = kernel.sat_batch(
            [normalized.n_dbm for normalized in builds]
        )
        for normalized, sat in zip(builds, verdicts):
            if sat:
                yield normalized
        return
    for combo in _product(choices):
        normalized = _build_normalized(
            combo, period, arity, x_bounds, gtuple.data
        )
        if keep_empty or not normalized.is_empty():
            yield normalized


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


def _build_normalized(
    combo: tuple[LRP, ...],
    period: int,
    arity: int,
    x_bounds: list[tuple[int, int, int]],
    data: tuple[Hashable, ...],
) -> NormalizedTuple:
    """Steps 3-5 fused: map every X-space bound onto the counters."""
    offsets = tuple(lrp.offset for lrp in combo)
    singleton = tuple(lrp.period == 0 for lrp in combo)
    n_dbm = DBM(arity)
    for idx, is_single in enumerate(singleton):
        if is_single:
            n_dbm.add_value(idx, 0)
    for i, j, bound in x_bounds:
        ci = offsets[i] if i >= 0 else 0
        cj = offsets[j] if j >= 0 else 0
        n_bound = _floor_div_exactish(bound - ci + cj, period)
        if i >= 0 and j >= 0:
            n_dbm.add_difference(i, j, n_bound)
        elif j < 0:
            n_dbm.add_upper(i, n_bound)
        else:
            n_dbm.add_lower(j, -n_bound)
    return NormalizedTuple(
        period=period,
        offsets=offsets,
        singleton=singleton,
        n_dbm=n_dbm,
        data=data,
    )


def _floor_div_exactish(value: int, period: int) -> int:
    """Floor-divide a bound constant onto the grid (step 5)."""
    return value // period


def _product(choices: list[list[LRP]]) -> Iterator[tuple[LRP, ...]]:
    """Cross product of per-attribute lrp choices."""
    if not choices:
        yield ()
        return
    yield from itertools.product(*choices)


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
