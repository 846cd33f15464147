"""Generators for property-testing and fuzzing code built on this library.

Two families of generators share one body of drawing logic:

* **Hypothesis strategies** (:func:`lrps`, :func:`dbms`,
  :func:`generalized_tuples`, :func:`generalized_relations`,
  :func:`periodic_sets`) for property tests.  Using *these* requires
  `hypothesis <https://hypothesis.readthedocs.io>`_ (an optional
  dependency, listed under the ``test`` extra), which loads on the first
  access to one of them, so importing this module stays cheap::

      from hypothesis import given
      from repro.testing import generalized_relations

      @given(generalized_relations(temporal_arity=2))
      def test_my_invariant(rel):
          ...

* **Seeded deterministic counterparts** (:func:`seeded_lrp`,
  :func:`seeded_dbm`, :func:`seeded_tuple`, :func:`seeded_relation`)
  taking a :class:`random.Random`; they draw from the *same*
  distributions (the shared ``_build_*`` helpers are parameterized over
  the integer-drawing primitive), need no third-party packages, and
  replay exactly for a fixed seed.  The differential fuzzing harness
  (:mod:`repro.fuzz`) is built on these.

All generators produce *small* structures by default (periods <= 6,
constants within ±8): the intent is exhaustive window checking, where
value magnitude adds nothing but runtime.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple

#: The drawing primitive both generator families are written against:
#: ``draw_int(low, high)`` returns an integer in ``[low, high]``.
DrawInt = Callable[[int, int], int]


# ----------------------------------------------------------------------
# shared drawing logic
# ----------------------------------------------------------------------


def _build_lrp(
    draw_int: DrawInt,
    max_period: int = 6,
    max_offset: int = 8,
    allow_singletons: bool = True,
) -> LRP:
    min_period = 0 if allow_singletons else 1
    period = draw_int(min_period, max_period)
    offset = draw_int(-max_offset, max_offset)
    return LRP.make(offset, period)


def _build_dbm(
    draw_int: DrawInt,
    arity: int,
    max_constraints: int = 4,
    max_bound: int = 8,
) -> DBM:
    dbm = DBM(arity)
    if arity == 0:
        # Nothing to constrain; spend no draws (a zero-arity system is
        # decided entirely by its empty conjunction).
        return dbm
    for _ in range(draw_int(0, max_constraints)):
        bound = draw_int(-max_bound, max_bound)
        kind = draw_int(0, 2)
        i = draw_int(0, arity - 1)
        if kind == 0 and arity >= 2:
            # Draw a *distinct* second variable directly instead of
            # retrying (or silently falling through to an upper bound,
            # as an earlier revision did): difference constraints must
            # be sampled at their stated rate.
            j = draw_int(0, arity - 2)
            if j >= i:
                j += 1
            dbm.add_difference(i, j, bound)
        elif kind <= 1:
            dbm.add_upper(i, bound)
        else:
            dbm.add_lower(i, bound)
    return dbm


def _build_tuple(
    draw_int: DrawInt,
    temporal_arity: int = 2,
    data_values: tuple = (),
    max_period: int = 6,
) -> GeneralizedTuple:
    tuple_lrps = tuple(
        _build_lrp(draw_int, max_period=max_period)
        for _ in range(temporal_arity)
    )
    dbm = _build_dbm(draw_int, temporal_arity)
    return GeneralizedTuple(lrps=tuple_lrps, dbm=dbm, data=tuple(data_values))


def _build_relation(
    draw_int: DrawInt,
    temporal_arity: int = 2,
    data_choices: tuple[tuple, ...] = ((),),
    max_tuples: int = 3,
    max_period: int = 6,
    schema: Schema | None = None,
) -> GeneralizedRelation:
    data_arity = len(data_choices[0])
    if schema is None:
        schema = Schema.make(
            temporal=[f"X{i + 1}" for i in range(temporal_arity)],
            data=[f"D{i + 1}" for i in range(data_arity)],
        )
    out = GeneralizedRelation.empty(schema)
    for _ in range(draw_int(0, max_tuples)):
        data = data_choices[draw_int(0, len(data_choices) - 1)]
        out.add(
            _build_tuple(
                draw_int,
                temporal_arity=temporal_arity,
                data_values=data,
                max_period=max_period,
            )
        )
    return out


# ----------------------------------------------------------------------
# seeded deterministic generators (no third-party dependencies)
# ----------------------------------------------------------------------


def seeded_lrp(
    rng: random.Random,
    max_period: int = 6,
    max_offset: int = 8,
    allow_singletons: bool = True,
) -> LRP:
    """Deterministic counterpart of the :func:`lrps` strategy."""
    return _build_lrp(
        rng.randint,
        max_period=max_period,
        max_offset=max_offset,
        allow_singletons=allow_singletons,
    )


def seeded_dbm(
    rng: random.Random,
    arity: int,
    max_constraints: int = 4,
    max_bound: int = 8,
) -> DBM:
    """Deterministic counterpart of the :func:`dbms` strategy.

    May produce unsatisfiable systems (callers wanting satisfiable ones
    should filter with ``dbm.copy().close()``).
    """
    return _build_dbm(
        rng.randint, arity, max_constraints=max_constraints, max_bound=max_bound
    )


def seeded_tuple(
    rng: random.Random,
    temporal_arity: int = 2,
    data_values: tuple = (),
    max_period: int = 6,
) -> GeneralizedTuple:
    """Deterministic counterpart of the :func:`generalized_tuples` strategy."""
    return _build_tuple(
        rng.randint,
        temporal_arity=temporal_arity,
        data_values=data_values,
        max_period=max_period,
    )


def seeded_relation(
    rng: random.Random,
    temporal_arity: int = 2,
    data_choices: tuple[tuple, ...] = ((),),
    max_tuples: int = 3,
    max_period: int = 6,
    schema: Schema | None = None,
) -> GeneralizedRelation:
    """Deterministic counterpart of the :func:`generalized_relations` strategy.

    ``schema`` overrides the default ``X1..Xk`` / ``D1..Dl`` naming (its
    arities must match ``temporal_arity`` and ``data_choices``).
    """
    return _build_relation(
        rng.randint,
        temporal_arity=temporal_arity,
        data_choices=data_choices,
        max_tuples=max_tuples,
        max_period=max_period,
        schema=schema,
    )


# ----------------------------------------------------------------------
# hypothesis strategies (thin wrappers over the shared logic)
# ----------------------------------------------------------------------

#: The strategy names, bound on first access by :func:`__getattr__`.
_STRATEGIES = (
    "lrps",
    "dbms",
    "generalized_tuples",
    "generalized_relations",
    "periodic_sets",
)


def _needs_hypothesis(*_args, **_kwargs):
    raise ImportError(
        "the repro.testing hypothesis strategies require the optional "
        "'hypothesis' package (pip install repro[test]); the seeded_* "
        "generators work without it"
    )


def _build_strategies() -> dict:
    """The hypothesis strategies by name, or stand-ins that raise
    ``ImportError`` when called if hypothesis is not installed."""
    try:
        from hypothesis import strategies as st
    except ImportError:  # pragma: no cover - only without the test extra
        return dict.fromkeys(_STRATEGIES, _needs_hypothesis)

    @st.composite
    def lrps(
        draw,
        max_period: int = 6,
        max_offset: int = 8,
        allow_singletons: bool = True,
    ) -> LRP:
        """Strategy for canonical linear repeating points."""
        return _build_lrp(
            lambda lo, hi: draw(st.integers(lo, hi)),
            max_period=max_period,
            max_offset=max_offset,
            allow_singletons=allow_singletons,
        )

    @st.composite
    def dbms(
        draw,
        arity: int,
        max_constraints: int = 4,
        max_bound: int = 8,
    ) -> DBM:
        """Strategy for restricted-constraint systems over ``arity`` variables.

        May produce unsatisfiable systems (callers wanting satisfiable
        ones should filter with ``dbm.copy().close()``).
        """
        return _build_dbm(
            lambda lo, hi: draw(st.integers(lo, hi)),
            arity,
            max_constraints=max_constraints,
            max_bound=max_bound,
        )

    @st.composite
    def generalized_tuples(
        draw,
        temporal_arity: int = 2,
        data_values: tuple = (),
        max_period: int = 6,
    ) -> GeneralizedTuple:
        """Strategy for generalized tuples of a fixed shape."""
        return _build_tuple(
            lambda lo, hi: draw(st.integers(lo, hi)),
            temporal_arity=temporal_arity,
            data_values=data_values,
            max_period=max_period,
        )

    @st.composite
    def generalized_relations(
        draw,
        temporal_arity: int = 2,
        data_choices: tuple[tuple, ...] = ((),),
        max_tuples: int = 3,
        max_period: int = 6,
    ) -> GeneralizedRelation:
        """Strategy for generalized relations.

        ``data_choices`` lists the data-value tuples tuples may carry;
        the default is the purely temporal relation.  The schema names
        temporal attributes ``X1..Xk`` and data attributes ``D1..Dl``.
        """
        return _build_relation(
            lambda lo, hi: draw(st.integers(lo, hi)),
            temporal_arity=temporal_arity,
            data_choices=data_choices,
            max_tuples=max_tuples,
            max_period=max_period,
        )

    @st.composite
    def periodic_sets(draw, max_period: int = 6) -> "PeriodicSet":
        """Strategy for PeriodicSet values (finite, periodic, and mixed)."""
        from repro.periodic import PeriodicSet

        kind = draw(st.integers(0, 3))
        if kind == 0:
            return PeriodicSet.points(
                draw(st.lists(st.integers(-10, 10), max_size=4))
            )
        if kind == 1:
            low = draw(st.integers(-10, 10))
            return PeriodicSet.interval(low, low + draw(st.integers(0, 8)))
        base = PeriodicSet.every(
            draw(st.integers(1, max_period)), draw(st.integers(0, max_period))
        )
        if kind == 2:
            return base
        return base & PeriodicSet.at_or_above(draw(st.integers(-8, 8)))

    return {
        "lrps": lrps,
        "dbms": dbms,
        "generalized_tuples": generalized_tuples,
        "generalized_relations": generalized_relations,
        "periodic_sets": periodic_sets,
    }


def __getattr__(name: str):
    # PEP 562: hypothesis loads on the first strategy lookup, not on
    # import (the fuzzer and every front door import this module).
    if name in _STRATEGIES:
        strategies = _build_strategies()
        globals().update(strategies)
        return strategies[name]
    raise AttributeError(f"module 'repro.testing' has no attribute {name!r}")
