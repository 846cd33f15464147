"""A Datalog-style deductive layer over generalized relations (Sec. 5).

Programs evaluate semi-naively by default (per-rule delta queries; see
:mod:`repro.deductive.incremental`), with the naive full-body fixpoint
kept as the oracle (``strategy="naive"``).
:class:`~repro.deductive.incremental.ViewMaintainer` is the bridge to
the transactional core: installed through
:meth:`repro.query.database.Database.install_program`, it keeps the
program's IDB materialized in every committed catalog version.
"""

from repro.deductive.program import (
    DEFAULT_MAX_ITERATIONS,
    STRATEGIES,
    Program,
)
from repro.deductive.incremental import (
    DIRTY,
    RefreshReport,
    ViewMaintainer,
)
from repro.deductive.rules import HeadArg, Rule

__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "DIRTY",
    "HeadArg",
    "Program",
    "RefreshReport",
    "Rule",
    "STRATEGIES",
    "ViewMaintainer",
]
