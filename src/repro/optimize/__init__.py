"""repro.optimize — exact MINIMIZE/MAXIMIZE over generalized relations.

The paper's generalized tuples are difference constraint systems, so
extremum queries over linear objectives (a single temporal variable,
or a difference ``Xi - Xj``) are answerable *exactly* by shortest-path
reasoning over the canonical DBM closure, with lrp periodicity folded
in through CRT residue ladders (``docs/optimization.md``):

* :class:`Objective` / :func:`parse_objective` — the objective grammar
  shared with the ``MINIMIZE``/``MAXIMIZE`` query directives;
* :func:`optimize_tuple` — the per-tuple core: exact finite optima via
  a monotone pinning search probed with the emptiness decision, and
  constructive :class:`UnboundedCertificate` proofs when none exists;
* :func:`optimize_relation` — aggregation across a relation with
  argmin/argmax tuple provenance, as an :class:`OptimizationResult`.
"""

from repro.optimize.core import (
    OptimizationResult,
    TupleOptimum,
    UnboundedCertificate,
    optimize_relation,
    optimize_tuple,
)
from repro.optimize.objective import Objective, parse_objective

__all__ = [
    "Objective",
    "OptimizationResult",
    "TupleOptimum",
    "UnboundedCertificate",
    "optimize_relation",
    "optimize_tuple",
    "parse_objective",
]
