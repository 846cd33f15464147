"""The differential executor: three evaluations of one case, compared.

Each :class:`~repro.fuzz.case.Case` holds a plan-IR expression, which
is evaluated

1. by running the plan as built on
   :class:`~repro.plan.engine.NativeEngine` — one algebra call per
   node (the *naive* leg),
2. by applying the :mod:`repro.plan.rewrite` passes and running the
   rewritten plan on the same engine (the *rewritten* leg), compared
   against the naive leg, and
3. through :class:`~repro.baseline.finite.FiniteRelation` over bounded
   windows (the *oracle* run) — the paper's own "materialize up to a
   horizon" strawman, reused as an executable specification and
   compared against the naive leg.

Window commutation
------------------

Every operation of the algebra commutes with restriction to a window
``[low, high]^k`` — evaluate the children on the window, apply the
finite op, and you get exactly the true result restricted to the window
— with one exception: **projection**.  A point surviving projection may
only have witnesses (values of the dropped attributes) far outside the
window.  The oracle therefore evaluates each node over its own window,
computed top-down: a projection's child window is the parent window
widened by a *margin* derived from the case's constants (DBM bounds,
lrp offsets, the lcm of lrp periods, selection constants).  If the root
comparison diverges for an expression containing projection, the oracle
re-runs with the margin doubled; a divergence that vanishes is reported
as status ``"unstable"`` (a margin artifact, not a bug).  Expressions
without projection are exact — no margin, no retry, any divergence is
real.

Cost guards are deterministic, not wall-clock: the oracle estimates
materialization sizes before enumerating and raises
:class:`OversizeError` (status ``"oversize"``) past a row cap, and the
generalized runs cap intermediate tuple counts the same way — a case is
either fully checked or deterministically skipped, identically on every
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from repro import obs
from repro.obs.metrics import COUNTERS
from repro.baseline.finite import FiniteRelation
from repro.core.constraints import Op, VarVarAtom, parse_atoms
from repro.core.errors import NormalizationLimitError, ReproError
from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case, expr_text, scan_names
from repro.plan import nodes as ir
from repro.plan.engine import ExecutionContext, NativeEngine
from repro.plan.rewrite import optimize_plan


class OversizeError(ReproError):
    """A deterministic cost guard tripped; the case is skipped, not failed."""


@dataclass(frozen=True)
class DiffConfig:
    """Knobs for the differential run.

    All caps are deterministic (counts, not wall-clock), so a skipped
    case is skipped identically on every machine and every rerun.
    """

    #: Estimated-row cap for any finite materialization or finite
    #: intermediate result.
    row_cap: int = 200_000
    #: Cap on ``|A| * |B|`` before a finite join is attempted.
    pair_cap: int = 2_000_000
    #: Cap on generalized intermediate tuple counts.
    tuple_cap: int = 4_000
    #: Cap on ``|A| * |B|`` for pairwise generalized ops (subtract and
    #: join examine every tuple pair).
    tuple_pair_cap: int = 100_000
    #: How many missing/extra rows a divergence records verbatim.
    sample: int = 10


DEFAULT_CONFIG = DiffConfig()

#: Result statuses, in severity order.
STATUSES = ("ok", "unstable", "oversize", "limit", "error", "divergent")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two evaluations of a case.

    Kinds:
        ``"oracle"``: the naive leg and the finite oracle denote
            different point sets on the core window.
        ``"plan"``: the rewritten plan and the naive leg denote
            different point sets — a planner rewrite changed semantics.
        ``"ivm"`` and ``"durable"``: the IVM leg's kinds
            (:mod:`repro.fuzz.ivm`).
    """

    kind: str
    detail: str
    #: Sample rows the reference has and the checked run lacks.
    missing: tuple = ()
    #: Sample rows the checked run has and the reference lacks.
    extra: tuple = ()

    def __str__(self) -> str:
        parts = [f"[{self.kind}] {self.detail}"]
        if self.missing:
            parts.append(f"  missing: {list(self.missing)}")
        if self.extra:
            parts.append(f"  extra:   {list(self.extra)}")
        return "\n".join(parts)


@dataclass
class CaseResult:
    """The outcome of one differential run."""

    case: Case
    status: str
    divergences: list[Divergence] = field(default_factory=list)
    margin: int = 0
    retried: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether every engine agreed (status ``"ok"``)."""
        return self.status == "ok"

    @property
    def failing(self) -> bool:
        """Whether the case demands attention (a bug or a crash)."""
        return self.status in ("divergent", "error")

    def summary(self) -> str:
        """One human-readable line per outcome, plus any divergences."""
        text = f"{self.status}: {self.case.describe()}"
        if self.error:
            text += f" ({self.error})"
        for div in self.divergences:
            text += "\n" + str(div)
        return text


# ----------------------------------------------------------------------
# the generalized legs
# ----------------------------------------------------------------------


def _execute(
    case: Case,
    plan: ir.PlanNode,
    config: DiffConfig,
    memo: dict | None = None,
) -> GeneralizedRelation:
    """Run ``plan`` over the case's relations on the native engine.

    Raises :class:`OversizeError` when an intermediate exceeds
    ``config.tuple_cap`` tuples or a pairwise op (subtract, join) would
    examine more than ``config.tuple_pair_cap`` tuple pairs.
    """

    def on_result(node, result) -> None:
        if isinstance(node, ir.Scan):
            return  # leaves are inputs, not intermediates
        if len(result) > config.tuple_cap:
            raise OversizeError(
                f"generalized intermediate has {len(result)} tuples "
                f"(cap {config.tuple_cap})"
            )

    def on_pair(node, left: int, right: int) -> None:
        if isinstance(node, ir.Union):
            return  # union concatenates; only true pairwise ops are capped
        pairs = left * right
        if pairs > config.tuple_pair_cap:
            raise OversizeError(
                f"pairwise generalized op over {pairs} tuple pairs "
                f"(cap {config.tuple_pair_cap})"
            )

    ctx = ExecutionContext(
        relations=case.relations,
        data_domains=case.data_domains,
        memo=memo,
        on_result=on_result,
        on_pair=on_pair,
    )
    return NativeEngine().run(plan, ctx)


def eval_naive(
    case: Case, config: DiffConfig = DEFAULT_CONFIG
) -> GeneralizedRelation:
    """Evaluate the case's plan as built: one algebra call per node."""
    return _execute(case, case.expr, config)


def eval_planned(
    case: Case, config: DiffConfig = DEFAULT_CONFIG
) -> GeneralizedRelation:
    """Evaluate the case through its rewritten plan.

    Applies the rewrite passes (:func:`repro.plan.rewrite.optimize_plan`)
    and runs the result with the caps :func:`eval_naive` enforces,
    reusing results of subtrees the rewrite shares.
    """
    domain_size = max(
        (len(values) for values in case.data_domains.values()), default=0
    )
    plan, _ = optimize_plan(
        case.expr, relations=case.relations, domain_size=domain_size
    )
    return _execute(case, plan, config, memo={})


# ----------------------------------------------------------------------
# the finite-window oracle
# ----------------------------------------------------------------------


def compute_margin(case: Case) -> int:
    """The window widening applied below each projection node.

    Zero when the expression contains no projection (evaluation is then
    exact).  Otherwise a bound, derived from the case's constants, on
    how far a projection witness can sit from the window: difference
    chains within one tuple's constraint system, lrp offsets, one full
    lcm of the lrp periods (an intersection of periodic lrps only
    repeats every lcm), selection constants, and the window span itself.
    The retry-with-doubled-margin backstop in :func:`run_case` covers
    the cases this underestimates.
    """
    expr = case.expr
    if not any(isinstance(n, ir.Project) for n in expr.walk()):
        return 0
    tuple_bound_sums = [0]
    offsets = [0]
    periods: set[int] = {1}
    for name in sorted(scan_names(expr)):
        for gtuple in case.relations.get(name, ()):
            tuple_bound_sums.append(
                sum(abs(b) + 1 for _, _, b in gtuple.dbm.iter_bounds())
            )
            for lrp in gtuple.lrps:
                offsets.append(abs(lrp.offset))
                if lrp.period > 0:
                    periods.add(lrp.period)
    select_consts = [0]
    for node in expr.walk():
        if isinstance(node, ir.Select):
            select_consts.extend(
                abs(atom.const) for atom in parse_atoms(node.condition)
            )
    lcm = 1
    for p in periods:
        lcm = lcm * p // gcd(lcm, p)
    span = case.high - case.low
    return (
        span
        + 3 * max(tuple_bound_sums)
        + max(offsets)
        + max(select_consts)
        + 2 * lcm
        + 2
    )


def _lrp_count(lrp, low: int, high: int) -> int:
    """How many points of ``lrp`` lie in ``[low, high]``."""
    if low > high:
        return 0
    if lrp.period == 0:
        return 1 if low <= lrp.offset <= high else 0
    return max(
        0,
        (high - lrp.offset) // lrp.period
        - (low - 1 - lrp.offset) // lrp.period,
    )


def _estimate_rows(relation: GeneralizedRelation, low: int, high: int) -> int:
    """Upper estimate of ``materialize(relation, low, high)`` row count."""
    total = 0
    for gtuple in relation:
        probe = gtuple.dbm.copy()
        if not probe.close():
            continue
        count = 1
        for i, lrp in enumerate(gtuple.lrps):
            lo, hi = low, high
            dbm_lo = probe.lower(i)
            dbm_hi = probe.upper(i)
            if dbm_lo is not None:
                lo = max(lo, dbm_lo)
            if dbm_hi is not None:
                hi = min(hi, dbm_hi)
            count *= _lrp_count(lrp, lo, hi)
            if count == 0:
                break
        total += count
    return total


_CMP = {
    Op.LE: lambda a, b: a <= b,
    Op.GE: lambda a, b: a >= b,
    Op.EQ: lambda a, b: a == b,
    Op.LT: lambda a, b: a < b,
    Op.GT: lambda a, b: a > b,
}


def _finite_predicate(schema: Schema, condition: str):
    """Compile a restricted-constraint condition to a finite row test."""
    index = {name: schema.names.index(name) for name in schema.temporal_names}
    checks = []
    for atom in parse_atoms(condition):
        left = index[atom.left]
        if isinstance(atom, VarVarAtom):
            right = index[atom.right]
            checks.append(
                (left, _CMP[atom.op], right, atom.const)
            )
        else:
            checks.append((left, _CMP[atom.op], None, atom.const))

    def predicate(row: tuple) -> bool:
        for left, cmp, right, const in checks:
            target = const if right is None else row[right] + const
            if not cmp(row[left], target):
                return False
        return True

    return predicate


def _trim(relation: FiniteRelation, low: int, high: int) -> FiniteRelation:
    """Restrict a finite relation to rows with temporal values in window."""
    temporal_idx = [
        i for i, a in enumerate(relation.schema.attributes) if a.temporal
    ]
    return relation.select(
        lambda row: all(low <= row[i] <= high for i in temporal_idx)
    )


def eval_finite(
    case: Case, margin: int, config: DiffConfig = DEFAULT_CONFIG
) -> FiniteRelation:
    """Evaluate the case through the finite oracle over windows.

    Every node is evaluated over its own window — the core window
    widened by ``margin`` for each projection node above it — and the
    result holds exactly the true result's rows with all temporal
    values in the core window (up to margin adequacy; see the module
    docstring).
    """

    def guard(rows: int, what: str) -> None:
        if rows > config.row_cap:
            raise OversizeError(
                f"finite {what} would hold ~{rows} rows (cap {config.row_cap})"
            )

    def ev(node: ir.PlanNode, low: int, high: int) -> FiniteRelation:
        if isinstance(node, ir.Scan):
            relation = case.relations[node.name]
            guard(_estimate_rows(relation, low, high), f"leaf {node.name}")
            return FiniteRelation.materialize(relation, low, high)
        if isinstance(node, ir.Select):
            child = ev(node.child, low, high)
            return child.select(_finite_predicate(child.schema, node.condition))
        if isinstance(node, ir.Project):
            child = ev(node.child, low - margin, high + margin)
            return _trim(child.project(node.names), low, high)
        if isinstance(node, ir.Complement):
            child = ev(node.child, low, high)
            schema = child.schema
            universe = (high - low + 1) ** schema.temporal_arity
            domains: dict[str, list] = {
                name: list(range(low, high + 1))
                for name in schema.temporal_names
            }
            for name in schema.data_names:
                domains[name] = list(case.data_domains[name])
                universe *= len(domains[name])
            guard(universe, "complement universe")
            return child.complement(domains)
        if isinstance(node, ir.Union):
            return ev(node.left, low, high).union(ev(node.right, low, high))
        if isinstance(node, ir.Subtract):
            return ev(node.left, low, high).subtract(ev(node.right, low, high))
        if isinstance(node, ir.Join):
            left = ev(node.left, low, high)
            right = ev(node.right, low, high)
            pairs = len(left) * len(right)
            if pairs > config.pair_cap:
                raise OversizeError(
                    f"finite join over {pairs} row pairs "
                    f"(cap {config.pair_cap})"
                )
            out = left.join(right)
            guard(len(out), "join result")
            return out
        raise ReproError(  # pragma: no cover - Case.validate rejects it
            f"unknown expression node {type(node).__name__}"
        )

    return ev(case.expr, case.low, case.high)


# ----------------------------------------------------------------------
# the differential run
# ----------------------------------------------------------------------


def _sample(rows: set, limit: int) -> tuple:
    return tuple(sorted(rows, key=repr)[:limit])


def _snapshot_divergence(
    kind: str,
    reference: set,
    checked: set,
    config: DiffConfig,
    label: str,
) -> Divergence:
    missing = reference - checked
    extra = checked - reference
    return Divergence(
        kind=kind,
        detail=(
            f"{label}: {len(missing)} row(s) missing from and "
            f"{len(extra)} extra in the checked result"
        ),
        missing=_sample(missing, config.sample),
        extra=_sample(extra, config.sample),
    )


def _describe_error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_case(case: Case, config: DiffConfig = DEFAULT_CONFIG) -> CaseResult:
    """Run the differential check on one case."""
    COUNTERS["fuzz.cases"] += 1

    def done(result: CaseResult) -> CaseResult:
        COUNTERS[f"fuzz.{result.status}"] += 1
        return result

    with obs.span("fuzz.case", seed=case.seed, expr=expr_text(case.expr)):
        try:
            case.validate()
        except ReproError as exc:
            return done(
                CaseResult(case, "error", error=f"invalid case: {exc}")
            )

        legs = (("naive", eval_naive), ("rewritten", eval_planned))
        snaps = []
        for leg, evaluate in legs:
            try:
                with obs.span(f"fuzz.eval.{leg}"):
                    run = evaluate(case, config)
            except OversizeError as exc:
                return done(CaseResult(case, "oversize", error=str(exc)))
            except NormalizationLimitError as exc:
                return done(CaseResult(case, "limit", error=str(exc)))
            except Exception as exc:  # noqa: BLE001 - fuzzing catches all
                return done(
                    CaseResult(
                        case, "error", error=f"{leg}: {_describe_error(exc)}"
                    )
                )
            snaps.append(run.snapshot(case.low, case.high))
        naive_snap, rewritten_snap = snaps

        divergences: list[Divergence] = []
        if rewritten_snap != naive_snap:
            divergences.append(
                _snapshot_divergence(
                    "plan",
                    naive_snap,
                    rewritten_snap,
                    config,
                    "rewritten plan vs naive plan",
                )
            )

        margin = compute_margin(case)
        retried = False
        unstable = False
        try:
            with obs.span("fuzz.eval.oracle", margin=margin):
                oracle_rows = set(eval_finite(case, margin, config).rows)
        except OversizeError as exc:
            return done(CaseResult(case, "oversize", error=str(exc)))
        except Exception as exc:  # noqa: BLE001 - fuzzing catches all
            return done(
                CaseResult(case, "error", error=f"oracle: {_describe_error(exc)}")
            )
        if oracle_rows != naive_snap and margin > 0:
            # The mismatch may be a projection-margin artifact; double
            # the margin and see whether it survives.
            retried = True
            try:
                with obs.span("fuzz.eval.oracle", margin=margin * 2):
                    wider = set(eval_finite(case, margin * 2, config).rows)
            except OversizeError:
                wider = None
            except Exception as exc:  # noqa: BLE001 - fuzzing catches all
                return done(
                    CaseResult(
                        case,
                        "error",
                        error=f"oracle retry: {_describe_error(exc)}",
                        margin=margin,
                        retried=True,
                    )
                )
            if wider is None or wider == naive_snap:
                # Vanished (margin artifact) or unconfirmable (the wider
                # window tripped the cost guard): not evidence of a bug.
                unstable = True
            else:
                oracle_rows = wider
        if not unstable and oracle_rows != naive_snap:
            divergences.append(
                _snapshot_divergence(
                    "oracle",
                    oracle_rows,
                    naive_snap,
                    config,
                    "finite oracle vs naive plan",
                )
            )

        if divergences:
            status = "divergent"
        elif unstable:
            status = "unstable"
        else:
            status = "ok"
        return done(
            CaseResult(
                case,
                status,
                divergences=divergences,
                margin=margin,
                retried=retried,
            )
        )
