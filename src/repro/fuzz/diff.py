"""The differential executor: three evaluations of one case, compared.

Each :class:`~repro.fuzz.case.Case` is evaluated

1. through the generalized algebra with the performance layer as
   configured (the *optimized* run),
2. through the same algebra with every optimization disabled via
   :func:`repro.perf.config.overrides` (the *naive* run), and
3. through :class:`~repro.baseline.finite.FiniteRelation` over bounded
   windows (the *oracle* run) — the paper's own "materialize up to a
   horizon" strawman, reused as an executable specification.

A fourth leg — lowering the expression to a relation-expression plan,
applying the :mod:`repro.plan.rewrite` passes and executing the
rewritten plan — runs when :attr:`DiffConfig.plan_check` resolves on
(by default it follows the global optimizer switch: on unless
``REPRO_OPTIMIZE=0``), gating the logical planner against the same
corpus.

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
from repro.core import algebra
from repro.core.constraints import Op, VarVarAtom, parse_atoms
from repro.core.errors import NormalizationLimitError, ReproError
from repro.core.relations import GeneralizedRelation, Schema
from repro.fuzz.case import Case
from repro.fuzz.expr import (
    Complement,
    Expr,
    Intersect,
    Join,
    Leaf,
    Product,
    Project,
    Select,
    Subtract,
    Union,
)
from repro.perf import config as perf_config


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
    #: Cap on ``|A| * |B|`` for pairwise generalized ops (intersect,
    #: subtract, join, product examine every tuple pair).
    tuple_pair_cap: int = 100_000
    #: How many missing/extra rows a divergence records verbatim.
    sample: int = 10
    #: Also compare the optimized and naive runs' canonical key sets —
    #: a stricter, *syntactic* check on top of the semantic snapshot.
    #: Off by default: the pairwise prefilter legitimately coarsens
    #: ``subtract``'s staircase decomposition (skipping subtrahend
    #: tuples that cannot overlap yields fewer, larger pieces denoting
    #: the same point set), so key sets differing is expected, not a
    #: bug.  Semantics — the snapshot comparison — is the contract.
    syntactic_check: bool = False
    #: Also run the expression through the logical planner: lower it to
    #: a relation-expression plan, apply the rewrite passes
    #: (:func:`repro.plan.rewrite.optimize_plan`) and execute the
    #: rewritten plan, comparing its snapshot against the naive run.
    #: ``None`` (the default) follows the global optimizer switch
    #: (:attr:`repro.perf.config.PerfConfig.optimize`, on unless the
    #: environment sets ``REPRO_OPTIMIZE=0``), so a default run
    #: exercises the plan path over the whole corpus automatically.
    plan_check: bool | None = None


DEFAULT_CONFIG = DiffConfig()

#: Result statuses, in severity order.
STATUSES = ("ok", "unstable", "oversize", "limit", "error", "divergent")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two evaluations of a case.

    Kinds:
        ``"oracle"``: the optimized generalized result and the finite
            oracle denote different point sets on the core window.
        ``"perf"``: the optimized and naive generalized runs denote
            different point sets — an optimization changed semantics.
        ``"perf-syntactic"``: optimized and naive agree semantically but
            produce different canonical tuple sets — an optimization
            changed the representation.
        ``"plan"``: the rewritten logical plan and the naive run denote
            different point sets — a planner rewrite changed semantics.
    """

    kind: str
    detail: str
    #: Sample rows the reference has and the optimized run lacks.
    missing: tuple = ()
    #: Sample rows the optimized run has and the reference lacks.
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
        """Whether all three engines agreed (status ``"ok"``)."""
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
# generalized evaluation
# ----------------------------------------------------------------------


def eval_generalized(
    case: Case, config: DiffConfig = DEFAULT_CONFIG
) -> GeneralizedRelation:
    """Evaluate the case's expression through the generalized algebra.

    Runs under whatever :mod:`repro.perf` configuration is active —
    callers choose optimized versus naive with
    :func:`repro.perf.config.overrides`.  Raises :class:`OversizeError`
    when an intermediate exceeds ``config.tuple_cap`` tuples.
    """

    def ev(node: Expr) -> GeneralizedRelation:
        def pair(left: Expr, right: Expr):
            r1, r2 = ev(left), ev(right)
            pairs = len(r1) * len(r2)
            if pairs > config.tuple_pair_cap:
                raise OversizeError(
                    f"pairwise generalized op over {pairs} tuple pairs "
                    f"(cap {config.tuple_pair_cap})"
                )
            return r1, r2

        if isinstance(node, Leaf):
            return case.relations[node.name]
        if isinstance(node, Select):
            out = algebra.select(ev(node.child), node.condition)
        elif isinstance(node, Project):
            out = algebra.project(ev(node.child), node.names)
        elif isinstance(node, Complement):
            child = ev(node.child)
            domains = (
                {n: case.data_domains[n] for n in child.schema.data_names}
                if child.schema.data_arity
                else None
            )
            out = algebra.complement(child, data_domains=domains)
        elif isinstance(node, Union):
            out = algebra.union(ev(node.left), ev(node.right))
        elif isinstance(node, Intersect):
            out = algebra.intersect(*pair(node.left, node.right))
        elif isinstance(node, Subtract):
            out = algebra.subtract(*pair(node.left, node.right))
        elif isinstance(node, Join):
            out = algebra.join(*pair(node.left, node.right))
        elif isinstance(node, Product):
            out = algebra.product(*pair(node.left, node.right))
        else:  # pragma: no cover - exhaustive over expr.py
            raise ReproError(f"unknown expression node {type(node).__name__}")
        if len(out) > config.tuple_cap:
            raise OversizeError(
                f"generalized intermediate has {len(out)} tuples "
                f"(cap {config.tuple_cap})"
            )
        return out

    return ev(case.expr)


# ----------------------------------------------------------------------
# the logical-plan leg
# ----------------------------------------------------------------------


def plan_from_expr(case: Case):
    """Lower a fuzz expression to a relation-expression plan.

    The fuzz AST (:mod:`repro.fuzz.expr`) maps 1:1 onto the plan IR
    (:mod:`repro.plan.nodes`), so the bridge is a direct structural
    translation; running the un-rewritten plan through the native
    engine performs exactly the algebra calls
    :func:`eval_generalized` performs.
    """
    from repro.plan import nodes as ir

    def lower(node: Expr):
        if isinstance(node, Leaf):
            return ir.Scan(node.name, case.relations[node.name].schema)
        if isinstance(node, Select):
            return ir.Select(lower(node.child), node.condition)
        if isinstance(node, Project):
            return ir.Project(lower(node.child), tuple(node.names))
        if isinstance(node, Complement):
            return ir.Complement(lower(node.child))
        if isinstance(node, Union):
            return ir.Union(lower(node.left), lower(node.right))
        if isinstance(node, Intersect):
            return ir.Intersect(lower(node.left), lower(node.right))
        if isinstance(node, Subtract):
            return ir.Subtract(lower(node.left), lower(node.right))
        if isinstance(node, Join):
            return ir.Join(lower(node.left), lower(node.right))
        if isinstance(node, Product):
            return ir.Product(lower(node.left), lower(node.right))
        raise ReproError(  # pragma: no cover - exhaustive over expr.py
            f"unknown expression node {type(node).__name__}"
        )

    return lower(case.expr)


def eval_planned(
    case: Case, config: DiffConfig = DEFAULT_CONFIG
) -> GeneralizedRelation:
    """Evaluate the case through the optimized logical plan.

    Lowers the expression with :func:`plan_from_expr`, applies the
    rewrite passes, and executes the rewritten plan on the native
    engine with the same deterministic caps :func:`eval_generalized`
    enforces (via the execution context's observation hooks).
    """
    from repro.plan import nodes as ir
    from repro.plan.engine import ExecutionContext, NativeEngine
    from repro.plan.rewrite import optimize_plan

    plan = plan_from_expr(case)
    domain_size = max(
        (len(values) for values in case.data_domains.values()), default=0
    )
    plan, _ = optimize_plan(
        plan, relations=case.relations, domain_size=domain_size
    )

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
        memo={},
        on_result=on_result,
        on_pair=on_pair,
    )
    return NativeEngine().run(plan, ctx)


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
    if not any(isinstance(n, Project) for n in expr.walk()):
        return 0
    tuple_bound_sums = [0]
    offsets = [0]
    periods: set[int] = {1}
    for name in sorted(expr.leaf_names()):
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
        if isinstance(node, Select):
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

    def ev(node: Expr, low: int, high: int) -> FiniteRelation:
        if isinstance(node, Leaf):
            relation = case.relations[node.name]
            guard(_estimate_rows(relation, low, high), f"leaf {node.name}")
            return FiniteRelation.materialize(relation, low, high)
        if isinstance(node, Select):
            child = ev(node.child, low, high)
            return child.select(_finite_predicate(child.schema, node.condition))
        if isinstance(node, Project):
            child = ev(node.child, low - margin, high + margin)
            return _trim(child.project(node.names), low, high)
        if isinstance(node, Complement):
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
        if isinstance(node, Union):
            return ev(node.left, low, high).union(ev(node.right, low, high))
        if isinstance(node, Intersect):
            return ev(node.left, low, high).intersect(
                ev(node.right, low, high)
            )
        if isinstance(node, Subtract):
            return ev(node.left, low, high).subtract(ev(node.right, low, high))
        if isinstance(node, (Join, Product)):
            left = ev(node.left, low, high)
            right = ev(node.right, low, high)
            guard_rows = len(left) * len(right)
            if isinstance(node, Product):
                guard(guard_rows, "product")
                out = left.product(right)
            else:
                if guard_rows > config.pair_cap:
                    raise OversizeError(
                        f"finite join over {guard_rows} row pairs "
                        f"(cap {config.pair_cap})"
                    )
                out = left.join(right)
            guard(len(out), "join/product result")
            return out
        raise ReproError(  # pragma: no cover - exhaustive over expr.py
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
    optimized: set,
    config: DiffConfig,
    label: str,
) -> Divergence:
    missing = reference - optimized
    extra = optimized - reference
    return Divergence(
        kind=kind,
        detail=(
            f"{label}: {len(missing)} row(s) missing from and "
            f"{len(extra)} extra in the optimized result"
        ),
        missing=_sample(missing, config.sample),
        extra=_sample(extra, config.sample),
    )


def _describe_error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_case(case: Case, config: DiffConfig = DEFAULT_CONFIG) -> CaseResult:
    """Run the three-way differential check on one case."""
    COUNTERS["fuzz.cases"] += 1

    def done(result: CaseResult) -> CaseResult:
        COUNTERS[f"fuzz.{result.status}"] += 1
        return result

    with obs.span("fuzz.case", seed=case.seed, expr=str(case.expr)):
        try:
            case.validate()
        except ReproError as exc:
            return done(
                CaseResult(case, "error", error=f"invalid case: {exc}")
            )

        def evaluate(label: str):
            try:
                with obs.span(f"fuzz.eval.{label}"):
                    return eval_generalized(case, config), None
            except OversizeError as exc:
                return None, CaseResult(case, "oversize", error=str(exc))
            except NormalizationLimitError as exc:
                return None, CaseResult(case, "limit", error=str(exc))
            except Exception as exc:  # noqa: BLE001 - fuzzing catches all
                return None, CaseResult(
                    case, "error", error=f"{label}: {_describe_error(exc)}"
                )

        optimized, failure = evaluate("optimized")
        if failure is not None:
            return done(failure)
        with perf_config.overrides(
            prefilter_enabled=False,
            incremental_enabled=False,
        ):
            naive, failure = evaluate("naive")
        if failure is not None:
            return done(failure)

        divergences: list[Divergence] = []
        opt_snap = optimized.snapshot(case.low, case.high)
        naive_snap = naive.snapshot(case.low, case.high)
        if opt_snap != naive_snap:
            divergences.append(
                _snapshot_divergence(
                    "perf", naive_snap, opt_snap, config, "optimized vs naive"
                )
            )
        elif config.syntactic_check:
            opt_keys = {t.canonical_key() for t in optimized}
            naive_keys = {t.canonical_key() for t in naive}
            if opt_keys != naive_keys:
                divergences.append(
                    Divergence(
                        kind="perf-syntactic",
                        detail=(
                            "optimized and naive runs denote the same points "
                            f"but differ syntactically ({len(opt_keys)} vs "
                            f"{len(naive_keys)} canonical tuples)"
                        ),
                    )
                )

        plan_check = config.plan_check
        if plan_check is None:
            plan_check = perf_config.get_config().optimize
        if plan_check:
            try:
                with obs.span("fuzz.eval.plan"):
                    planned = eval_planned(case, config)
            except OversizeError as exc:
                return done(CaseResult(case, "oversize", error=str(exc)))
            except NormalizationLimitError as exc:
                return done(CaseResult(case, "limit", error=str(exc)))
            except Exception as exc:  # noqa: BLE001 - fuzzing catches all
                return done(
                    CaseResult(
                        case, "error", error=f"plan: {_describe_error(exc)}"
                    )
                )
            plan_snap = planned.snapshot(case.low, case.high)
            if plan_snap != naive_snap:
                divergences.append(
                    _snapshot_divergence(
                        "plan",
                        naive_snap,
                        plan_snap,
                        config,
                        "optimized plan vs naive",
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
        if oracle_rows != opt_snap and margin > 0:
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
            if wider is None or wider == opt_snap:
                # Vanished (margin artifact) or unconfirmable (the wider
                # window tripped the cost guard): not evidence of a bug.
                unstable = True
            else:
                oracle_rows = wider
        if not unstable and oracle_rows != opt_snap:
            divergences.append(
                _snapshot_divergence(
                    "oracle",
                    oracle_rows,
                    opt_snap,
                    config,
                    "finite oracle vs optimized",
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
