"""The redesigned plan API: Evaluator/Database/api kwargs, env vars, CLI."""

import warnings

import pytest

import repro.api as api
from repro.perf import config as perf_config
from repro.plan.report import PlanReport
from repro.query import Database
from repro.query.explain import PlanNode as LegacyPlanNode


@pytest.fixture(autouse=True)
def restore_perf_config():
    yield
    perf_config.reset_config()


def ticks_db() -> Database:
    db = Database()
    db.create("Even", temporal=["t"])
    db.relation("Even").add_tuple(["2n"])
    return db


FIXTURE_QUERY = "Even(t) & t >= 0"


class TestKeywordSurface:
    def test_engine_and_optimize_are_keyword_only(self):
        from repro.query.evaluator import Evaluator

        with pytest.raises(TypeError):
            Evaluator({}, None, 4000, 4096, "native")

    def test_database_query_kwargs(self):
        db = ticks_db()
        res_naive = db.query(FIXTURE_QUERY, optimize=False)
        res_opt = db.query(FIXTURE_QUERY, engine="native", optimize=True)
        assert res_naive.snapshot(-10, 10) == res_opt.snapshot(-10, 10)

    def test_database_ask_kwargs(self):
        db = ticks_db()
        assert db.ask("EXISTS t. Even(t) & t >= 0", optimize=True)

    def test_unknown_engine_rejected(self):
        from repro.core.errors import ReproValueError

        db = ticks_db()
        with pytest.raises(ReproValueError, match="unknown engine"):
            db.query(FIXTURE_QUERY, engine="warp-drive")


class TestEnvAndConfig:
    def test_optimize_env_parsing(self, monkeypatch):
        for raw, expected in (
            ("1", True),
            ("true", True),
            ("on", True),
            ("", False),
            ("0", False),
            ("false", False),
            ("no", False),
            ("off", False),
        ):
            monkeypatch.setenv("REPRO_OPTIMIZE", raw)
            assert perf_config._from_env().optimize is expected

    def test_engine_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "Native")
        assert perf_config._from_env().engine == "native"
        monkeypatch.delenv("REPRO_ENGINE")
        assert perf_config._from_env().engine == "native"

    def test_configure_optimize_drives_evaluation(self):
        db = ticks_db()
        perf_config.configure(optimize=True)
        report = db.explain(FIXTURE_QUERY)
        assert isinstance(report, PlanReport)
        assert report.optimized

    def test_explicit_kwarg_overrides_config(self):
        db = ticks_db()
        perf_config.configure(optimize=True)
        legacy = db.explain(FIXTURE_QUERY, optimize=False)
        assert isinstance(legacy, LegacyPlanNode)


class TestExplainSurfaces:
    def test_default_explain_keeps_legacy_shape(self):
        db = ticks_db()
        # The default follows the config: optimizer off ⇒ legacy shape.
        with perf_config.overrides(optimize=False):
            plan = db.explain(FIXTURE_QUERY)
        assert isinstance(plan, LegacyPlanNode)
        assert plan.operator == "join"

    def test_optimized_explain_returns_report(self):
        db = ticks_db()
        report = db.explain(FIXTURE_QUERY, optimize=True)
        assert isinstance(report, PlanReport)
        assert report.optimized and report.engine == "native"
        # EXPLAIN ANALYZE semantics: observed sizes attached per node.
        assert report.annotations
        assert set(report.annotations.values()) == {1}
        text = str(report)
        assert "passes:" in text and "push-selects" in text

    def test_database_plan_is_static(self):
        db = ticks_db()
        report = db.plan(FIXTURE_QUERY, optimize=True)
        assert isinstance(report, PlanReport)
        assert report.annotations is None
        assert report.naive.size() > report.plan.size()

    def test_explain_directive_with_optimizer(self):
        db = ticks_db()
        result = db.query(f"EXPLAIN {FIXTURE_QUERY}", optimize=True)
        assert isinstance(result, PlanReport)

    def test_report_to_dict_roundtrips(self):
        db = ticks_db()
        payload = db.explain(FIXTURE_QUERY, optimize=True).to_dict()
        assert payload["optimized"] is True
        assert payload["plan"]["op"]
        assert payload["naive"]["op"]
        assert [p["name"] for p in payload["passes"]][0] == "fold-constants"

        def sizes(node):
            yield node.get("out_tuples")
            for child in node.get("children", ()):
                yield from sizes(child)

        assert all(s == 1 for s in sizes(payload["plan"]))

    def test_trace_still_works_optimized(self):
        db = ticks_db()
        trace = db.trace(FIXTURE_QUERY, optimize=True)
        result = db.query(FIXTURE_QUERY, optimize=False)
        assert trace.result.snapshot(-10, 10) == result.snapshot(-10, 10)
        assert "query.evaluate" in trace.flamegraph()


class TestApiFacade:
    def test_api_plan_and_explain(self):
        db = ticks_db()
        static = api.plan(db, FIXTURE_QUERY, optimize=True)
        executed = api.explain(db, FIXTURE_QUERY, optimize=True)
        assert isinstance(static, api.PlanReport)
        assert static.annotations is None
        assert executed.annotations
        assert static.plan.key() == executed.plan.key()

    def test_api_plan_node_is_ir(self):
        from repro.plan.nodes import PlanNode as IRNode

        assert api.PlanNode is IRNode

    def test_api_engine_registry_exports(self):
        assert "native" in api.engines()
        assert isinstance(api.get_engine("native"), api.NativeEngine)
        assert issubclass(api.NativeEngine, api.Engine)

    def test_deprecated_module_explain_warns_once(self):
        import importlib

        # `repro.query.explain` the attribute is the deprecated function
        # (the package re-exports it); fetch the module explicitly.
        explain_mod = importlib.import_module("repro.query.explain")

        explain_mod._EXPLAIN_WARNED = False
        db = ticks_db()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = explain_mod.explain(db, "Even(t)")
            explain_mod.explain(db, "Even(t)")
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        # The shim still produces the legacy output shape.
        assert isinstance(first, LegacyPlanNode)


class TestCli:
    def run_cli(self, *argv) -> str:
        import contextlib
        import io

        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        assert code == 0
        return out.getvalue()

    COMMANDS = (
        "-c", "create Even(t:T)",
        "-c", "insert Even [2n] :",
    )

    def test_plan_command(self):
        out = self.run_cli(
            "--no-optimize",  # pin: the env may set REPRO_OPTIMIZE=1
            *self.COMMANDS,
            "-c", f"plan {FIXTURE_QUERY}",
            "-c", "quit",
        )
        assert "plan [naive, engine=native]" in out

    def test_optimize_flag(self):
        out = self.run_cli(
            "--optimize",
            *self.COMMANDS,
            "-c", f"plan {FIXTURE_QUERY}",
            "-c", f"explain {FIXTURE_QUERY}",
            "-c", "quit",
        )
        assert "plan [optimized, engine=native]" in out
        assert "push-selects" in out
        assert "tuple(s)" in out  # explain annotates observed sizes

    def test_no_optimize_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "1")
        perf_config.reset_config()
        out = self.run_cli(
            "--no-optimize",
            *self.COMMANDS,
            "-c", f"plan {FIXTURE_QUERY}",
            "-c", "quit",
        )
        assert "plan [naive, engine=native]" in out

    def test_unknown_engine_flag_fails_fast(self):
        from repro.core.errors import ReproValueError

        with pytest.raises(ReproValueError, match="unknown engine"):
            self.run_cli("--engine", "warp-drive", "-c", "quit")

    def test_perf_shows_planner_config(self):
        out = self.run_cli("--optimize", "-c", "perf", "-c", "quit")
        assert "optimize=on" in out and "engine=native" in out
