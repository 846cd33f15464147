"""Tests for the command-line shell."""

import io

import pytest

from repro.cli import Session, main, repl


@pytest.fixture
def session():
    return Session()


def run(session: Session, *commands: str) -> list[str]:
    return [session.execute(cmd) for cmd in commands]


class TestBasics:
    def test_empty_and_comment_lines(self, session):
        assert session.execute("") == ""
        assert session.execute("   ") == ""
        assert session.execute("# comment") == ""

    def test_unknown_command(self, session):
        assert "unknown command" in session.execute("frobnicate x")

    def test_help(self, session):
        text = session.execute("help")
        assert "create" in text and "ask" in text

    def test_quit(self, session):
        assert session.execute("quit") == "bye"
        assert session.done


class TestCatalog:
    def test_create_and_list(self, session):
        out = session.execute("create Train(dep:T, arr:T, svc:D)")
        assert "created Train" in out
        assert "Train" in session.execute("list")

    def test_list_empty(self, session):
        assert session.execute("list") == "(no relations)"

    def test_create_malformed(self, session):
        assert session.execute("create Train[dep]").startswith("error")

    def test_insert_and_show(self, session):
        run(
            session,
            "create Train(dep:T, arr:T, svc:D)",
            "insert Train [2 + 60n, 20 + 60n] : dep = arr - 78 | slow",
        )
        shown = session.execute("show Train")
        assert "2 + 60n" in shown and "slow" in shown

    def test_insert_duplicate(self, session):
        run(session, "create P(t:T)", "insert P [2n]")
        assert "already present" in session.execute("insert P [2n]")

    def test_insert_unknown_relation(self, session):
        assert session.execute("insert Nope [2n]").startswith("error")


class TestQueries:
    def setup_db(self, session):
        run(
            session,
            "create Train(dep:T, arr:T, svc:D)",
            "insert Train [2 + 60n, 20 + 60n] : dep = arr - 78 | slow",
            "insert Train [46 + 60n, 50 + 60n] : dep = arr - 64 | express",
        )

    def test_ask(self, session):
        self.setup_db(session)
        assert session.execute(
            'ask EXISTS d. EXISTS a. Train(d, a, "slow") & d >= 60'
        ) == "true"
        assert session.execute(
            'ask EXISTS d. EXISTS a. Train(d, a, "slow") & d = 3'
        ) == "false"

    def test_query_open(self, session):
        self.setup_db(session)
        out = session.execute(
            'query EXISTS a. Train(d, a, "express") & d >= 0 & d <= 60'
        )
        assert "result" in out and "46" in out

    def test_query_error(self, session):
        assert session.execute("ask Nope(t)").startswith("error")

    def test_window(self, session):
        self.setup_db(session)
        out = session.execute("window Train 0 130")
        assert "2, 80, slow" in out

    def test_window_usage(self, session):
        assert session.execute("window Train").startswith("error")

    def test_next_prev(self, session):
        self.setup_db(session)
        assert session.execute("next Train.dep 3") == "46"
        assert session.execute("prev Train.dep 45") == "2"
        assert session.execute("next Train.dep").startswith("error")

    def test_next_none(self, session):
        run(session, "create P(t:T)", "insert P [5] : t <= 5")
        assert session.execute("next P.t 6") == "(none)"


class TestFiles:
    def test_save_and_load(self, session, tmp_path):
        run(
            session,
            "create P(t:T)",
            "insert P [2n] : t >= 0",
            "create Q(u:T)",
            "insert Q [7]",
        )
        path = tmp_path / "db.itql"
        out = session.execute(f"save {path}")
        assert "saved" in out
        fresh = Session()
        out = fresh.execute(f"load {path}")
        assert "P" in out and "Q" in out
        assert fresh.execute("ask EXISTS t. P(t) & t = 4") == "true"
        assert fresh.execute("ask EXISTS u. Q(u + 0) & u = 7") == "true"

    def test_save_selected(self, session, tmp_path):
        run(session, "create P(t:T)", "create Q(t:T)")
        path = tmp_path / "only_p.itql"
        session.execute(f"save {path} P")
        text = path.read_text()
        assert "relation P" in text and "relation Q" not in text

    def test_save_usage(self, session):
        assert session.execute("save").startswith("error")

    def test_load_missing_file(self, session):
        out = session.execute("load /nonexistent/nope.itql")
        assert out.startswith("error") or "No such file" in out


class TestEntryPoints:
    def test_main_with_commands(self, capsys):
        code = main(["-c", "create P(t:T)", "-c", "insert P [3n]",
                     "-c", "ask EXISTS t. P(t) & t = 6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true" in out

    def test_main_with_script(self, tmp_path, capsys):
        script = tmp_path / "script.itql"
        script.write_text(
            "create P(t:T)\ninsert P [3n]\nask EXISTS t. P(t) & t = 6\nquit\n"
        )
        assert main([str(script)]) == 0
        assert "true" in capsys.readouterr().out

    def test_repl_stream(self):
        session = Session()
        stream = io.StringIO("create P(t:T)\nlist\nquit\n")
        out = io.StringIO()
        repl(session, stream=stream, out=out)
        text = out.getvalue()
        assert "created P" in text and "bye" in text


class TestExplainCommand:
    def test_explain_renders_plan(self):
        session = Session()
        run(session, "create P(t:T)", "insert P [2n]")
        out = session.execute("explain EXISTS t. P(t) & t >= 0")
        assert "project" in out and "scan" in out

    def test_explain_error(self):
        session = Session()
        assert session.execute("explain Nope(t)").startswith("error")


class TestRulesCommand:
    def test_rules_file(self, tmp_path):
        session = Session()
        run(
            session,
            "create Edge(a:T, b:T)",
            "insert Edge [3n, 3n] : a = b - 3 & a >= 0 & a <= 6",
        )
        program = tmp_path / "reach.dl"
        program.write_text(
            "declare Reach(a:T, b:T)\n"
            "Reach(a, b) <- Edge(a, b)\n"
            "Reach(a, c) <- Reach(a, b) & Edge(b, c)\n"
        )
        out = session.execute(f"rules {program}")
        assert "Reach" in out
        assert session.execute(
            "ask EXISTS a. EXISTS b. Reach(a, b) & a = 0 & b = 9"
        ) == "true"

    def test_rules_missing_file(self):
        session = Session()
        assert session.execute("rules /no/such/file.dl").startswith("error")


class TestTraceCommands:
    SETUP = (
        "create Train(dep:T, arr:T, svc:D)",
        "insert Train [2 + 60n, 80 + 60n] : dep = arr - 78 | slow",
    )
    ASK = 'ask EXISTS d. EXISTS a. Train(d, a, "slow") & d >= 60'

    def test_trace_command(self):
        session = Session()
        run(session, *self.SETUP)
        out = session.execute(
            'trace EXISTS d. EXISTS a. Train(d, a, "slow")'
        )
        assert "generalized tuple(s)" in out
        assert "query.evaluate" in out
        assert len(session.traces) == 1

    def test_explain_analyze_query(self):
        session = Session()
        run(session, *self.SETUP)
        out = session.execute(
            'query EXPLAIN ANALYZE EXISTS d. EXISTS a. Train(d, a, "slow")'
        )
        assert "query.evaluate" in out
        assert len(session.traces) == 1

    def test_trace_all_mode(self):
        session = Session(trace_all=True)
        run(session, *self.SETUP)
        out = session.execute(self.ASK)
        assert out.startswith("true")
        assert "query.evaluate" in out
        assert len(session.traces) == 1

    def test_trace_subcommand_writes_json(self, tmp_path):
        import json

        script = tmp_path / "script.itql"
        script.write_text("\n".join(self.SETUP + (self.ASK, "quit")) + "\n")
        out_path = tmp_path / "traces.json"
        code = main(["trace", str(script), "--trace-json", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["traces"]) == 1
        assert doc["traces"][0]["trace"]["name"] == "query.evaluate"

    def test_trace_json_flag_implies_trace_mode(self, tmp_path):
        import json

        out_path = tmp_path / "traces.json"
        code = main(
            [
                "-c", self.SETUP[0],
                "-c", self.SETUP[1],
                "-c", self.ASK,
                "--trace-json", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["traces"]) == 1
