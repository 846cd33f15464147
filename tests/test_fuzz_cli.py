"""Tests for the ``repro fuzz`` command-line entry point."""

import json

from repro.cli import main as repro_main
from repro.core.dbm import DBM
from repro.fuzz.case import load_case
from repro.fuzz.cli import fuzz_main
from repro.fuzz.gen import generate_case


class TestFuzzMain:
    def test_small_clean_run_exits_zero(self, capsys):
        assert fuzz_main(["--seed", "0", "--budget", "8"]) == 0
        out = capsys.readouterr().out
        assert "8 case(s)" in out
        assert "divergent=0" in out

    def test_dispatch_through_repro_cli(self, capsys):
        assert repro_main(["fuzz", "--seed", "1", "--budget", "3"]) == 0
        assert "3 case(s)" in capsys.readouterr().out

    def test_trace_prints_fuzz_metrics(self, capsys):
        assert fuzz_main(["--seed", "2", "--budget", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "fuzz.cases" in out

    def test_window_and_max_ops_flags(self, capsys):
        code = fuzz_main(
            ["--seed", "4", "--budget", "3", "--window", "-2", "2",
             "--max-ops", "2"]
        )
        assert code == 0

    def test_smoke_run_answers_a_complement_within_a_box(self, capsys):
        # The generator ends a share of cases in a join of a bounded
        # partner with a complement, so the CI fuzz smoke step runs the
        # engine's boxed-complement path.
        assert fuzz_main(["--seed", "0", "--budget", "50"]) == 0
        out = capsys.readouterr().out
        (line,) = [row for row in out.splitlines() if row.startswith("boxed:")]
        assert int(line.split()[1]) >= 1

    def test_ivm_leg_replays_add_records(self, capsys):
        # The durable reopens must take the WAL's tuple-level path, so
        # the CI --ivm steps cannot pass with it never exercised.
        assert fuzz_main(["--seed", "0", "--budget", "0", "--ivm", "15"]) == 0
        out = capsys.readouterr().out
        assert "15 case(s)" in out
        (line,) = [row for row in out.splitlines() if row.startswith("ivm:")]
        assert int(line.split()[1]) >= 1

    def test_replay_corpus_file(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        generate_case(17).save(path)
        assert fuzz_main(["--replay", str(path)]) == 0
        assert "1 case(s)" in capsys.readouterr().out

    def test_time_limit_truncates(self, capsys):
        code = fuzz_main(
            ["--seed", "5", "--budget", "100000", "--time-limit", "0"]
        )
        assert code == 0
        assert "time limit reached" in capsys.readouterr().out

    def test_failure_writes_shrunk_repro_and_exits_one(
        self, tmp_path, monkeypatch, capsys
    ):
        # Same drill as test_fuzz_shrink, end to end through the CLI:
        # inject the off-by-one mutant, fuzz a small budget known to
        # catch it, and check a shrunk repro lands in --out.
        clean = DBM.add_upper

        def flipped(self, i, bound):
            return clean(self, i, bound + 1)

        monkeypatch.setattr(DBM, "add_upper", flipped)
        out_dir = tmp_path / "failures"
        code = fuzz_main(
            ["--seed", "0", "--budget", "40", "--out", str(out_dir),
             "--shrink-evals", "80"]
        )
        monkeypatch.setattr(DBM, "add_upper", clean)
        assert code == 1
        written = sorted(out_dir.glob("*.json"))
        assert written, "no repro files were written"
        repro = load_case(written[0])
        assert repro.note  # provenance recorded
        payload = json.loads(written[0].read_text())
        assert payload["format"] == "repro-fuzz-case/1"
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "repro written to" in text
