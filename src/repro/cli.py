"""A small interactive shell / batch interpreter for temporal databases.

Usage::

    python -m repro.cli                      # interactive REPL
    python -m repro.cli script.itql          # run a command file
    python -m repro.cli -c 'ask EXISTS t. P(t)' -c 'quit'
    python -m repro.cli trace script.itql --trace-json out.json
    python -m repro.cli fuzz --seed 0 --budget 500
    python -m repro.cli db init mydb         # create a durable database
    python -m repro.cli db open mydb         # shell bound to a durable db
    python -m repro.cli db compact mydb      # fold the WAL into a snapshot
    python -m repro.cli db info mydb         # recovery + catalog summary
    python -m repro.cli serve start mydb     # multi-client server (MVCC)
    python -m repro.cli deduce prog.dl --data facts.tdb
                                             # evaluate a Datalog program
    python -m repro.cli deduce prog.dl --db mydb --install
                                             # install materialized views

Commands:

    create NAME(attr:T, attr:D, ...)   declare an empty relation
    insert NAME [lrps] : constraints | data
                                       add one generalized tuple
    drop NAME                          remove a relation from the catalog
    commit                             durably persist the catalog
                                       (db-open sessions only)
    compact                            fold the WAL into a fresh snapshot
                                       (db-open sessions only)
    load FILE                          load relations from a text file
    save FILE [NAME ...]               write relations to a text file
    list                               show the catalog
    show NAME                          print a relation
    window NAME LO HI                  enumerate concrete points
    ask QUERY                          yes/no first-order query
    query QUERY                        open query; prints the result
                                       (EXPLAIN / EXPLAIN ANALYZE /
                                       MINIMIZE / MAXIMIZE prefixes work
                                       here too)
    minimize OBJ : QUERY               exact minimum of OBJ (a temporal
                                       variable or difference `a - b`)
                                       over the query's result
    maximize OBJ : QUERY               exact maximum, same objective forms
    explain QUERY                      show the algebraic evaluation plan
    plan QUERY                         show the logical plan without
                                       running it (rewrites included
                                       unless the optimizer is off)
    trace QUERY                        EXPLAIN ANALYZE: run under the trace
                                       recorder, print a text flamegraph
    rules FILE                         run a Datalog program file; derived
                                       relations join the catalog
    next NAME.COLUMN AFTER             exact next event at/after AFTER
    prev NAME.COLUMN BEFORE            exact previous event at/before BEFORE
    perf                               show optimization-layer counters
    help                               this text
    quit                               leave

The query syntax is the library's two-sorted first-order language
(``EXISTS t. Train(t, a, "slow") & t >= 60``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import ReproError
from repro.core.relations import GeneralizedRelation
from repro.core.temporal import next_event, prev_event
from repro.query import Database
from repro.storage import textio

HELP_TEXT = __doc__.split("Commands:", 1)[1].rsplit("The query", 1)[0]


class Session:
    """One CLI session: a database plus command dispatch.

    With ``trace_all`` set (the ``trace`` subcommand), every ``ask`` /
    ``query`` command runs under the trace recorder, prints its
    flamegraph, and the collected traces accumulate in
    :attr:`traces` for ``--trace-json`` export.
    """

    def __init__(
        self, trace_all: bool = False, db: Database | None = None
    ) -> None:
        self.db = Database() if db is None else db
        self.done = False
        self.trace_all = trace_all
        self.traces: list[dict] = []

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the printable response."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        verb, _, rest = line.partition(" ")
        handler = getattr(self, f"_cmd_{verb.lower()}", None)
        if handler is None:
            return f"error: unknown command {verb!r} (try 'help')"
        try:
            return handler(rest.strip())
        except ReproError as exc:
            return f"error: {exc}"
        except (ValueError, KeyError, OSError) as exc:
            return f"error: {exc}"

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def _cmd_help(self, _rest: str) -> str:
        return HELP_TEXT.strip()

    def _cmd_quit(self, _rest: str) -> str:
        self.done = True
        return "bye"

    def _cmd_exit(self, rest: str) -> str:
        return self._cmd_quit(rest)

    def _cmd_create(self, rest: str) -> str:
        name, schema = textio.parse_header("relation " + rest)
        self.db.register(name, GeneralizedRelation.empty(schema))
        return f"created {name}{schema}"

    def _cmd_insert(self, rest: str) -> str:
        name, _, tuple_text = rest.partition(" ")
        relation = self.db.relation(name)
        before = len(relation)
        textio.parse_tuple_line(relation, tuple_text.strip())
        added = len(relation) - before
        return f"inserted {added} tuple(s) into {name}" if added else (
            f"tuple already present in {name}"
        )

    def _cmd_drop(self, rest: str) -> str:
        name = rest.strip()
        if not name:
            return "error: usage: drop NAME"
        self.db.drop(name)
        return f"dropped {name}"

    def _cmd_commit(self, _rest: str) -> str:
        if not self.db.persistent:
            return "error: not a durable session (use 'repro db open PATH')"
        records = self.db.commit()
        return (
            f"committed {records} record(s)"
            if records
            else "nothing to commit"
        )

    def _cmd_compact(self, _rest: str) -> str:
        if not self.db.persistent:
            return "error: not a durable session (use 'repro db open PATH')"
        return f"compacted into {self.db.compact()}"

    def _cmd_load(self, rest: str) -> str:
        with open(rest) as handle:
            relations = textio.loads_all(handle.read())
        for name, relation in relations.items():
            self.db.register(name, relation)
        return f"loaded {', '.join(relations)} from {rest}"

    def _cmd_save(self, rest: str) -> str:
        parts = rest.split()
        if not parts:
            return "error: save needs a file name"
        path, names = parts[0], parts[1:] or list(self.db.names)
        payload = textio.dumps_all(
            {name: self.db.relation(name) for name in names}
        )
        with open(path, "w") as handle:
            handle.write(payload)
        return f"saved {', '.join(names)} to {path}"

    def _cmd_list(self, _rest: str) -> str:
        if not self.db.names:
            return "(no relations)"
        lines = []
        for name in self.db.names:
            relation = self.db.relation(name)
            lines.append(
                f"{name}{relation.schema} — {len(relation)} generalized "
                "tuple(s)"
            )
        return "\n".join(lines)

    def _cmd_show(self, rest: str) -> str:
        return textio.format_relation(self.db.relation(rest), rest).rstrip()

    def _cmd_window(self, rest: str) -> str:
        parts = rest.split()
        if len(parts) != 3:
            return "error: usage: window NAME LO HI"
        name, lo, hi = parts[0], int(parts[1]), int(parts[2])
        points = sorted(self.db.relation(name).enumerate(lo, hi))
        if not points:
            return "(no points in window)"
        shown = points[:50]
        lines = [", ".join(map(str, point)) for point in shown]
        if len(points) > len(shown):
            lines.append(f"... and {len(points) - len(shown)} more")
        return "\n".join(lines)

    def _cmd_ask(self, rest: str) -> str:
        if self.trace_all:
            trace = self._record_trace(rest)
            verdict = "false" if trace.result.is_empty() else "true"
            return verdict + "\n" + trace.flamegraph()
        return "true" if self.db.ask(rest) else "false"

    def _cmd_query(self, rest: str) -> str:
        from repro.query.explain import QueryTrace

        if self.trace_all:
            trace = self._record_trace(rest)
            return self._format_result(trace.result) + "\n" + trace.flamegraph()
        answer = self.db.query(rest)
        if isinstance(answer, QueryTrace):  # EXPLAIN ANALYZE prefix
            self.traces.append(answer.to_dict())
            return self._format_result(answer.result) + "\n" + answer.flamegraph()
        if isinstance(answer, GeneralizedRelation):
            return self._format_result(answer)
        return str(answer)  # EXPLAIN plan or MINIMIZE/MAXIMIZE verdict

    def _cmd_minimize(self, rest: str) -> str:
        """``minimize OBJ : QUERY`` — exact minimum of a linear objective."""
        return str(self.db.optimize(rest, sense="min"))

    def _cmd_maximize(self, rest: str) -> str:
        """``maximize OBJ : QUERY`` — exact maximum of a linear objective."""
        return str(self.db.optimize(rest, sense="max"))

    def _format_result(self, result: GeneralizedRelation) -> str:
        header = f"result{result.schema}: {len(result)} generalized tuple(s)"
        body = "\n".join(f"  {t}" for t in result.tuples[:20])
        if len(result) > 20:
            body += f"\n  ... and {len(result) - 20} more"
        return header + ("\n" + body if body else "")

    def _record_trace(self, text: str):
        trace = self.db.query(f"EXPLAIN ANALYZE {text}")
        self.traces.append(trace.to_dict())
        return trace

    def _cmd_explain(self, rest: str) -> str:
        return str(self.db.explain(rest))

    def _cmd_plan(self, rest: str) -> str:
        """Show the logical plan (and rewrite deltas) without running it."""
        return str(self.db.plan(rest))

    def _cmd_trace(self, rest: str) -> str:
        """EXPLAIN ANALYZE one query; print result size + flamegraph."""
        from repro.perf.kernel import kernel_backend

        trace = self._record_trace(rest)
        result = trace.result
        return (
            f"result{result.schema}: {len(result)} generalized tuple(s) "
            f"[kernel={kernel_backend()}]\n"
            + trace.flamegraph()
        )

    def _cmd_rules(self, rest: str) -> str:
        """Run a Datalog program file against the current database."""
        from repro.deductive import Program

        with open(rest) as handle:
            program = Program.from_text(handle.read())
        result = program.evaluate(self.db)
        for name in program.idb_names:
            self.db.register(name, result.relation(name))
        sizes = ", ".join(
            f"{name} ({len(self.db.relation(name))} tuples)"
            for name in program.idb_names
        )
        return f"derived {sizes}"

    def _cmd_perf(self, _rest: str) -> str:
        """Show the optimization-layer config and the counter store."""
        from repro.obs.metrics import COUNTERS
        from repro.perf.config import get_config
        from repro.perf.kernel import kernel_backend

        cfg = get_config()
        lines = [
            f"config: kernel={kernel_backend()}, "
            f"optimize={'on' if cfg.optimize else 'off'}"
        ]
        if COUNTERS:
            lines.append(
                "counters: "
                + ", ".join(f"{k}={v}" for k, v in sorted(COUNTERS.items()))
            )
        return "\n".join(lines)

    def _cmd_next(self, rest: str) -> str:
        return self._next_prev(rest, forward=True)

    def _cmd_prev(self, rest: str) -> str:
        return self._next_prev(rest, forward=False)

    def _next_prev(self, rest: str, forward: bool) -> str:
        parts = rest.split()
        if len(parts) != 2 or "." not in parts[0]:
            which = "next" if forward else "prev"
            return f"error: usage: {which} NAME.COLUMN INSTANT"
        target, instant = parts[0], int(parts[1])
        name, _, column = target.partition(".")
        relation = self.db.relation(name)
        fn = next_event if forward else prev_event
        value = fn(relation, column, instant)
        return "(none)" if value is None else str(value)


def repl(session: Session, stream=None, out=None) -> None:
    """Read-eval-print loop over ``stream`` (default: stdin/stdout)."""
    stream = sys.stdin if stream is None else stream
    out = sys.stdout if out is None else out
    interactive = stream is sys.stdin and stream.isatty()
    while not session.done:
        if interactive:
            out.write("itql> ")
            out.flush()
        line = stream.readline()
        if not line:
            break
        response = session.execute(line)
        if response:
            out.write(response + "\n")


def _run_session(
    session: Session, script: str | None, commands: list[str]
) -> None:
    """Drive a session from -c commands, a script file, or the REPL."""
    if commands:
        for command in commands:
            response = session.execute(command)
            if response:
                print(response)
            if session.done:
                break
    elif script:
        with open(script) as handle:
            repl(session, stream=handle)
    else:
        repl(session)


def db_main(argv: list[str]) -> int:
    """The ``repro db`` subcommand: durable databases on disk.

    ``init`` creates an empty store, ``open`` runs the shell bound to
    one (``commit``/``compact`` become live commands), ``compact``
    folds the WAL into a fresh snapshot, and ``info`` prints the
    post-recovery catalog and storage summary.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli db",
        description="Durable temporal databases (WAL-backed, crash-safe)",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("init", "create an empty durable database"),
        ("open", "open the shell bound to a durable database"),
        ("compact", "fold the WAL into a fresh snapshot and truncate it"),
        ("info", "run recovery and print the catalog/storage summary"),
    ):
        action_parser = sub.add_parser(action, help=help_text)
        action_parser.add_argument("path", help="database directory")
        if action == "open":
            action_parser.add_argument(
                "script", nargs="?", help="command file to run (default: REPL)"
            )
            action_parser.add_argument(
                "-c",
                dest="commands",
                action="append",
                default=[],
                help="run one command (repeatable)",
            )
    args = parser.parse_args(argv)
    # Every action opens the store, and opening can fail in ways the
    # operator caused (missing root, torn manifest, another writer
    # holding the lock) — report those as one clean diagnostic line,
    # never a traceback.
    try:
        return _db_action(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1


def _db_action(args) -> int:
    """Run one parsed ``repro db`` action (may raise ``ReproError``)."""
    if args.action == "init":
        with Database.open(args.path) as db:
            print(f"initialized {args.path} ({len(db.names)} relations)")
        return 0
    if args.action == "compact":
        with Database.open(args.path, create=False) as db:
            print(f"compacted into {db.compact()}")
        return 0
    if args.action == "info":
        from repro.perf.kernel import kernel_backend

        with Database.open(args.path, create=False) as db:
            info = db.storage.info()
            print(f"database {info['root']} (format {info['format']})")
            print(f"kernel backend: {kernel_backend()}")
            print(
                f"snapshot: {info['snapshot'] or '(none)'} "
                f"@ lsn {info['snapshot_lsn']}, wal {info['wal_bytes']} bytes"
            )
            if not info["relations"]:
                print("(no relations)")
            for name, size in info["relations"].items():
                print(f"{name}: {size} generalized tuple(s)")
        return 0
    with Database.open(args.path) as db:
        session = Session(db=db)
        _run_session(session, args.script, args.commands)
    return 0


def deduce_main(argv: list[str]) -> int:
    """The ``repro deduce`` subcommand: Datalog programs end to end.

    Evaluates a program file against a database — a durable store
    (``--db PATH``), a relation text file (``--data FILE``), or an
    empty catalog — and prints the derived IDB relations.  With
    ``--install`` (durable databases only) the program's IDB is
    instead installed as materialized views, refreshed incrementally
    by every subsequent commit and streamed append.

    Operator errors — unstratifiable programs, IDB/EDB name clashes,
    unsafe rules, missing files — are reported as one clean
    ``error: ...`` line with exit status 1, never a traceback
    (matching the ``repro db`` convention).
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli deduce",
        description="Evaluate or install a Datalog program",
    )
    parser.add_argument("program", help="program file (declare + rules)")
    parser.add_argument(
        "--db", default=None, metavar="PATH", help="durable database root"
    )
    parser.add_argument(
        "--data",
        default=None,
        metavar="FILE",
        help="relation text file to load as the EDB",
    )
    parser.add_argument(
        "--install",
        action="store_true",
        help="install the program's IDB as materialized views "
        "(requires --db)",
    )
    parser.add_argument(
        "--strategy",
        default="seminaive",
        choices=("seminaive", "naive"),
        help="fixpoint strategy (default: seminaive; naive is the oracle)",
    )
    args = parser.parse_args(argv)
    if args.install and args.db is None:
        parser.error("--install requires --db PATH")
    try:
        return _deduce_action(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    except OSError as exc:
        print(f"error: {exc}")
        return 1


def _deduce_action(args) -> int:
    """Run one parsed ``repro deduce`` action (may raise ``ReproError``)."""
    from repro.deductive import Program

    with open(args.program) as handle:
        program = Program.from_text(handle.read())
    if args.db is not None:
        with Database.open(args.db, create=False) as db:
            if args.data is not None:
                with open(args.data) as handle:
                    for name, rel in textio.loads_all(handle.read()).items():
                        db.register(name, rel)
            if args.install:
                db.install_program(program)
                for name, watermark in sorted(db.views().items()):
                    size = len(db.relation(name))
                    print(
                        f"installed {name}: {size} generalized tuple(s), "
                        f"watermark v{watermark}"
                    )
                return 0
            result = program.evaluate(db, strategy=args.strategy)
            _print_derived(program, result)
        return 0
    db = Database()
    if args.data is not None:
        with open(args.data) as handle:
            for name, rel in textio.loads_all(handle.read()).items():
                db.register(name, rel)
    result = program.evaluate(db, strategy=args.strategy)
    _print_derived(program, result)
    return 0


def _print_derived(program, result) -> None:
    for name in program.idb_names:
        print(textio.format_relation(result.relation(name), name).rstrip())


def main(argv: list[str] | None = None) -> int:
    """Entry point: interactive, script file, or -c commands.

    ``repro.cli trace ...`` is the observability subcommand: the same
    shell, but every ``ask``/``query`` runs under the trace recorder
    and prints its flamegraph; ``--trace-json out.json`` writes every
    collected span tree to a JSON file on exit.  ``repro.cli fuzz ...``
    runs the differential fuzzer (:mod:`repro.fuzz.cli`),
    ``repro.cli db ...`` manages durable on-disk databases
    (:func:`db_main`), and ``repro.cli serve ...`` runs the concurrent
    multi-client server (:mod:`repro.serve.cli`).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "db":
        return db_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "deduce":
        return deduce_main(argv[1:])
    trace_mode = bool(argv) and argv[0] == "trace"
    if trace_mode:
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro.cli trace" if trace_mode else "repro.cli",
        description="Infinite temporal database shell",
    )
    parser.add_argument(
        "script", nargs="?", help="command file to run (default: REPL)"
    )
    parser.add_argument(
        "-c",
        dest="commands",
        action="append",
        default=[],
        help="run one command (repeatable)",
    )
    parser.add_argument(
        "--optimize",
        dest="optimize",
        action="store_true",
        default=None,
        help="run the logical-plan rewrite passes before executing "
        "queries (the default, unless REPRO_OPTIMIZE=0)",
    )
    parser.add_argument(
        "--no-optimize",
        dest="optimize",
        action="store_false",
        help="run the naive, unrewritten plan (as REPRO_OPTIMIZE=0 does)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write every collected trace (span tree) to PATH as JSON; "
        "implies trace mode",
    )
    args = parser.parse_args(argv)
    trace_mode = trace_mode or args.trace_json is not None
    if args.optimize is not None:
        from repro.perf.config import configure

        configure(optimize=args.optimize)
    session = Session(trace_all=trace_mode)
    try:
        _run_session(session, args.script, args.commands)
    finally:
        if args.trace_json:
            import json

            with open(args.trace_json, "w") as handle:
                json.dump({"traces": session.traces}, handle, indent=2,
                          default=repr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
