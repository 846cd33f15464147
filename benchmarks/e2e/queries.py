"""``query_hot`` and ``query_cold``: one client in a closed loop.

An embedded in-memory :class:`repro.api.Database` holds the catalog
``R(a, b : T; x : D)``, ``S(b, c : T; x : D)`` and ``T(a : T)`` of
bounded-interval lrp tuples.  One client runs the six query templates
of :data:`TEMPLATES` back to back.  ``query_hot`` is small, sees few
distinct query texts and warms up first, so the interning caches
always hit.  ``query_cold`` runs the same templates with a working set
larger than the 8192-entry caches and no warm-up.

The relation shapes are fixed; the workload seed shifts every time
value by one offset, renames the data values and draws the query
order and the pairing of constants (each template cycles through all
offsets and values).  Each seed therefore asks the same amount of work
of the program on different inputs, which keeps runs with different
seeds comparable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from harness import PassResult, peak_rss_mb, timed, window_digest

#: Seed of the fixed relation shapes (independent of the workload seed).
SHAPE_SEED = 1990
PERIODS = (6, 8, 12, 24)
N_VALUES = 8
#: Times a run builds the database; ``setup_s`` is the median build.
SETUP_REPEATS = 7

#: ``(name, call, text)``; ``{v}`` is a data value, ``{k}`` a time offset.
TEMPLATES = (
    ("select_join", "query",
     'R(a, b, "{v}") & S(b, c, "{v}") & a >= {k} & a <= {k} + 120'),
    ("exists_join", "query",
     "EXISTS b. EXISTS x. R(a, b, x) & S(b, c, x) & a >= {k} "
     "& a <= {k} + 150 & c <= a + 40"),
    ("negated_projection", "query",
     'T(a) & ~(EXISTS b. R(a, b, "{v}")) & a >= {k} & a <= {k} + 200'),
    ("closed_ask", "ask",
     'EXISTS a. EXISTS b. EXISTS c. R(a, b, "{v}") & S(b, c, "{v}") '
     "& a >= {k} & c >= a + 30"),
    ("minimize", "query",
     'MINIMIZE c - a : EXISTS b. R(a, b, "{v}") & S(b, c, "{v}") '
     "& a >= {k}"),
    ("data_negation", "query",
     'EXISTS b. R(a, b, x) & ~(x = "{v}") & a >= {k} & a <= {k} + 100'),
)


@dataclass(frozen=True)
class Size:
    pairs: int  # tuples in R and in S
    singles: int  # tuples in T
    offsets: int  # distinct query offsets
    step: int  # spacing of the query offsets
    warm: bool  # run every distinct text once before timing


SIZES = {
    "query_hot": Size(pairs=60, singles=30, offsets=5, step=100, warm=True),
    "query_cold": Size(pairs=200, singles=100, offsets=41, step=10,
                       warm=False),
}
SMOKE_SIZES = {
    "query_hot": Size(pairs=12, singles=6, offsets=2, step=200, warm=True),
    "query_cold": Size(pairs=24, singles=12, offsets=5, step=80,
                       warm=False),
}


def _shapes(size: Size) -> tuple[list[tuple], list[tuple]]:
    """Seed-independent tuple shapes of R/S (pairs) and T (singles)."""
    rng = random.Random(SHAPE_SEED * 1000 + size.pairs)
    pairs = []
    for _ in range(2 * size.pairs):
        period = rng.choice(PERIODS)
        low, width = rng.randrange(0, 400), rng.randrange(40, 160)
        gap = rng.randrange(0, 20)
        pairs.append((
            period, rng.randrange(period), rng.randrange(period),
            low, width, gap, gap + rng.randrange(5, 40),
            rng.randrange(N_VALUES),
        ))
    singles = []
    for _ in range(size.singles):
        period = rng.choice((4, 6, 10))
        singles.append((
            period, rng.randrange(period), rng.randrange(0, 400),
            rng.randrange(40, 200),
        ))
    return pairs, singles


class Inputs:
    """The seeded inputs of one pass: the catalog and the query stream."""

    def __init__(self, size: Size, seed: int) -> None:
        self.rng = random.Random(seed)
        self.shift = self.rng.randrange(1000)
        order = self.rng.sample(range(N_VALUES), N_VALUES)
        self.values = [f"svc{i}" for i in order]
        self.offsets = [
            self.shift + i * size.step for i in range(size.offsets)
        ]
        self.pairs, self.singles = _shapes(size)
        # Each template walks all offsets and all values in seeded
        # orders, so every run covers the constants alike.
        self._constants = {
            name: (self._cycle(self.offsets), self._cycle(self.values))
            for name, _call, _text in TEMPLATES
        }

    def _cycle(self, items: list):
        while True:
            order = list(items)
            self.rng.shuffle(order)
            yield from order

    def build(self):
        """A fresh database holding the seeded catalog."""
        from repro.api import Database

        db = Database()
        half = len(self.pairs) // 2
        for name, columns, rows in (("R", ["a", "b"], self.pairs[:half]),
                                    ("S", ["b", "c"], self.pairs[half:])):
            relation = db.create(name, temporal=columns, data=["x"])
            first, second = columns
            for period, o1, o2, low, width, d1, d2, value in rows:
                low += self.shift
                relation.add_tuple(
                    [f"{(o1 + self.shift) % period} + {period}n",
                     f"{(o2 + self.shift) % period} + {period}n"],
                    f"{first} >= {low} & {first} <= {low + width} & "
                    f"{second} >= {first} + {d1} & "
                    f"{second} <= {first} + {d2}",
                    [self.values[value]],
                )
        singles = db.create("T", temporal=["a"])
        for period, offset, low, width in self.singles:
            low += self.shift
            singles.add_tuple(
                [f"{(offset + self.shift) % period} + {period}n"],
                f"a >= {low} & a <= {low + width}",
            )
        return db

    def distinct(self) -> list[tuple[str, str, str, int]]:
        """Every distinct ``(template, call, text, k)`` the stream can ask."""
        seen, out = set(), []
        for name, call, text in TEMPLATES:
            for k in self.offsets:
                for v in self.values:
                    query = text.format(v=v, k=k)
                    if query not in seen:
                        seen.add(query)
                        out.append((name, call, query, k))
        return out

    def round(self) -> list[tuple[str, str, str, int]]:
        """One round: every template once, in seeded order and constants."""
        slots = list(TEMPLATES)
        self.rng.shuffle(slots)
        out = []
        for name, call, text in slots:
            offsets, values = self._constants[name]
            k, v = next(offsets), next(values)
            out.append((name, call, text.format(v=v, k=k), k))
        return out


def _execute(db, call: str, text: str, **options):
    if call == "ask":
        return db.ask(text, **options)
    return db.query(text, **options)


def summarize(answer, k: int) -> str:
    """A comparable digest of one answer (point sets over a window)."""
    if isinstance(answer, bool):
        return f"ask:{answer}"
    if hasattr(answer, "status"):  # an OptimizationResult
        return f"opt:{answer.status}:{answer.value}"
    return window_digest(answer, k - 50, k + 250)


def run_pass(workload: str, seed: int, seconds: float, tracer,
             smoke: bool, expected: dict) -> PassResult:
    """Build, warm up (hot only), run the closed loop, then check."""
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    inputs = Inputs(size, seed)
    result = PassResult()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        db = inputs.build()
        result.record_setup(time.perf_counter() - started)

    if size.warm:
        started = time.perf_counter()
        for _name, call, text, _k in inputs.distinct():
            _execute(db, call, text)
        result.extra["warmup_s"] = time.perf_counter() - started

    first: dict[str, tuple] = {}
    answers: dict[str, str] = {}
    inconsistent = []
    errors: dict[str, str] = {}
    if tracer is not None:
        tracer.install()
    try:
        loop_started = time.perf_counter()
        while time.perf_counter() - loop_started < seconds:
            for name, call, text, k in inputs.round():
                result.attempted += 1
                try:
                    answer, latency = timed(tracer, result.attempted,
                                            _execute, db, call, text)
                except Exception as exc:  # counted and reported, not fatal
                    result.failed += 1
                    errors.setdefault(name, repr(exc))
                    continue
                result.record(latency)
                result.probe()
                first.setdefault(name, (call, text, k, answer))
                if call == "ask" or name == "minimize":
                    digest = summarize(answer, k)
                    if answers.setdefault(text, digest) != digest:
                        inconsistent.append(text)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.peak_rss_mb = peak_rss_mb()
    result.check("every query ran", not errors, repr(errors))
    result.check("repeated answers agree", not inconsistent,
                 "; ".join(inconsistent[:3]))

    pinned = {} if smoke else expected.get(workload, {}).get(str(seed), {})
    for name, (call, text, k, answer) in sorted(first.items()):
        digest = summarize(answer, k)
        optimized = summarize(_execute(db, call, text, optimize=True), k)
        result.check(f"{name} optimized == default", digest == optimized,
                     f"{digest} vs {optimized} for {text}")
        if pinned:
            result.check(f"{name} matches pinned digest",
                         pinned.get(name) == digest,
                         f"got {digest}, pinned {pinned.get(name)}")
    result.check("every template ran", len(first) == len(TEMPLATES))
    return result
