"""Tests for the optional process-parallel fan-out.

The fan-out must be a pure throughput knob: for any worker count the
algebra returns the same tuples in the same order as the serial path.
Worker functions must be module-level so they pickle across the pool
boundary.
"""

from __future__ import annotations

import random

import pytest

from repro.core import algebra
from repro.core.relations import GeneralizedRelation, Schema
from repro.perf import parallel
from repro.perf.config import overrides, reset_config
from repro.query import parse_query
from repro.query.evaluator import Evaluator
from tests.helpers import random_relation

SCHEMA2 = Schema.make(temporal=["A", "B"])


def _square_chunk(payloads, extra):
    """Module-level worker: square each payload and add ``extra``."""
    return [p * p + extra for p in payloads]


def _pair_chunk(payloads, _extra):
    """Worker returning several results per payload (list flattening)."""
    out = []
    for p in payloads:
        out.extend([p, -p])
    return out


class TestRunChunked:
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_matches_serial_for_any_worker_count(self, workers, n):
        payloads = list(range(n))
        expected = _square_chunk(payloads, 10)
        assert parallel.run_chunked(_square_chunk, payloads, 10, workers) == (
            expected
        )

    def test_preserves_order_with_multiple_results_per_payload(self):
        payloads = list(range(17))
        expected = _pair_chunk(payloads, None)
        got = parallel.run_chunked(_pair_chunk, payloads, None, 2)
        assert got == expected

    def test_unpicklable_worker_falls_back_to_serial(self):
        # a closure cannot cross the process boundary; the fan-out must
        # catch the failure and still return the right answer serially
        bump = 3
        worker = lambda payloads, extra: [p + bump for p in payloads]  # noqa: E731
        assert parallel.run_chunked(worker, list(range(30)), None, 2) == [
            p + 3 for p in range(30)
        ]


def _keylist(relation: GeneralizedRelation) -> list:
    return [t.canonical_key() for t in relation]


class TestSharedMemoryTransport:
    def test_round_trips_tuples_through_shared_memory(self):
        rng = random.Random(77)
        tuples = list(random_relation(rng, SCHEMA2, 4))
        payloads = [(t1, t2) for t1 in tuples for t2 in tuples[:2]]
        extra = tuples[:3]
        shared = parallel._encode_shared(payloads, extra)
        assert shared is not None
        shm, encoded_payloads, encoded_extra = shared
        try:
            assert len(encoded_payloads) == len(payloads)
            assert isinstance(encoded_extra, parallel._SharedExtra)
            rebuilt = parallel._materialize(shm.name)
            for original, (i1, i2) in zip(payloads, encoded_payloads):
                for t, idx in zip(original, (i1, i2)):
                    copy = rebuilt[idx]
                    assert copy.canonical_key() == t.canonical_key()
                    assert copy.dbm._closed == t.dbm._closed
        finally:
            parallel._materialized.clear()
            shm.close()
            shm.unlink()

    def test_non_tuple_payloads_are_not_shared(self):
        assert parallel._encode_shared([1, 2, 3], None) is None

    def test_cost_gate_keeps_small_workloads_serial(self):
        """Below ``parallel_min_cost`` the fan-out must not engage."""
        from repro.perf.config import PERF_COUNTERS, reset_counters

        rng = random.Random(5)
        r1 = random_relation(rng, SCHEMA2, 3)
        r2 = random_relation(rng, SCHEMA2, 3)
        with overrides(workers=4, parallel_threshold=1):
            reset_counters()
            algebra.intersect(r1, r2)
            assert PERF_COUNTERS["parallel_fanout"] == 0
            assert PERF_COUNTERS["parallel_fallback"] == 0


class TestParallelAlgebraDeterminism:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_intersect_join_subtract_identical_to_serial(self, seed, workers):
        """Same tuples in the same order, independent of worker count."""
        rng = random.Random(4000 + seed)
        r1 = random_relation(rng, SCHEMA2, 3)
        r2 = random_relation(rng, SCHEMA2, 3)
        with overrides(workers=0):
            serial = (
                algebra.intersect(r1, r2),
                algebra.join(r1, r2),
                algebra.subtract(r1, r2),
            )
        # parallel_min_cost=0 forces fan-out (and its shared-memory tuple
        # transport) even though these tiny workloads would normally stay
        # serial under the cost-aware gate.
        with overrides(
            workers=workers, parallel_threshold=1, parallel_min_cost=0
        ):
            fanned = (
                algebra.intersect(r1, r2),
                algebra.join(r1, r2),
                algebra.subtract(r1, r2),
            )
        for serial_rel, fanned_rel in zip(serial, fanned):
            assert _keylist(fanned_rel) == _keylist(serial_rel)

    @pytest.mark.parametrize("seed", range(4))
    def test_data_partitioned_join_subtract_identical_to_serial(self, seed):
        """Data buckets survive the fan-out: join ships bucketed pairs,
        subtract ships the subtrahends and re-partitions per chunk."""
        from repro.perf.config import PERF_COUNTERS, reset_counters

        rng = random.Random(4100 + seed)
        values = [("a",), ("b",), ("c",)]
        schema_r = Schema.make(temporal=["A", "B"], data=["x"])
        schema_s = Schema.make(temporal=["B", "C"], data=["x"])
        r1 = random_relation(rng, schema_r, 6, data_choices=values)
        r2 = random_relation(rng, schema_r, 6, data_choices=values)
        s = random_relation(rng, schema_s, 6, data_choices=values)
        with overrides(workers=0):
            serial = (algebra.join(r1, s), algebra.subtract(r1, r2))
        with overrides(workers=2, parallel_threshold=1, parallel_min_cost=0):
            reset_counters()
            fanned = (algebra.join(r1, s), algebra.subtract(r1, r2))
            engaged = (
                PERF_COUNTERS["parallel_fanout"]
                + PERF_COUNTERS["parallel_fallback"]
            )
        assert engaged == 2
        for serial_rel, fanned_rel in zip(serial, fanned):
            assert _keylist(fanned_rel) == _keylist(serial_rel)


class TestEvaluatorWorkers:
    def _relations(self) -> dict[str, GeneralizedRelation]:
        rng = random.Random(99)
        return {"R": random_relation(rng, SCHEMA2, 4)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_evaluator_workers_matches_default(self, workers):
        relations = self._relations()
        query = parse_query(
            "EXISTS b. R(a, b) & a >= 0",
            {name: rel.schema for name, rel in relations.items()},
        )
        plain = Evaluator(relations).evaluate(query)
        fanned = Evaluator(relations, workers=workers).evaluate(query)
        assert _keylist(fanned) == _keylist(plain)
        assert fanned.schema == plain.schema


class TestCLIFlags:
    def test_workers_and_no_cache_flags(self, capsys):
        from repro.cli import main

        try:
            code = main(
                [
                    "--workers",
                    "2",
                    "--no-cache",
                    "-c",
                    "create P(t:T)",
                    "-c",
                    "insert P [3 + 5n]",
                    "-c",
                    "perf",
                    "-c",
                    "quit",
                ]
            )
        finally:
            reset_config()
        out = capsys.readouterr().out
        assert code == 0
        assert "workers=2" in out
        assert "cache=off" in out
