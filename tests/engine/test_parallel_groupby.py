"""Parallel group-by parity: hash-partitioned aggregation must be
bit-identical to serial execution, including the dtype edge cases the
differential fuzzer originally caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.database import Database
from repro.core.partitioning import (choose_parallel_degree,
                                     hash_partition)

SETUP = """
    CREATE TABLE t (d INT, c VARCHAR, a REAL, b INT);
    INSERT INTO t VALUES (1, 'x', 10.0, 3), (1, 'y', 30.0, NULL),
                         (2, 'x', 60.0, 1), (2, 'y', 0.25, 4),
                         (3, NULL, NULL, 2), (3, 'x', 5.5, NULL)
"""

QUERIES = [
    "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d",
    "SELECT d, avg(a), count(*) FROM t GROUP BY d ORDER BY d",
    "SELECT d, min(a), max(b) FROM t GROUP BY d ORDER BY d",
    "SELECT d, c, sum(b) FROM t GROUP BY d, c ORDER BY d, c",
    "SELECT d, count(a), count(b) FROM t GROUP BY d ORDER BY d",
    "SELECT c, sum(a) FROM t GROUP BY c ORDER BY c",
    "SELECT d, min(c), max(c) FROM t GROUP BY d ORDER BY d",
    "SELECT d, count(DISTINCT c) FROM t GROUP BY d ORDER BY d",
    "SELECT d, var(a), stdev(a) FROM t GROUP BY d ORDER BY d",
]


def _pair():
    serial = Database()
    parallel = Database(parallel_workers=4, parallel_row_threshold=1)
    serial.execute_script(SETUP)
    parallel.execute_script(SETUP)
    return serial, parallel


class TestBitIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_serial(self, sql):
        serial, parallel = _pair()
        assert parallel.query(sql) == serial.query(sql)

    def test_empty_table(self):
        serial, parallel = _pair()
        for db in (serial, parallel):
            db.execute("CREATE TABLE e (d INT, a REAL)")
        sql = "SELECT d, sum(a) FROM e GROUP BY d"
        assert parallel.query(sql) == serial.query(sql) == []

    def test_single_column_group(self):
        serial, parallel = _pair()
        sql = "SELECT d FROM t GROUP BY d ORDER BY d"
        assert parallel.query(sql) == serial.query(sql)

    def test_vpct_plan_matches_serial(self):
        from repro.core.execute import run_resilient
        serial, parallel = _pair()
        sql = "SELECT d, Vpct(a) FROM t GROUP BY d"
        rows = [run_resilient(db, sql).result.to_rows()
                for db in (serial, parallel)]
        assert rows[0] == rows[1]

    def test_thread_fanout_counts_its_tasks(self):
        _, parallel = _pair()
        parallel.query("SELECT d, sum(a) FROM t GROUP BY d")
        samples = parallel.stats.registry.samples()
        assert samples["engine_parallel_tasks_total"] > 0

    def test_degree_exceeding_rows(self):
        db = Database(parallel_workers=64, parallel_row_threshold=1)
        db.execute_script(SETUP)
        assert db.query(
            "SELECT d, sum(a) FROM t GROUP BY d ORDER BY d") == [
            (1, 40.0), (2, 60.25), (3, 5.5)]


class TestDtypeRegressions:
    """The np.bincount dtype trap: an empty (or all-NULL) partition's
    partial aggregate comes back int64 regardless of the weights
    dtype.  The merge buffer must therefore come from the result SQL
    type, never from a partition result's array."""

    def test_real_sum_with_empty_partition(self):
        # One group => every row hashes to one partition; the other
        # partition is empty.  A merge buffer typed from the empty
        # partition would truncate 0.25 away (10.25 -> 10).
        db = Database(parallel_workers=2, parallel_row_threshold=1)
        db.execute_script("""
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 10.0), (1, 0.25)
        """)
        assert db.query("SELECT d, sum(a) FROM r GROUP BY d") == [
            (1, 10.25)]

    def test_real_sum_with_all_null_partition(self):
        # Both partitions non-empty, but one holds only NULLs: its
        # valid-mask is empty, so its partial bincount is int64 too.
        db = Database(parallel_workers=2, parallel_row_threshold=1)
        db.execute_script("""
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 10.0), (1, 0.25),
                                 (2, NULL), (2, NULL)
        """)
        assert db.query(
            "SELECT d, sum(a) FROM r GROUP BY d ORDER BY d") == [
            (1, 10.25), (2, None)]

    def test_parallel_sum_preserves_float_dtype(self):
        db = Database(parallel_workers=2, parallel_row_threshold=1)
        db.execute_script("""
            CREATE TABLE r (d INT, a REAL);
            INSERT INTO r VALUES (1, 0.5), (1, 0.5)
        """)
        (row,) = db.query("SELECT d, sum(a) FROM r GROUP BY d")
        assert row == (1, 1.0)
        assert isinstance(row[1], float)


class TestPartitioningPrimitives:
    def test_hash_partition_complete_groups(self):
        codes = np.array([0, 1, 2, 0, 1, 2, 3], dtype=np.int64)
        parts = hash_partition(codes, 2)
        assert len(parts) == 2
        seen = np.sort(np.concatenate(parts))
        assert seen.tolist() == list(range(7))
        for rows in parts:
            # Complete groups: a code never spans partitions.
            owners = {codes[i] % 2 for i in rows}
            assert all(codes[i] % 2 in owners for i in rows)
            assert list(rows) == sorted(rows)

    @pytest.mark.parametrize("n_rows,requested,threshold,expected", [
        (100, 4, 50, 4),
        (10, 4, 50, 1),   # below threshold: stay serial
        (3, 8, 0, 3),     # never more partitions than rows
        (100, 1, 0, 1),   # serial request stays serial
        (0, 4, 0, 1),     # empty input stays serial
    ])
    def test_choose_parallel_degree(self, n_rows, requested,
                                    threshold, expected):
        assert choose_parallel_degree(
            n_rows, requested, threshold) == expected


class TestExplain:
    def test_parallel_line_when_enabled(self):
        db = Database(parallel_workers=4, parallel_row_threshold=1)
        db.execute_script(SETUP)
        lines = [row[0] for row in db.query(
            "EXPLAIN SELECT d, sum(a) FROM t GROUP BY d")]
        parallel_lines = [l for l in lines if l.startswith("parallel:")]
        assert parallel_lines == [
            "parallel: degree=4 (row threshold 1)"]
        governor_at = next(i for i, l in enumerate(lines)
                           if l.startswith("governor:"))
        assert lines.index(parallel_lines[0]) < governor_at

    def test_no_parallel_line_when_serial(self):
        db = Database()
        db.execute_script(SETUP)
        lines = [row[0] for row in db.query(
            "EXPLAIN SELECT d, sum(a) FROM t GROUP BY d")]
        assert not [l for l in lines if l.startswith("parallel:")]
