"""Configuration and EXPLAIN surfaces of intra-query parallelism: how
session defaults resolve and validate the parallel knobs, and that a
serial run reports no parallel plan line.

The module name dates from when it also covered a multiprocess
backend; parallel aggregation now runs on operator threads only (see
docs/parallelism.md and tests/engine/test_parallel_groupby.py)."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.engine.executor import ExecutorOptions
from repro.service.session import SessionDefaults

SETUP = """
    CREATE TABLE t (d INT, c VARCHAR, a REAL, b INT);
    INSERT INTO t VALUES (1, 'x', 10.0, 3), (1, 'y', 30.0, NULL),
                         (2, 'x', 60.0, 1), (2, 'y', 0.25, 4),
                         (3, NULL, NULL, 2), (3, 'x', 5.5, NULL),
                         (4, 'z', -1.5, 7), (4, 'x', 2.25, 0)
"""


class TestObservability:
    def test_explain_silent_for_serial_backend(self):
        # One worker is the serial path even with a zero-ish threshold.
        db = Database(parallel_workers=1, parallel_row_threshold=1)
        db.execute_script(SETUP)
        lines = [row[0] for row in db.query(
            "EXPLAIN SELECT d, sum(a) FROM t GROUP BY d")]
        assert not [l for l in lines if l.startswith("parallel:")]


class TestConfiguration:
    def test_session_defaults_validation(self):
        with pytest.raises(ValueError, match="parallel_workers"):
            SessionDefaults(parallel_workers=0)
        with pytest.raises(ValueError, match="parallel_row_threshold"):
            SessionDefaults(parallel_row_threshold=-1)

    def test_session_defaults_resolve(self):
        base = ExecutorOptions()
        resolved = SessionDefaults(parallel_workers=4,
                                   parallel_row_threshold=16).resolve(base)
        assert resolved.parallel_degree == 4
        assert resolved.parallel_row_threshold == 16
        assert base.parallel_degree == 1
        untouched = SessionDefaults().resolve(base)
        assert untouched.parallel_degree == 1
        assert (untouched.parallel_row_threshold
                == base.parallel_row_threshold)
