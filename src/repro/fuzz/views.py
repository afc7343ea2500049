"""Differential sweep for incrementally-maintained percentage views.

For each fuzz case the sweep creates a materialized view over the
case's query, then runs a deterministic script of interleaved INSERT /
UPDATE / DELETE statements against the base table.  After the build
and again after **every** DML statement it asserts the central
contract of :mod:`repro.views`:

* the view-served answer (``db.execute(sql)``, rewritten to the view)
  is **bit-identical** -- column names, SQL types, null masks, row
  order, and the raw IEEE-754 payload of every live value, NaNs and
  signed zeros included -- to recomputing the query from scratch on
  the current base table with the family's pinned strategy and views
  disabled;
* the script deliberately exercises group birth (new key values),
  group death (deletes and key-migrating updates that empty a group),
  NULL keys and NULL/zero denominators, because the generator's value
  pools are shared with the differential fuzzer's adversarial data.

A policy of the shared sweep driver (:mod:`repro.fuzz.sweep`):
variants are the serial and thread execution paths crossed with the
memory/disk substrates, and stray store files after a disk variant
are findings, not warnings.

``inject_bug`` wires :data:`repro.views.maintenance.INJECT_BUG` for
the duration -- the harness self-test: a deliberately broken
maintenance path must produce at least one finding, otherwise the
sweep is blind.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from repro.api.database import Database
from repro.core.execute import run_percentage_query
from repro.core.horizontal import HorizontalStrategy
from repro.core.vertical import VerticalStrategy
from repro.engine.table import Table
from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase
from repro.fuzz.sweep import Sweep, SweepStats, Variant
from repro.views import maintenance

#: DML statements interleaved per case-variant run (each one followed
#: by a full bitwise check).
SCRIPT_LENGTH = 6

#: The materialized view every run creates and drops.
VIEW_NAME = "v_fuzz"

#: Value pools for generated DML.  The dimension pools deliberately
#: include values the base data never contains ("z", 7), so inserts
#: and key-migrating updates give birth to brand-new groups.
_DML_VALUES = {
    "varchar": ("a", "b", "c", "z"),
    "int": (0, 1, 2, 7, -3),
    "real": (0.0, 1.0, 2.5, -1.5, 10.0),
}


class ViewsSweep(Sweep):
    """A materialized view over the case's query, held bit-identical
    to recompute across a DML script."""

    flag = "--views"
    options = Sweep.options | {"inject_bug"}
    bugs = maintenance.VIEWS_BUGS
    counters = (("variants", "view run(s)"), ("rejected", "rejected"),
                ("checks", "bitwise check(s)"))

    @contextmanager
    def injected(self, bug: Optional[str]) -> Iterator[None]:
        """Wire :data:`repro.views.maintenance.INJECT_BUG` for the
        duration."""
        if bug is not None and bug not in self.bugs:
            raise ValueError(f"unknown views bug {bug!r}; known: "
                             f"{', '.join(self.bugs)}")
        saved = maintenance.INJECT_BUG
        maintenance.INJECT_BUG = bug
        try:
            yield
        finally:
            maintenance.INJECT_BUG = saved

    def sweep_variant(self, case: FuzzCase, stats: SweepStats,
                      db: Database, variant: Variant) -> None:
        sql = case.query_sql()
        try:
            db.execute(f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS {sql}")
        except ReproError:
            # Unsupported shape (no GROUP BY, ...): rejection is the
            # subsystem doing its job, not a sweep failure.
            stats.rejected += 1
            return
        stats.variants += 1
        _check(case, stats, db, f"{variant} build", sql)
        rng = random.Random(f"views:{case.seed}:{case.index}")
        for i, dml in enumerate(_dml_script(rng, case)):
            where = f"{variant} dml#{i}"
            try:
                db.execute(dml)
            except ReproError as exc:
                stats.finding(case, where, "generated DML failed",
                              f"{dml!r}: {type(exc).__name__}: {exc}")
                continue
            _check(case, stats, db, where, sql)
        db.execute(f"DROP MATERIALIZED VIEW {VIEW_NAME}")


def _check(case: FuzzCase, stats: SweepStats, db: Database, where: str,
           sql: str) -> None:
    stats.checks += 1
    try:
        served = db.execute(sql)
    except ReproError as exc:
        stats.finding(case, where, "view-served read failed",
                      f"{type(exc).__name__}: {exc}")
        return
    try:
        expected = _recompute(case, db, sql)
    except ReproError as exc:
        stats.finding(case, where, "recompute baseline failed",
                      f"{type(exc).__name__}: {exc}")
        return
    difference = table_diff(expected, served)
    if difference is not None:
        stats.finding(case, where,
                      "view-served result diverges from recompute",
                      difference)


def _recompute(case: FuzzCase, db: Database, sql: str) -> Table:
    """The from-scratch answer on the current base table, views off.

    The strategy is pinned per family (the same generators the smoke
    of the views package was proven bit-identical against), so the
    baseline is deterministic: the optimizer cannot switch routes
    mid-script as the table's statistics drift."""
    if case.family == "vpct":
        return run_percentage_query(db, sql,
                                    strategy=VerticalStrategy(),
                                    use_views=False)
    if case.family in ("hpct", "hagg"):
        return run_percentage_query(
            db, sql, strategy=HorizontalStrategy(source="F"),
            use_views=False)
    result = db.execute(sql, use_views=False)
    assert isinstance(result, Table)
    return result


# ----------------------------------------------------------------------
def table_diff(expected: Table, actual: Table) -> Optional[str]:
    """First bitwise difference between two result tables, or None.

    Stricter than row comparison: SQL types, null masks, row order and
    the raw bytes of the live values must all match, so NaN payloads
    and signed zeros count."""
    if expected.column_names() != actual.column_names():
        return (f"column names differ: {expected.column_names()} != "
                f"{actual.column_names()}")
    for name in expected.column_names():
        left, right = expected.column(name), actual.column(name)
        if left.sql_type != right.sql_type:
            return (f"column {name!r}: type {left.sql_type.name} != "
                    f"{right.sql_type.name}")
        if len(left.values) != len(right.values):
            return (f"column {name!r}: {len(left.values)} vs "
                    f"{len(right.values)} rows")
        if not np.array_equal(left.nulls, right.nulls):
            return f"column {name!r}: null masks differ"
        live = ~np.asarray(left.nulls, dtype=bool)
        lv = np.asarray(left.values)[live]
        rv = np.asarray(right.values)[live]
        if lv.size == 0:
            # All-NULL column: the backing array under the mask is an
            # implementation detail with no observable value bits.
            continue
        if lv.dtype != rv.dtype:
            return (f"column {name!r}: dtype {lv.dtype} != "
                    f"{rv.dtype}")
        if lv.dtype == object:
            if any(x != y for x, y in zip(lv, rv)):
                return f"column {name!r}: values differ"
        elif lv.tobytes() != rv.tobytes():
            return f"column {name!r}: values differ bitwise"
    return None


# ----------------------------------------------------------------------
def _dml_script(rng: random.Random, case: FuzzCase) -> list[str]:
    """A deterministic interleaving of inserts, measure updates,
    key-migrating updates and deletes against the case's table."""
    dims = [(n, t) for n, t in case.columns if n.startswith("d")]
    measures = [(n, t) for n, t in case.columns if n.startswith("m")]
    ops = ["insert", "insert", "update-measure", "delete"]
    if dims:
        ops.append("update-key")
    statements = []
    for _ in range(SCRIPT_LENGTH):
        op = rng.choice(ops)
        if op == "insert":
            statements.append(_insert(rng, case))
        elif op == "update-measure" and measures:
            name, type_name = rng.choice(measures)
            statements.append(
                f"UPDATE {case.table} SET {name} = "
                f"{_literal(_dml_value(rng, type_name))}"
                f"{_where(rng, case)}")
        elif op == "update-key" and dims:
            name, type_name = rng.choice(dims)
            statements.append(
                f"UPDATE {case.table} SET {name} = "
                f"{_literal(_dml_value(rng, type_name))}"
                f"{_where(rng, case)}")
        else:
            # An unfiltered DELETE (rare) kills every group at once.
            where = _where(rng, case) if rng.random() < 0.85 else ""
            statements.append(f"DELETE FROM {case.table}{where}")
    return statements


def _insert(rng: random.Random, case: FuzzCase) -> str:
    rows = []
    for _ in range(rng.randint(1, 2)):
        values = []
        for _, type_name in case.columns:
            value = None if rng.random() < 0.2 \
                else _dml_value(rng, type_name)
            values.append(_literal(value))
        rows.append("(" + ", ".join(values) + ")")
    return f"INSERT INTO {case.table} VALUES {', '.join(rows)}"


def _where(rng: random.Random, case: FuzzCase) -> str:
    name, type_name = rng.choice(case.columns)
    if rng.random() < 0.25:
        return f" WHERE {name} IS NULL"
    return f" WHERE {name} = {_literal(_dml_value(rng, type_name))}"


def _dml_value(rng: random.Random, type_name: str):
    return rng.choice(_DML_VALUES[type_name])


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


SWEEP = ViewsSweep()
sweep_case = SWEEP.sweep_case
sweep_cases = SWEEP.sweep_cases
