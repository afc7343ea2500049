"""Shared fixtures: small fact tables from the papers' examples,
plus the temp-table leak guard used by the integration and fuzz
packages (their conftests install it as an autouse fixture)."""

from __future__ import annotations

import pytest

from repro import Database
from repro.storage import engine as storage_engine


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden trace files under tests/obs/golden "
             "instead of comparing against them")


def install_database_tracker(monkeypatch) -> list:
    """Record every :class:`Database` constructed while active.

    The returned list fills up as tests build databases (directly or
    via fixtures), so a teardown can sweep all of them for leftover
    plan temp tables.
    """
    created: list[Database] = []
    original = Database.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Database, "__init__", tracking)
    return created


def assert_no_temp_leaks(databases) -> None:
    """Fail if any tracked database still holds a ``_``-prefixed
    table -- the naming space :func:`repro.core.plan.fresh_prefix`
    reserves for generated plan temps."""
    leaks = []
    for db in databases:
        temps = sorted(n for n in db.table_names()
                       if n.startswith("_"))
        if temps:
            leaks.append(temps)
    assert not leaks, (
        f"temp tables leaked past the plan boundary: {leaks}; either "
        f"the plan's cleanup/rollback is broken or the test wants "
        f"@pytest.mark.allow_temp_leaks")


@pytest.fixture(autouse=True)
def no_storage_leaks(request):
    """Every test must leave zero open page stores behind: a disk
    database's close()/abandon() must always run, and this guard is
    the oracle for that discipline (a leaked store holds open file
    descriptors and undeleted page/WAL files).  Opt out with
    ``@pytest.mark.allow_storage_leaks``."""
    yield
    if request.node.get_closest_marker("allow_storage_leaks"):
        storage_engine.force_close_all()
        return
    leaked = storage_engine.live_store_paths()
    if leaked:
        storage_engine.force_close_all()
    assert not leaked, (
        f"page stores leaked past the test: {leaked}; either a "
        f"database skipped its close() or the test wants "
        f"@pytest.mark.allow_storage_leaks")

#: The SIGMOD paper's Table 1 example fact table.
PAPER_SALES_ROWS = [
    (1, "CA", "San Francisco", 13.0),
    (2, "CA", "San Francisco", 3.0),
    (3, "CA", "San Francisco", 67.0),
    (4, "CA", "Los Angeles", 23.0),
    (5, "TX", "Houston", 5.0),
    (6, "TX", "Houston", 35.0),
    (7, "TX", "Houston", 10.0),
    (8, "TX", "Houston", 14.0),
    (9, "TX", "Dallas", 53.0),
    (10, "TX", "Dallas", 32.0),
]


@pytest.fixture
def db() -> Database:
    return Database(keep_history=True)


@pytest.fixture
def sales_db(db: Database) -> Database:
    """A database holding the paper's Table 1 sales example."""
    db.load_table(
        "sales",
        [("rid", "int"), ("state", "varchar"), ("city", "varchar"),
         ("salesamt", "real")],
        PAPER_SALES_ROWS, primary_key=["rid"])
    return db


@pytest.fixture
def store_db(db: Database) -> Database:
    """A database matching the paper's Table 3 horizontal example:
    three stores with sales per day of week (store 4 has no Monday
    sales -- the 0% cell)."""
    data = {
        2: {"Mo": 175, "Tu": 150, "We": 200, "Th": 225, "Fr": 400,
            "Sa": 600, "Su": 750},
        4: {"Tu": 360, "We": 360, "Th": 360, "Fr": 720, "Sa": 800,
            "Su": 1400},
        7: {"Mo": 128, "Tu": 128, "We": 64, "Th": 64, "Fr": 128,
            "Sa": 560, "Su": 528},
    }
    rows = []
    rid = 0
    for store, per_day in data.items():
        for day, amount in per_day.items():
            rid += 1
            rows.append((rid, store, day, float(amount)))
    db.load_table(
        "sales",
        [("rid", "int"), ("store", "int"), ("dweek", "varchar"),
         ("salesamt", "real")],
        rows, primary_key=["rid"])
    return db


@pytest.fixture
def employee_db(db: Database) -> Database:
    """The companion paper's four-employee example (its Table 2)."""
    rows = [
        (1, "M", "Single", 30000.0),
        (2, "F", "Single", 50000.0),
        (3, "F", "Married", 40000.0),
        (4, "M", "Single", 45000.0),
    ]
    db.load_table(
        "employee",
        [("employeeid", "int"), ("gender", "varchar"),
         ("maritalstatus", "varchar"), ("salary", "real")],
        rows, primary_key=["employeeid"])
    return db
