"""The three benchmark workloads.

Each workload builds its inputs from the seed alone (the ``datagen``
loaders and, for ``mixed-rw``, a seeded op generator), so one seed
always gives the same data and the same op sequence.  An op's
``run()`` is what the benchmark times; ``answer()`` and ``verify()``
check the outcome afterwards, untimed, against :mod:`perfbench.oracle`.

* ``paper-tables``: every distinct cell of SIGMOD Tables 4/5/6 and
  DMKD Table 3 at the configured scale, on the intra-query parallel
  path.  The widest row's Hpct/Hagg cells belong to ``hpct-wide``.
* ``hpct-wide``: the widest Table 5/6 row (``sales dept,store``,
  ~1,800 result columns at 2,000 rows) beside its Vpct and OLAP forms.
* ``mixed-rw``: one closed-loop session through the query service on a
  disk database larger than its buffer pool, with a materialized view
  and a write share that keeps the fact table's size fixed.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.api.database import Database
from repro.bench.workloads import (DMKD_CENSUS_QUERIES,
                                   DMKD_TRANSACTION_QUERIES,
                                   SIGMOD_QUERIES, QuerySpec)
from repro.core import execute as core_execute
from repro.core.hagg import HorizontalAggStrategy
from repro.core.horizontal import HorizontalStrategy
from repro.core.vertical import VerticalStrategy
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)
from repro.datagen import sales as sales_gen
from repro.olap import windowgen
from repro.service import QueryService

from perfbench.oracle import Answer, Reference, Spec, answer_of

#: Forms whose latencies make up ``query_s``.
READ_FORMS = ("vpct", "hpct", "hagg", "olap", "view")


@dataclass
class Outcome:
    """What one op returned: the engine's result, the widest parallel
    fan-out it used, and (through the service) its queue wait."""

    result: Any
    parallel_degree: int = 1
    queue_wait: Optional[float] = None


@dataclass
class Op:
    """One timed operation: ``run`` is timed; ``answer`` reduces its
    outcome for ``verify``, which returns an error or None."""

    form: str
    label: str
    run: Callable[[], Outcome]
    answer: Callable[[Outcome], Any]
    verify: Callable[[Any], Optional[str]]


def table_arrays(db: Database, name: str) -> dict[str, np.ndarray]:
    """A loaded table's columns as the generated numpy arrays."""
    table = db.table(name)
    return {col.name: np.asarray(table.column(col.name).values)
            for col in table.schema.columns}


def _spec(query: QuerySpec) -> Spec:
    return Spec(query.table, query.measure, query.totals, query.by)


def _percentage_run(db: Database, sql: str, strategy=None
                    ) -> Callable[[], Outcome]:
    def run() -> Outcome:
        report = core_execute.run_resilient(db, sql, strategy=strategy,
                                            allow_fallback=False)
        return Outcome(report.result, report.parallel_degree)
    return run


def _olap_run(db: Database, query: QuerySpec) -> Callable[[], Outcome]:
    def run() -> Outcome:
        sql = windowgen.generate_olap_percentage_query(query.vpct_sql())
        db.executor.reset_parallel_observation()
        result = db.execute(sql)
        return Outcome(result, db.executor.parallel_degree_observed())
    return run


def _checks(form: str, query: QuerySpec, reference: Callable[[], Reference]
            ) -> tuple[Callable[[Outcome], Answer],
                       Callable[[Answer], Optional[str]]]:
    """``(answer, verify)`` for a read of ``query`` in ``form``;
    ``reference()`` is called at check time, so it may change between
    ops (``mixed-rw`` writes)."""
    spec = _spec(query)
    if form in ("vpct", "olap", "view"):
        n_keys = len(query.group_by_all)
        return (lambda out: answer_of(out.result, n_keys),
                lambda answer: reference().check_vpct(spec, answer))
    percentage = form == "hpct"
    return (lambda out: answer_of(out.result, len(query.totals)),
            lambda answer: reference().check_horizontal(spec, answer,
                                                        percentage))


def _read_op(form: str, query: QuerySpec, db: Database,
             reference: Callable[[], Reference], label: str = "",
             strategy=None) -> Op:
    if form == "olap":
        run = _olap_run(db, query)
    else:
        sql = query.hpct_sql() if form == "hpct" else \
            query.hagg_sql() if form == "hagg" else query.vpct_sql()
        run = _percentage_run(db, sql, strategy)
    answer, verify = _checks(form, query, reference)
    return Op(form, label or f"{form} {query.label}", run, answer, verify)


def _warm(db: Database, table: str, columns) -> None:
    """Fill the encoding cache for ``columns`` of ``table``."""
    measure = "salary" if table == "employee" else \
        "wage" if table == "uscensus" else "salesamt"
    for column in columns:
        db.execute(f"SELECT {column}, sum({measure}) FROM {table} "
                   f"GROUP BY {column}")


def _dims(queries) -> dict[str, set]:
    dims: dict[str, set] = {}
    for query in queries:
        dims.setdefault(query.table, set()).update(query.group_by_all)
    return dims


class Workload:
    """Base: ``setup()`` builds fresh state from the seed, ``ops()``
    yields the op sequence from its start, ``teardown()`` releases."""

    name = ""
    #: Ops a ``--trace 1`` run traces and then replays untraced.
    trace_ops = 0
    #: A timed run stops only after a multiple of this many ops, so
    #: every run measures whole passes of one fixed mix (None: the op
    #: stream is a seeded random mix and may stop after any op).
    pass_ops: Optional[int] = None
    #: Report latencies at reference host speed (see ``run.host_kernel``).
    #: The kernel runs on the benchmark's thread, so it tracks the
    #: speed of ops run there, not of ops the query service runs on
    #: its own threads.
    normalize = True

    def __init__(self, seed: int):
        self.seed = seed
        self.user_bytes_written = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def databases(self) -> list[Database]:
        raise NotImplementedError

    def final_check(self) -> Optional[str]:
        return None

    def sizes(self) -> dict[str, Any]:
        sizes: dict[str, Any] = {}
        for i, db in enumerate(self.databases()):
            info = db.encoding_cache_info()
            sizes[f"db{i}.tables"] = {
                name: db.table(name).n_rows for name in db.table_names()}
            sizes[f"db{i}.encoding_cache_bytes"] = \
                f"{info['bytes']} of {info['max_bytes']}"
        return sizes


class PaperTables(Workload):
    """SIGMOD Tables 4/5/6 + DMKD Table 3, one pass = 122 cells."""

    name = "paper-tables"
    trace_ops = pass_ops = 122
    WORKERS = 2
    EMPLOYEE, SALES, CENSUS, TL = 100_000, 300_000, 50_000, 100_000

    def setup(self) -> None:
        seed = self.seed * 10
        self.sigmod = Database(parallel_workers=self.WORKERS)
        load_employee(self.sigmod, self.EMPLOYEE, seed=seed + 1)
        load_sales(self.sigmod, self.SALES, seed=seed + 2)
        self.dmkd = Database(parallel_workers=self.WORKERS)
        load_census(self.dmkd, self.CENSUS, seed=seed + 3)
        load_transaction_line(self.dmkd, self.TL, seed=seed + 4)
        self.doubled = Database(parallel_workers=self.WORKERS)
        load_transaction_line(self.doubled, 2 * self.TL, seed=seed + 5)
        for db, queries in ((self.sigmod, SIGMOD_QUERIES),
                            (self.dmkd, DMKD_CENSUS_QUERIES
                             + DMKD_TRANSACTION_QUERIES),
                            (self.doubled, DMKD_TRANSACTION_QUERIES)):
            for table, columns in _dims(queries).items():
                _warm(db, table, sorted(columns))
        self._refs: dict[int, Reference] = {}
        self._pass = self._build_pass()

    def databases(self) -> list[Database]:
        return [self.sigmod, self.dmkd, self.doubled]

    def _reference(self, db: Database) -> Callable[[], Reference]:
        def get() -> Reference:
            if id(db) not in self._refs:
                self._refs[id(db)] = Reference({
                    name: table_arrays(db, name)
                    for name in db.table_names()})
            return self._refs[id(db)]
        return get

    def _build_pass(self) -> list[Op]:
        sigmod_ref = self._reference(self.sigmod)
        vertical = [("(1) best", VerticalStrategy()),
                    ("(2) mismatched idx",
                     VerticalStrategy(matching_indexes=False)),
                    ("(3) update", VerticalStrategy(use_update=True)),
                    ("(4) Fj from F", VerticalStrategy(fj_from_fk=False))]
        vpct, hpct, olap, hagg = [], [], [], []
        for query in SIGMOD_QUERIES:
            for name, strategy in vertical:
                vpct.append(_read_op("vpct", query, self.sigmod,
                                     sigmod_ref,
                                     f"T4 {query.label} {name}",
                                     strategy))
            if "dept,store" not in query.label:
                for source in ("FV", "F"):
                    hpct.append(_read_op(
                        "hpct", query, self.sigmod, sigmod_ref,
                        f"T5 {query.label} from {source}",
                        HorizontalStrategy(source=source)))
            olap.append(_read_op("olap", query, self.sigmod, sigmod_ref,
                                 f"T6 {query.label} OLAP"))
        dmkd = [HorizontalAggStrategy(source="F"),
                HorizontalAggStrategy(source="FV"),
                HorizontalStrategy(source="F"),
                HorizontalStrategy(source="FV")]
        for db, queries, scale in (
                (self.dmkd, DMKD_CENSUS_QUERIES + DMKD_TRANSACTION_QUERIES,
                 ""),
                (self.doubled, DMKD_TRANSACTION_QUERIES, " (2x)")):
            for query in queries:
                for strategy in dmkd:
                    hagg.append(_read_op(
                        "hagg", query, db, self._reference(db),
                        f"D3 {query.label}{scale} {strategy.describe()}",
                        strategy))
        return vpct + hpct + olap + hagg

    def ops(self) -> Iterator[Op]:
        return itertools.cycle(self._pass)


class HpctWide(Workload):
    """The 10,000-column row: Hpct and Hagg ``BY dept, store`` beside
    the row's Vpct and OLAP forms, serially on 2,000 sales rows.

    2,000 rows give ~1,800 result columns and ~3 s per Hpct, so a run
    holds several wide samples; at 5,000 rows (~3,950 columns, ~7 s)
    a run held two or three and their median spread more than the
    bound allows."""

    name = "hpct-wide"
    trace_ops = pass_ops = 42
    SALES = 2_000
    #: Vpct/OLAP pairs per wide query: cheap, so several samples.
    NARROW_REPEATS = 10

    def setup(self) -> None:
        self.db = Database()
        load_sales(self.db, self.SALES, seed=self.seed * 10 + 2)
        row = SIGMOD_QUERIES[-1]
        _warm(self.db, "sales", sorted(row.group_by_all))
        narrow = QuerySpec("warm-up", "sales", "salesamt", row.totals,
                           ("dept",))
        core_execute.run_percentage_query(self.db, narrow.hpct_sql())
        self._ref: Optional[Reference] = None
        self._pass = self._build_pass(row)

    def databases(self) -> list[Database]:
        return [self.db]

    def _reference(self) -> Reference:
        if self._ref is None:
            self._ref = Reference({"sales": table_arrays(self.db,
                                                         "sales")})
        return self._ref

    def _build_pass(self, row: QuerySpec) -> list[Op]:
        narrow = [_read_op(form, row, self.db, self._reference)
                  for form in ("vpct", "olap")] * self.NARROW_REPEATS
        return ([_read_op("hpct", row, self.db, self._reference)]
                + narrow
                + [_read_op("hagg", row, self.db, self._reference)]
                + narrow)

    def ops(self) -> Iterator[Op]:
        return itertools.cycle(self._pass)


class MixedRW(Workload):
    """A closed-loop session: 80% narrow reads, 10% reads of a
    materialized view's query, 10% write scripts."""

    name = "mixed-rw"
    #: A pass is three blocks of ten ops: 4 reads, a write, 4 reads, a
    #: view read.  Its 24 reads are the six SIGMOD rows other than the
    #: view's and the 10,000-column one, in all four forms, so every
    #: pass has the same mix and the same read after each write.
    BLOCK = ("read",) * 4 + ("write",) + ("read",) * 4 + ("view",)
    pass_ops = 30
    trace_ops = 90
    #: Ops run on the service's worker threads (see ``Workload``).
    normalize = False
    SALES, EMPLOYEE = 60_000, 100_000
    WORKERS = 2
    BATCH = 200
    VIEW_QUERY = SIGMOD_QUERIES[5]        # sales monthNo | dweek

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        self.workdir = workdir
        self.store: Optional[str] = None

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="mixed-rw-", dir=self.workdir)
        self.db = Database(storage="disk", storage_path=self.store)
        load_sales(self.db, self.SALES, seed=self.seed * 10 + 2)
        load_employee(self.db, self.EMPLOYEE, seed=self.seed * 10 + 1)
        self.db.execute(f"CREATE MATERIALIZED VIEW pct_view AS "
                        f"{self.VIEW_QUERY.vpct_sql()}")
        self.db.checkpoint()
        self.table_pages = self.db.storage_info()["allocated_pages"]
        self.service = QueryService(self.db, workers=self.WORKERS)
        self.session = self.service.create_session()
        for table, columns in _dims(SIGMOD_QUERIES).items():
            _warm(self.db, table, sorted(columns))
        self.employee_ref = Reference(
            {"employee": table_arrays(self.db, "employee")})
        self.sales = table_arrays(self.db, "sales")
        self.sales_ref = Reference({"sales": self.sales})
        self.user_bytes_written = 0

    def teardown(self) -> None:
        self.session.close()
        self.service.shutdown()
        self.db.close()
        shutil.rmtree(self.store, ignore_errors=True)

    def databases(self) -> list[Database]:
        return [self.db]

    def _reference(self, query: QuerySpec) -> Callable[[], Reference]:
        if query.table == "employee":
            return lambda: self.employee_ref
        return lambda: self.sales_ref

    def _submit(self, sql: Callable[[], str]) -> Callable[[], Outcome]:
        def run() -> Outcome:
            report = self.session.execute(sql())
            return Outcome(report, report.parallel_degree,
                           report.queue_wait_seconds)
        return run

    def _service_read(self, form: str, query: QuerySpec) -> Op:
        if form == "olap":
            sql = lambda: windowgen.generate_olap_percentage_query(
                query.vpct_sql())
        else:
            text = query.hpct_sql() if form == "hpct" else \
                query.hagg_sql() if form == "hagg" else query.vpct_sql()
            sql = lambda: text
        answer, verify = _checks(form, query, self._reference(query))
        return Op(form, f"{form} {query.label}", self._submit(sql),
                  lambda out: answer(Outcome(out.result.results[0])),
                  verify)

    def ops(self) -> Iterator[Op]:
        """The op sequence from its start (see ``BLOCK``): the seed
        picks the rows each write inserts; a write also deletes the
        oldest 200 transactions."""
        reads = [self._service_read(form, query)
                 for query in SIGMOD_QUERIES
                 if query is not self.VIEW_QUERY
                 and "dept,store" not in query.label
                 for form in ("vpct", "hpct", "hagg", "olap")]
        view = self._service_read("view", self.VIEW_QUERY)
        rng = np.random.default_rng(self.seed)
        next_id, oldest = self.SALES + 1, 1
        for kind in itertools.cycle(self.BLOCK):
            if kind == "read":
                yield reads[0]
                reads.append(reads.pop(0))
            elif kind == "view":
                yield view
            else:
                yield self._write_op(rng, next_id, oldest)
                next_id += self.BATCH
                oldest += self.BATCH

    def _write_op(self, rng: np.random.Generator, first_id: int,
                  oldest: int) -> Op:
        n = self.BATCH
        rows = {"transactionid": np.arange(first_id, first_id + n)}
        for column, cardinality in sales_gen.CARDINALITIES.items():
            rows[column] = rng.integers(1, cardinality + 1, size=n)
        rows["salesamt"] = np.round(rng.uniform(1.0, 500.0, size=n), 2)
        order = list(self.sales)
        values = ", ".join(
            "(" + ", ".join(repr(float(rows[c][i])) if c == "salesamt"
                            else str(int(rows[c][i])) for c in order)
            + ")" for i in range(n))
        cutoff = oldest + n
        script = (f"INSERT INTO sales ({', '.join(order)}) "
                  f"VALUES {values}; "
                  f"DELETE FROM sales WHERE transactionid < {cutoff}")

        def verify(report) -> Optional[str]:
            if report.results != [n, n]:
                return f"write script returned {report.results}"
            keep = self.sales["transactionid"] >= cutoff
            self.sales = {c: np.concatenate([self.sales[c][keep],
                                             rows[c].astype(
                                                 self.sales[c].dtype)])
                          for c in order}
            self.sales_ref = Reference({"sales": self.sales})
            self.user_bytes_written += sum(
                self.sales[c].itemsize for c in order) * n
            return None

        return Op("write", f"write {first_id}", self._submit(
            lambda: script), lambda out: out.result, verify)

    def final_check(self) -> Optional[str]:
        """The view must equal a recompute bit for bit."""
        sql = self.VIEW_QUERY.vpct_sql()
        served = self.db.execute(sql).to_rows()
        recomputed = core_execute.run_percentage_query(
            self.db, sql, use_views=False).to_rows()
        if sorted(served) != sorted(recomputed):
            return "materialized view differs from its recompute"
        return None

    def sizes(self) -> dict[str, Any]:
        sizes = super().sizes()
        info = self.db.storage_info()
        sizes["storage.table_pages_at_setup"] = (
            f"{self.table_pages} of {info['pool']['capacity']} pool pages")
        sizes["storage.page_size"] = info["page_size"]
        return sizes


WORKLOADS = {cls.name: cls for cls in (PaperTables, HpctWide, MixedRW)}
