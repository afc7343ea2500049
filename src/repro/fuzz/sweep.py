"""One driver for the chaos sweeps.

The fault sweep (:mod:`repro.fuzz.crash`), the cancel sweep
(:mod:`repro.fuzz.cancelsweep`) and the view-maintenance sweep
(:mod:`repro.fuzz.views`) differ only in what they inject and which
contract they check afterwards.  Everything around that lives here
once:

* the backend x storage variant matrix (:data:`BACKENDS`,
  :data:`STORAGES`, :func:`variant_db`), which the differential runner
  uses too;
* :class:`LeakOracle` -- temp tables, the catalog fingerprint (with
  rollback), stray store files and live page stores;
* :class:`Finding` / :class:`SweepStats`, what every sweep reports;
* :func:`sample_indexes`, the hit indexes a sweep arms an injection
  at;
* :func:`run_query`, which classifies a run as rows, a typed
  :class:`~repro.errors.ReproError` or an untyped escape;
* :class:`Sweep`, the case x variant loop a policy plugs into by
  implementing :meth:`Sweep.sweep_variant`.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, ContextManager, Iterable, Iterator, Mapping,
                    NamedTuple, Optional, Sequence)

from repro.api.database import Database
from repro.core.execute import RetryPolicy, run_resilient
from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase
from repro.storage import engine as storage_engine

#: Execution paths.
BACKENDS = ("serial", "thread")

#: Table substrates.
STORAGES = ("memory", "disk")

#: Engine options per backend: ``serial`` is one worker; ``thread`` is
#: two workers with a zero row threshold, so every eligible
#: aggregation takes the hash-partitioned path even on the fuzzer's
#: tiny tables.
_BACKEND_KW: dict[str, dict[str, Any]] = {
    "serial": {"parallel_workers": 1},
    "thread": {"parallel_workers": 2, "parallel_row_threshold": 0},
}

#: Buffer-pool capacity for disk variants: small enough that the
#: fuzzer's tables still evict pages, so the pool's replacement path
#: is inside the net, not just the happy path.
_STORAGE_POOL_PAGES = 8

#: Retries should not slow a sweep down.
_NO_BACKOFF = RetryPolicy(backoff_seconds=0.0)


class Variant(NamedTuple):
    """One cell of the backend x storage matrix."""

    backend: str
    storage: str

    def __str__(self) -> str:
        return f"{self.storage}/{self.backend}"


def _load_db(case: FuzzCase, **db_kwargs: Any) -> Database:
    db = Database(**db_kwargs)
    db.load_table(case.table, list(case.columns),
                  [list(row) for row in case.rows])
    return db


class StoreLeakError(Exception):
    """A disk variant left stray files or a live store behind."""

    def __init__(self, leaks: list[tuple[str, str]]) -> None:
        super().__init__("; ".join(f"{problem}: {detail}"
                                   for problem, detail in leaks))
        self.leaks = leaks


@contextmanager
def variant_db(case: FuzzCase, backend: str = "serial",
               storage: str = "memory",
               **db_kwargs: Any) -> Iterator[Database]:
    """``case`` loaded into a database of one matrix variant.

    A disk variant lives in a fresh temp directory with a tiny buffer
    pool.  The database is closed on exit; after a clean exit the
    store must pass :meth:`LeakOracle.store_leaks`, otherwise
    :class:`StoreLeakError` is raised.  The directory is removed
    either way.
    """
    kwargs = {**_BACKEND_KW[backend], **db_kwargs}
    path: Optional[str] = None
    if storage == "disk":
        path = tempfile.mkdtemp(prefix="repro-fuzz-store-")
        kwargs.update(storage="disk", storage_path=path,
                      pool_pages=_STORAGE_POOL_PAGES)
    try:
        db = _load_db(case, **kwargs)
        try:
            yield db
        finally:
            db.close()
        if path is not None:
            leaks = LeakOracle.store_leaks(path)
            if leaks:
                raise StoreLeakError(leaks)
    finally:
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One broken invariant: the case, where in the sweep it broke
    (variant, injection site and hit index, DML step, ...) and what
    broke."""

    case: FuzzCase
    where: str
    problem: str
    detail: str = ""

    def describe(self) -> str:
        text = (f"seed={self.case.seed} case={self.case.index} "
                f"({self.case.family}) [{self.where}]: {self.problem}")
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class SweepStats:
    """Aggregate outcome of a sweep.  Each policy counts into the
    fields it uses and names them in :attr:`Sweep.counters`."""

    cases: int = 0
    #: (case, variant) runs swept; for the views sweep, runs whose
    #: view was accepted.
    variants: int = 0
    #: Injections armed: faults or cancellation shots.
    injections: int = 0
    #: Runs that returned the reference rows despite a fault.
    recovered: int = 0
    #: Runs (and reopens) that surfaced a typed ReproError cleanly.
    clean_errors: int = 0
    #: Shots that raised a clean typed QueryCancelledError.
    cancelled: int = 0
    #: Shots whose armed crossing was never reached (safepoint counts
    #: on the disk backend drift with cache state across shots).
    skipped: int = 0
    #: View runs rejected as an unsupported shape -- an outcome, not a
    #: failure.
    rejected: int = 0
    #: Bitwise view-vs-recompute comparisons.
    checks: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def finding(self, case: FuzzCase, where: str, problem: str,
                detail: str = "") -> None:
        self.findings.append(Finding(case, where, problem, detail))

    def summary(self, counters: Sequence[tuple[str, str]]) -> str:
        counts = "".join(f"{getattr(self, name)} {label}, "
                         for name, label in counters)
        return (f"swept {self.cases} case(s): {counts}"
                f"{len(self.findings)} finding(s)")


# ----------------------------------------------------------------------
class LeakOracle:
    """A run may leave nothing behind.

    Built over a database before the runs it guards; :meth:`check`
    after each run reports tables that were not there before and any
    change to the catalog fingerprint.  With ``rollback`` the catalog
    is then restored, so later runs of the case start from the
    intended baseline.  The kill-point sweep turns it off: a rollback
    would write to the store whose recovery it checks next.
    :meth:`store_leaks` is the store-level half, which
    :func:`variant_db` applies to every disk variant.
    """

    def __init__(self, db: Database, rollback: bool = True) -> None:
        self.db = db
        self.rollback = rollback
        # The savepoint pins the baseline objects so the identity-based
        # fingerprint cannot suffer id() recycling.
        self._baseline = db.catalog.savepoint()
        self._fingerprint = db.catalog.fingerprint()
        self._names = set(db.table_names())

    def check(self, stats: SweepStats, case: FuzzCase,
              where: str) -> None:
        leaked = sorted(name for name in self.db.table_names()
                        if name not in self._names)
        if leaked:
            stats.finding(case, where, "temp tables leaked",
                          ", ".join(leaked))
        if self.db.catalog.fingerprint() != self._fingerprint:
            stats.finding(case, where,
                          "catalog changed across the plan boundary")
            if self.rollback:
                self.db.catalog.rollback(self._baseline)

    @staticmethod
    def store_leaks(path: str) -> list[tuple[str, str]]:
        """``(problem, detail)`` for each leak of the store at
        ``path``: files beyond the store's own three, or a store still
        registered as open (abandoned here so it cannot outlive the
        check)."""
        leaks = []
        stray = storage_engine.stray_files(path)
        if stray:
            leaks.append(("stray store files leaked", ", ".join(stray)))
        if os.path.abspath(path) in storage_engine.live_store_paths():
            leaks.append(("live page store leaked", path))
            storage_engine.force_close_all()
        return leaks


def sample_indexes(hits: Mapping[str, int],
                   sites: Iterable[str]) -> list[tuple[str, int]]:
    """The ``(site, hit index)`` pairs to arm an injection at, given a
    probe's hit counts: the first, middle and last crossing of each
    site.  Hot sites like ``page-fetch`` are crossed many times per
    query, and arming at every crossing buys nothing."""
    pairs = []
    for site in sites:
        count = hits.get(site, 0)
        if count:
            pairs += [(site, index)
                      for index in sorted({0, count // 2, count - 1})]
    return pairs


@dataclass
class Outcome:
    """How one run ended: rows, or the exception it raised."""

    rows: Optional[list] = None
    error: Optional[Exception] = None

    @property
    def escaped(self) -> bool:
        """An untyped exception got out of the runtime."""
        return self.error is not None \
            and not isinstance(self.error, ReproError)

    @property
    def detail(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


def run_query(db: Database, sql: str) -> Outcome:
    """Run ``sql`` through the resilient runtime and classify how it
    ended."""
    try:
        return Outcome(rows=run_resilient(
            db, sql, retry=_NO_BACKOFF).result.to_rows())
    except Exception as exc:  # noqa: BLE001 - escapes are findings
        return Outcome(error=exc)


def probe_rows(stats: SweepStats, case: FuzzCase, where: str,
               db: Database, sql: str,
               probe: ContextManager) -> Optional[list]:
    """The reference run, under ``probe`` (an activated counting
    injector or token).  ``None`` when the case itself raises a typed
    error: degenerate cases are an acceptable outcome."""
    with probe:
        outcome = run_query(db, sql)
    if outcome.escaped:
        stats.finding(case, where, "untyped error escaped the reference "
                      "run", outcome.detail)
    return outcome.rows


# ----------------------------------------------------------------------
class Sweep:
    """A sweep policy: what it injects into one variant's database and
    which contract it checks.  Subclasses set the class attributes and
    implement :meth:`sweep_variant`; the case x variant loop, the
    databases and their store-leak checks are shared."""

    #: The ``python -m repro.fuzz`` switch that selects the sweep.
    flag = ""
    #: CLI options honoured besides the case stream (``--seed``,
    #: ``--budget``, ``--max-seconds``, ``--family``, ``--quiet``);
    #: the CLI rejects every other one.
    options: frozenset[str] = frozenset({"backend", "storage"})
    #: Injectable bugs for the sweep's blindness self-test.
    bugs: tuple[str, ...] = ()
    #: The matrix swept when the caller names no backends/storages.
    backends: tuple[str, ...] = BACKENDS
    storages: tuple[str, ...] = STORAGES
    #: ``(SweepStats field, label)`` pairs the summary reports.
    counters: tuple[tuple[str, str], ...] = ()

    def sweep_variant(self, case: FuzzCase, stats: SweepStats,
                      db: Database, variant: Variant) -> None:
        raise NotImplementedError

    @contextmanager
    def injected(self, bug: Optional[str]) -> Iterator[None]:
        """Wire ``bug`` into the code under test for the duration."""
        if bug is not None:
            raise ValueError(f"{self.flag} has no injectable bugs")
        yield

    def sweep_case(self, case: FuzzCase, stats: SweepStats,
                   backends: Sequence[str] = (),
                   storages: Sequence[str] = (),
                   inject_bug: Optional[str] = None) -> None:
        """Sweep one case across every backend x storage variant."""
        with self.injected(inject_bug):
            stats.cases += 1
            for storage in storages or self.storages:
                for backend in backends or self.backends:
                    variant = Variant(backend, storage)
                    with _collector_paused(), \
                            swept_db(case, stats, variant,
                                     str(variant)) as db:
                        self.sweep_variant(case, stats, db, variant)

    def sweep_cases(self, cases: Iterable[FuzzCase],
                    stats: Optional[SweepStats] = None,
                    **kwargs: Any) -> SweepStats:
        """Sweep an iterable of cases; returns the (given) stats."""
        stats = stats or SweepStats()
        for case in cases:
            self.sweep_case(case, stats, **kwargs)
        return stats


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one variant.

    A disk store caches materialized columns weakly, and a failed
    run's traceback cycle keeps the columns it touched alive until the
    collector runs.  Whether a later run of the variant crosses the
    ``page-fetch`` safepoint (and how often) would otherwise depend on
    when a collection happens to fall, so hit counts -- and the
    injections armed from them -- would not be reproducible.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def swept_db(case: FuzzCase, stats: SweepStats, variant: Variant,
             where: str) -> Iterator[Database]:
    """:func:`variant_db` for a sweep: store leaks become findings at
    ``where``."""
    try:
        with variant_db(case, variant.backend, variant.storage) as db:
            yield db
    except StoreLeakError as exc:
        for problem, detail in exc.leaks:
            stats.finding(case, where, problem, detail)
