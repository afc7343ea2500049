"""The crash-consistency sweep: every fault, every statement boundary.

A policy of the shared sweep driver (:mod:`repro.fuzz.sweep`).  For
each fuzz case and variant the sweep first runs the query cleanly
under a counting :class:`~repro.engine.faults.FaultInjector` to learn
the reference rows and how many times each injection site is hit.  It
then re-runs the query once per ``(site, hit index, fault kind)``
combination and asserts the resilient runtime's contract after every
single injection:

* the run either returns the reference rows (the retry loop absorbed a
  transient fault, or strategy fallback re-planned around a resource
  fault) or raises a *typed* :class:`~repro.errors.ReproError` --
  nothing else may escape;
* a one-shot transient fault at a statement boundary **must** be
  absorbed (that is exactly what the retry loop is for);
* a permanent simulated crash **must** surface as a clean error;
* in every outcome the catalog fingerprint is unchanged -- same names
  bound to the same immutable objects, so base tables are untouched
  and zero temp tables leak.

A memory variant sweeps every statement boundary and the operator
sites; a disk variant sweeps the WAL/buffer-pool kill points instead
and also checks recovery after a simulated kill (see
:func:`_kill_point`).  A sweep with no findings is the
acceptance criterion for the savepoint/retry/fallback machinery.
"""

from __future__ import annotations

from typing import Optional

from repro.api.database import Database
from repro.engine import faults
from repro.engine.faults import FaultInjector, FaultSpec
from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase
from repro.fuzz.sweep import (_STORAGE_POOL_PAGES, LeakOracle, Outcome,
                              Sweep, SweepStats, Variant, probe_rows,
                              run_query, sample_indexes, swept_db)

#: ``(kind, times)`` grid: a one-shot transient (the retry loop must
#: absorb it), a one-shot resource fault (fallback may absorb it), and
#: a permanent crash (must surface as a clean error).
FAULT_KINDS = (("transient", 1), ("resource", 1), ("crash", None))

#: Operator sites swept at hit index 0 when the reference run touched
#: them (statement boundaries are swept exhaustively).
OPERATOR_SITES = ("join-build", "group-by", "pivot", "encoding-cache")

#: The WAL/buffer-pool kill points, in commit-protocol order: a torn
#: page image, a crash just before the commit record is durable, and a
#: crash after durability but before the in-memory publish.
STORAGE_SITES = ("storage-page-write", "storage-wal-fsync",
                 "storage-commit")

#: ``(kind, times)`` grid for storage sites.  Deliberately one-shot
#: only: the resilient runtime's rollback re-commits through the very
#: same sites, so a *permanent* fault there would fault the rollback
#: too and no in-process invariant could hold -- real kills are
#: modeled instead by abandoning the store and reopening it.
STORAGE_FAULT_KINDS = (("transient", 1), ("crash", 1))


class FaultSweep(Sweep):
    """Fault injection at statement/operator sites (memory) or at the
    storage kill points (disk)."""

    flag = "--fault-sweep"
    backends = ("serial",)
    storages = ("memory",)
    counters = (("injections", "injection(s)"),
                ("recovered", "recovered"),
                ("clean_errors", "clean error(s)"))

    def sweep_variant(self, case: FuzzCase, stats: SweepStats,
                      db: Database, variant: Variant) -> None:
        sql = case.query_sql()
        probe = FaultInjector()
        if variant.storage == "disk":
            # Loading ran before the probe activated, so load-time
            # commits are outside the swept range.
            reference = probe_rows(stats, case, str(variant), db, sql,
                                   faults.active(probe))
            for site, index in sample_indexes(probe.hits,
                                              STORAGE_SITES):
                for kind, times in STORAGE_FAULT_KINDS:
                    stats.injections += 1
                    _kill_point(case, stats, variant, sql, reference,
                                FaultSpec(site, error=kind, at=index,
                                          times=times))
            return
        oracle = LeakOracle(db)
        reference = probe_rows(stats, case, str(variant), db, sql,
                               faults.active(probe))
        sites = [("statement", i)
                 for i in range(probe.hits.get("statement", 0))]
        sites += [(site, 0) for site in OPERATOR_SITES
                  if probe.hits.get(site)]
        for site, index in sites:
            for kind, times in FAULT_KINDS:
                stats.injections += 1
                spec = FaultSpec(site, error=kind, at=index, times=times)
                where = _where(variant, spec)
                with faults.active(FaultInjector([spec])):
                    outcome = run_query(db, sql)
                _check_outcome(case, stats, where, spec, outcome,
                               reference)
                oracle.check(stats, case, where)


def _kill_point(case: FuzzCase, stats: SweepStats, variant: Variant,
                sql: str, reference: Optional[list],
                spec: FaultSpec) -> None:
    """One kill-point injection on a fresh store, checked twice:

    * **in process** -- the run returns the reference rows or raises a
      typed error, temp tables don't leak, and the catalog fingerprint
      is unchanged (the rollback's ``restore`` record heals the
      WAL/memory divergence a mid-commit fault leaves behind);
    * **across a kill** -- the store is then abandoned *without* a
      checkpoint (exactly what a dead process leaves) and reopened:
      recovery must reproduce the pre-query committed tables
      bit-identically, or fail with a typed error, and the store
      directory must hold nothing but its three files.
    """
    where = _where(variant, spec)
    with swept_db(case, stats, variant, where) as db:
        committed = {name: db.table(name).to_rows()
                     for name in db.table_names()}
        oracle = LeakOracle(db, rollback=False)
        with faults.active(FaultInjector([spec])):
            outcome = run_query(db, sql)
        _check_outcome(case, stats, where, spec, outcome, reference)
        oracle.check(stats, case, where)
        db.storage_engine.abandon()
        _check_reopen(case, stats, where, db.storage_engine.path,
                      committed)


def _where(variant: Variant, spec: FaultSpec) -> str:
    return f"{variant} {spec.site}#{spec.at} {spec.error}"


def _check_outcome(case: FuzzCase, stats: SweepStats, where: str,
                   spec: FaultSpec, outcome: Outcome,
                   reference: Optional[list]) -> None:
    """The fault contract for one injected run."""
    if outcome.escaped:
        stats.finding(case, where, "untyped error escaped the runtime",
                      outcome.detail)
    elif outcome.error is None:
        if reference is not None and outcome.rows != reference:
            stats.finding(case, where,
                          "recovered run returned different rows",
                          f"{outcome.rows!r} != {reference!r}")
        else:
            stats.recovered += 1
        if spec.times is None:
            # A permanent fault fires on every hit; the run returning
            # rows means the site was silently skipped on the rerun.
            stats.finding(case, where,
                          "permanent crash fault did not surface")
    else:
        stats.clean_errors += 1
        if spec.error == "transient" and spec.site == "statement" \
                and reference is not None:
            stats.finding(case, where,
                          "retry loop failed to absorb a one-shot "
                          "transient fault", outcome.detail)


def _check_reopen(case: FuzzCase, stats: SweepStats, where: str,
                  path: str, committed: dict) -> None:
    try:
        db = Database(storage="disk", storage_path=path,
                      pool_pages=_STORAGE_POOL_PAGES)
    except ReproError:
        # A typed refusal to open is a clean outcome (recovery
        # detected damage it cannot repair) -- but only if it is
        # typed; anything else escaped through the except below.
        stats.clean_errors += 1
        return
    except Exception as exc:  # noqa: BLE001 - the invariant
        stats.finding(case, where, "untyped error escaped recovery",
                      f"{type(exc).__name__}: {exc}")
        return
    try:
        names = set(db.table_names())
        expected = set(committed)
        if names != expected:
            stats.finding(case, where,
                          "recovered catalog lost or invented tables",
                          f"recovered {sorted(names)} != committed "
                          f"{sorted(expected)}")
            return
        for name in sorted(expected):
            if db.table(name).to_rows() != committed[name]:
                stats.finding(case, where,
                              "recovered table differs from committed "
                              "state", name)
    finally:
        db.close()


SWEEP = FaultSweep()
sweep_case = SWEEP.sweep_case
sweep_cases = SWEEP.sweep_cases
