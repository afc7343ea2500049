"""The cancel-point chaos sweep: fire cancellation at every safepoint.

A policy of the shared sweep driver (:mod:`repro.fuzz.sweep`).  For
each fuzz case and variant the sweep first runs the query cleanly
under a counting :class:`~repro.engine.cancel.CancelToken` to learn
the reference rows and how many times each safepoint is crossed.  It
then re-runs the query once per ``(safepoint, sampled hit index)``
with a token armed to cancel exactly there, and asserts the
cancellation contract after every single shot:

* the run raises a clean, typed
  :class:`~repro.errors.QueryCancelledError` (a cancellation that
  silently vanishes, surfaces as some other error, or escapes untyped
  is a finding);
* the unwind releases everything -- catalog fingerprint unchanged,
  zero temp tables leaked, zero live page stores or stray files (disk
  storage);
* a clean re-run afterwards returns rows bit-identical to the
  undisturbed reference: cancellation left no residue that changes
  answers.

Variants are the serial and thread execution paths crossed with the
memory/disk table substrates, so cancel can land
mid-partitioned-group-by and mid-page-fetch with the buffer pool
warm.  A sweep with no findings is the acceptance criterion for the
safepoint machinery.
"""

from __future__ import annotations

from typing import Optional

from repro.api.database import Database
from repro.engine import cancel as cancel_mod
from repro.engine.cancel import SAFEPOINTS, CancelToken
from repro.errors import QueryCancelledError
from repro.fuzz.generator import FuzzCase
from repro.fuzz.sweep import (LeakOracle, Sweep, SweepStats, Variant,
                              probe_rows, run_query, sample_indexes)


class CancelSweep(Sweep):
    """Cancellation shots at sampled safepoint crossings."""

    flag = "--cancel-sweep"
    counters = (("variants", "variant run(s)"),
                ("injections", "cancellation shot(s)"),
                ("cancelled", "clean cancel(s)"),
                ("skipped", "unreached"))

    def sweep_variant(self, case: FuzzCase, stats: SweepStats,
                      db: Database, variant: Variant) -> None:
        stats.variants += 1
        sql = case.query_sql()
        oracle = LeakOracle(db)
        # Warmup leg: the very first run on a database pays cold-cache
        # safepoint crossings (page fetches that later hit the buffer
        # pool, encodings not yet cached) that no later run repeats.
        # The probe must count what the *shots* will cross, so it runs
        # warm.
        run_query(db, sql)
        # Probe leg: sampling armed indexes from a completed run's
        # counts also keeps degenerate cases (whose reference run
        # raises) honest: every counted crossing happens *before* the
        # case's own error point, so an armed cancel always fires
        # first.
        probe = CancelToken()
        reference = probe_rows(stats, case, str(variant), db, sql,
                               cancel_mod.activate(probe))
        for site, index in sample_indexes(probe.hits, SAFEPOINTS):
            stats.injections += 1
            where = f"{variant} {site}#{index}"
            _shot(case, stats, db, where, sql, site, index, reference)
            # Unwind hygiene: nothing may survive the cancellation.
            oracle.check(stats, case, where)
            _rerun(case, stats, db, where, sql, reference)


def _shot(case: FuzzCase, stats: SweepStats, db: Database, where: str,
          sql: str, site: str, index: int,
          reference: Optional[list]) -> None:
    token = CancelToken()
    token.cancel_at = (site, index)
    with cancel_mod.activate(token):
        outcome = run_query(db, sql)
    # The arm point may legitimately be unreached: safepoint counts on
    # the disk backend drift a little across shots (rollbacks evict
    # cached pages, changing how many fetches a run needs).
    reached = token.hits.get(site, 0) > index
    error = outcome.error
    if isinstance(error, QueryCancelledError):
        if error.reason != "client":
            stats.finding(case, where,
                          "cancellation surfaced with the wrong reason",
                          f"expected 'client', got {error.reason!r}")
        else:
            stats.cancelled += 1
    elif outcome.escaped:
        stats.finding(case, where, "untyped error escaped the runtime",
                      outcome.detail)
    elif error is not None:
        # An unreached shot of a degenerate case is just the case's
        # own error; anything else is a finding.
        if reached:
            stats.finding(case, where, "cancellation surfaced as a "
                          "different typed error", outcome.detail)
        elif reference is None:
            stats.skipped += 1
        else:
            stats.finding(case, where, "shot failed where the "
                          "reference run succeeded", outcome.detail)
    elif reached:
        stats.finding(case, where, "armed cancellation did not fire",
                      f"query completed with {len(outcome.rows)} row(s)")
    else:
        # Count drift left the arm point unreached and the query
        # completed; it must then match the reference exactly.
        stats.skipped += 1
        if reference is not None and outcome.rows != reference:
            stats.finding(case, where,
                          "unreached shot returned different rows",
                          f"{outcome.rows!r} != {reference!r}")


def _rerun(case: FuzzCase, stats: SweepStats, db: Database, where: str,
           sql: str, reference: Optional[list]) -> None:
    """The engine must be fully usable after a cancel, and the answer
    must match the undisturbed reference bit-for-bit."""
    outcome = run_query(db, sql)
    if outcome.escaped:
        stats.finding(case, where, "untyped error escaped the re-run",
                      outcome.detail)
    elif reference is None:
        return
    elif outcome.error is not None:
        stats.finding(case, where,
                      "clean re-run after cancellation failed",
                      outcome.detail)
    elif outcome.rows != reference:
        stats.finding(case, where,
                      "re-run after cancellation returned different "
                      "rows", f"{outcome.rows!r} != {reference!r}")


SWEEP = CancelSweep()
sweep_case = SWEEP.sweep_case
sweep_cases = SWEEP.sweep_cases
