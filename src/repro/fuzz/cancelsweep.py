"""The cancel-point chaos sweep: fire cancellation at every safepoint.

For each fuzz case the sweep first runs the query cleanly under a
counting :class:`~repro.engine.cancel.CancelToken` to learn the
reference rows and how many times each safepoint is crossed.  It then
re-runs the query once per ``(safepoint, sampled hit index)`` with a
token armed to cancel exactly there, and asserts the cancellation
contract after every single shot:

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

Variants mirror the fault sweep: the serial and thread execution paths
crossed with the memory/disk table substrates, so cancel can land
mid-partitioned-group-by and mid-page-fetch with the buffer pool
warm.

Any broken invariant becomes a :class:`CancelFinding`; a sweep with no
findings is the acceptance criterion for the safepoint machinery.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.execute import RetryPolicy, run_resilient
from repro.engine import cancel as cancel_mod
from repro.engine.cancel import SAFEPOINTS, CancelToken
from repro.errors import QueryCancelledError, ReproError
from repro.fuzz.generator import FuzzCase
from repro.fuzz.runner import _BACKEND_KW, _STORAGE_POOL_PAGES, _load_db
from repro.storage import engine as storage_engine

#: Execution paths the sweep crosses with each storage substrate.
BACKENDS = ("serial", "thread")

#: Table substrates.
STORAGES = ("memory", "disk")

#: Retries should not slow the sweep down (cancellation is never
#: retried -- the policy only matters for the probe/re-run legs).
_NO_BACKOFF = RetryPolicy(backoff_seconds=0.0)

#: At most this many hit indexes are swept per safepoint (first,
#: middle, last) -- hot safepoints like ``page-fetch`` are crossed many
#: times per query and sweeping each crossing buys nothing.
_INDEX_LIMIT = 3


@dataclass
class CancelFinding:
    """One broken invariant observed under one cancellation shot."""

    case: FuzzCase
    variant: str
    site: str
    index: int
    problem: str
    detail: str = ""

    def describe(self) -> str:
        text = (f"seed={self.case.seed} case={self.case.index} "
                f"({self.case.family}) [{self.variant} "
                f"{self.site}#{self.index}]: {self.problem}")
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class CancelSweepStats:
    """Aggregate outcome of a cancel sweep."""

    cases: int = 0
    #: (case, variant) combinations probed.
    variants: int = 0
    injections: int = 0
    #: Shots that raised a clean typed QueryCancelledError.
    cancelled: int = 0
    #: Shots whose armed crossing was never reached (safepoint counts
    #: on the disk backend drift with cache state across shots); the
    #: run is still held to the reference-identical contract.
    skipped: int = 0
    findings: list[CancelFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        return (f"swept {self.cases} case(s) x {self.variants} "
                f"variant run(s), {self.injections} cancellation "
                f"shot(s): {self.cancelled} clean cancel(s), "
                f"{self.skipped} unreached, "
                f"{len(self.findings)} finding(s)")


def _reached(token: CancelToken, site: str, index: int) -> bool:
    """Whether the shot actually crossed the armed safepoint index."""
    return token.hits.get(site, 0) > index


def _sample_indexes(hits: int) -> list[int]:
    if hits <= 0:
        return []
    picks = {0, hits // 2, hits - 1}
    return sorted(picks)[:_INDEX_LIMIT]


def sweep_case_cancel(case: FuzzCase, stats: CancelSweepStats,
                      backends=BACKENDS, storages=STORAGES) -> None:
    """Sweep one case across every backend x storage variant."""
    stats.cases += 1
    for storage in storages:
        for backend in backends:
            _sweep_variant(case, stats, backend, storage)


def _sweep_variant(case: FuzzCase, stats: CancelSweepStats,
                   backend: str, storage: str) -> None:
    variant = f"{storage}/{backend}"
    kwargs: dict[str, Any] = dict(_BACKEND_KW[backend])
    tmp: Optional[str] = None
    if storage == "disk":
        tmp = tempfile.mkdtemp(prefix="repro-cancel-store-")
        kwargs.update(storage="disk", storage_path=tmp,
                      pool_pages=_STORAGE_POOL_PAGES)
    try:
        db = _load_db(case, **kwargs)
        try:
            _sweep_db(case, stats, db, variant)
        finally:
            db.close()
        if tmp is not None:
            stray = storage_engine.stray_files(tmp)
            if stray:
                stats.findings.append(CancelFinding(
                    case, variant, "-", 0, "stray store files leaked",
                    ", ".join(stray)))
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def _sweep_db(case: FuzzCase, stats: CancelSweepStats, db,
              variant: str) -> None:
    stats.variants += 1
    sql = case.query_sql()
    # The savepoint pins the baseline objects so the identity-based
    # fingerprint cannot suffer id() recycling.
    baseline = db.catalog.savepoint()
    fingerprint = db.catalog.fingerprint()
    base_names = set(db.table_names())

    # Warmup leg: the very first run on a database pays cold-cache
    # safepoint crossings (page fetches that later hit the buffer
    # pool, encodings not yet cached) that no later run repeats.  The
    # probe must count what the *shots* will cross, so it runs warm.
    try:
        run_resilient(db, sql, retry=_NO_BACKOFF)
    except ReproError:
        pass

    # Probe leg: a token with nothing armed counts safepoint crossings
    # while the query runs to completion.  Sampling armed indexes from
    # these counts also keeps degenerate cases (whose reference run
    # raises) honest: every counted crossing happens *before* the
    # case's own error point, so an armed cancel always fires first.
    probe = CancelToken()
    reference: Optional[list] = None
    try:
        with cancel_mod.activate(probe):
            reference = run_resilient(
                db, sql, retry=_NO_BACKOFF).result.to_rows()
    except ReproError:
        pass  # degenerate case: errors are an acceptable outcome

    shots = [(site, index) for site in SAFEPOINTS
             for index in _sample_indexes(probe.hits.get(site, 0))]
    for site, index in shots:
        stats.injections += 1
        _run_shot(case, stats, db, variant, sql, site, index,
                  reference, fingerprint, baseline, base_names)


def _run_shot(case: FuzzCase, stats: CancelSweepStats, db,
              variant: str, sql: str, site: str, index: int,
              reference: Optional[list], fingerprint, baseline,
              base_names: set) -> None:
    token = CancelToken()
    token.cancel_at = (site, index)
    error: Optional[BaseException] = None
    rows: Optional[list] = None
    try:
        with cancel_mod.activate(token):
            rows = run_resilient(
                db, sql, retry=_NO_BACKOFF).result.to_rows()
    except QueryCancelledError as exc:
        error = exc
        if exc.reason != "client":
            stats.findings.append(CancelFinding(
                case, variant, site, index,
                "cancellation surfaced with the wrong reason",
                f"expected 'client', got {exc.reason!r}"))
        else:
            stats.cancelled += 1
    except ReproError as exc:
        error = exc
        # The arm point may legitimately be unreached: safepoint
        # counts on the disk backend drift a little across shots
        # (rollbacks evict cached pages, changing how many fetches a
        # run needs).  An unreached shot of a degenerate case is just
        # the case's own error; anything else is a finding.
        if _reached(token, site, index):
            stats.findings.append(CancelFinding(
                case, variant, site, index,
                "cancellation surfaced as a different typed error",
                f"{type(exc).__name__}: {exc}"))
        elif reference is None:
            stats.skipped += 1
        else:
            stats.findings.append(CancelFinding(
                case, variant, site, index,
                "shot failed where the reference run succeeded",
                f"{type(exc).__name__}: {exc}"))
    except Exception as exc:  # noqa: BLE001 - the invariant
        error = exc
        stats.findings.append(CancelFinding(
            case, variant, site, index,
            "untyped error escaped the runtime",
            f"{type(exc).__name__}: {exc}"))
    if error is None:
        if _reached(token, site, index):
            stats.findings.append(CancelFinding(
                case, variant, site, index,
                "armed cancellation did not fire",
                f"query completed with {len(rows or [])} row(s)"))
        else:
            # Count drift left the arm point unreached and the query
            # completed; it must then match the reference exactly.
            stats.skipped += 1
            if reference is not None and rows != reference:
                stats.findings.append(CancelFinding(
                    case, variant, site, index,
                    "unreached shot returned different rows",
                    f"{rows!r} != {reference!r}"))

    # Unwind hygiene: nothing may survive the cancellation.
    leaked = [n for n in db.table_names() if n not in base_names]
    if leaked:
        stats.findings.append(CancelFinding(
            case, variant, site, index, "temp tables leaked",
            ", ".join(sorted(leaked))))
    if db.catalog.fingerprint() != fingerprint:
        stats.findings.append(CancelFinding(
            case, variant, site, index,
            "catalog changed across the cancelled plan"))
        # Contain the damage so later shots of this case still sweep
        # against the intended baseline.
        db.catalog.rollback(baseline)

    # Re-run leg: the engine must be fully usable after a cancel, and
    # the answer must match the undisturbed reference bit-for-bit.
    try:
        rerun = run_resilient(
            db, sql, retry=_NO_BACKOFF).result.to_rows()
    except ReproError as exc:
        if reference is not None:
            stats.findings.append(CancelFinding(
                case, variant, site, index,
                "clean re-run after cancellation failed",
                f"{type(exc).__name__}: {exc}"))
        return
    except Exception as exc:  # noqa: BLE001 - the invariant
        stats.findings.append(CancelFinding(
            case, variant, site, index,
            "untyped error escaped the re-run",
            f"{type(exc).__name__}: {exc}"))
        return
    if reference is not None and rerun != reference:
        stats.findings.append(CancelFinding(
            case, variant, site, index,
            "re-run after cancellation returned different rows",
            f"{rerun!r} != {reference!r}"))


def sweep_cases_cancel(cases, stats: Optional[CancelSweepStats] = None,
                       backends=BACKENDS,
                       storages=STORAGES) -> CancelSweepStats:
    """Sweep an iterable of cases; returns the (given) stats."""
    stats = stats or CancelSweepStats()
    for case in cases:
        sweep_case_cancel(case, stats, backends=backends,
                          storages=storages)
    return stats
