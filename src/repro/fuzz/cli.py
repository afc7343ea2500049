"""``python -m repro.fuzz`` -- the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seed 0 --budget 500
    python -m repro.fuzz --seed 7 --budget 200 --max-seconds 60
    python -m repro.fuzz --replay tests/fuzz/corpus
    python -m repro.fuzz --seed 0 --budget 50 --inject-bug vpct-denominator
    python -m repro.fuzz --fault-sweep --seed 0 --budget 40
    python -m repro.fuzz --seed 0 --budget 200 --case-timeout 10
    python -m repro.fuzz --seed 0 --budget 100 --trace
    python -m repro.fuzz --seed 0 --budget 100 --storage disk
    python -m repro.fuzz --seed 0 --budget 60 --backend serial --backend thread
    python -m repro.fuzz --fault-sweep --storage disk --seed 0 --budget 20
    python -m repro.fuzz --cancel-sweep --seed 0 --budget 10
    python -m repro.fuzz --views --seed 0 --budget 20
    python -m repro.fuzz --views --budget 10 --inject-bug views-skip-retraction
    python -m repro.fuzz --list-variants

Exit status 0 means every case was consistent across all strategies
and the sqlite oracle; 1 means at least one divergence (each one is
minimized and written to ``--out`` as a replayable JSON repro).

``--case-timeout`` runs every engine variant under the resource
governor's wall-clock budget so one pathological case cannot stall a
whole run; timed-out variants are excluded from comparison.
``--trace`` runs every engine variant on a traced database and
validates the trace after each run (well-formed span trees, charge
audits, statement-count drift against the stats ledger); a malformed
trace surfaces as a divergence.

Three sweeps replace the differential comparison, all driven by one
loop over the policies of :mod:`repro.fuzz.sweep`:

* ``--fault-sweep`` injects faults at every statement boundary and
  operator site of every case's plan and verifies recovery; with
  ``--storage disk`` it sweeps the WAL/buffer-pool kill points
  instead (see :mod:`repro.fuzz.crash`);
* ``--cancel-sweep`` arms a cancellation at every safepoint each
  case's query crosses and verifies the unwind (typed error, no leaks,
  bit-identical re-run; see :mod:`repro.fuzz.cancelsweep`);
* ``--views`` makes each case's query a materialized view, mutates
  the base table with a deterministic DML script, and after every
  statement requires the view-served answer bit-identical to a
  from-scratch recompute (see :mod:`repro.fuzz.views`).

A sweep exits 1 on any finding.  Each one honours ``--seed``,
``--budget``, ``--max-seconds``, ``--family`` and ``--quiet`` plus
the options its policy declares (``--backend``/``--storage``, and
``--inject-bug`` for ``--views``); any other flag exits 2 rather than
being silently ignored.
``--list-variants`` prints the backend x storage x trace variant
matrix the sweeps iterate, with one-line descriptions, and exits.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

from repro.fuzz import cancelsweep, crash, views
from repro.fuzz.corpus import load_corpus, save_repro
from repro.fuzz.generator import FAMILIES, CaseGenerator, FuzzCase
from repro.fuzz.reducer import reduce_case
from repro.fuzz.runner import INJECTABLE_BUGS, run_case
from repro.fuzz.sweep import BACKENDS, STORAGES, Sweep, SweepStats

#: The sweep policies, by the ``dest`` of the flag that selects each.
SWEEPS: dict[str, Sweep] = {"fault_sweep": crash.SWEEP,
                            "cancel_sweep": cancelsweep.SWEEP,
                            "views": views.SWEEP}

#: Options every sweep honours: they only shape the case stream.
_CASE_STREAM = frozenset({"seed", "budget", "max_seconds", "family",
                          "quiet"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzer: every percentage-query "
                    "strategy vs. the sqlite3 oracle.")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of cases to run (default 200)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="stop early after this wall-clock budget")
    parser.add_argument("--family", action="append",
                        choices=FAMILIES, default=None,
                        metavar="FAMILY",
                        help="restrict generated cases to this query "
                             "family (repeatable; default: all of "
                             f"{', '.join(FAMILIES)}).  e.g. "
                             "--family cube for a grouping-sets-only "
                             "sweep against the UNION ALL oracle")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay a corpus directory instead of "
                             "generating new cases")
    parser.add_argument("--out", metavar="DIR",
                        default="fuzz-failures",
                        help="where minimized divergences are written "
                             "(default: fuzz-failures/)")
    parser.add_argument("--inject-bug",
                        choices=INJECTABLE_BUGS + views.SWEEP.bugs,
                        default=None,
                        help="deliberately mis-compile one variant "
                             "(or, with --views, break one maintenance "
                             "path); the run must diverge (harness "
                             "self-test)")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="exit after minimizing the first "
                             "divergence")
    parser.add_argument("--case-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per engine variant "
                             "(enforced by the resource governor; "
                             "timed-out variants are excluded from "
                             "comparison)")
    parser.add_argument("--backend", action="append",
                        choices=BACKENDS,
                        default=None, metavar="BACKEND",
                        help="add engine variants pinned to this "
                             "execution path (repeatable; serial = one "
                             "worker, thread = 2 workers with row "
                             "threshold 0); they must agree "
                             "bit-for-bit")
    parser.add_argument("--storage", action="append",
                        choices=STORAGES, default=None,
                        metavar="BACKEND",
                        help="add engine variants pinned to this table "
                             "substrate (repeatable).  'memory' is the "
                             "baseline every case already runs; 'disk' "
                             "adds page-backed variants with a tiny "
                             "buffer pool that must match the memory "
                             "variants bit-for-bit, with leaked page "
                             "files or live stores counted as "
                             "divergences.  The sweeps run one "
                             "variant per named backend x storage; "
                             "--fault-sweep on 'disk' sweeps the "
                             "WAL/buffer-pool kill points (torn page "
                             "writes, pre-fsync and post-commit "
                             "crashes) and verifies recovery after a "
                             "simulated kill")
    parser.add_argument("--trace", action="store_true",
                        help="run engine variants on traced databases "
                             "and validate every trace (well-formed "
                             "span trees, charge audits, statement-"
                             "count drift); a malformed trace counts "
                             "as a divergence")
    parser.add_argument("--fault-sweep", action="store_true",
                        help="run the crash-consistency sweep instead "
                             "of differential comparison: inject a "
                             "fault at every statement boundary and "
                             "check recovery invariants")
    parser.add_argument("--cancel-sweep", action="store_true",
                        help="run the cancel-point chaos sweep: arm a "
                             "cancellation at every safepoint the "
                             "query crosses (per backend x storage "
                             "variant; defaults to all combinations, "
                             "narrow with --backend/--storage) and "
                             "check that each shot unwinds as a clean "
                             "typed QueryCancelledError with no "
                             "catalog/store leakage and a "
                             "bit-identical re-run")
    parser.add_argument("--views", action="store_true",
                        help="run the materialized-view maintenance "
                             "sweep: each case's query becomes a "
                             "materialized view, interleaved DML "
                             "mutates its base table, and every "
                             "view-served read must match a "
                             "from-scratch recompute bit-for-bit "
                             "(per backend x storage variant; narrow "
                             "with --backend/--storage)")
    parser.add_argument("--list-variants", action="store_true",
                        help="print the backend x storage x trace "
                             "variant matrix and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-divergence detail")
    return parser


#: One-line description per axis value of the variant matrix.
_AXIS_DESCRIPTIONS = {
    "serial": "interpreted engine, one worker (the baseline plans)",
    "thread": "thread pool, 2 workers, row threshold 0 (every "
              "aggregation partitions)",
    "memory": "in-memory column store (the default substrate)",
    "disk": "page-backed store, 8-page buffer pool (evictions on "
            "purpose; stray files are divergences)",
    "untraced": "no span capture (fastest)",
    "traced": "span trees validated + charge audits after every run",
}


def _list_variants() -> int:
    print("variant matrix (backend x storage x trace):")
    for backend in BACKENDS:
        for storage in STORAGES:
            for trace in ("untraced", "traced"):
                name = f"{backend}/{storage}/{trace}"
                print(f"  {name:<24} backend: "
                      f"{_AXIS_DESCRIPTIONS[backend]}")
                print(f"  {'':<24} storage: "
                      f"{_AXIS_DESCRIPTIONS[storage]}")
                print(f"  {'':<24} trace:   "
                      f"{_AXIS_DESCRIPTIONS[trace]}")
    print("sweeps: differential (default; select axes with "
          "--backend, --storage, --trace), --fault-sweep, "
          "--cancel-sweep, --views (select axes with --backend, "
          "--storage)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_variants:
        return _list_variants()
    if args.inject_bug in views.SWEEP.bugs and not args.views:
        print(f"error: --inject-bug {args.inject_bug} requires "
              f"--views", file=sys.stderr)
        return 2
    # A second sweep flag is rejected like any other flag the first
    # sweep does not take.
    sweep = next((dest for dest in SWEEPS if getattr(args, dest)), None)
    if sweep is not None:
        return _sweep(parser, args, sweep)
    if args.replay:
        return _replay(args)
    return _fuzz(args)


def _cases(args: argparse.Namespace) -> Iterator[FuzzCase]:
    """The generated case stream, cut short by ``--max-seconds``."""
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    started = time.monotonic()
    for ran, case in enumerate(generator.cases(args.budget)):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {ran} cases")
            return
        yield case


# ----------------------------------------------------------------------
def _fuzz(args: argparse.Namespace) -> int:
    started = time.monotonic()
    families: Counter = Counter()
    divergences = 0
    for case in _cases(args):
        families[case.family] += 1
        result = run_case(case, inject_bug=args.inject_bug,
                          case_timeout=args.case_timeout,
                          trace=args.trace,
                          backends=tuple(args.backend or ()),
                          storages=tuple(args.storage or ()))
        if result.divergent:
            divergences += 1
            _report(case, result, args)
            if args.stop_on_first:
                break
    elapsed = time.monotonic() - started
    mix = ", ".join(f"{family}={count}"
                    for family, count in sorted(families.items()))
    print(f"ran {sum(families.values())} cases in {elapsed:.1f}s "
          f"({mix}); {divergences} divergence(s)")
    if args.inject_bug and divergences == 0:
        print(f"error: --inject-bug {args.inject_bug} produced no "
              f"divergence -- the harness is blind to it", file=sys.stderr)
        return 1
    return 1 if divergences else 0


def _report(case: FuzzCase, result, args: argparse.Namespace) -> None:
    print(f"DIVERGENCE at case {case.index}: {result.explanation}")
    backends = tuple(args.backend or ())
    storages = tuple(args.storage or ())
    minimized = reduce_case(
        case, lambda c: run_case(c, args.inject_bug, trace=args.trace,
                                 backends=backends,
                                 storages=storages).divergent)
    final = run_case(minimized, inject_bug=args.inject_bug,
                     trace=args.trace, backends=backends,
                     storages=storages)
    path = save_repro(
        minimized, Path(args.out),
        description=f"minimized divergence (seed={case.seed}, "
                    f"case={case.index}): {final.explanation}",
        expect="divergent")
    print(f"  minimized to {len(minimized.rows)} row(s), "
          f"{len(minimized.group_by)} group column(s): "
          f"{minimized.query_sql()}")
    print(f"  repro written to {path}")
    if not args.quiet:
        print(final.divergence_report())


def _sweep(parser: argparse.ArgumentParser, args: argparse.Namespace,
           dest: str) -> int:
    """Run one sweep policy over the case stream."""
    policy = SWEEPS[dest]
    honoured = _CASE_STREAM | policy.options | {dest}
    ignored = [action.option_strings[-1] for action in parser._actions
               if action.option_strings and action.dest not in honoured
               and getattr(args, action.dest, action.default)
               != action.default]
    if ignored:
        print(f"error: {policy.flag} does not take "
              f"{', '.join(ignored)}", file=sys.stderr)
        return 2
    if args.inject_bug is not None and args.inject_bug not in policy.bugs:
        print(f"error: {policy.flag} supports --inject-bug "
              f"{'/'.join(policy.bugs)} only", file=sys.stderr)
        return 2
    backends = tuple(args.backend or policy.backends)
    storages = tuple(args.storage or policy.storages)
    started = time.monotonic()
    stats = SweepStats()
    for case in _cases(args):
        policy.sweep_case(case, stats, backends=backends,
                          storages=storages, inject_bug=args.inject_bug)
    elapsed = time.monotonic() - started
    print(f"{stats.summary(policy.counters)} "
          f"(backends: {', '.join(backends)}; "
          f"storages: {', '.join(storages)}) in {elapsed:.1f}s")
    if not args.quiet:
        for finding in stats.findings:
            print(f"FINDING: {finding.describe()}", file=sys.stderr)
    if args.inject_bug and stats.ok:
        print(f"error: --inject-bug {args.inject_bug} produced no "
              f"finding -- the sweep is blind to it", file=sys.stderr)
        return 1
    return 0 if stats.ok else 1


def _replay(args: argparse.Namespace) -> int:
    failures = 0
    total = 0
    for path, case, expect in load_corpus(args.replay):
        total += 1
        result = run_case(case, trace=args.trace,
                          backends=tuple(args.backend or ()),
                          storages=tuple(args.storage or ()))
        verdict = "divergent" if result.divergent else "consistent"
        ok = verdict == expect
        status = "ok" if ok else f"FAIL (expected {expect}, got {verdict})"
        print(f"{path.name}: {status}")
        if not ok:
            failures += 1
            if not args.quiet and result.divergent:
                print(result.divergence_report())
    print(f"replayed {total} corpus case(s); {failures} failure(s)")
    return 1 if failures else 0
