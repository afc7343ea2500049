"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-tables --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--workload all`` runs the three workloads in one process.

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs its op sequence for ``--seconds`` of wall time and
reports the end-to-end metrics (on workloads whose ops run on this
thread, at reference host speed: see ``host_kernel``).  ``--trace 1`` runs the workload's
fixed op prefix twice on fresh set-ups, first with every layer timed
and the engine's spans on, then untimed; it reports the per-layer
split, the tracing overhead, and fails if any count differs between
the two runs.  Every answer is checked against a numpy reference, and
every run first shows the reference rejecting a perturbed answer.

Human-readable lines come first; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the disk store (inside the checkout; removed).
WORKDIR = ROOT / ".perfbench_tmp"
#: Set-up runs at least this many times and for at least this long;
#: ``setup_s`` is the median.
SETUP_REPEATS, SETUP_SECONDS = 3, 3.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "query_s.p50": "s",
    "query_s.p90": "s", "vpct_s.p50": "s", "hpct_s.p50": "s",
    "hagg_s.p50": "s", "olap_s.p50": "s", "peak_rss_mb": "MB",
}


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}; run "
                         f"from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not {SRC}")


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 when every op of the kind
    failed (the run is then reported incorrect anyway)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tally:
    """Outcomes of a run's ops: latencies by form, failures, extras."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.queue_wait: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.max_degree = 1
        self.widths: dict[str, int] = {}
        self.self_tested: set[str] = set()

    def record(self, op, outcome, seconds: float, speed: float,
               error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.label}: {error}")
            return
        self.latency[op.form].append(seconds * speed)
        self.raw[op.form].append(seconds)
        self.max_degree = max(self.max_degree, outcome.parallel_degree)
        if outcome.queue_wait is not None:
            self.queue_wait.append(outcome.queue_wait)
        result = getattr(outcome.result, "results", [outcome.result])[0]
        schema = getattr(result, "schema", None)
        if schema is not None:
            self.widths[op.form] = max(self.widths.get(op.form, 0),
                                       schema.width())

    def reads(self) -> list[float]:
        from perfbench.workloads import READ_FORMS
        return [s for form in READ_FORMS for s in self.latency[form]]

    def busy_seconds(self) -> float:
        """Measured (not normalized) seconds spent in ops."""
        return sum(sum(v) for v in self.raw.values())

    def normalized_seconds(self) -> float:
        return sum(sum(v) for v in self.latency.values())


#: ``host_kernel()`` seconds on the reference host (2-vCPU KVM guest,
#: Xeon, Python 3.11.7) in its fast phase.
KERNEL_REF_S = 0.0021
_KERNEL_ARRAY = np.random.default_rng(0).random(40_000)


def host_kernel() -> float:
    """Time a fixed, program-independent slice of work: interpreter
    work (dict inserts, string formatting, a keyed sort) and a numpy
    sort.  The host's speed drifts by up to 1.8x over 5-30 s; timing
    this right before and after an op tells how fast the host ran
    the op."""
    started = time.perf_counter()
    table = {}
    for i in range(3000):
        key = f"c{i % 97}_{i}"
        table[key] = (i, key.upper())
    sorted(table.items(), key=lambda item: item[1][1])
    np.sort(_KERNEL_ARRAY)
    return time.perf_counter() - started


def _host_speed(kernel_before: float) -> float:
    """Reference-speed factor for work bracketed by two kernels."""
    return 2 * KERNEL_REF_S / (kernel_before + host_kernel())


def run_op(op, tally: Tally, clock=None, normalize: bool = True) -> None:
    """Time ``op.run()`` (inside ``clock.op()`` when tracing), then
    check the outcome untimed.  The first answer of each form is also
    perturbed and must then be rejected, so the check is shown not to
    be blind."""
    from perfbench.oracle import perturbed
    gc.collect()
    outcome, error = None, None
    kernel_before = host_kernel() if normalize else 0.0
    started = time.perf_counter()
    try:
        if clock is None:
            outcome = op.run()
        else:
            with clock.op():
                outcome = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    speed = _host_speed(kernel_before) if normalize else 1.0
    if error is None:
        try:
            answer = op.answer(outcome)
            error = op.verify(answer)
            if error is None and op.form not in tally.self_tested \
                    and op.form != "write":
                tally.self_tested.add(op.form)
                if op.verify(perturbed(answer)) is None:
                    error = "self-test: a perturbed answer was accepted"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    tally.record(op, outcome, seconds, speed, error)


def _settle() -> None:
    """Collect set-up garbage and exempt what survives from later
    collections, so the collector's work during an op is the op's."""
    gc.collect()
    gc.freeze()


def _setup_times(workload) -> list[float]:
    """Set the workload up repeatedly (it stays set up); return each
    set-up's time, at reference host speed if the workload is
    normalized."""
    times: list[float] = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_SECONDS:
        if times:
            workload.teardown()
            gc.unfreeze()
            gc.collect()
        kernel_before = host_kernel() if workload.normalize else 0.0
        started = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - started
        spent += seconds
        times.append(seconds * (_host_speed(kernel_before)
                                if workload.normalize else 1.0))
    _settle()
    return times


def measure_end_to_end(workload, seconds: float) -> tuple[dict, Tally]:
    setups = _setup_times(workload)
    try:
        tally = Tally()
        started = time.perf_counter()
        for op in workload.ops():
            if time.perf_counter() - started >= seconds and (
                    workload.pass_ops is None
                    or tally.attempted % workload.pass_ops == 0):
                break
            run_op(op, tally, normalize=workload.normalize)
        error = workload.final_check()
        if error is not None:
            tally.failed += 1
            tally.errors.append(error)
        sizes = workload.sizes()
    finally:
        workload.teardown()
        gc.unfreeze()
    reads = tally.reads()
    done = sum(len(v) for v in tally.latency.values())
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (_ratio(done, tally.normalized_seconds()), done),
        "query_s.p50": (_quantile(reads, 0.5), len(reads)),
        "query_s.p90": (_quantile(reads, 0.9), len(reads)),
    }
    for form in ("vpct", "hpct", "hagg", "olap"):
        samples = tally.latency[form]
        metrics[f"{form}_s.p50"] = (_quantile(samples, 0.5),
                                    len(samples))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    extra = {"failed_frac": (tally.failed / max(1, tally.attempted),
                             tally.attempted)}
    for form, samples in sorted(tally.raw.items()):
        extra[f"raw.{form}_s.p50"] = (_quantile(samples, 0.5),
                                      len(samples))
    extra["raw.ops_per_s"] = (_ratio(done, tally.busy_seconds()), done)
    for form in ("view", "write"):
        if tally.latency[form]:
            extra[f"{form}_s.p50"] = (_quantile(tally.latency[form], 0.5),
                                      len(tally.latency[form]))
    _print_block(workload.name, sizes, tally, extra)
    return metrics, tally


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
COUNT_KEYS = ("rows_scanned", "rows_written", "rows_updated",
              "rows_joined", "case_evaluations", "encode_cache_hits",
              "encode_cache_misses", "storage_page_fetches",
              "storage_pool_hits")


TRACER_FETCH_KEYS = ("storage_page_fetches", "storage_pool_hits")


def counters(workload) -> dict[str, float]:
    """The program's own counters, summed over the workload's
    databases."""
    out: dict[str, float] = defaultdict(float)
    for db in workload.databases():
        snapshot = db.stats.snapshot()
        for name in COUNT_KEYS:
            out[name] += getattr(snapshot, name)
        for sample, value in db.metrics.samples().items():
            base = sample.split("{")[0]
            if base in ("engine_parallel_tasks_total",
                        "service_rejections_total", "view_hits_total"):
                out[base] += value
            elif base == "view_refreshes_total":
                mode = "delta" if 'mode="delta"' in sample else "full"
                out[f"view_refreshes_{mode}"] += value
        if db.storage_engine is not None:
            engine = db.storage_engine
            out["pages_written"] += engine.pool.pages_written
            out["page_bytes_written"] += (engine.pool.pages_written
                                          * engine.page_size)
            out["wal_bytes"] += engine.wal.size_bytes()
    out["user_bytes_written"] = workload.user_bytes_written
    return out


def _diff(after: dict, before: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(after) | set(before)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prefix_pass(workload, tally: Tally, clock=None,
                 spans: Optional[dict] = None) -> tuple[float, dict, dict]:
    """Set the workload up afresh and run its trace prefix; return
    (busy seconds, count deltas, sizes).  With ``clock``, layers are
    timed and the engine's spans collected into ``spans``."""
    from perfbench.layers import span_times
    workload.setup()
    _settle()
    tracers = [db.tracer for db in workload.databases()]
    try:
        before = counters(workload)
        if clock is not None:
            for tracer in tracers:
                tracer.enable()
            clock.install()
        try:
            for op in itertools.islice(workload.ops(), workload.trace_ops):
                run_op(op, tally, clock, workload.normalize)
                if clock is not None:
                    span_times(tracers, spans)
        finally:
            if clock is not None:
                clock.uninstall()
                for tracer in tracers:
                    tracer.disable()
                    tracer.reset()
        counts = _diff(counters(workload), before)
        error = workload.final_check()
        if error is not None:
            tally.failed += 1
            tally.errors.append(error)
        sizes = workload.sizes()
    finally:
        workload.teardown()
        gc.unfreeze()
    return tally.busy_seconds(), counts, sizes


def measure_layers(workload) -> tuple[dict, Tally]:
    from perfbench.layers import (GC, SELF_TIME_LABELS, SPAN_GROUPS,
                                  STEP_PURPOSES, UNATTRIBUTED,
                                  LayerClock)
    clock = LayerClock()
    spans: dict[str, float] = {}
    tally, plain = Tally(), Tally()
    traced_wall, counts, sizes = _prefix_pass(workload, tally, clock,
                                              spans)
    plain_wall, replay_counts, _ = _prefix_pass(workload, plain)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors.extend(plain.errors)
    # The engine's tracer itself fetches extra pages on the disk
    # backend, so page fetches repeat only between like runs (two
    # traced runs of one seed agree exactly); the excess is reported
    # as trace.extra_page_fetches instead of compared.
    mismatched = sorted(k for k in counts
                        if counts[k] != replay_counts.get(k, 0)
                        and k not in TRACER_FETCH_KEYS)
    if mismatched:
        tally.failed += 1
        tally.errors.append(f"counts differ between two runs of one "
                            f"seed: {', '.join(mismatched)}")

    metrics: dict[str, tuple[float, int]] = {}
    n = workload.trace_ops
    for label in SELF_TIME_LABELS:
        metrics[label] = (clock.self_s.get(label, 0.0), n)
    metrics["sql.parse_bytes"] = (clock.parse_bytes, n)
    metrics["core.plan_statements"] = (clock.plan_statements, n)
    metrics["py.gc_collections"] = (clock.gc_collections, n)
    for purpose in STEP_PURPOSES:
        key = f"engine.step_s.{purpose}"
        metrics[key] = (spans.get(key, 0.0), n)
    for group in sorted(set(SPAN_GROUPS.values())):
        key = f"engine.{group}_s"
        metrics[key] = (spans.get(key, 0.0), n)
    c = defaultdict(float, counts)
    fetches = c["storage_page_fetches"]
    encodes = c["encode_cache_hits"] + c["encode_cache_misses"]
    metrics.update({
        "engine.logical_io": (c["rows_scanned"] + c["rows_written"]
                              + 2 * c["rows_updated"], n),
        "engine.rows_scanned": (c["rows_scanned"], n),
        "engine.rows_written": (c["rows_written"], n),
        "engine.rows_joined": (c["rows_joined"], n),
        "engine.case_evaluations": (c["case_evaluations"], n),
        "engine.encode_cache_hit_rate": (
            _ratio(c["encode_cache_hits"], encodes), int(encodes)),
        "engine.parallel_tasks": (c["engine_parallel_tasks_total"], n),
        "engine.parallel_degree": (tally.max_degree, n),
        "storage.page_fetches": (fetches, n),
        "storage.pool_hit_rate": (
            _ratio(c["storage_pool_hits"], fetches), int(fetches)),
        "storage.pages_written": (c["pages_written"], n),
        "storage.write_amp": (_ratio(c["page_bytes_written"],
                                     c["user_bytes_written"]), n),
        "storage.wal_bytes": (max(0.0, c["wal_bytes"]), n),
        "service.queue_wait_s.p50": (
            _quantile(tally.queue_wait, 0.5), len(tally.queue_wait)),
        "service.rejections": (c["service_rejections_total"], n),
        "views.hits": (c["view_hits_total"], n),
        "views.delta_refreshes": (c["view_refreshes_delta"], n),
        "views.full_refreshes": (c["view_refreshes_full"], n),
        "trace.wall_s": (traced_wall, n),
        "trace.extra_page_fetches": (
            c["storage_page_fetches"]
            - replay_counts.get("storage_page_fetches", 0), n),
        # Normalized sums, so a slower host stretch during one of the
        # two runs does not read as tracing cost.
        "trace.overhead_frac": (tally.normalized_seconds()
                                / plain.normalized_seconds() - 1.0, n),
    })
    split = sum(clock.self_s.get(label, 0.0) for label in SELF_TIME_LABELS
                if label != UNATTRIBUTED)
    residue = traced_wall - split - clock.self_s.get(UNATTRIBUTED, 0.0)
    extra = {"trace.layers_s": (split, n),
             "trace.split_residue_s": (residue, n),
             "untraced.wall_s": (plain_wall, n),
             "py.gc_share": (_ratio(clock.self_s.get(GC, 0.0),
                                    traced_wall), n)}
    _print_block(workload.name + " (traced)", sizes, tally, extra)
    return metrics, tally


# ----------------------------------------------------------------------
def _print_block(title: str, sizes: dict, tally: Tally,
                 extra: dict) -> None:
    print(f"# {title}")
    for key, value in sizes.items():
        print(f"size {key} = {value}")
    for form, width in sorted(tally.widths.items()):
        print(f"size result_columns.{form} = {width}")
    for key, (value, count) in extra.items():
        print(f"{key} {value:.6g} n={count}")
    for error in tally.errors:
        print(f"FAILED {error}")


def _header() -> None:
    import numpy
    from repro.bench.harness import report_header
    header = report_header("perfbench")
    header["numpy"] = numpy.__version__
    print("# host " + json.dumps(header, sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, Tally]:
    from perfbench.workloads import WORKLOADS, MixedRW
    cls = WORKLOADS[name]
    workload = cls(seed, str(WORKDIR)) if cls is MixedRW else cls(seed)
    if trace:
        return measure_layers(workload)
    return measure_end_to_end(workload, seconds)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-tables", "hpct-wide", "mixed-rw",
                                 "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # The code generator's choices follow set iteration order, which
    # follows str hashing; fixing the hash seed per workload seed makes
    # every count (parsed bytes included) repeat exactly for one seed.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, __file__, *argv])
    _import_program()
    _header()
    names = (["paper-tables", "hpct-wide", "mixed-rw"]
             if args.workload == "all" else [args.workload])
    result: dict[str, Any] = {"correct": True, "attempted": 0,
                              "failed": 0, "metrics": {}}
    for name in names:
        metrics, tally = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, count) in metrics.items():
            unit = END_TO_END_UNITS.get(key) or _layer_unit(key)
            print(f"{prefix}{key} {value:.6g} {unit} n={count}")
            result["metrics"][prefix + key] = {"value": value,
                                               "unit": unit}
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        result["correct"] = result["correct"] and tally.failed == 0
    print(json.dumps(result))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_s") or "_s." in key:
        return "s"
    if key.endswith(("_rate", "_frac", "_amp")):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
