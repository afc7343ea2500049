"""Partitioning: vertical (column) splitting and horizontal (row)
hash partitioning.

**Vertical.**  Horizontal aggregations can exceed the DBMS's maximum
column count when the BY columns have many distinct combinations or
several horizontal terms share one query.  "The only way there is to
solve this limitation is by vertically partitioning the columns so that
the maximum number of columns is not exceeded.  Each partition table
has D1, ..., Dj as its primary key" (Section 3.2; also DMKD Section
3.6).  :func:`split_result_columns` computes the partition layout; the
horizontal generator emits one CREATE + INSERT per partition and a
final assembling SELECT that joins the partitions back on the keys.

**Horizontal.**  The concurrent query service's intra-query
parallelism hash-partitions rows on the grouping key so each worker
aggregates complete groups and the merge is a pure scatter (no partial
re-aggregation, hence bit-identical results -- see
:func:`repro.engine.groupby.factorize_partitioned`).
:func:`hash_partition` assigns rows, :func:`choose_parallel_degree`
applies the admission rule, and :func:`map_partitions` fans work out
over the process-wide operator pool.  The operator pool is distinct
from the service scheduler's query pool: queries submit partition
tasks here, so a pool never waits on tasks queued behind itself.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import PercentageQueryError
from repro.obs import tracer as tracer_mod

ColumnT = TypeVar("ColumnT")
ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def split_result_columns(n_keys: int, columns: Sequence[ColumnT],
                         max_columns: int) -> list[list[ColumnT]]:
    """Partition the non-key result columns so every stored table fits
    within ``max_columns`` (keys included in each partition).

    Returns at least one partition; raises when even a single non-key
    column cannot fit next to the keys.
    """
    capacity = max_columns - n_keys
    if capacity < 1:
        raise PercentageQueryError(
            f"the {n_keys} grouping columns alone reach the DBMS "
            f"column limit ({max_columns}); no room for results")
    if len(columns) <= capacity:
        return [list(columns)]
    partitions: list[list[ColumnT]] = []
    for start in range(0, len(columns), capacity):
        partitions.append(list(columns[start:start + capacity]))
    return partitions


# ----------------------------------------------------------------------
# Horizontal (row) hash partitioning for parallel operators
# ----------------------------------------------------------------------

#: Worker threads of the shared operator pool carry this name prefix;
#: :func:`map_partitions` uses it to detect (and serialize) nested
#: fan-out instead of deadlocking on its own pool.
_OPERATOR_THREAD_PREFIX = "repro-operator"

#: Upper bound on operator-pool threads regardless of core count
#: (partition tasks are numpy-heavy; more threads than cores only adds
#: contention).
_POOL_MAX_WORKERS = 8

_pool: ThreadPoolExecutor | None = None
_pool_pid: int | None = None
_pool_lock = threading.Lock()


def operator_pool_size() -> int:
    """The worker count the shared operator pool runs (or would run)
    with: core count capped at :data:`_POOL_MAX_WORKERS`, floor 2 so
    partition tasks overlap even on single-core hosts."""
    return max(2, min(_POOL_MAX_WORKERS, os.cpu_count() or 1))


def operator_pool() -> ThreadPoolExecutor:
    """The process-wide pool partition tasks run on (lazily created).

    One pool is shared by every Database/session in the process: the
    parallelism budget is a host property, not a per-connection one.
    Keyed by pid: a forked child must not submit to an executor whose
    threads only exist in the parent, so it lazily builds its own.
    """
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(
                max_workers=operator_pool_size(),
                thread_name_prefix=_OPERATOR_THREAD_PREFIX)
            _pool_pid = os.getpid()
        return _pool


def shutdown_operator_pool() -> None:
    """Tear down the shared pool (tests, atexit; a fresh one is created
    on next use)."""
    global _pool, _pool_pid
    with _pool_lock:
        pool, _pool = _pool, None
        _pool_pid = None
    if pool is not None:
        pool.shutdown(wait=True)


def _drop_inherited_pool() -> None:
    # Threads do not survive fork: the child sees the parent's executor
    # object but none of its workers.  Forget the handle (without
    # shutdown -- the queues belong to the parent) and re-create lazily.
    global _pool, _pool_pid
    _pool = None
    _pool_pid = None


os.register_at_fork(after_in_child=_drop_inherited_pool)
atexit.register(shutdown_operator_pool)


def choose_parallel_degree(n_rows: int, requested: int,
                           row_threshold: int) -> int:
    """The admission rule for intra-query parallelism.

    ``requested`` is the configured worker budget; inputs smaller than
    ``row_threshold`` stay serial (fan-out overhead would dominate),
    and the degree never exceeds the row count.
    """
    if requested <= 1 or n_rows <= 0 or n_rows < row_threshold:
        return 1
    return max(1, min(int(requested), n_rows))


def hash_partition(codes: np.ndarray, degree: int) -> list[np.ndarray]:
    """Row positions per partition, partitioning on ``codes % degree``.

    ``codes`` are non-negative int64 group codes (the mixed-radix
    combination of the key columns), so equal keys always land in the
    same partition -- each partition holds *complete* groups.  Within a
    partition, positions stay in ascending row order, which is what
    makes partition-local float accumulation replay the serial addend
    order exactly.
    """
    owners = codes % np.int64(degree)
    return [np.nonzero(owners == p)[0] for p in range(degree)]


def map_partitions(fn: Callable[[ItemT], ResultT],
                   items: Sequence[ItemT]) -> list[ResultT]:
    """Run ``fn`` over ``items`` on the shared operator pool, results
    in input order.

    Falls back to inline execution for trivial fan-out (one item) and
    when already running *on* an operator thread -- a nested fan-out
    queued behind its own parent would deadlock a saturated pool.
    Exceptions propagate from the first failing item.
    """
    if len(items) <= 1 or threading.current_thread().name.startswith(
            _OPERATOR_THREAD_PREFIX):
        return [fn(item) for item in items]
    pool = operator_pool()
    tracer = tracer_mod.active_tracer()
    if tracer is not None and tracer.enabled:
        # Cross-thread span handover: the pool workers' thread-local
        # stacks are empty, so each partition task re-activates this
        # tracer and parents its span explicitly under the operator
        # span that is current *here*, on the submitting thread.
        parent = tracer.current()

        def traced(index: int, item: ItemT) -> ResultT:
            with tracer_mod.activate(tracer), \
                    tracer.span_under(parent, "partition",
                                      kind="operator", partition=index):
                return fn(item)

        futures = [pool.submit(traced, i, item)
                   for i, item in enumerate(items)]
    else:
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]
