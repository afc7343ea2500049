"""Vectorized aggregate functions over a :class:`Grouping`.

SQL semantics implemented here (and relied on by the paper's Vpct
definition, which "preserves the semantics of sum()"):

* ``sum/avg/min/max`` skip NULL inputs; a group whose inputs are all
  NULL (or empty, for the global group over an empty table) yields NULL.
* ``count(expr)`` counts non-NULL inputs; ``count(*)`` counts rows;
  both yield 0 -- never NULL -- for empty groups.
* ``count(DISTINCT expr)`` counts distinct non-NULL values.
* ``avg`` returns REAL; ``sum``/``min``/``max`` keep the input type
  (INTEGER sums stay INTEGER).

The numpy bodies live in :mod:`repro.engine.kernels` -- the
executor-neutral kernel layer shared by the serial and the
hash-partitioned (thread) paths.  This module is the
:class:`ColumnData`-facing adapter: it unwraps columns into raw
buffers, dispatches on function name, and rewraps
:class:`~repro.engine.kernels.PartialAggState` results.  Keeping
exactly one implementation of each numpy sequence is what makes the
parallel path bit-identical to the serial one by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import kernels
from repro.engine.column import ColumnData
from repro.engine.encoding_cache import EncodingCache
from repro.engine.groupby import PartitionedGrouping, encode_column
from repro.engine.types import SQLType
from repro.errors import PlanningError


def _wrap(state: kernels.PartialAggState) -> ColumnData:
    return ColumnData(state.sql_type, state.values, state.nulls)


def count_star(group_ids: np.ndarray, n_groups: int) -> ColumnData:
    return _wrap(kernels.kernel_count_star(group_ids, n_groups))


def count_star_partitioned(pgrouping: PartitionedGrouping) -> ColumnData:
    """``count(*)`` computed per partition and scatter-merged."""
    from repro.core.partitioning import map_partitions

    def count_partition(part):
        return np.bincount(part.group_ids, minlength=part.n_groups)

    results = map_partitions(count_partition, pgrouping.partitions)
    n_groups = pgrouping.grouping.n_groups
    counts = np.zeros(n_groups, dtype=np.int64)
    for part, part_counts in zip(pgrouping.partitions, results):
        counts[part.global_groups] = part_counts
    return ColumnData(SQLType.INTEGER, counts,
                      np.zeros(n_groups, dtype=bool))


def compute_aggregate_partitioned(func: str, arg: ColumnData,
                                  distinct: bool,
                                  pgrouping: PartitionedGrouping
                                  ) -> ColumnData:
    """Partition-parallel :func:`compute_aggregate`.

    Each worker aggregates one hash partition -- which holds *complete*
    groups whose rows keep their original relative order -- so the
    merge is a pure scatter through ``global_groups`` with no partial
    re-aggregation.  That is the bit-identity argument: every group's
    addends are accumulated in exactly the serial order, so even
    floating-point sums match the serial path to the last bit.
    """
    from repro.core.partitioning import map_partitions

    def aggregate_partition(part):
        return compute_aggregate(func, arg.take(part.rows), distinct,
                                 part.group_ids, part.n_groups)

    results = map_partitions(aggregate_partition, pgrouping.partitions)
    n_groups = pgrouping.grouping.n_groups
    # Every partition yields the same result *SQL* type (it depends on
    # func and the argument type, not the data), but not necessarily
    # the same numpy dtype: np.bincount over a partition with no valid
    # rows reverts to int64 no matter what its weights were, so the
    # merge buffer is allocated from the SQL type, never from a
    # partition's array.
    proto = results[0]
    values = np.zeros(n_groups, dtype=proto.sql_type.numpy_dtype)
    nulls = np.zeros(n_groups, dtype=bool)
    for part, part_result in zip(pgrouping.partitions, results):
        values[part.global_groups] = part_result.values
        nulls[part.global_groups] = part_result.nulls
    return ColumnData(proto.sql_type, values, nulls)


def compute_aggregate(func: str, arg: ColumnData, distinct: bool,
                      group_ids: np.ndarray, n_groups: int,
                      cache: Optional[EncodingCache] = None) -> ColumnData:
    """Aggregate ``arg`` per group.

    ``func`` is one of sum/count/avg/min/max; ``count`` honors
    ``distinct`` (and can reuse a cached dictionary encoding of a
    base-table argument via ``cache``).
    """
    if func == "count":
        if distinct:
            encoded = encode_column(arg, cache)
            return _wrap(kernels.kernel_count_distinct(
                encoded.codes, encoded.cardinality, group_ids,
                n_groups))
        return _wrap(kernels.kernel_count(arg.nulls, group_ids,
                                          n_groups))
    if distinct:
        raise PlanningError(f"DISTINCT is only supported with count(), "
                            f"not {func}()")
    if func == "sum":
        return _wrap(kernels.kernel_sum(arg.values, arg.nulls,
                                        arg.sql_type, group_ids,
                                        n_groups))
    if func == "avg":
        return _wrap(kernels.kernel_avg(arg.values, arg.nulls,
                                        arg.sql_type, group_ids,
                                        n_groups))
    if func in ("min", "max"):
        if arg.sql_type == SQLType.VARCHAR:
            return _wrap(kernels.kernel_min_max_sorted(
                func, arg.values, arg.nulls, group_ids, n_groups))
        return _wrap(kernels.kernel_min_max(func, arg.values, arg.nulls,
                                            arg.sql_type, group_ids,
                                            n_groups))
    if func in ("var", "stdev"):
        return _wrap(kernels.kernel_var_stdev(
            func, arg.values, arg.nulls, arg.sql_type, group_ids,
            n_groups))
    raise PlanningError(f"unknown aggregate function {func}()")
