"""Numpy reference answers for the paper's query forms.

Every answer the benchmark times is checked here against a reference
computed straight from the generated column arrays, never through the
engine.  An answer is first reduced to an :class:`Answer` (key columns
plus value columns, all numpy), so the same checks cover results that
came back through ``run_percentage_query``, a plain ``db.execute`` or
the query service.

Floating-point sums run in a different order in the engine than in
``np.bincount``, so values compare within ``REL_TOL``; keys, row counts,
column sets and NULL positions compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

#: Relative tolerance for float comparisons (sums of ~1e5 doubles
#: reordered differ far below this; a wrong group differs far above).
REL_TOL = 1e-9


@dataclass(frozen=True)
class Spec:
    """The shape of one paper query: ``F``, ``A``, ``D1..Dj`` (totals)
    and ``Dj+1..Dk`` (BY columns)."""

    table: str
    measure: str
    totals: tuple[str, ...]
    by: tuple[str, ...]


@dataclass(frozen=True)
class Answer:
    """A result reduced to arrays: key columns, then value columns.

    ``value_names`` are the result's value column names (``c3_17`` for
    a horizontal cell, anything for a vertical one); ``nulls[i]`` is
    the NULL mask of ``values[i]``."""

    keys: tuple[np.ndarray, ...]
    value_names: tuple[str, ...]
    values: tuple[np.ndarray, ...]
    nulls: tuple[np.ndarray, ...]


def answer_of(table, n_keys: int) -> Answer:
    """Reduce an engine result table whose first ``n_keys`` columns
    are the grouping keys."""
    names = [col.name for col in table.schema.columns]
    keys = []
    for name in names[:n_keys]:
        column = table.column(name)
        if column.nulls.any():
            raise ValueError(f"NULL in key column {name!r}")
        keys.append(np.asarray(column.values))
    values, nulls = [], []
    for name in names[n_keys:]:
        column = table.column(name)
        values.append(np.asarray(column.values, dtype=np.float64))
        nulls.append(np.asarray(column.nulls, dtype=bool))
    return Answer(tuple(keys), tuple(names[n_keys:]), tuple(values),
                  tuple(nulls))


def perturbed(answer: Answer) -> Answer:
    """``answer`` with its first non-NULL value nudged by 1e-6 of
    itself (or by 1e-6 when it is below 1): far outside ``REL_TOL``,
    so a working oracle rejects it."""
    values = list(answer.values)
    for i, (vals, nulls) in enumerate(zip(values, answer.nulls)):
        live = np.flatnonzero(~nulls)
        if len(live):
            changed = vals.copy()
            changed[live[0]] += 1e-6 * max(1.0, abs(changed[live[0]]))
            values[i] = changed
            return replace(answer, values=tuple(values))
    raise ValueError("answer has no non-NULL value to perturb")


class Reference:
    """Reference answers over one immutable set of table arrays.

    ``tables`` maps a table name to ``{column: array}``; grouping
    columns hold integers, as every generated dimension does.  Groupings
    are memoized, so checking a query shape a second time costs only the
    comparison."""

    def __init__(self, tables: dict[str, dict[str, np.ndarray]]):
        self.tables = tables
        self._groups: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _group(self, table: str, cols: tuple[str, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(unique key rows sorted lexicographically, row -> group)``."""
        key = (table, cols)
        if key not in self._groups:
            arrays = self.tables[table]
            if cols:
                # Mixed-radix key, first column most significant, so
                # the 1-D sort orders groups as the rows would sort.
                code = np.zeros(len(arrays[cols[0]]), dtype=np.int64)
                for c in cols:
                    low = int(arrays[c].min())
                    code = code * (int(arrays[c].max()) - low + 1) \
                        + (arrays[c] - low)
                _, first, inverse = np.unique(code, return_index=True,
                                              return_inverse=True)
                uniq = np.stack([arrays[c][first] for c in cols], axis=1)
            else:
                n = len(next(iter(arrays.values())))
                uniq = np.zeros((1, 0), dtype=np.int64)
                inverse = np.zeros(n, dtype=np.int64)
            self._groups[key] = (uniq, inverse.reshape(-1))
        return self._groups[key]

    def _sums(self, spec: Spec, cols: tuple[str, ...]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_group`` plus the measure's sum per group."""
        uniq, inverse = self._group(spec.table, cols)
        sums = np.bincount(inverse,
                           weights=self.tables[spec.table][spec.measure],
                           minlength=len(uniq))
        return uniq, inverse, sums

    # ------------------------------------------------------------------
    def check_vpct(self, spec: Spec, answer: Answer) -> Optional[str]:
        """Vpct (and its OLAP rendition): one row per ``D1..Dk`` group
        holding the group's share of its ``D1..Dj`` total; the shares
        of each total group sum to 1."""
        uniq, fine_inv, fine = self._sums(spec, spec.totals + spec.by)
        coarse_uniq, coarse_inv, coarse = self._sums(spec, spec.totals)
        # Map each fine group to its coarse group through a row that
        # belongs to both.
        parent = np.empty(len(uniq), dtype=np.int64)
        parent[fine_inv] = coarse_inv
        expected = fine / coarse[parent]
        if len(answer.values) != 1:
            return f"expected 1 value column, got {len(answer.values)}"
        if answer.nulls[0].any():
            return "NULL percentage"
        values = answer.values[0]
        if len(values) != len(uniq):
            return f"{len(values)} rows, expected {len(uniq)}"
        order = _lexsort(answer.keys, len(values))
        if answer.keys and not np.array_equal(
                np.stack([k[order] for k in answer.keys], axis=1), uniq):
            return "row keys differ"
        if not _close(values[order], expected):
            return "values differ"
        totals = np.bincount(parent, weights=values[order],
                             minlength=len(coarse_uniq))
        if not np.allclose(totals, 1.0, rtol=0, atol=1e-9):
            return "percentages of a total group do not sum to 1"
        return None

    def check_horizontal(self, spec: Spec, answer: Answer,
                         percentage: bool) -> Optional[str]:
        """Hpct (``percentage``) or Hagg sum: one row per ``D1..Dj``
        group and one column per ``Dj+1..Dk`` combination present in
        ``F``.  A combination absent from a group is 0% in Hpct and
        NULL in Hagg (a sum over no rows).  Hpct rows sum to 1."""
        rows, row_inv = self._group(spec.table, spec.totals)
        combos, combo_inv = self._group(spec.table, spec.by)
        cell = row_inv * len(combos) + combo_inv
        sums = np.bincount(cell,
                           weights=self.tables[spec.table][spec.measure],
                           minlength=len(rows) * len(combos))
        present = np.bincount(cell, minlength=len(rows) * len(combos)) > 0
        sums = sums.reshape(len(rows), len(combos))
        present = present.reshape(len(rows), len(combos))
        if percentage:
            sums = sums / sums.sum(axis=1, keepdims=True)
        try:
            named = [tuple(int(part) for part in name[1:].split("_"))
                     for name in answer.value_names]
        except ValueError:
            return f"unexpected cell column names {answer.value_names[:3]}"
        if sorted(named) != [tuple(int(v) for v in c) for c in combos]:
            return (f"cell columns differ: {len(named)} in the answer, "
                    f"{len(combos)} combinations in F")
        position = {combo: i for i, combo in enumerate(named)}
        order = [position[tuple(int(v) for v in c)] for c in combos]
        values = np.stack([answer.values[i] for i in order], axis=1)
        nulls = np.stack([answer.nulls[i] for i in order], axis=1)
        n_rows = values.shape[0]
        if n_rows != len(rows):
            return f"{n_rows} rows, expected {len(rows)}"
        row_order = _lexsort(answer.keys, n_rows)
        if answer.keys and not np.array_equal(
                np.stack([k[row_order] for k in answer.keys], axis=1),
                rows):
            return "row keys differ"
        values, nulls = values[row_order], nulls[row_order]
        if percentage:
            if nulls.any():
                return "NULL percentage cell"
            if np.any(values[~present] != 0.0):
                return "absent combinations are not 0%"
        elif not np.array_equal(nulls, ~present):
            return "NULL cells differ from absent combinations"
        if not _close(values[present], sums[present]):
            return "cell values differ"
        if percentage and not np.allclose(
                np.where(present, values, 0.0).sum(axis=1), 1.0,
                rtol=0, atol=1e-9):
            return "a row's percentages do not sum to 1"
        return None


def _lexsort(keys: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """Row order sorting ``keys`` lexicographically (first key most
    significant), as ``Reference._group`` orders reference rows."""
    if not keys:
        return np.arange(n)
    return np.lexsort(tuple(reversed(keys)))


def _close(actual: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.all(np.abs(actual - expected)
                       <= REL_TOL * np.maximum(1.0, np.abs(expected))))
