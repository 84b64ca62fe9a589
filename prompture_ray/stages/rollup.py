"""ROLLUP / CUBE aggregation: grouping-set levels of a dimension list —
every prefix (ROLLUP) or every subset (CUBE) — computed in ONE pass
over the data.

Reference analogue: the suite report's nested rollups (per-check, then
per-column, then suite totals — prompture/cli/formatters.py:8
``format_table`` folds the same counts at three levels). Generalized
to SQL ``GROUP BY ROLLUP`` / ``CUBE`` semantics over a Dataset.

Scale shape: each batch is expanded to one row per level (rolled-up
dimensions take the ``__all__`` sentinel), so the data is scanned once,
and ONE ``shuffle.aggregate`` sums them: its per-batch combine shrinks
every level to its group count before the shuffle, so levels don't
multiply the shuffle, and the sentinel keys keep every level in ONE
grouped aggregate. Output rows are unordered.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

ALL = "__all__"


def _grouping_set_aggregate(ds, dims: list[str], value_col: str,
                            sets: list[tuple[str, ...]]):
    """Sum + count of ``value_col`` at every grouping set in ``sets``.
    Dimension columns are cast to string (the sentinel lives in the
    same column); output columns: dims..., total, n."""
    from prompture_ray.stages.shuffle import aggregate

    def levels(b: pd.DataFrame) -> pd.DataFrame:
        b = b[dims + [value_col]].astype({d: str for d in dims})
        return pd.concat([b.assign(**{d: ALL for d in dims
                                      if d not in keys})
                          for keys in sets], ignore_index=True)

    return aggregate(ds.map_batches(levels, batch_format="pandas"), dims,
                     total=("sum", value_col), n=("count", value_col))


def rollup_aggregate(ds, dims: list[str], value_col: str):
    """SQL ``GROUP BY ROLLUP`` — every prefix level of ``dims``."""
    sets = [tuple(dims[:lvl]) for lvl in range(len(dims), -1, -1)]
    return _grouping_set_aggregate(ds, dims, value_col, sets)


def pivot_counts(ds, key_col: str, cat_col: str, categories: list[str],
                 value_col: str | None = None, prefix: str = "n_"):
    """Long -> wide pivot: one output row per ``key_col`` value with an
    int64 column ``{prefix}{cat}`` per category holding the row count
    (or the exact int64 sum of ``value_col``) of that (key, category)
    cell — SQL's conditional-aggregation ``SUM(CASE WHEN cat = 'x' THEN
    ...)`` crosstab. Rows whose category is not in ``categories`` are
    ignored (pass the full domain to keep everything). The category
    domain must be caller-supplied and bounded: a pivot's output width
    IS its category count, so an unbounded domain is a schema explosion
    no engine should guess at.

    Scale shape: each row becomes one narrow wide row (its value, or 1,
    in its category's column and 0 in the others), and ONE
    ``shuffle.aggregate`` sums the columns per key (a null key is its
    own row). Rows never shuffle whole; the wide table never
    materializes on the driver. Output rows are unordered."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from prompture_ray.stages.shuffle import aggregate

    categories = list(categories)
    names = [f"{prefix}{c}" for c in categories]

    def cells(t: pa.Table) -> pa.Table:
        vals = pa.array(np.ones(t.num_rows, dtype=np.int64)) \
            if value_col is None \
            else pc.cast(t[value_col], pa.int64()).fill_null(0)
        cols = {key_col: t[key_col]}
        for c, name in zip(categories, names):
            hit = pc.fill_null(pc.equal(t[cat_col], c), False)
            cols[name] = pc.if_else(hit, vals, 0)
        return pa.table(cols)

    return aggregate(ds.map_batches(cells, batch_format="pyarrow"),
                     [key_col], **{name: ("sum", name) for name in names})


def cube_aggregate(ds, dims: list[str], value_col: str):
    """SQL ``GROUP BY CUBE`` — every subset of ``dims`` (2^d grouping
    sets). Same one-pass sentinel-keyed discipline as ROLLUP: each
    batch expands to rows for all subsets at once, and
    ``shuffle.aggregate``'s per-batch combine shrinks them before its
    single shuffle, so the subset count never multiplies the data scan
    count."""
    sets: list[tuple[str, ...]] = [()]
    for d in dims:
        sets += [s + (d,) for s in sets]
    sets.sort(key=len, reverse=True)
    return _grouping_set_aggregate(ds, dims, value_col, sets)
