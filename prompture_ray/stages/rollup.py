"""ROLLUP / CUBE aggregation: grouping-set levels of a dimension list —
every prefix (ROLLUP) or every subset (CUBE) — computed in ONE pass
over the data.

Reference analogue: the suite report's nested rollups (per-check, then
per-column, then suite totals — prompture/cli/formatters.py:8
``format_table`` folds the same counts at three levels). Generalized
to SQL ``GROUP BY ROLLUP`` / ``CUBE`` semantics over a Dataset.

Scale shape: a per-batch pandas partial emits (sum, count) rows for ALL
levels at once (rolled-up dimensions take the ``__all__`` sentinel), so
the data is scanned once and only tiny partial rows enter the single
grouped shuffle — the map-side-combine discipline every wide aggregate
in this repo follows. Levels don't multiply the shuffle: level-l
partials are bounded by the level-l group count per batch, and the
sentinel keys keep every level in ONE groupby.
"""

from __future__ import annotations

import pandas as pd

ALL = "__all__"


def _grouping_set_aggregate(ds, dims: list[str], value_col: str,
                            sets: list[tuple[str, ...]]):
    """Sum + count of ``value_col`` at every grouping set in ``sets``.
    Dimension columns are cast to string (the sentinel lives in the
    same column); output columns: dims..., total, n."""
    from ray.data.aggregate import Sum

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        for d in dims:
            b[d] = b[d].astype(str)
        outs = []
        for keys in sets:
            keys = list(keys)
            if keys:
                g = b.groupby(keys, sort=False)[value_col] \
                    .agg(total="sum", n="count").reset_index()
            else:
                g = pd.DataFrame({"total": [b[value_col].sum()],
                                  "n": [len(b)]})
            for d in dims:
                if d not in keys:
                    g[d] = ALL
            outs.append(g[dims + ["total", "n"]])
        out = pd.concat(outs, ignore_index=True)
        out["total"] = out["total"].astype("int64")
        out["n"] = out["n"].astype("int64")
        return out

    return ds.map_batches(partial, batch_format="pandas") \
        .groupby(dims).aggregate(Sum("total", alias_name="total"),
                                 Sum("n", alias_name="n"))


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

    Scale shape: per-batch pandas partial (one row per key per batch,
    all category columns at once — the rollup sentinel discipline),
    bounded by ``shuffle.bound_blocks`` (groupby sort cost follows
    input block count), then ONE grouped Sum over the narrow partial
    rows. Rows never shuffle; the wide table never
    materializes on the driver."""
    from ray.data.aggregate import Sum
    from prompture_ray.stages.shuffle import bound_blocks

    categories = list(categories)
    names = [f"{prefix}{c}" for c in categories]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vals = b[value_col] if value_col is not None \
            else pd.Series(1, index=b.index)
        wide = pd.DataFrame({key_col: b[key_col]})
        cat = b[cat_col]
        for c, name in zip(categories, names):
            m = (cat == c)
            wide[name] = vals.where(m, 0)
        g = wide.groupby(key_col, sort=False)[names].sum().reset_index()
        for name in names:
            g[name] = g[name].astype("int64")
        return g

    return bound_blocks(ds.map_batches(partial, batch_format="pandas")) \
        .groupby(key_col).aggregate(
            *[Sum(name, alias_name=name) for name in names])


def cube_aggregate(ds, dims: list[str], value_col: str):
    """SQL ``GROUP BY CUBE`` — every subset of ``dims`` (2^d grouping
    sets). Same one-pass sentinel-keyed partial discipline as ROLLUP:
    the per-batch partial emits rows for all subsets at once, so the
    subset count multiplies only the (tiny) partial rows entering the
    single grouped shuffle, never the data scan count."""
    sets: list[tuple[str, ...]] = [()]
    for d in dims:
        sets += [s + (d,) for s in sets]
    sets.sort(key=len, reverse=True)
    return _grouping_set_aggregate(ds, dims, value_col, sets)
