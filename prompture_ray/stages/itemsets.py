"""Co-occurrence pattern mining: frequent item pairs over baskets
(the market-basket / co-click / co-citation staple — support counting
for unordered item pairs, the k=2 core of Apriori/FP-growth that
dominates real pipelines).

Reference analogue: prompture's consensus voting counts agreeing value
pairs across model runs (prompture/consensus.py); this is the corpus
generalization — exact support counts of items co-occurring within a
grouping key, counted once per basket.

Exactness contract (the oracle basis): a pair (a, b), a < b in binary
collation (UTF-8 byte order == code-point order for strings, numeric
order otherwise), is supported by basket B iff both items occur in B
(multiplicity ignored — per-basket DISTINCT first). ``support(a, b)``
= number of supporting baskets; output keeps pairs with support >=
``min_support``. Plain integer counting — SQL replays it with a
self-join on DISTINCT (basket, item).

Scale shape: per-batch map-side shrink to distinct (basket, item)
pairs, then ONE ``shuffle.partition_fold`` on the basket so every
basket lands wholly in one bounded frame (a null basket pairs with
nothing, as in a SQL self-join); per fold frame a single VECTORIZED
pass (lexsort → group sizes → arithmetic pair expansion, never a frame
or Python loop per basket) emits the pair rows; ONE
``shuffle.aggregate`` counts them per pair, bounded by the pair
vocabulary. Pair
expansion is quadratic in basket size by nature — ``max_basket_items``
drops oversized baskets entirely (the standard cap in production
miners, where one degenerate basket would emit billions of pairs) —
part of the operator's semantics, mirrored in any oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from prompture_ray.stages.shuffle import (aggregate, auto_n_parts,
                                          partition_fold)


def pairs_within_sorted_groups(group_sizes: np.ndarray):
    """GLOBAL index arrays (li, ri) of every within-group pair (i < j)
    for elements laid out group-contiguously with the given sizes —
    pure arithmetic (repeat/cumsum), no Python loop. Shared by
    frequent_pairs and graph.triangle_counts (out-wedge generation)."""
    c = np.asarray(group_sizes, dtype=np.int64)
    n = int(c.sum()) if len(c) else 0
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    starts = np.cumsum(np.r_[np.int64(0), c[:-1]])
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, c)
    left_cnt = np.repeat(c, c) - 1 - local
    li = np.repeat(np.arange(n, dtype=np.int64), left_cnt)
    if not len(li):
        return li, li
    run_starts = np.cumsum(np.r_[np.int64(0), left_cnt[:-1]])
    off = np.arange(int(left_cnt.sum()), dtype=np.int64) \
        - np.repeat(run_starts, left_cnt)
    return li, li + 1 + off


def frequent_pairs(ds, basket_col: str, item_col: str, *,
                   min_support: int = 2,
                   max_basket_items: int = 10_000,
                   n_parts: int | None = None):
    """Dataset ``(item_a, item_b, support)`` of unordered item pairs
    (``item_a < item_b``) co-occurring in at least ``min_support``
    baskets. See module docstring for the contract and scale shape.
    Without ``n_parts``, ``auto_n_parts(ds)`` sizes the shuffle by
    counting ``ds``: cheap for a plain parquet read, a full run of a
    mapped or projected input, so pass ``n_parts`` for those (the
    registry query sizes it from its plain read)."""
    nparts = n_parts or auto_n_parts(ds)

    def distinct(t: pa.Table) -> pa.Table:
        return t.select([basket_col, item_col]).group_by(
            [basket_col, item_col]).aggregate([])

    def mine(g: pd.DataFrame) -> pd.DataFrame:
        # a null basket pairs with nothing (SQL self-join semantics)
        g = g[g[basket_col].notna()] \
            .drop_duplicates([basket_col, item_col]) \
            .sort_values([basket_col, item_col], kind="mergesort")
        b = g[basket_col].to_numpy()
        it = g[item_col].to_numpy()
        first = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        sizes = np.diff(np.r_[first, len(b)])
        ok = sizes <= max_basket_items
        if not ok.all():
            keep = np.repeat(ok, sizes)
            b, it = b[keep], it[keep]
            first = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
            sizes = np.diff(np.r_[first, len(b)])
        li, ri = pairs_within_sorted_groups(sizes)
        return pd.DataFrame({"item_a": it[li], "item_b": it[ri]})

    pairs = partition_fold(
        ds.map_batches(distinct, batch_format="pyarrow"),
        [basket_col], mine, n_parts=nparts)
    folded = aggregate(pairs, ["item_a", "item_b"],
                       support=("count", None))

    def thresh(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater_equal(t["support"], min_support))

    return folded.map_batches(thresh, batch_format="pyarrow")
