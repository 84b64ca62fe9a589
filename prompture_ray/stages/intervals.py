"""Interval analytics over an event/span table: per-key interval-union
coverage (gaps-and-islands) and dense time-grid gap filling.

Reference analogue: prompture's UsageTracker session accounting
(prompture/infra/tracker.py) folds first/last-seen spans per entity;
these are the two standard span rollups a web-scale event table needs —
total covered time from overlapping intervals (session stitching, SLA
uptime, crawl-activity windows) and a zero-filled dense series per key
(dashboard grids, forecasting inputs).

Exactness contract (the oracle basis): everything is int64 arithmetic.
``interval_coverage`` unions half-open intervals ``[s, e)``:
sorted by ``(key, s, e)``, an interval starts a new island iff
``s > running_max(e)`` over the key's preceding intervals (touching
intervals — ``s == max_e`` — merge); ``covered = Σ island_max_e -
island_min_s``. Tie order among equal ``(s, e)`` rows cannot change
island boundaries (symmetric), so the result is deterministic and SQL
window functions replay it exactly. ``gap_fill`` emits one row per key
per grid step between the key's min and max observed step with exact
zero-filled counts — ``unnest(generate_series(...))`` in SQL.

Scale shape (both): per-batch map-side shrink (coverage: rows project
to (key, s, e) rows; gap_fill: per-batch partial
counts), then ONE ``shuffle.partition_fold`` on the key so every key
lands wholly in one bounded frame, then a single VECTORIZED pass per
partition handles all keys at once (the repo rule: never a frame per
key). ``P`` auto-sizes from the row count; groupby input blocks are
bounded by the partition count (round-5 block-count pathology).
gap_fill's output is dense by construction — callers bound the grid
span (``max_steps`` guard raises on a key whose range would explode
the output, the documented contract for open-ended event feeds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages.shuffle import auto_n_parts, partition_fold


def interval_coverage(ds, key_col: str, start_col: str, end_col: str,
                      *, n_parts: int | None = None):
    """Per-key union statistics over half-open int64 intervals
    ``[start, end)``: Dataset ``(key_col, n_intervals, n_islands,
    covered)``. Intervals with ``end <= start`` are dropped (documented
    contract — zero/negative spans contribute nothing to a union).
    See module docstring for the island rule and the scale shape.
    Without ``n_parts``, ``auto_n_parts(ds)`` sizes the shuffle by
    counting ``ds``: cheap for a plain parquet read, a full run of a
    mapped or projected input, so pass ``n_parts`` for those (the
    registry query sizes it from its plain read)."""
    nparts = n_parts or auto_n_parts(ds)

    def tag(t: pa.Table) -> pa.Table:
        s = pc.cast(t[start_col], pa.int64())
        e = pc.cast(t[end_col], pa.int64())
        keep = pc.greater(e, s)
        return pa.table({key_col: t[key_col], "__s": s, "__e": e}) \
            .filter(keep)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "__s", "__e"], kind="mergesort")
        k = g[key_col].to_numpy()
        s = g["__s"].to_numpy()
        # running max of e within key (pandas cummax keeps int64)
        cm = g.groupby(key_col, sort=False)["__e"].cummax().to_numpy()
        new_key = np.r_[True, k[1:] != k[:-1]]
        prev_cm = np.r_[np.int64(0), cm[:-1]]
        new_island = new_key | (s > prev_cm)
        starts = np.flatnonzero(new_island)
        ends = np.r_[starts[1:] - 1, len(k) - 1] if len(starts) \
            else np.empty(0, dtype=np.int64)
        isl = pd.DataFrame({
            key_col: k[starts],
            "cov": cm[ends] - s[starts]})
        agg = isl.groupby(key_col, sort=False)["cov"] \
            .agg(["sum", "count"]).reset_index()
        n_iv = g.groupby(key_col, sort=False).size() \
            .rename("n_intervals").reset_index()
        out = n_iv.merge(agg, on=key_col)
        return pd.DataFrame({
            key_col: out[key_col],
            "n_intervals": out["n_intervals"].astype("int64"),
            "n_islands": out["count"].astype("int64"),
            "covered": out["sum"].astype("int64")})

    return partition_fold(ds.map_batches(tag, batch_format="pyarrow"),
                          [key_col], fold, n_parts=nparts)


def gap_fill(ds, key_col: str, step_col: str, *,
             n_parts: int | None = None, max_steps: int = 1_000_000):
    """Dense per-key grid: one row ``(key_col, step_col, n)`` for EVERY
    integer step between the key's min and max observed step, with
    ``n`` = exact count of input rows at that (key, step) and 0 where
    no row exists. ``step_col`` must already be the integer grid unit
    (hour index, day index — the caller floors timestamps). Raises if
    any single key's span exceeds ``max_steps`` (dense output on an
    unbounded feed is a caller bug, not something to silently emit).

    Scale shape: per-batch Arrow partial counts (≤ keys × steps rows
    per batch) → ONE ``shuffle.partition_fold`` of the partial rows →
    one vectorized expansion pass per fold frame (repeat/arange over all
    keys at once + searchsorted merge of the observed counts).
    Without ``n_parts``, ``auto_n_parts(ds)`` sizes the shuffle by
    counting ``ds``: cheap for a plain parquet read, a full run of a
    mapped or projected input, so pass ``n_parts`` for those (the
    registry query sizes it from its plain read)."""
    nparts = n_parts or auto_n_parts(ds)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_col, step_col]).group_by(
            [key_col, step_col]).aggregate([([], "count_all")])
        return pa.table({
            key_col: g[key_col],
            "__h": g[step_col].cast(pa.int64()),
            "__n": g["count_all"].cast(pa.int64())})

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        # fold batch partials to global (key, step) counts first
        g = g.groupby([key_col, "__h"], sort=False)["__n"].sum() \
            .reset_index().sort_values([key_col, "__h"],
                                       kind="mergesort")
        k = g[key_col].to_numpy()
        h = g["__h"].to_numpy()
        n = g["__n"].to_numpy()
        if not len(k):   # the null-key partition: groupby drops nulls
            return pd.DataFrame({key_col: k, step_col: h, "n": n})
        first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        last = np.r_[first[1:] - 1, len(k) - 1]
        spans = h[last] - h[first] + 1
        if len(spans) and spans.max() > max_steps:
            bad = k[first[int(np.argmax(spans))]]
            raise ValueError(
                f"gap_fill: key {bad!r} spans {int(spans.max())} steps "
                f"> max_steps={max_steps}")
        total = int(spans.sum()) if len(spans) else 0
        # dense grid: for each key, h_min .. h_max inclusive
        key_rep = np.repeat(np.arange(len(first)), spans)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(np.r_[np.int64(0), spans[:-1]]), spans)
        grid_h = h[first][key_rep] + offs
        # merge observed counts: global position = key block start + off
        block0 = np.cumsum(np.r_[np.int64(0), spans[:-1]])
        kb = np.repeat(np.arange(len(first)),
                       np.diff(np.r_[first, len(k)]))
        obs_pos = block0[kb] + (h - h[first][kb])
        dense = np.zeros(total, dtype=np.int64)
        dense[obs_pos] = n
        return pd.DataFrame({
            key_col: k[first][key_rep],
            step_col: grid_h,
            "n": dense})

    return partition_fold(ds.map_batches(partial, batch_format="pyarrow"),
                          [key_col], expand, n_parts=nparts)
