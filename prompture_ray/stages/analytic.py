"""Analytic (ordered-window) functions per key: row_number, lag, lead,
rolling sum / mean over the last W rows.

Reference analogue: Prompture's stepwise usage accumulation walks records
in order updating running state (prompture/infra/usage.py's per-call
totals and the streaming accumulate loop, prompture/extraction/
streaming.py:215-306); these operators generalize that "ordered walk with
carried state" to per-key analytic columns over a distributed Dataset —
SQL's ``row_number() / lag / lead / sum OVER (PARTITION BY key ORDER BY
ts ROWS BETWEEN W-1 PRECEDING AND CURRENT ROW)``.

Two forms:

- ``analytic_window`` — one key = one pandas group (reference-shaped;
  breaks when a hot key's history exceeds a worker).
- ``analytic_window_bucketed`` — group size bounded by (key × coarse
  time bucket). Per-cell local analytics are computed inside bounded
  ``shuffle.partition_fold`` frames with ONE vectorized pandas pass
  (never a frame per tiny cell — the repo's round-4 rule); cross-cell
  corrections ride on TINY per-cell patch rows (row-number offset,
  previous cell's last W-1 values right-aligned into W-1 int columns,
  next cell's first value) that ``shuffle.lookup`` maps back by (key,
  bucket). Up to ``shuffle.BROADCAST_MAX`` cells the driver collects
  and broadcasts them (~260 B per cell at its peak for W=3, ~5 GB at
  the 20M limit) and rows never shuffle again; beyond it the patches
  stay distributed (hash buckets).

Exactness: values are summed as int64 (callers pass an integer value
column — the q1 integer-units trick), so ``msum`` is association-free
and ``mavg = msum / min(rn, W)`` is ONE correctly-rounded double
division of exactly representable ints on both engine and SQL sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages import shuffle
from prompture_ray.stages.shuffle import aggregate, lookup, partition_fold


def _plain_run(order_cols: list, value_col: str, window: int):
    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, kind="mergesort").copy()
        v = g[value_col].to_numpy().astype(np.int64)
        n = len(v)
        cum = v.cumsum()
        rn = np.arange(1, n + 1, dtype=np.int64)
        shifted = np.zeros(n, dtype=np.int64)
        if n > window:
            shifted[window:] = cum[:-window]
        msum = cum - shifted
        lag = np.full(n, np.nan)
        lead = np.full(n, np.nan)
        if n > 1:
            lag[1:] = v[:-1]
            lead[:-1] = v[1:]
        g["rn"] = rn
        g["lag_v"] = lag
        g["lead_v"] = lead
        g["msum"] = msum
        g["mavg"] = msum / np.minimum(rn, window)
        return g
    return run


def analytic_window(ds, key_col: str, order_cols: list, value_col: str,
                    window: int = 3):
    """Per-key analytic columns, one key per pandas group. ``order_cols``
    must be a unique ordering within a key (pass a tiebreaker)."""
    return ds.groupby(key_col).map_groups(
        _plain_run(order_cols, value_col, window), batch_format="pandas")


def analytic_window_bucketed(ds, key_col: str, ts_col: str, tie_col: str,
                             value_col: str, window: int = 3,
                             bucket: "pd.Timedelta | str" = "1d",
                             n_parts: int = 64):
    """Hot-key-safe analytic window (see module docstring). Equality with
    ``analytic_window`` is pinned by test, including cells smaller than
    the window (patch tails span multiple preceding cells). Phase 1
    hands pandas only the key, bucket, order and value columns
    (``windows._cell_fold``), phase 3 is ``shuffle.lookup`` and an
    Arrow finish, so passthrough columns keep their Arrow types.
    Null-key rows are dropped: they have no cell to look a patch up for."""
    from prompture_ray.stages.windows import _cell_fold, _cell_tagger
    assert window >= 2, "window < 2 degenerates; use window >= 2"
    W = int(window)
    ptail_cols = [f"__p{j}" for j in range(1, W)]   # __p1 .. __p{W-1}
    cell = [key_col, "__bucket"]
    tagged = ds.map_batches(_cell_tagger(key_col, ts_col, bucket, True),
                            batch_format="pyarrow")

    # phase 1: local analytics per (key, bucket) cell — ONE vectorized
    # pandas pass over all cells in a bounded hash-partition frame
    def local(g: pd.DataFrame) -> dict:
        grp = g.groupby(cell, sort=False)
        lcum = grp[value_col].cumsum().astype(np.int64)
        lsh = lcum.groupby([g[key_col], g["__bucket"]], sort=False) \
            .shift(W).fillna(0).astype(np.int64)
        return {"__lrn": (grp.cumcount() + 1).astype(np.int64),
                "__n": grp[value_col].transform("size").astype(np.int64),
                "__lmsum": lcum - lsh,
                "__llag": grp[value_col].shift(1).astype(np.float64),
                "__llead": grp[value_col].shift(-1).astype(np.float64)}

    part = partition_fold(
        tagged, cell,
        _cell_fold(cell + [ts_col, tie_col], [value_col], local),
        n_parts=n_parts, batch_format="pyarrow").materialize()

    # phase 2: per-cell patch rows from BOUNDARY rows only (first / last /
    # trailing W-1 rows of each cell — ≤ W+1 rows per cell reach this
    # group, so a key's footprint here is tiny even for an unbounded
    # history). Keys are folded into hash partitions and ALL keys of a
    # partition are patched in ONE vectorized pandas pass (never a frame
    # per key — the round-4 tiny-cells rule; ADVICE r4 flagged the
    # groupby(key).map_groups form this replaces).
    def boundary(b: pa.Table) -> pa.Table:
        lrn, n = b["__lrn"].to_numpy(), b["__n"].to_numpy()
        keep = (lrn == 1) | (lrn == n) | (lrn > n - (W - 1))
        return b.select(cell + ["__lrn", "__n", value_col]) \
            .filter(pa.array(keep))

    def patches_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "__bucket", "__lrn"],
                          kind="mergesort")
        lrn = g["__lrn"].to_numpy().astype(np.int64)
        n = g["__n"].to_numpy().astype(np.int64)
        vals = g[value_col].to_numpy().astype(np.int64)
        # one row per cell, aligned by construction: exactly one lrn==1
        # and one lrn==n row per cell, in the same (key, bucket) order
        f_mask, l_mask = lrn == 1, lrn == n
        cells = pd.DataFrame({
            key_col: g[key_col].to_numpy()[f_mask],
            "__bucket": g["__bucket"].to_numpy()[f_mask],
            "__n": n[f_mask],
            "__first": vals[f_mask].astype(np.float64),
            "__last": vals[l_mask].astype(np.float64)})
        grp = cells.groupby(key_col, sort=False)
        cum = grp["__n"].cumsum().to_numpy()
        cells["__rnoff"] = (cum - cells["__n"].to_numpy()) \
            .astype(np.int64)
        cells["__prevlast"] = grp["__last"].shift(1).to_numpy()
        cells["__nextfirst"] = grp["__first"].shift(-1).to_numpy()
        plen = np.minimum(cells["__rnoff"].to_numpy(), W - 1) \
            .astype(np.int64)
        cells["__plen"] = plen
        # ptail columns from the global "tail stream": the trailing
        # min(n, W-1) rows of every cell, in (key, bucket, lrn) order.
        # The last W-1 stream entries before a cell ARE the last W-1
        # values of the key's full prefix (each prefix value lives in
        # its own cell's trailing W-1). Cell c's stream prefix ends at
        # global index e = cumsum(tail_n) - tail_n; __pj = stream
        # [e - W + j], valid only when j >= W - plen — the mask also
        # keeps the index inside this key's own stream run.
        tv = vals[lrn > n - (W - 1)]
        tn = np.minimum(cells["__n"].to_numpy(), W - 1)
        e = np.cumsum(tn) - tn
        for j, cname in enumerate(ptail_cols, start=1):
            idx = np.clip(e - W + j, 0, max(len(tv) - 1, 0))
            ok = j >= (W - plen)
            cells[cname] = np.where(
                ok, tv[idx] if len(tv) else 0, 0).astype(np.int64)
        return cells.drop(columns=["__n", "__first", "__last"])

    # materialized: lookup counts and collects its table
    patch_ds = partition_fold(
        part.map_batches(boundary, batch_format="pyarrow"), [key_col],
        patches_part, n_parts=n_parts).materialize()

    patch_cols = ["__rnoff", "__prevlast", "__plen", "__nextfirst"] \
        + ptail_cols

    def finish(b: pa.Table) -> pa.Table:
        def col(c):
            return b[c].to_numpy()

        lrn = col("__lrn").astype(np.int64)
        n = col("__n").astype(np.int64)
        rn = lrn + col("__rnoff").astype(np.int64)
        plen = col("__plen").astype(np.int64)
        lag = np.where(lrn == 1, col("__prevlast"), col("__llag"))
        lead = np.where(lrn == n, col("__nextfirst"), col("__llead"))
        take = np.minimum(np.maximum(W - lrn, 0), plen)
        msum = col("__lmsum").astype(np.int64)
        for j, cname in enumerate(ptail_cols, start=1):
            msum = msum + np.where(take >= (W - j),
                                   col(cname).astype(np.int64), 0)
        out = b.drop_columns(["__bucket", "__lrn", "__n", "__lmsum",
                              "__llag", "__llead"] + patch_cols)
        for name, v in (("rn", rn), ("lag_v", lag), ("lead_v", lead),
                        ("msum", msum), ("mavg", msum / np.minimum(rn, W))):
            out = out.append_column(name, pa.array(v, from_pandas=True))
        return out

    return lookup(part, patch_ds, cell, patch_cols,
                  broadcast_max=shuffle.BROADCAST_MAX) \
        .map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# top-k rows per group (training-data selection per domain/language —
# SQL's row_number() OVER (PARTITION BY key ORDER BY ...) <= k)
# ---------------------------------------------------------------------------
def top_k_per_group(ds, key_col: str, order_col: str, k: int,
                    tie_col: str, ascending: bool = False,
                    n_parts: int = 64):
    """Keep the top ``k`` rows of every group, ordered by ``order_col``
    (descending by default) with ``tie_col`` ascending as the
    deterministic tie-break. Returns the surviving rows (all input
    columns) plus an ``rk`` rank column (1-based).

    Scale shape: a per-batch PARTIAL top-k (one vectorized sort +
    ``groupby.head(k)`` per batch — any row outside its batch-local
    top k can't be in the global top k) shrinks the shuffle to
    <= k rows per (key, batch); the final ``shuffle.partition_fold``
    pass re-ranks every key of a fold frame in ONE vectorized pandas
    pass (never a frame per key). No global sort, no driver state.
    """
    by = [key_col, order_col, tie_col]
    asc = [True, ascending, True]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(by, ascending=asc, kind="mergesort")
        return b.groupby(key_col, sort=False).head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, ascending=asc, kind="mergesort")
        g = g.groupby(key_col, sort=False).head(k)
        g["rk"] = g.groupby(key_col, sort=False).cumcount() + 1
        g["rk"] = g["rk"].astype("int64")
        return g

    return partition_fold(ds.map_batches(partial, batch_format="pandas"),
                          [key_col], final, n_parts=n_parts)


# ---------------------------------------------------------------------------
# percent_rank per key (per-domain score normalization) — SQL's
# percent_rank() OVER (PARTITION BY key ORDER BY value)
# ---------------------------------------------------------------------------
def percent_rank_by_key(ds, key_col: str, value_col: str,
                        out_col: str = "pr",
                        broadcast_max: int = 20_000_000):
    """Append ``out_col`` = (rank-1)/(n_key-1) with rank = the min rank
    over ties (SQL RANK), 0.0 for single-row keys. IEEE-exact against a
    SQL ``percent_rank()`` oracle: both sides compute the SAME single
    correctly-rounded double division of exactly representable ints —
    no rounding step anywhere.

    Scale shape: ONE ``shuffle.aggregate`` row count per DISTINCT
    (key, value) — a table inherently
    compressed (|keys| x |distinct values|, independent of row count).
    That table is collected once (must fit ``broadcast_max`` rows — a
    genuinely huge distinct set wants a pre-bucketing the caller can do
    by quantizing ``value_col``), cumsum'd per key vectorized into a
    (key, value, pr) cell table, and ``shuffle.lookup`` maps that table
    back onto the rows by (key, value). Rows themselves NEVER shuffle. A
    row with a null (or NaN) key or value is not ranked and gets a null
    ``out_col``."""
    import ray

    def ranked(t: pa.Table) -> pa.Table:
        t = t.select([key_col, value_col])
        null = pc.or_(pc.is_null(t[key_col], nan_is_null=True),
                      pc.is_null(t[value_col], nan_is_null=True))
        return t.filter(pc.invert(null))

    cells = aggregate(ds.map_batches(ranked, batch_format="pyarrow"),
                      [key_col, value_col], c=("count", None)).materialize()
    n_cells = cells.count()
    if n_cells > broadcast_max:
        raise RuntimeError(
            f"distinct (key, value) table too large to broadcast "
            f"({n_cells} > {broadcast_max}); quantize {value_col} or "
            f"raise broadcast_max")
    cdf = cells.to_pandas().sort_values([key_col, value_col],
                                        kind="mergesort",
                                        ignore_index=True)
    c = cdf["c"].to_numpy().astype(np.int64)
    keys = cdf[key_col].to_numpy()
    if keys.dtype.kind not in "iu":
        keys = np.asarray(keys, dtype=object)
    new_key = np.ones(len(cdf), dtype=bool)
    if len(cdf) > 1:
        new_key[1:] = keys[1:] != keys[:-1]
    # rank of a cell = 1 + rows of the same key with smaller value:
    # (global rows before the cell) - (global rows before its key),
    # the latter propagated from each key's first cell by a segmented
    # maximum.accumulate (csum-c is non-decreasing)
    csum = np.cumsum(c)
    seg_start_total = np.maximum.accumulate(
        np.where(new_key, csum - c, np.int64(np.iinfo(np.int64).min)))
    rank = (csum - c) - seg_start_total + 1
    key_idx = np.cumsum(new_key) - 1
    n_per_key = np.bincount(key_idx, weights=c).astype(np.int64)
    n = n_per_key[key_idx]
    cdf[out_col] = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
    table = ray.data.from_arrow(pa.Table.from_pandas(
        cdf[[key_col, value_col, out_col]], preserve_index=False))
    return lookup(ds, table, [key_col, value_col], [out_col],
                  broadcast_max=broadcast_max)


def global_row_number(ds, order_col: str, out_col: str = "rownum",
                      bucket: "str" = "1s"):
    """0-based global row number in ``order_col`` order — the
    zipWithIndex primitive Ray Data lacks (beyond the reference; used
    for stable corpus ordering / resumable offsets). ``order_col`` must
    be an int64 key; ties are assigned unique but layout-dependent
    numbers, so pass a duplicate-free key for determinism (ids).

    Distribution is the pack_sequences shape: ONE constant-key run of
    ``windows.running_aggregate_bucketed`` (phase-bounded cells, offsets
    mapped back by ``shuffle.lookup``; the driver holds one row per
    cell, a thousand for 10^9 ids at 1M per cell) with value 1 —
    the running count minus one is the row number. ``bucket`` bounds
    cell size in order_col units ('1s' = 1M per cell for dense id
    spaces). Every other column passes through with its Arrow type."""
    from prompture_ray.stages.windows import running_aggregate_bucketed

    def prep(t: pa.Table) -> pa.Table:
        ids = t[order_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.cast(pa.int64())
        t = t.append_column("__k", pa.array(
            np.zeros(t.num_rows, dtype=np.int64)))
        t = t.append_column("__ts", ids.cast(pa.timestamp("us")))
        return t.append_column("__one", pa.array(
            np.ones(t.num_rows, dtype=np.int64)))

    run = running_aggregate_bucketed(
        ds.map_batches(prep, batch_format="pyarrow"),
        "__k", "__ts", "__one", bucket=bucket)

    def finish(b: pa.Table) -> pa.Table:
        return b.drop_columns(["__k", "__ts", "__one", "running_sum"]) \
            .append_column(out_col, pc.subtract(b["running_sum"], 1))

    return run.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# forward fill (LOCF) per key — SQL's last_value(x IGNORE NULLS) OVER
# (PARTITION BY key ORDER BY ts, tie ROWS UNBOUNDED PRECEDING)
# ---------------------------------------------------------------------------
def forward_fill(ds, key_col: str, ts_col: str, tie_col: str,
                 value_cols: list, n_parts: int = 64):
    """Last-observation-carried-forward per key: every null in
    ``value_cols`` takes the most recent non-null value of the same key
    in (``ts_col``, ``tie_col``) order; leading nulls stay null — the
    sensor/stream gap-repair primitive.

    Scale shape: one ``shuffle.partition_fold`` on the key (every key
    lands wholly in one partition), then one vectorized sort +
    ``groupby.ffill`` pandas pass per fold frame; never a frame per key,
    no driver state. Auto-size ``n_parts`` ≈ rows / 5M for
    huge inputs. Int64 value columns travel as nullable Int64 inside
    the partition pass (``types_mapper``), so hash-magnitude payloads
    are NOT widened to float64 (the round-4 arrow-union lesson)."""
    _int64 = {pa.int64(): pd.Int64Dtype(), pa.int32(): pd.Int64Dtype()}

    def fill(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas(types_mapper=_int64.get)
        df = df.sort_values([key_col, ts_col, tie_col],
                            kind="mergesort")
        df[value_cols] = df.groupby(key_col, sort=False)[value_cols] \
            .ffill()
        return df

    return partition_fold(ds, [key_col], fill, n_parts=n_parts,
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# generic per-key lag/lead shift — SQL's lag(col, k) / lead(col, k)
# OVER (PARTITION BY key ORDER BY ts, tie)
# ---------------------------------------------------------------------------
def lag_shift(ds, key_col: str, ts_col: str, tie_col: str,
              cols: list, shifts=(1,), n_parts: int = 64):
    """Append ``{col}_lag{k}`` (k > 0) / ``{col}_lead{k}`` (k < 0)
    columns: the value of ``col`` k rows earlier/later within the same
    ``key_col`` group in (``ts_col``, ``tie_col``) order; out-of-range
    rows get null. Works for any column dtype (strings shift as
    objects, ints travel as nullable Int64 so hash-magnitude payloads
    never widen to float64 — the round-4 arrow-union lesson).

    Reference analogue: the ordered accumulate walk of
    prompture/extraction/streaming.py:215-306 carries the PREVIOUS
    snapshot per stream to diff against — this is that "previous row
    per key" primitive as a distributed analytic column.

    Scale shape: one ``shuffle.partition_fold`` on the key (every key
    lands wholly in one partition), then one vectorized sort +
    ``groupby.shift`` pandas pass per fold frame; never a frame per key,
    no driver state. Auto-size ``n_parts`` ≈
    rows / 5M for huge inputs; a single pathologically hot key bounds a
    partition (use analytic_window_bucketed when one key's history
    exceeds a worker)."""
    shifts = tuple(int(k) for k in shifts)
    if any(k == 0 for k in shifts):
        raise ValueError("lag_shift: shift 0 is the identity")

    _int64 = {pa.int64(): pd.Int64Dtype(), pa.int32(): pd.Int64Dtype()}

    def shift_part(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas(types_mapper=_int64.get)
        df = df.sort_values([key_col, ts_col, tie_col],
                            kind="mergesort")
        grp = df.groupby(key_col, sort=False)[list(cols)]
        for k in shifts:
            name = f"_lag{k}" if k > 0 else f"_lead{-k}"
            shifted = grp.shift(k)
            for c in cols:
                df[f"{c}{name}"] = shifted[c]
        return df

    return partition_fold(ds, [key_col], shift_part, n_parts=n_parts,
                          batch_format="pyarrow")


def suppress_bursts(ds, key_col: str, ts_col: str, tie_col: str,
                    min_gap: int, n_parts: int = 64):
    """Burst / recrawl suppression: drop a row when the PREVIOUS row of
    the same ``key_col`` (in ``ts_col``, ``tie_col`` order) is less than
    ``min_gap`` ``ts_col`` units earlier — the crawl-staple "skip a
    refetch of the same content hash within T" filter. The first row of
    every key is always kept; the gap test is against the previous
    OCCURRENCE (SQL's ``lag``), not the previous KEPT row, so the
    semantics stay one-pass/vectorizable and SQL-expressible. ``ts_col``
    must be integer (epoch-µs); comparisons are exact int64.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + groupby.shift + int compare per fold frame."""

    _int64 = {pa.int64(): pd.Int64Dtype(), pa.int32(): pd.Int64Dtype()}

    def keep_part(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas(types_mapper=_int64.get)
        df = df.sort_values([key_col, ts_col, tie_col],
                            kind="mergesort")
        prev = df.groupby(key_col, sort=False)[ts_col].shift(1)
        ts = df[ts_col].to_numpy(dtype=np.int64)
        pv = prev.to_numpy(dtype="float64", na_value=np.nan)
        first = np.isnan(pv)
        gap_ok = np.zeros(len(df), dtype=bool)
        if (~first).any():
            # ts values are epoch-µs (< 2^53): the float64 detour of
            # the nullable shift is exact here
            gap_ok[~first] = (ts[~first] - pv[~first].astype(np.int64)
                              ) >= int(min_gap)
        return df[first | gap_ok]

    return partition_fold(ds, [key_col], keep_part, n_parts=n_parts,
                          batch_format="pyarrow")


def time_weighted_avg(ds, key_col: str, ts_col: str, tie_col: str,
                      val_col: str, n_parts: int = 64):
    """Time-weighted average per key — each value weighted by how long
    it held (until the key's next event; the last event holds for zero
    time): ``twa = Σ v_i·(t_{i+1}−t_i) / (t_last − t_first)`` — the
    metering / sensor / price-feed aggregation primitive. Returns
    ``(key, num, den, twa)``; keys whose span is zero (single event or
    all-equal timestamps) are dropped, mirroring SQL ``HAVING
    max(t) > min(t)``.

    Exactness: with integer values and int64 µs timestamps, ``num``
    and ``den`` are exact int64 (caller's bound: Σ v·dt < 2^63) and
    ``twa`` is ONE correctly-rounded double division — a SQL replay
    (lead() window + SUM) is bit-identical with no rounding.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + boundary-masked diff pass per fold frame; never a
    frame per key, no driver state."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col], kind="mergesort")
        k = g[key_col].to_numpy()
        t = g[ts_col].to_numpy().astype(np.int64)
        v = g[val_col].to_numpy().astype(np.int64)
        if not len(k):
            return pd.DataFrame({key_col: k, "num": t, "den": t,
                                 "twa": np.empty(0)})
        same = np.r_[k[1:] == k[:-1], False]   # row has a successor
        dt = np.where(same, np.r_[t[1:], np.int64(0)] - t, np.int64(0))
        part = pd.DataFrame({key_col: k, "__vd": v * dt, "__t": t})
        agg = part.groupby(key_col, sort=False).agg(
            num=("__vd", "sum"), mn=("__t", "min"), mx=("__t", "max"))
        agg = agg[agg["mx"] > agg["mn"]]
        den = (agg["mx"] - agg["mn"]).to_numpy().astype(np.int64)
        num = agg["num"].to_numpy().astype(np.int64)
        return pd.DataFrame({key_col: agg.index.to_numpy(),
                             "num": num, "den": den,
                             "twa": num / den})

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)


def rolling_anomaly(ds, key_col: str, ts_col: str, tie_col: str,
                    val_col: str, window: int, k: int,
                    min_n: int = 2, n_parts: int = 64):
    """Rolling z-score anomaly flags per key WITHOUT floats: over the
    trailing window of ``window`` rows (current row + window−1
    preceding, per key in (ts, tie) order), flag
    ``|x − mean| > k·std`` via the cross-multiplied ALL-INTEGER test

        (n·x − s)² > k²·(n·s2 − s²)

    (n = actual window row count, s = Σv, s2 = Σv² — population std;
    rows with n < ``min_n`` are never flagged). Appends ``n_win``,
    ``s_win``, ``s2_win``, ``is_anomaly``. Exactness bound (caller
    contract): window·|v|² < 2^53 (pandas rolling sums are float64
    internally) and (n·|x|+s)² < 2^63 for the comparison — quantized
    telemetry/score columns satisfy both by miles; a SQL window-frame
    replay is then bit-identical with NO float anywhere.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + groupby-rolling pass per fold frame."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col],
                          kind="mergesort").reset_index(drop=True)
        v = g[val_col].to_numpy().astype(np.int64)
        # dropna=False: null-key rows form one group (SQL's NULL
        # partition) instead of vanishing from the rolling output
        grp = g.groupby(key_col, sort=False, dropna=False)[val_col]
        roll = grp.rolling(window=window, min_periods=1)
        s = roll.sum().reset_index(level=0, drop=True) \
            .sort_index().to_numpy().astype(np.int64)
        n = roll.count().reset_index(level=0, drop=True) \
            .sort_index().to_numpy().astype(np.int64)
        g2 = g.assign(__v2=v * v).groupby(key_col, sort=False,
                                          dropna=False)["__v2"]
        s2 = g2.rolling(window=window, min_periods=1).sum() \
            .reset_index(level=0, drop=True) \
            .sort_index().to_numpy().astype(np.int64)
        lhs = n * v - s
        flag = (lhs * lhs > k * k * (n * s2 - s * s)) & (n >= min_n)
        g["n_win"] = n
        g["s_win"] = s
        g["s2_win"] = s2
        g["is_anomaly"] = flag
        return g

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)


def cusum_flags(ds, key_col: str, ts_col: str, tie_col: str,
                val_col: str, target_k: int, threshold_h: int,
                n_parts: int = 64):
    """One-sided CUSUM change-point detection per key WITHOUT floats:
    the classic recursive statistic ``S_t = max(0, S_{t-1} + v_t − k)``
    (Page's test; S_0 = 0) flags a sustained upward shift of the series
    above target ``k`` when ``S_t > h``. The recursion is NOT a prefix
    sum, but it has an exact closed form over prefix sums

        S_t = P_t − min(0, min_{j≤t} P_j),   P_t = Σ_{i≤t} (v_i − k)

    so the per-frame pass is one ``cumsum`` + one ``cummin`` —
    fully vectorized, integer-exact (caller contract: Σ|v−k| per key
    < 2^63), and bit-identically replayable in SQL as
    ``SUM(v−k) OVER (...)`` and ``MIN(P) OVER (...)``. Appends ``cusum``
    (= S_t) and ``is_shift`` (S_t > h).

    Reference analogue: the carried-accumulator walk of
    prompture/extraction/streaming.py:215-306 (running state per
    stream); this is that walk as a distributed analytic with the
    max-recursion algebraically removed.

    Scale shape: one ``shuffle.partition_fold`` on the key (a key's
    whole history lands in one partition), one vectorized sort +
    grouped cumsum/cummin pandas pass per fold frame."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col],
                          kind="mergesort").reset_index(drop=True)
        d = g[val_col].to_numpy().astype(np.int64) - int(target_k)
        grp = g.assign(__d=d).groupby(key_col, sort=False)["__d"]
        p = grp.cumsum().to_numpy().astype(np.int64)
        m = g.assign(__p=p).groupby(key_col, sort=False)["__p"] \
            .cummin().to_numpy().astype(np.int64)
        s = p - np.minimum(m, 0)
        g["cusum"] = s
        g["is_shift"] = s > int(threshold_h)
        return g

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)


def fir_smooth(ds, key_col: str, ts_col: str, tie_col: str,
               val_col: str, taps: int = 8, n_parts: int = 64):
    """Exponentially-shaped FIR smoothing per key with DYADIC weights —
    the exactness-preserving stand-in for a recursive EWMA (whose state
    accumulates unbounded fractional bits and stops being
    SQL-replayable): the smoothed value over the trailing ``taps`` rows
    is

        y_t = v_t/2 + v_{t−1}/4 + … + v_{t−taps+2}/2^{taps−1}
              + v_{t−taps+1}/2^{taps−1}

    (last weight repeated so the kernel sums to EXACTLY 1). Every term
    is an exact dyadic double (weights are powers of two; integer
    values keep < 53 significant bits for |v| < 2^{53−taps}), so every
    intermediate partial sum is exact and the result is bit-identical
    to a SQL ``lag()`` replay in ANY association order. Rows with fewer
    than ``taps−1`` predecessors in their key get a null ``fir``.
    Appends ``fir``.

    Built on :func:`lag_shift` (one row shuffle, vectorized grouped
    shift per fold frame); the weighted combine is a pure numpy pass."""
    if taps < 2:
        raise ValueError("fir_smooth: taps must be >= 2")
    shifts = tuple(range(1, taps))
    lagged = lag_shift(ds, key_col, ts_col, tie_col, [val_col],
                       shifts=shifts, n_parts=n_parts)

    def finish(t: pa.Table) -> pa.Table:
        n = t.num_rows
        v = t[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        y = v * 0.5
        ok = np.ones(n, dtype=bool)
        for j in shifts:
            col = t[f"{val_col}_lag{j}"].combine_chunks()
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            ok &= valid
            lv = col.to_numpy(zero_copy_only=False)
            w = 2.0 ** -(j + 1) if j < taps - 1 else 2.0 ** -(taps - 1)
            lvf = np.where(valid, lv, 0).astype(np.float64)
            y = y + lvf * w
        drop = [f"{val_col}_lag{j}" for j in shifts]
        out = t.drop_columns(drop)
        return out.append_column(
            "fir", pa.array(np.where(ok, y, np.nan), type=pa.float64(),
                            mask=~ok))

    return lagged.map_batches(finish, batch_format="pyarrow")


def ntile_by_key(ds, key_col: str, order_col: str, n_tiles: int,
                 n_parts: int = 64):
    """SQL ``NTILE(n)`` per key: rows of each key are ranked by
    ``order_col`` and dealt into ``n_tiles`` buckets, the first
    ``n mod k`` buckets taking one extra row (the ANSI fill). With
    ``q = n // k`` and ``r = n mod k`` the bucket of 1-based row-number
    ``rn`` is the exact integer formula

        rn ≤ r·(q+1)  →  (rn−1) // (q+1) + 1
        otherwise     →  r + (rn−1−r·(q+1)) // q + 1

    Caller contract: ``order_col`` values are DISTINCT within a key
    (plant a unique tie-breaker otherwise) — NTILE over ties is
    tie-order-dependent and not oracle-checkable. Appends ``tile``.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + grouped cumcount/size pass per fold frame."""
    k = int(n_tiles)
    if k < 1:
        raise ValueError("ntile_by_key: n_tiles must be >= 1")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col],
                          kind="mergesort").reset_index(drop=True)
        grp = g.groupby(key_col, sort=False)
        rn = grp.cumcount().to_numpy().astype(np.int64) + 1
        n = grp[order_col].transform("size").to_numpy() \
            .astype(np.int64)
        q, r = n // k, n % k
        head = rn <= r * (q + 1)
        tile = np.where(
            head, (rn - 1) // np.maximum(q + 1, 1) + 1,
            r + (rn - 1 - r * (q + 1)) // np.maximum(q, 1) + 1)
        g["tile"] = tile.astype(np.int64)
        return g

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)


def max_drawdown_by_key(ds, key_col: str, ts_col: str, tie_col: str,
                        val_col: str, n_parts: int = 64):
    """Maximum drawdown per key over the cumulative series
    ``P_t = Σ_{i≤t} v_i`` (ts, tie order): ``max_t (max_{j≤t} P_j −
    P_t)`` — the largest peak-to-trough drop, the classic risk /
    degradation summary for telemetry. Pure int64 (cumsum + cummax +
    grouped max), SQL-replayable bit-identically via cumulative
    SUM/MAX windows. Returns one row per key: (key, max_drawdown,
    n). Keys with one row get 0.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + grouped cumsum/cummax pass per fold frame; output
    is |keys| rows."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col],
                          kind="mergesort").reset_index(drop=True)
        grp = g.groupby(key_col, sort=False)
        p = grp[val_col].cumsum().to_numpy().astype(np.int64)
        pk = g.assign(__p=p).groupby(key_col, sort=False)["__p"] \
            .cummax().to_numpy().astype(np.int64)
        dd = pk - p
        out = g.assign(__dd=dd).groupby(key_col, sort=False)["__dd"] \
            .max().rename("max_drawdown").reset_index()
        out["n"] = grp.size().to_numpy().astype(np.int64)
        out["max_drawdown"] = out["max_drawdown"].astype("int64")
        return out

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)


def unpivot(ds, id_cols: list, value_cols: list,
            var_col: str = "variable", val_col: str = "value"):
    """Wide→long reshape (SQL UNPIVOT / pandas melt): one output row
    per (input row × value column), carrying ``id_cols`` through,
    with the source column name in ``var_col`` and its value cast to
    a common type in ``val_col``. Pure per-batch Arrow rebuild —
    ZERO shuffle, zero copy of the id columns beyond the k-fold
    repeat; the inverse of rollup.pivot_counts' wide layout."""
    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = len(value_cols)
        cols = {}
        for c in id_cols:
            a = t[c]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            cols[c] = pa.concat_arrays([a] * k)
        names = []
        for c in value_cols:
            names += [c] * n
        cols[var_col] = pa.array(np.asarray(names, dtype=object),
                                 type=pa.string())
        vals = []
        out_type = None
        for c in value_cols:
            a = t[c]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            if out_type is None:
                out_type = a.type
            vals.append(a.cast(out_type) if a.type != out_type else a)
        cols[val_col] = pa.concat_arrays(vals)
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def longest_streak(ds, key_col: str, ts_col: str, tie_col: str,
                   val_col: str, n_parts: int = 64):
    """Longest run of CONSECUTIVE EQUAL values per key in (ts, tie)
    order (gaps-and-islands: the engagement-streak / repeated-status
    audit). Returns one row per key: ``(key, streak, streak_val)`` —
    the maximal run length and the value of that run; ties between
    equal-length runs break toward the EARLIEST run (deterministic,
    SQL-replayable via min-island-start ordering). Pure integer.

    Scale shape: one ``shuffle.partition_fold`` on the key, one
    vectorized sort + boundary-cumsum pandas pass per fold frame; output
    is |keys| rows."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, tie_col],
                          kind="mergesort").reset_index(drop=True)
        keys = g[key_col].to_numpy()
        if keys.dtype.kind not in "iu":
            keys = np.asarray(keys, dtype=object)
        vals = g[val_col].to_numpy()
        if vals.dtype.kind not in "iu":
            vals = np.asarray(vals, dtype=object)
        new_key = np.ones(len(g), dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        new_run = new_key.copy()
        new_run[1:] |= vals[1:] != vals[:-1]
        run_id = np.cumsum(new_run) - 1
        run_len = np.bincount(run_id)
        run_start = np.flatnonzero(new_run)
        run_key_idx = (np.cumsum(new_key) - 1)[run_start]
        # per key: longest run, earliest on ties — lexsort by
        # (key, -len, start) and take the first run of each key
        order = np.lexsort((run_start, -run_len, run_key_idx))
        rk = run_key_idx[order]
        first = np.r_[True, rk[1:] != rk[:-1]]
        best = order[first]
        out = pd.DataFrame({
            key_col: keys[run_start[best]],
            "streak": run_len[best].astype(np.int64),
            "streak_val": vals[run_start[best]]})
        return out

    return partition_fold(ds, [key_col], fold, n_parts=n_parts)
