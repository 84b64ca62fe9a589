"""Per-group corpus statistics joined back to rows: smoothed group
priors (the CCNet/C4 per-DOMAIN quality-prior shape — score a page
against its host's aggregate before keeping it; cf. Wenzek et al. 2020
§3.2 which buckets by per-domain statistics) and exact per-group
distinct counts (the exact complement of the HLL sketch path in
functions/sketches.py — use the sketch for monitoring, this for
billing-grade answers).

Exactness contract (the oracle basis): for integer ``val_col`` the
prior is ONE correctly-rounded double division of exact int64 sums

    prior(g) = (sum(val) over g + pseudo_sum) / (count(g) + pseudo_count)

so engine and SQL doubles are bit-identical with no rounding (the tf/df
precedent), and the per-row comparison ``val * den > num`` stays in
exact int64 (caller contract: ``|val| * (count + pseudo_count)`` must
fit 2^53 if the consumer re-derives it in SQL doubles, int64 here).

Scale shape:
- ``group_prior``: one ``shuffle.aggregate`` (count and sum per key)
  → ``shuffle.lookup`` maps the key table back onto the rows: up to
  ``broadcast_max`` keys it is broadcast once (rows never shuffle);
  beyond that rows and keys meet in hash buckets (the 100-TB path,
  equality-tested via ``broadcast_max=0``).
- ``exact_nunique``: a keys-only ``shuffle.aggregate`` makes the
  (key, val) pairs globally distinct → one more counts them per key.
  The driver never holds values.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages.shuffle import aggregate, lookup, partition_fold


def group_prior(ds, key_col: str, val_col: str,
                pseudo_count: int = 10, pseudo_sum: int = 0,
                n_buckets: int = 32, broadcast_max: int = 20_000_000):
    """Append per-group smoothed-prior columns to every row:
    ``n_grp`` / ``sum_grp`` (exact int64 group count / sum of
    ``val_col``), ``prior`` (one exact-int division, see module
    docstring) and ``above_prior`` (``val * (n_grp + pseudo_count) >
    sum_grp + pseudo_sum``, exact int64)."""
    grouped = aggregate(ds, [key_col], sum_grp=("sum", val_col),
                        n_grp=("count", val_col)).materialize()

    def annotate(t: pa.Table) -> pa.Table:
        if t[key_col].null_count:
            raise ValueError(
                f"group_prior: null {key_col!r} keys (a null key has no "
                "group — filter or fill first)")
        val = t[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # every key exists in the grouped table by construction
        counts = t["n_grp"].to_numpy(zero_copy_only=False)
        sums = t["sum_grp"].to_numpy(zero_copy_only=False)
        num = sums + int(pseudo_sum)
        den = counts + int(pseudo_count)
        prior = num / den  # elementwise correctly-rounded divisions
        above = val * den > num
        return t.append_column("prior", pa.array(prior, type=pa.float64())) \
            .append_column("above_prior", pa.array(above, type=pa.bool_()))

    return lookup(ds, grouped, [key_col], ["n_grp", "sum_grp"],
                  broadcast_max=broadcast_max, n_buckets=n_buckets) \
        .map_batches(annotate, batch_format="pyarrow")


def exact_nunique(ds, key_col: str, val_col: str,
                  out_col: str = "n_distinct"):
    """Exact distinct ``val_col`` count per ``key_col`` value, as a
    Dataset ``(key_col, out_col)``, unordered: one keys-only
    ``shuffle.aggregate`` makes the distinct (key, value) pairs, and
    one more counts them per key (a null value counts as one)."""
    pairs = aggregate(ds, [key_col, val_col])
    return aggregate(pairs, [key_col], **{out_col: ("count", None)})


def grouped_outliers(ds, key_col: str, val_col: str, k: int = 3,
                     n_parts: int = 64):
    """Robust per-group outlier flags via median / MAD (the
    data-quality staple that survives the skew a mean/stddev z-score
    drowns in). Appends to every row:

    - ``m2``   = 2 x median of ``val_col`` within the key group (int64
      exact: the sum of the two middle order statistics),
    - ``mad4`` = 4 x MAD = 2 x median of ``|2*val - m2|`` (int64 exact),
    - ``is_outlier`` = ``|val - med| > k * MAD``, evaluated as the exact
      int64 comparison ``2 * |2*val - m2| > k * mad4`` — no floats
      anywhere, so a SQL oracle using DuckDB's interpolating ``median``
      (exact in a double for int inputs < 2^52, doubled and cast back)
      is bit-identical by construction.

    ``val_col`` must be integer. Scale shape: one
    ``shuffle.partition_fold`` on the key (every key whole in one
    partition), then one vectorized numpy pass per fold frame: lexsort
    by (key, val) -> middle order statistics per group via offset
    arithmetic, second lexsort by (key, d) for the MAD
    — never a frame per key, no driver state."""

    k = int(k)

    def flag_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return g.append_column("m2", pa.array([], type=pa.int64())) \
                .append_column("mad4", pa.array([], type=pa.int64())) \
                .append_column("is_outlier", pa.array([], type=pa.bool_()))
        kv = g[key_col].to_numpy(zero_copy_only=False)
        if kv.dtype.kind not in "iu":
            # dense integer codes for lexsort on string keys
            _, codes = np.unique(np.asarray(kv, dtype=object),
                                 return_inverse=True)
        else:
            codes = kv
        v = g[val_col].to_numpy(zero_copy_only=False).astype(np.int64)

        order = np.lexsort((v, codes))
        cs, vs = codes[order], v[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        sizes = np.diff(np.r_[starts, n])
        gidx = np.repeat(np.arange(len(starts)), sizes)
        m2_g = vs[starts + (sizes - 1) // 2] + vs[starts + sizes // 2]

        d = np.abs(2 * vs - m2_g[gidx])          # = 2*|v - med|, int64
        order2 = np.lexsort((d, gidx))
        d_s = d[order2]
        mad4_g = d_s[starts + (sizes - 1) // 2] + d_s[starts + sizes // 2]

        flag_sorted = 2 * d > k * mad4_g[gidx]

        # scatter back to the incoming row order
        m2 = np.empty(n, dtype=np.int64)
        mad4 = np.empty(n, dtype=np.int64)
        flag = np.empty(n, dtype=bool)
        m2[order] = m2_g[gidx]
        mad4[order] = mad4_g[gidx]
        flag[order] = flag_sorted
        return g.append_column("m2", pa.array(m2, type=pa.int64())) \
            .append_column("mad4", pa.array(mad4, type=pa.int64())) \
            .append_column("is_outlier", pa.array(flag, type=pa.bool_()))

    return partition_fold(ds, [key_col], flag_part, n_parts=n_parts,
                          batch_format="pyarrow")


def group_diversity(ds, key_col: str, val_col: str):
    """Simpson/Gini diversity per key: ``(key, n, n_distinct, s2,
    gini)`` where ``s2 = Σ c_v²`` over the per-key value counts and
    ``gini = (n² − s2) / n²`` — the probability two rows of the key
    drawn with replacement disagree on ``val_col``; the
    audience-diversity / source-concentration audit (1 − Herfindahl
    index).

    Exactness: n, s2 are exact int64; gini is ONE correctly-rounded
    double division of exactly-representable ints (n² < 2^53 while a
    key holds < ~94M rows — document at the call site beyond that), so
    a SQL replay is bit-identical with no rounding. Scale shape: the
    exact_nunique pattern — one ``shuffle.aggregate`` counts each
    (key, value) pair, one more sums the counts and their squares per
    key (narrow rows only). Unordered."""

    def squares(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t[key_col], "__c": t["__c"],
                         "__s2": pc.multiply(t["__c"], t["__c"])})

    counts = aggregate(ds, [key_col, val_col], __c=("count", None))
    folded = aggregate(counts.map_batches(squares, batch_format="pyarrow"),
                       [key_col], n=("sum", "__c"), s2=("sum", "__s2"),
                       n_distinct=("count", None))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        s2 = t["s2"].to_numpy(zero_copy_only=False).astype(np.int64)
        n2 = n * n
        gini = (n2 - s2) / n2
        return pa.table({key_col: t[key_col], "n": t["n"],
                         "n_distinct": t["n_distinct"],
                         "s2": t["s2"],
                         "gini": pa.array(gini, type=pa.float64())})

    return folded.map_batches(finish, batch_format="pyarrow")


def grouped_quantiles(ds, key_col: str, val_col: str,
                      qs=(0.25, 0.5, 0.75), n_parts: int = 64):
    """EXACT discrete quantiles per key (``quantile_disc`` semantics:
    the value at 1-based rank ``ceil(q·n)`` of the key's sorted
    values) — per-domain length caps / winsorization bounds. Returns
    ``(key, n, q_<percent>, ...)`` with one int64 column per q.

    Rank selection is pure integer arithmetic (the round-3 idiom:
    rank r = the unique r with r·den ≥ num·n and (r−1)·den < num·n
    for q = num/den) — no float ever touches the ranks, so a SQL
    window replay is bit-identical. Each q must be a small exact
    rational (its Fraction with denominator <= 10000 must round-trip
    the float — p25/p50/p75/p90/p99 all qualify); validated up
    front.

    Scale shape: one ``shuffle.partition_fold`` on the key (keys land
    whole), one vectorized sort + searchsorted-free reduceat selection
    per fold frame; never a frame
    per key. A single pathologically hot key bounds a partition."""
    from fractions import Fraction

    fr = [Fraction(q).limit_denominator(10_000) for q in qs]
    for q, f in zip(qs, fr):
        if float(f) != float(q):
            raise ValueError(f"grouped_quantiles: q={q} is not a "
                             "small exact rational")
    names = [f"q_{int(round(float(q) * 100))}" for q in qs]

    def project(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t[key_col],
                         val_col: t[val_col].combine_chunks()
                         .cast(pa.int64())})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, val_col], kind="mergesort")
        k = g[key_col].to_numpy()
        v = g[val_col].to_numpy().astype(np.int64)
        if not len(k):
            cols = {key_col: k, "n": v}
            cols.update({nm: v for nm in names})
            return pd.DataFrame(cols)
        first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        sizes = np.diff(np.r_[first, len(k)]).astype(np.int64)
        out = {key_col: k[first], "n": sizes}
        for f, nm in zip(fr, names):
            # 1-based rank ceil(q*n) = -(-num*n // den), 0-based idx
            ranks = -((-int(f.numerator) * sizes)
                      // int(f.denominator))
            out[nm] = v[first + ranks - 1]
        return pd.DataFrame(out)

    return partition_fold(ds.map_batches(project, batch_format="pyarrow"),
                          [key_col], fold, n_parts=n_parts)


def winsorize_by_key(ds, key_col: str, val_col: str,
                     lo_q: float = 0.05, hi_q: float = 0.95,
                     out_col: str | None = None, n_parts: int = 64,
                     broadcast_max: int = 20_000_000):
    """Clamp ``val_col`` to its key's exact [ceil(lo_q·n), ceil(hi_q·n)]
    discrete quantile bounds (grouped_quantiles) — per-domain outlier
    capping before averaging/training. Appends ``out_col`` (default
    ``{val_col}_wins``); pure integer clamp, so a SQL replay
    (LEAST/GREATEST against the same rank-selected bounds) is
    bit-identical.

    Scale shape: one grouped_quantiles pass for the bounds table
    (bounded by keys), then ``shuffle.lookup`` maps the bounds back
    onto the rows (broadcast up to ``broadcast_max`` keys, hash buckets
    beyond — equality-tested via ``broadcast_max=0``). A null-key row
    has no bounds and gets a null ``out_col``."""
    out_col = out_col or f"{val_col}_wins"
    lo_name = f"q_{int(round(lo_q * 100))}"
    hi_name = f"q_{int(round(hi_q * 100))}"
    bounds = grouped_quantiles(ds, key_col, val_col,
                               qs=(lo_q, hi_q), n_parts=n_parts) \
        .materialize()

    def clamp(t: pa.Table) -> pa.Table:
        v = pc.cast(t[val_col], pa.int64())
        lo = pc.cast(t[lo_name], pa.int64())
        hi = pc.cast(t[hi_name], pa.int64())
        w = pc.if_else(pc.less(v, lo), lo,
                       pc.if_else(pc.greater(v, hi), hi, v))
        return t.drop_columns([lo_name, hi_name]).append_column(out_col, w)

    return lookup(ds, bounds, [key_col], [lo_name, hi_name],
                  broadcast_max=broadcast_max) \
        .map_batches(clamp, batch_format="pyarrow")


def grouped_weighted_quantiles(ds, key_col: str, val_col: str,
                               weight_col: str, qs=(0.5,),
                               n_parts: int = 64):
    """EXACT weighted discrete quantiles per key: the smallest value v
    of the key whose cumulative weight (in ascending value order,
    ties folded together) satisfies ``cumw·den ≥ num·W`` for
    q = num/den and W = the key's total weight — byte-weighted length
    percentiles, cost-weighted latency medians. Returns
    ``(key, w_total, q_<percent>, ...)``.

    All arithmetic is exact int64 (weights must be non-negative ints;
    caller bound Σw·den < 2^63), so a SQL cumulative-window replay is
    bit-identical. Scale shape: ONE ``shuffle.aggregate`` weight sum
    per (key, value) → per-key vectorized cumulative selection inside
    hash(key) partitions (the grouped_quantiles pattern)."""
    from fractions import Fraction

    fr = [Fraction(q).limit_denominator(10_000) for q in qs]
    for q, f in zip(qs, fr):
        if float(f) != float(q):
            raise ValueError(f"grouped_weighted_quantiles: q={q} is "
                             "not a small exact rational")
    names = [f"q_{int(round(float(q) * 100))}" for q in qs]

    def weights(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            val_col: t[val_col].combine_chunks().cast(pa.int64()),
            "__w": t[weight_col].combine_chunks().cast(pa.int64())})

    pairs = aggregate(ds.map_batches(weights, batch_format="pyarrow"),
                      [key_col, val_col], __w=("sum", "__w"))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, val_col], kind="mergesort")
        k = g[key_col].to_numpy()
        v = g[val_col].to_numpy().astype(np.int64)
        w = g["__w"].to_numpy().astype(np.int64)
        if not len(k):
            cols = {key_col: k, "w_total": w}
            cols.update({nm: v for nm in names})
            return pd.DataFrame(cols)
        first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        kidx = np.repeat(np.arange(len(first)),
                         np.diff(np.r_[first, len(k)]))
        cw = np.cumsum(w)
        base = np.r_[np.int64(0), cw[first[1:] - 1]] \
            if len(first) > 1 else np.zeros(1, dtype=np.int64)
        cumw = cw - base[kidx]               # per-key cumulative
        wtot = np.diff(np.r_[base, cw[-1]])  # per-key totals
        out = {key_col: k[first], "w_total": wtot}
        for f, nm in zip(fr, names):
            num, den = int(f.numerator), int(f.denominator)
            ok = cumw * den >= num * wtot[kidx]
            # vectorized first-True per key (ok is monotone within a
            # key): reverse-pass assignment keeps the EARLIEST index
            idx_global = np.flatnonzero(ok)
            key_of_ok = kidx[idx_global]
            first_ok = np.full(len(first), -1, dtype=np.int64)
            first_ok[key_of_ok[::-1]] = idx_global[::-1]
            out[nm] = v[first_ok]
        return pd.DataFrame(out)

    return partition_fold(pairs, [key_col], fold, n_parts=n_parts)


def gini_by_key(ds, key_col: str, val_col: str, n_parts: int = 64):
    """Exact Gini coefficient of a NON-NEGATIVE integer column per key
    — the inequality summary used to audit corpus concentration (are
    90% of the bytes in 1% of the hosts?). Uses the sorted-multiset
    identity

        G = (2·Σ rank_i·x_i − (n+1)·Σx) / (n·Σx)

    where rank runs 1..n over the key's values ascending; Σ rank·x is
    TIE-ORDER INVARIANT (equal x swap positions freely), so a SQL
    row_number() replay is deterministic. Numerator and denominator
    are exact int64 (caller bound: n·Σx and Σ rank·x < 2^53) and the
    result is ONE correctly-rounded double division — bit-identical to
    the oracle, no rounding. Keys with n·Σx = 0 get null.

    Scale shape: each batch shrinks to (key, value, count) partial
    cells, folded by ``shuffle.partition_fold`` on the key; ONE pass
    then (a) pandas-groupby-sums the partials into the global distinct
    cell table (every key lands wholly in one partition) and (b) runs
    a single vectorized sort + segmented cumsum computing every key's
    Σ rank·x via Σ_cells x·(c·prev + c(c+1)/2). One narrow shuffle
    total — NEVER a Ray grouped aggregate over the |cells| distinct
    keys (measured ~100× slower beyond ~1M distinct groups); no driver
    state; output is |keys| rows."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby([key_col, val_col], sort=False) \
            .size().rename("c").reset_index()
        g["c"] = g["c"].astype("int64")
        return g

    cells = ds.map_batches(partial, batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby([key_col, val_col], sort=False)["c"].sum() \
            .reset_index()
        g["c"] = g["c"].astype("int64")
        g = g.sort_values([key_col, val_col],
                          kind="mergesort").reset_index(drop=True)
        keys = g[key_col].to_numpy()
        if keys.dtype.kind not in "iu":
            keys = np.asarray(keys, dtype=object)
        x = g[val_col].to_numpy().astype(np.int64)
        c = g["c"].to_numpy().astype(np.int64)
        new_key = np.ones(len(g), dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        csum = np.cumsum(c)
        seg_start = np.maximum.accumulate(
            np.where(new_key, csum - c,
                     np.int64(np.iinfo(np.int64).min)))
        prev = (csum - c) - seg_start  # rows of same key before cell
        s_cell = x * (c * prev + c * (c + 1) // 2)
        key_idx = np.cumsum(new_key) - 1
        n = np.bincount(key_idx, weights=c).astype(np.int64)
        tot = np.bincount(key_idx, weights=c * x).astype(np.int64)
        s = np.bincount(key_idx, weights=s_cell).astype(np.int64)
        den = n * tot
        num = 2 * s - (n + 1) * tot
        gini = np.where(den > 0, num / np.where(den > 0, den, 1),
                        np.nan)
        out = pd.DataFrame({
            key_col: keys[new_key], "n": n, "total": tot,
            "gini": gini})
        out.loc[den <= 0, "gini"] = np.nan
        return out

    return partition_fold(cells, [key_col], fold, n_parts=n_parts)


def impute_group_median(ds, key_col: str, val_col: str,
                        out_col: str | None = None,
                        broadcast_max: int = 20_000_000):
    """Median imputation per key: null values of ``val_col`` are
    replaced by their key's EXACT lower discrete median (the value at
    rank ⌈n/2⌉ over the key's NON-NULL values — integer rank
    selection, no float q·n, the grouped_quantiles idiom), written to
    ``out_col`` (default: in place). Keys whose values are ALL null
    keep their nulls.

    Scale shape: medians come from :func:`grouped_quantiles` (one
    narrow key shuffle); ``shuffle.lookup`` maps the |keys|-row median
    table back onto the rows (broadcast up to ``broadcast_max`` keys,
    hash buckets beyond). A null-key row has no median and keeps its
    null."""
    out_col = out_col or val_col
    meds = grouped_quantiles(
        ds.map_batches(
            lambda t: t.filter(pc.is_valid(
                t[val_col].combine_chunks()
                if isinstance(t[val_col], pa.ChunkedArray)
                else t[val_col])),
            batch_format="pyarrow"),
        key_col, val_col, qs=(0.5,)).materialize()

    def fill(t: pa.Table) -> pa.Table:
        filled = pc.coalesce(pc.cast(t[val_col], pa.int64()),
                             pc.cast(t["q_50"], pa.int64()))
        t = t.drop_columns(["q_50"])
        if out_col in t.column_names:
            t = t.drop_columns([out_col])
        return t.append_column(out_col, filled)

    return lookup(ds, meds, [key_col], ["q_50"],
                  broadcast_max=broadcast_max) \
        .map_batches(fill, batch_format="pyarrow")
