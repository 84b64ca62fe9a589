"""Per-column statistics accumulation + distribution drift scoring.

Implements the north-star stats checks: HLL (cardinality), KLL (quantiles
over text length), count-min + exact top-k (category frequencies), fixed-bin
histograms (drift). Partial sketches are produced per batch inside the
validation pass (one linear scan over the data for the whole suite) and
merged associatively — per-partition partials first, then a driver-side
streaming fold; both levels are the classic partial+final tree reduction
(SURVEY §2.5, Aggregation-at-scale pattern).

Drift: PSI + KS of the live distributions against a pinned baseline
snapshot (FIXTURES.md §5). The baseline fixes the histogram bin edges so
live and reference counts are directly comparable.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import (
    HLL, KLL, CountMin, TopK, Hist, hash64, psi, ks_from_hist,
)
from prompture_ray.specs import CheckSpec

DEFAULT_LEN_EDGES = np.logspace(0, 6, 33)  # 32 log bins over [1, 1e6] chars


def _numeric_view(col: pa.Array) -> np.ndarray:
    """Numeric view of a column for quantile/histogram sketches: values for
    numeric columns, utf8 length for strings, binary length for binary."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        col = pc.utf8_length(col)
    elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
        col = pc.binary_length(col)
    elif pa.types.is_timestamp(t):
        col = pc.cast(col, pa.int64())
    arr = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return arr[~np.isnan(arr)]


def _string_view(col: pa.Array) -> np.ndarray:
    vals = pc.cast(col.drop_null(), pa.string()).to_pylist()
    return np.asarray(vals, dtype=object)


class StatsAccumulator:
    """One set of sketch objects for the stats checks of a suite."""

    def __init__(self, stats_checks: list[CheckSpec],
                 hist_edges: dict[str, list] | None = None):
        self.checks = stats_checks
        self.sketches: dict[str, dict[str, object]] = {}
        for c in stats_checks:
            sk: dict[str, object] = {}
            for name in c.sketches or ("hll",):
                if name == "hll":
                    sk["hll"] = HLL(p=14)
                elif name == "kll":
                    sk["kll"] = KLL(k=200)
                elif name == "countmin":
                    sk["countmin"] = CountMin()
                elif name == "topk":
                    sk["topk"] = TopK(k=20)
                else:
                    raise ValueError(f"unknown sketch {name!r} in check {c.id}")
            edges = (hist_edges or {}).get(c.id, DEFAULT_LEN_EDGES)
            sk["hist"] = Hist(edges)  # always kept: basis for drift PSI/KS
            self.sketches[c.id] = sk

    def update(self, batch: pa.Table,
               hash_cache: dict | None = None) -> None:
        """Accumulate one batch. ``hash_cache`` maps column name → uint64
        hashes of the column's non-null values, letting the fused pipeline
        share ONE hash pass per column between uniqueness, referential and
        HLL sketches (allocation churn in hot batches is what limits
        multi-worker scaling)."""
        for c in self.checks:
            if c.column not in batch.column_names:
                continue
            col = batch[c.column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            sk = self.sketches[c.id]
            num = None
            for name, obj in sk.items():
                if name in ("kll", "hist"):
                    if num is None:
                        num = _numeric_view(col)
                    obj.update_array(num)
                elif name == "hll":
                    h = (hash_cache or {}).get(c.column)
                    if h is None:
                        h = hash64(_string_view(col))
                        if hash_cache is not None:
                            hash_cache[c.column] = h
                    obj.update_hashes(h)
                elif name in ("countmin", "topk"):
                    # category columns have few uniques: count with the
                    # Arrow kernel, update sketches with (values, counts)
                    vc = col.drop_null().value_counts()
                    vals = np.asarray(vc.field("values").to_pylist(),
                                      dtype=object)
                    cnts = vc.field("counts").to_numpy(zero_copy_only=False)
                    if len(vals):
                        obj.update_array(vals, counts=cnts)

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        for cid, sk in other.sketches.items():
            mine = self.sketches.get(cid)
            if mine is None:
                self.sketches[cid] = sk
                continue
            for name, obj in sk.items():
                if name in mine:
                    mine[name].merge(obj)
                else:
                    mine[name] = obj
        return self

    def dumps(self) -> bytes:
        return pickle.dumps(self.sketches, protocol=pickle.HIGHEST_PROTOCOL)

    def merge_bytes(self, blob: bytes) -> None:
        other = pickle.loads(blob)
        for cid, sk in other.items():
            mine = self.sketches.get(cid)
            if mine is None:
                self.sketches[cid] = sk
                continue
            for name, obj in sk.items():
                if name in mine:
                    mine[name].merge(obj)
                else:
                    mine[name] = obj

    def summaries(self) -> dict:
        out = {}
        for cid, sk in self.sketches.items():
            out[cid] = {name: obj.summary() for name, obj in sk.items()
                        if hasattr(obj, "summary")}
        return out


# ---------------------------------------------------------------------------
# Drift baseline + scoring
# ---------------------------------------------------------------------------
def create_baseline(table: pa.Table, text_col: str = "text",
                    cat_col: str = "lang", key_col: str = "url") -> dict:
    """Pinned drift snapshot from a clean slice (FIXTURES.md §5)."""
    hist = Hist(DEFAULT_LEN_EDGES)
    hist.update_array(_numeric_view(table[text_col].combine_chunks()
                                    if isinstance(table[text_col], pa.ChunkedArray)
                                    else table[text_col]))
    cat = table[cat_col]
    if isinstance(cat, pa.ChunkedArray):
        cat = cat.combine_chunks()
    vc = cat.drop_null().value_counts()
    total = max(1, len(cat) - cat.null_count)
    freq = {str(v): int(c) / total
            for v, c in zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist())}
    hll = HLL(p=14)
    hll.update_hashes(hash64(_string_view(
        table[key_col].combine_chunks() if isinstance(table[key_col], pa.ChunkedArray)
        else table[key_col])))
    return {
        "version": 1,
        "rows": table.num_rows,
        "text_len_hist": hist.summary(),
        "cat_freq": freq,
        "key_cardinality": hll.estimate(),
    }


def save_baseline(baseline: dict, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(baseline, sort_keys=True))


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def score_drift(baseline: dict, live_hist: Hist, live_cat_freq: dict) -> dict:
    """PSI + KS of live distributions vs the pinned baseline."""
    base_hist = Hist.from_summary(baseline["text_len_hist"])
    out = {
        "text_len_psi": round(psi(base_hist.probs(), live_hist.probs()), 6),
        "text_len_ks": round(ks_from_hist(base_hist.counts, live_hist.counts), 6),
    }
    cats = sorted(set(baseline["cat_freq"]) | set(live_cat_freq))
    e = np.array([baseline["cat_freq"].get(c, 0.0) for c in cats])
    a = np.array([live_cat_freq.get(c, 0.0) for c in cats])
    out["cat_psi"] = round(psi(e, a), 6) if len(cats) else 0.0
    return out


def score_drift_by_group(ds, group_col: str, value_col: str,
                         baselines: dict[str, dict] | None = None,
                         edges=None):
    """Per-segment drift: one histogram per group value (partial per batch,
    merged), scored PSI/KS against per-group baselines (or against the
    all-groups pooled distribution when no baselines are given — the
    'which segment shifted' diagnostic)."""
    import pyarrow.compute as _pc

    edges = DEFAULT_LEN_EDGES if edges is None else np.asarray(edges)

    def partial(t: pa.Table):
        out = []
        col = t[group_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        for g in _pc.unique(col.drop_null()).to_pylist():
            rows = t.filter(_pc.equal(t[group_col], g))
            h = Hist(edges)
            h.update_array(_numeric_view(
                rows[value_col].combine_chunks()
                if isinstance(rows[value_col], pa.ChunkedArray)
                else rows[value_col]))
            out.append({"g": str(g), "counts": h.counts.tobytes()})
        return pa.Table.from_pylist(out) if out else pa.table(
            {"g": pa.array([], type=pa.string()),
             "counts": pa.array([], type=pa.binary())})

    merged: dict[str, np.ndarray] = {}
    for b in ds.map_batches(partial, batch_format="pyarrow") \
               .iter_batches(batch_size=None, batch_format="pyarrow"):
        for row in b.to_pylist():
            arr = np.frombuffer(row["counts"], dtype=np.int64)
            merged[row["g"]] = merged.get(row["g"], 0) + arr

    pooled = sum(merged.values()) if merged else np.zeros(len(edges) + 1,
                                                          dtype=np.int64)
    out = []
    for g in sorted(merged):
        live = merged[g]
        if baselines and g in baselines:
            base = np.asarray(baselines[g]["counts"], dtype=np.int64)
        else:
            base = pooled - live if baselines is None else None
        if base is None or base.sum() == 0:
            continue
        b_p = base / base.sum()
        l_p = live / live.sum() if live.sum() else live
        out.append({"group": g, "psi": round(psi(b_p, l_p), 6),
                    "ks": round(ks_from_hist(base, live), 6),
                    "n": int(live.sum())})
    import pandas as pd
    return pd.DataFrame(out)


def detect_heavy_hitters(ds, col: str, sample_frac: float = 0.05,
                         threshold_frac: float = 0.05, seed: int = 9,
                         depth: int = 5, width: int = 4096) -> list:
    """Sampled count-min heavy-hitter detection (SURVEY §4 skew handling):
    returns the key values whose sampled frequency exceeds
    ``threshold_frac`` — the keys a salted shuffle should split."""
    from prompture_ray.functions.sketches import CountMin, TopK
    import pyarrow.compute as _pc

    cm = CountMin(depth, width)
    tk = TopK(k=32)
    total = 0
    sample = ds.random_sample(sample_frac, seed=seed)
    for b in sample.iter_batches(batch_size=None, batch_format="pyarrow"):
        col_arr = b[col]
        if isinstance(col_arr, pa.ChunkedArray):
            col_arr = col_arr.combine_chunks()
        vc = col_arr.drop_null().value_counts()
        vals = np.asarray(vc.field("values").to_pylist(), dtype=object)
        cnts = vc.field("counts").to_numpy(zero_copy_only=False)
        if len(vals):
            cm.update_array(vals, counts=cnts)
            tk.update_array(vals, counts=cnts)
            total += int(cnts.sum())
    if total == 0:
        return []
    return [v for v, c in tk.top(32)
            if cm.estimate(v) / total >= threshold_frac]


def leading_digit_counts(ds, val_col: str, group_col: str | None = None):
    """Benford's-law profile: count of rows by first significant digit
    of a POSITIVE integer column, optionally per group, with
    ``prop = cnt / group total``. The digit is taken from the decimal
    string form (no log10 — float-exact by construction); ``prop`` is
    ONE correctly-rounded double division of exact int64 counts, so a
    SQL ``substr(CAST(v AS VARCHAR), 1, 1)`` replay is bit-identical.

    Classic first-pass fraud/quality screen for numeric telemetry —
    a synthetic-vs-organic volume column shows up as a flat (non-
    logarithmic) digit histogram.

    Scale shape: per-row (group, digit) keys inside map_batches (Arrow
    cast + utf8_slice_codeunits, fully vectorized); ONE
    ``shuffle.aggregate`` count of ≤ 9·|groups| groups; the per-group
    normalization folds the tiny count table itself."""
    from prompture_ray.stages.shuffle import aggregate

    def digits(t: pa.Table) -> pa.Table:
        v = t[val_col]
        pos = pc.greater(v, 0)
        if group_col is not None:
            # a null group is not counted
            pos = pc.and_(pos, pc.is_valid(t[group_col]))
        cols = {"digit": pc.utf8_slice_codeunits(
            v.filter(pos).cast(pa.string()), 0, 1)}
        if group_col is not None:
            cols = {"grp": t[group_col].filter(pos), **cols}
        return pa.table(cols)

    keys = ["grp", "digit"] if group_col is not None else ["digit"]
    counts = aggregate(ds.map_batches(digits, batch_format="pyarrow"),
                       keys, cnt=("count", None))

    def probs(g):
        tot = int(g["cnt"].sum())
        g = g.copy()
        g["cnt"] = g["cnt"].astype("int64")
        g["prop"] = g["cnt"].to_numpy(dtype=np.int64) / float(tot)
        return g

    if group_col is None:
        # single global group: coalesce the ≤9-row table to one block
        # and normalize in one bounded pass
        return counts.repartition(1).map_batches(
            _global_props, batch_format="pandas", batch_size=None)
    return counts.groupby("grp").map_groups(probs,
                                            batch_format="pandas")


def _global_props(df):
    """Finalize global leading-digit proportions (df is the whole
    ≤9-row table once repartitioned; used by leading_digit_counts)."""
    tot = int(df["cnt"].sum())
    df = df.copy()
    df["cnt"] = df["cnt"].astype("int64")
    df["prop"] = df["cnt"].to_numpy(dtype=np.int64) / float(tot)
    return df


def reference_rank(ds, val_col: str, ref_ds, ref_col: str, *,
                   out_col: str = "ref_rank",
                   broadcast_max: int = 20_000_000):
    """Percentile of each row's value within a REFERENCE distribution
    (calibration against a baseline corpus — "this doc's length sits
    at the 93rd percentile of last month's crawl"): appends
    ``out_col`` = |{ref ≤ v}| / |ref| — ONE correctly-rounded double
    division of exact int64 counts (bit-identical to SQL), plus
    ``{out_col}_n`` = |{ref ≤ v}|.

    Scale shape: the reference collapses to its distinct-value count
    table (one narrow grouped shuffle — the percent_rank fold), whose
    cumulative counts broadcast once as two sorted arrays (guarded by
    ``broadcast_max`` distinct values; quantize first beyond that);
    every probe batch pays one searchsorted. Probe rows never
    shuffle."""
    import ray
    from prompture_ray.stages.shuffle import aggregate

    dist = aggregate(ref_ds, [ref_col], c=("count", None)).materialize()
    n_cells = dist.count()
    if n_cells > broadcast_max:
        raise ValueError(
            f"reference_rank: {n_cells} distinct reference values "
            f"exceed broadcast_max={broadcast_max}; quantize "
            f"{ref_col} first")
    dt = pa.concat_tables(
        [b for b in dist.iter_batches(batch_format="pyarrow")],
        promote_options="default")
    vals = dt[ref_col].to_numpy(zero_copy_only=False)
    cnts = dt["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals, kind="mergesort")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    total = int(cum[-1]) if len(cum) else 0
    ref = ray.put((vals, cum))

    def attach(t: pa.Table) -> pa.Table:
        sv, sc = ray.get(ref)
        v = t[val_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(sv, v, side="right")
        le = np.where(pos > 0, sc[np.maximum(pos - 1, 0)], 0) \
            .astype(np.int64)
        t = t.append_column(f"{out_col}_n", pa.array(le))
        frac = le / float(total) if total else np.zeros(len(le))
        return t.append_column(out_col, pa.array(frac))

    return ds.map_batches(attach, batch_format="pyarrow")
