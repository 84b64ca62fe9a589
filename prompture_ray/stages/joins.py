"""Join strategies: broadcast hash join / semi / anti, as-of and
interval joins.

The reference has no relational join — only broadcast dict lookups
(prompture/infra/model_rates.py:257-278) and the KG entity lookup
(prompture/kg/core.py:63-76). These generalize that to datasets:

- broadcast join: small side → ``ray.put`` once, vectorized lookup per
  batch (no shuffle) — the default for dimension tables.
- bucketed as-of and interval joins: both sides meet in
  ``shuffle.cogroup`` buckets on the key; per fold frame a
  ``pd.merge_asof`` over ts-sorted frames (ray_guide as-of pattern) or a
  searchsorted run expansion. Used when the right side exceeds the
  broadcast threshold.

The both-sides-large equi-join is ``shuffle.join`` (one Arrow hash join
per fold frame, on the same ``cogroup`` runner).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages.shuffle import cogroup


# ---------------------------------------------------------------------------
# broadcast hash join
# ---------------------------------------------------------------------------


def broadcast_join(ds, right_df: "pd.DataFrame", on: str, how: str = "inner",
                   right_on: str | None = None):
    """Map-side join against a broadcast small side (pandas merge per
    batch). ``right_df`` ships through the object store ONCE."""
    import ray
    right_on = right_on or on
    ref = ray.put(right_df)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(ref)
        return batch.merge(r, how=how, left_on=on, right_on=right_on)

    return ds.map_batches(join, batch_format="pandas")


def broadcast_semi_join(ds, keys, on: str, anti: bool = False):
    """Semi (or anti) join against a broadcast key collection."""
    import ray
    arr = np.sort(np.asarray(list(keys)))
    ref = ray.put(arr)

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        k = ray.get(ref)
        idx = np.searchsorted(k, batch[on].to_numpy())
        idx = np.clip(idx, 0, len(k) - 1)
        present = (k[idx] == batch[on].to_numpy()) if len(k) else \
            np.zeros(len(batch), dtype=bool)
        return batch[~present] if anti else batch[present]

    return ds.map_batches(filt, batch_format="pandas")


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------


def broadcast_asof_join(ds, right_df: "pd.DataFrame", key: str, ts: str,
                        right_key: str | None = None, right_ts: str | None = None,
                        value_cols: list[str] | None = None,
                        inner: bool = True):
    """As-of join with a broadcast right side: for each left row, the right
    row with the greatest ``right_ts`` ≤ left ``ts`` among matching keys.

    Right side is pre-sorted per key ONCE on the driver; each batch does a
    per-key ``searchsorted`` — no shuffle. For a large right side use
    ``bucketed_asof_join``.
    """
    import ray
    right_key = right_key or key
    right_ts = right_ts or ts
    value_cols = value_cols or [c for c in right_df.columns
                                if c not in (right_key, right_ts)]
    prep: dict = {}
    for k, g in right_df.sort_values(right_ts, kind="mergesort").groupby(right_key):
        prep[k] = (g[right_ts].to_numpy(),
                   {c: g[c].to_numpy() for c in [right_ts] + value_cols})
    ref = ray.put(prep)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        table = ray.get(ref)
        n = len(batch)
        out_cols = {c: np.full(n, None, dtype=object)
                    for c in [right_ts] + value_cols}
        matched = np.zeros(n, dtype=bool)
        tv = batch[ts].to_numpy()
        # one vectorized searchsorted per KEY GROUP, not per row
        for k, idx in batch.groupby(key, sort=False).indices.items():
            entry = table.get(k)
            if entry is None:
                continue
            ts_arr, cols = entry
            j = np.searchsorted(ts_arr, tv[idx], side="right") - 1
            ok = j >= 0
            rows, jj = idx[ok], j[ok]
            matched[rows] = True
            for c in out_cols:
                out_cols[c][rows] = cols[c][jj]
        out = batch.copy()
        for c, vals in out_cols.items():
            name = c if c not in out.columns else f"right_{c}"
            out[name] = pd.Series(vals, index=out.index)
        out = out[matched] if inner else out
        # object arrays → natural dtypes (datetime64/float/int) so the
        # output schema matches the pre-vectorization list-append form
        return out.infer_objects()

    return ds.map_batches(join, batch_format="pandas")


def _no_null_keys(t: pa.Table, key: str, ctx: str) -> pa.Table:
    # a null never equi-matches: callers drop null-key rows first
    if pc.any(pc.is_null(t[key], nan_is_null=True)).as_py():
        raise ValueError(f"{ctx}: null join keys are not supported — "
                         "filter null-key rows before the join")
    return t


def bucketed_asof_join(left_ds, right_ds, key: str, ts: str,
                       right_key: str | None = None,
                       right_ts: str | None = None,
                       n_buckets: int = 32):
    """Both-sides-large as-of join: both sides meet in ``shuffle.cogroup``
    buckets on the key (one narrow shuffle), then one ``pd.merge_asof``
    over ts-sorted frames per fold frame. Each side converts to pandas
    only after the side split, so int64 keys and payloads above 2^53
    survive bit-exact. Key dtypes must match across sides
    (``merge_asof`` requires equal ``by`` dtypes)."""
    right_key = right_key or key
    right_ts = right_ts or ts
    ctx = "bucketed_asof_join"

    def per_frame(l: pa.Table, r: pa.Table) -> pd.DataFrame:
        left = _no_null_keys(l, key, ctx).to_pandas()
        right = _no_null_keys(r, right_key, ctx).to_pandas()
        left = left.sort_values(ts, kind="mergesort")
        right = right.sort_values(right_ts, kind="mergesort")
        # unify timestamp resolutions (arrow→pandas may yield us vs ns)
        left[ts] = pd.to_datetime(left[ts]).astype("datetime64[us]")
        right[right_ts] = pd.to_datetime(right[right_ts]) \
            .astype("datetime64[us]")
        # right int payloads → nullable Int64: merge_asof's left-outer
        # shape fills unmatched rows with a null, and plain int64 would
        # widen to float64 there (rounding payloads above 2^53)
        for c in right.columns:
            if c not in (right_key, right_ts) and right[c].dtype.kind in "iu":
                right[c] = right[c].astype("Int64")
        return pd.merge_asof(left, right, left_on=ts, right_on=right_ts,
                             left_by=key, right_by=right_key)

    return cogroup(left_ds, right_ds, [key], [right_key], per_frame,
                   n_buckets=n_buckets)


ASOF_BROADCAST_MAX = 2_000_000


def asof_join(left_ds, right_ds, key: str, ts: str,
              right_key: str | None = None, right_ts: str | None = None,
              value_cols: list[str] | None = None, inner: bool = True,
              broadcast_max: int = ASOF_BROADCAST_MAX, n_buckets: int = 32):
    """Size-aware as-of join dispatch (mirrors REF_BROADCAST_MAX in
    validate_pipeline): a right side within ``broadcast_max`` rows is
    collected once and broadcast (no shuffle); a larger one goes through
    the hash-bucketed ``pd.merge_asof`` path. The broadcast path renames
    colliding right columns to ``right_<col>``; the bucketed path keeps
    merge_asof's suffixing — project the columns you need downstream."""
    right_key = right_key or key
    right_ts = right_ts or ts
    if right_ds.count() <= broadcast_max:
        return broadcast_asof_join(left_ds, right_ds.to_pandas(), key, ts,
                                   right_key, right_ts, value_cols, inner)
    out = bucketed_asof_join(left_ds, right_ds, key, ts,
                             right_key, right_ts, n_buckets)
    if inner:
        out = out.map_batches(lambda b: b[b[right_ts].notna()],
                              batch_format="pandas")
    return out


# ---------------------------------------------------------------------------
# interval (range) join
# ---------------------------------------------------------------------------


def broadcast_interval_join(ds, right_df: "pd.DataFrame", key: str, ts: str,
                            right_key: str, right_start: str,
                            length, right_cols: list[str]):
    """1:N range join with a broadcast right side of FIXED-length
    intervals: emit one output row per (left row, right row) with the
    same key and ``right_start <= ts < right_start + length``.

    Equal-length intervals make containment a CONTIGUOUS run in the
    per-key start-sorted array (start ∈ (ts−length, ts]), so each key
    group resolves with two vectorized searchsorted calls and a repeat —
    no per-row Python, no shuffle. Variable-length intervals need the
    bucketed form (sort both sides and sweep), not this one.
    """
    import ray

    length_us = int(pd.Timedelta(length).value // 1000)  # ns → us

    def _us(arr) -> np.ndarray:
        return pd.to_datetime(arr).astype("datetime64[us]") \
            .astype("int64").to_numpy()

    prep: dict = {}
    srt = right_df.sort_values(right_start, kind="mergesort")
    for k, g in srt.groupby(right_key):
        prep[k] = (_us(g[right_start]),
                   {c: g[c].to_numpy() for c in right_cols})
    ref = ray.put(prep)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        table = ray.get(ref)
        tv = _us(batch[ts])
        left_rows: list[np.ndarray] = []
        right_taken: dict[str, list] = {c: [] for c in right_cols}
        for k, idx in batch.groupby(key, sort=False).indices.items():
            entry = table.get(k)
            if entry is None:
                continue
            starts, cols = entry
            t = tv[idx]
            lo = np.searchsorted(starts, t - length_us, side="right")
            hi = np.searchsorted(starts, t, side="right")
            counts = hi - lo
            has = counts > 0
            if not has.any():
                continue
            # expand: left row r repeats counts[r] times; right indices
            # are the contiguous runs [lo, hi) per row
            reps = counts[has]
            left_rows.append(np.repeat(idx[has], reps))
            ridx = np.concatenate([np.arange(a, b)
                                   for a, b in zip(lo[has], hi[has])])
            for c in right_cols:
                right_taken[c].append(cols[c][ridx])
        if not left_rows:
            out = batch.iloc[0:0].copy()
            for c in right_cols:
                out[c] = pd.Series([], dtype=object)
            return out
        li = np.concatenate(left_rows)
        out = batch.iloc[li].copy()
        for c in right_cols:
            out[c] = np.concatenate(right_taken[c])
        return out.reset_index(drop=True)

    return ds.map_batches(join, batch_format="pandas")


def bucketed_interval_join(left_ds, right_ds, key: str, ts: str,
                           right_key: str, right_start: str,
                           length, right_cols: list[str],
                           n_buckets: int = 32):
    """Both-sides-large fixed-length interval join: both sides meet in
    ``shuffle.cogroup`` buckets on the key (one narrow shuffle), then the
    same contiguous-run searchsorted expansion as the broadcast form runs
    per fold frame. Each side converts to pandas only after the side
    split, so int64 keys and payloads above 2^53 survive bit-exact."""
    length_us = int(pd.Timedelta(length).value // 1000)
    rc = list(dict.fromkeys([right_key, right_start] + list(right_cols)))
    ctx = "bucketed_interval_join"

    def _us(arr) -> np.ndarray:
        return pd.to_datetime(arr).astype("datetime64[us]") \
            .astype("int64").to_numpy()

    out_right_cols = [c for c in right_cols if c != right_key]

    def per_frame(l: pa.Table, r: pa.Table) -> pd.DataFrame:
        left = _no_null_keys(l, key, ctx).to_pandas()
        right = _no_null_keys(r, right_key, ctx).to_pandas()
        if left.empty or right.empty:
            out = left.iloc[0:0].copy()
            for c in out_right_cols:
                out[c] = pd.Series([], dtype=right[c].dtype)
            return out
        right = right.sort_values(right_start, kind="mergesort")
        rgroups = {k: g for k, g in right.groupby(right_key, sort=False)}
        tv = _us(left[ts])
        left_rows, right_taken = [], {c: [] for c in out_right_cols}
        for k, idx in left.groupby(key, sort=False).indices.items():
            rg = rgroups.get(k)
            if rg is None:
                continue
            starts = _us(rg[right_start])
            t = tv[idx]
            lo = np.searchsorted(starts, t - length_us, side="right")
            hi = np.searchsorted(starts, t, side="right")
            counts = hi - lo
            has = counts > 0
            if not has.any():
                continue
            left_rows.append(np.repeat(idx[has], counts[has]))
            ridx = np.concatenate([np.arange(a, b)
                                   for a, b in zip(lo[has], hi[has])])
            for c in out_right_cols:
                right_taken[c].append(rg[c].to_numpy()[ridx])
        if not left_rows:
            out = left.iloc[0:0].copy()
            for c in out_right_cols:
                out[c] = pd.Series([], dtype=right[c].dtype)
            return out
        li = np.concatenate(left_rows)
        out = left.iloc[li].copy()
        for c in out_right_cols:
            out[c] = np.concatenate(right_taken[c])
        return out.reset_index(drop=True)

    return cogroup(left_ds, right_ds.select_columns(rc), [key], [right_key],
                   per_frame, n_buckets=n_buckets)


def interval_join(left_ds, right_ds, key: str, ts: str, right_key: str,
                  right_start: str, length, right_cols: list[str],
                  broadcast_max: int = ASOF_BROADCAST_MAX,
                  n_buckets: int = 32):
    """Size-aware fixed-length interval-join dispatch: broadcast the
    right side when it fits (``broadcast_max`` rows), else hash-bucket
    both sides (VERDICT-r3 size-aware-dispatch item)."""
    if right_ds.count() <= broadcast_max:
        return broadcast_interval_join(left_ds, right_ds.to_pandas(), key,
                                       ts, right_key, right_start, length,
                                       right_cols)
    return bucketed_interval_join(left_ds, right_ds, key, ts, right_key,
                                  right_start, length, right_cols,
                                  n_buckets)


def range_lookup(ds, value_col: str, bounds, labels,
                 out_col: str = "band", miss=None):
    """Keyless dimension lookup into NON-OVERLAPPING sorted ranges —
    the CIDR→geo / value→tier shape (beyond the reference's keyed
    lookups; ``broadcast_interval_join`` stays the keyed form).
    ``bounds`` = sorted array of n+1 range edges; row value v maps to
    ``labels[i]`` when ``bounds[i] <= v < bounds[i+1]`` and to ``miss``
    outside [bounds[0], bounds[-1]). A label of None makes its range a
    GAP (maps to ``miss``).

    ZERO shuffle: the edge array ships once via ``ray.put``; each batch
    pays ONE vectorized searchsorted. Appends ``out_col``."""
    import ray

    b = np.asarray(bounds)
    if len(b) < 2 or np.any(b[1:] <= b[:-1]):
        raise ValueError("bounds must be strictly increasing, len >= 2")
    if len(labels) != len(b) - 1:
        raise ValueError("need exactly len(bounds) - 1 labels")
    lab = np.asarray([miss if v is None else v for v in labels]
                     + [miss, miss], dtype=object)
    ref = ray.put((b, lab))

    def fn(t: pa.Table) -> pa.Table:
        bb, ll = ray.get(ref)
        v = t[value_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(bb, v, side="right") - 1
        out = ll[np.where((idx < 0) | (idx >= len(bb) - 1),
                          len(ll) - 1, idx)]
        return t.append_column(out_col, pa.array(out.tolist()))

    return ds.map_batches(fn, batch_format="pyarrow")


def bloom_semi_filter(big, key_col: str, small, small_key: str, *,
                      n_bits: int = 1 << 24, n_hashes: int = 5,
                      exact: bool = True,
                      broadcast_max: int = 20_000_000):
    """Bloom semi-join: keep ``big`` rows whose key appears in
    ``small`` — the classic shuffle-volume cut before an exact join
    (a Bloom filter has NO false negatives, so the pre-filter never
    drops a matching row; false positives ≈ (1−e^{−kn/m})^k survive
    to the exact stage).

    Build side: one Bloom bitmap PARTIAL per input block (pure numpy
    bit-set over hash64 of the keys), OR-folded on the driver —
    O(blocks · n_bits/8) bytes through the object store, NEVER the key
    multiset itself; the folded bitmap ships once via ``ray.put`` and
    every probe batch pays k vectorized bit tests. This is the path
    for a build side whose distinct-key ARRAY would not broadcast but
    whose bitmap does (n_bits is fixed).

    ``exact=True`` additionally verifies survivors against the TRUE
    distinct key set (collected sorted, guarded by ``broadcast_max``)
    — the result is then the exact semi-join and oracle-checkable; use
    ``exact=False`` when a downstream join/groupby re-verifies anyway.

    Reference anchor: referential checks (validate_pipeline's
    broadcast anti-join) are the same membership shape; this adds the
    constant-memory probabilistic tier between "broadcast the keys"
    and "shuffle both sides"."""
    import ray
    from prompture_ray.functions.sketches import Bloom, hash64

    def build(t: pa.Table) -> pa.Table:
        b = Bloom(n_bits, n_hashes)
        kv = t[small_key].to_numpy(zero_copy_only=False)
        if kv.dtype.kind not in "iu":
            kv = np.asarray(kv, dtype=object)
        b.add_hashes(hash64(kv))
        return pa.table({"bits": pa.array([b.bits.tobytes()],
                                          type=pa.large_binary())})

    folded = Bloom(n_bits, n_hashes)
    for batch in small.map_batches(build, batch_format="pyarrow",
                                   batch_size=None) \
            .iter_batches(batch_format="pyarrow"):
        for blob in batch["bits"].to_pylist():
            folded.bits |= np.frombuffer(blob, dtype=np.uint8)
    bits_ref = ray.put(folded.bits)

    exact_ref = None
    if exact:
        uniq = []
        for batch in small.map_batches(
                lambda t: pa.table({
                    "k": pa.array(
                        np.unique(t[small_key].to_numpy(
                            zero_copy_only=False)))}),
                batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            uniq.append(batch["k"].to_numpy(zero_copy_only=False))
        keys = np.unique(np.concatenate(uniq)) if uniq else \
            np.empty(0, dtype=np.int64)
        if len(keys) > broadcast_max:
            raise ValueError(
                f"bloom_semi_filter: {len(keys)} distinct build keys "
                f"exceed broadcast_max={broadcast_max}; use "
                "exact=False + a downstream bucketed join")
        exact_ref = ray.put(keys)

    def probe(t: pa.Table) -> pa.Table:
        bl = Bloom(n_bits, n_hashes)
        bl.bits = ray.get(bits_ref)
        kv = t[key_col].to_numpy(zero_copy_only=False)
        kvh = kv if kv.dtype.kind in "iu" else \
            np.asarray(kv, dtype=object)
        keep = bl.contains_hashes(hash64(kvh))
        if exact_ref is not None and keep.any():
            keys = ray.get(exact_ref)
            sub = kv[keep]
            pos = np.searchsorted(keys, sub)
            ok = np.zeros(len(sub), dtype=bool)
            in_rng = pos < len(keys)
            ok[in_rng] = keys[pos[in_rng]] == sub[in_rng]
            keep[np.flatnonzero(keep)] = ok
        return t.filter(pa.array(keep))

    return big.map_batches(probe, batch_format="pyarrow")
