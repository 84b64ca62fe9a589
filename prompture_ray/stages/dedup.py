"""Distributed deduplication: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Reference semantics (prompture/dataset/dedup.py):
- exact: normalized key (``_normalise``, dedup.py:54-65), first occurrence
  wins, empty keys dropped, ``(kept, removed_count)`` result (dedup.py:73-96)
- shingle: char-5-shingles, Jaccard ≥ 0.8 vs any prior kept — O(n²) greedy
  (dedup.py:127-169, "fast enough for ~50k items")
- semantic: embedding cosine ≥ 0.92 vs prior kept (dedup.py:199-272)

Distributed rewrite (the greedy "vs any prior kept" is inherently
sequential; SURVEY §7.4 documents the deviation):
- exact: one sort on the normalized key + a shift-compare per block
  (``dedup_exact``) — first-wins under a DEFINED canonical order,
  deterministic under any partitioning.
- near-dup (minhash/simhash/embedding): signature per doc in a vectorized
  ``map_batches`` → explode to (band_key, doc) rows → one
  ``shuffle.partition_fold`` on the band key (every bucket lands whole
  in a fold frame) → candidate pairs → verify (Jaccard estimate /
  hamming / cosine) → connected components → keep the canonical min of
  each component.
  Components are solved with driver union-find over the (small) verified
  pair set; at larger scale swap in the iterative min-label-propagation
  noted in ray_guide (the pair set, not the corpus, bounds driver memory —
  ``max_pairs`` guards it).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import (
    MinHasher, hash64, simhash64, hamming_distance64,
)
from prompture_ray.functions.textfuncs import normalize_strings, normalize_text
from prompture_ray.stages.shuffle import aggregate

DEFAULT_SHINGLE_K = 5
DEFAULT_JACCARD = 0.8
DEFAULT_COSINE = 0.92


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------
def add_content_hash(ds, col: str, out_col: str = "content_hash",
                     normalize: bool = True):
    """Vectorized content-hash column (int64 view of the 64-bit hash)."""

    def fn(t: pa.Table) -> pa.Table:
        arr = t[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if normalize:
            arr = normalize_strings(arr)
        vals = np.asarray(arr.to_pylist(), dtype=object)
        null_or_empty = np.array([v is None or v == "" for v in vals],
                                 dtype=bool)
        h = hash64(np.where(null_or_empty, "", vals)).astype(np.int64)
        t = t.append_column(out_col, pa.array(h, type=pa.int64()))
        return t.append_column(out_col + "_empty",
                               pa.array(null_or_empty))

    return ds.map_batches(fn, batch_format="pyarrow")


def dedup_exact(ds, col: str, order_col: str,
                normalize: bool = True, hash_col: str = "content_hash",
                flag_col: str | None = None):
    """First-occurrence-wins exact dedup under canonical order
    ``order_col`` (the distributed form of dedup.py:73-96). Returns the
    kept rows (original columns).

    Shape: ONE sort shuffle by (hash, order), then a vectorized
    shift-compare per block — keep a row iff its hash differs from the
    previous row's. No per-group pandas frames (the round-2 form paid a
    sort_values+head frame per mostly-singleton hash group). Hash runs
    that span a block boundary are resolved exactly from 2 tiny metadata
    rows per block (the block's first (hash, order) and last hash):
    driver state is O(n_blocks), never O(n_keys). Assumes ``order_col``
    is a canonical (duplicate-free) ordering, as the reference does —
    rows with identical (hash, order) are kept once per block.

    ``flag_col``: audit mode — keep EVERY row and append a boolean
    first-occurrence flag instead of filtering (empty-key rows are
    still dropped, as in filter mode).
    """
    import ray

    hashed = add_content_hash(ds, col, hash_col, normalize)
    # empty keys are dropped outright (reference dedup.py:83-85)
    hashed = hashed.map_batches(
        lambda t: t.filter(pc.invert(t[hash_col + "_empty"])),
        batch_format="pyarrow")
    srt = hashed.sort([hash_col, order_col]).materialize()

    # pass A (tiny): per-block boundary metadata
    def edges(t: pa.Table) -> pa.Table:
        # first_order keeps the order col's NATIVE type — block ordering
        # must match the sort's comparison, not a stringified one
        return pa.table({
            "first_hash": pc.cast(t[hash_col].slice(0, 1), pa.int64()),
            "first_order": t[order_col].slice(0, 1),
            "last_hash": pc.cast(
                t[hash_col].slice(max(t.num_rows - 1, 0), 1), pa.int64()),
        })

    eb = srt.map_batches(edges, batch_format="pyarrow",
                         batch_size=None).to_pandas()
    drop_keys: set = set()
    if len(eb):
        eb = eb.sort_values(["first_hash", "first_order"],
                            ignore_index=True)
        prev_last = None
        for row in eb.itertuples():
            if prev_last is not None and row.first_hash == prev_last:
                # this block's first row continues the previous block's
                # final hash run — the keeper lives in the earlier block
                drop_keys.add((int(row.first_hash), str(row.first_order)))
            prev_last = row.last_hash
    drop_ref = ray.put(drop_keys)

    # pass B: vectorized keep-first per block
    def keep(t: pa.Table) -> pa.Table:
        out_cols = [c for c in t.column_names
                    if c not in (hash_col, hash_col + "_empty")]
        if t.num_rows == 0:
            empty = t.select(out_cols)
            if flag_col is not None:
                empty = empty.append_column(
                    flag_col, pa.array([], type=pa.bool_()))
            return empty
        h = t[hash_col].to_numpy(zero_copy_only=False)
        mask = np.empty(len(h), dtype=bool)
        mask[0] = True
        mask[1:] = h[1:] != h[:-1]
        dk = ray.get(drop_ref)
        if dk and (int(h[0]), str(t[order_col][0].as_py())) in dk:
            mask[0] = False
        if flag_col is not None:
            return t.select(out_cols).append_column(flag_col,
                                                    pa.array(mask))
        return t.filter(pa.array(mask)).select(out_cols)

    return srt.map_batches(keep, batch_format="pyarrow", batch_size=None)


def dedup_exact_stats(ds, col: str, normalize: bool = True):
    """(total, kept, removed, empty_dropped) counters — FilterStats-style
    summary (reference filters.py:172-192 / dedup removed_count).

    One ``shuffle.aggregate`` counts rows per content hash, an empty or
    null text keyed as the null hash (its own group), then one keyless
    Ray aggregate sums the per-hash rows: the driver gets four numbers,
    never a row per distinct document."""
    from ray.data.aggregate import Sum
    hashed = add_content_hash(ds, col, "content_hash", normalize)

    def key(t: pa.Table) -> pa.Table:
        h = pc.if_else(t["content_hash_empty"],
                       pa.scalar(None, pa.int64()), t["content_hash"])
        return pa.table({"content_hash": h})

    def per_hash(t: pa.Table) -> pa.Table:
        empty = pc.is_null(t["content_hash"])
        return pa.table({
            "n": t["n"], "kept": pc.cast(pc.invert(empty), pa.int64()),
            "empty": pc.if_else(empty, t["n"], 0)})

    sums = aggregate(hashed.map_batches(key, batch_format="pyarrow"),
                     ["content_hash"], n=("count", None)) \
        .map_batches(per_hash, batch_format="pyarrow") \
        .aggregate(Sum("n"), Sum("kept"), Sum("empty"))
    total, kept, empty = (int((sums or {}).get(f"sum({c})") or 0)
                          for c in ("n", "kept", "empty"))
    return {"total": total, "kept": kept,
            "removed": total - empty - kept, "empty_dropped": empty}


# ---------------------------------------------------------------------------
# shingling / signatures (vectorized per batch)
# ---------------------------------------------------------------------------
_SHINGLE_P = np.uint64(1099511628211)   # FNV-64 prime rolling multiplier


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (same constants as sketches._mix) — spreads
    the rolling-polynomial output across all 64 bits before the MinHash
    permutations take it mod 2^61-1."""
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def char_shingle_hashes_batch(texts, k: int = DEFAULT_SHINGLE_K) -> list:
    """Char-k-shingle SET hashes for a whole batch of texts, vectorized
    (reference dedup.py:104-115 semantics: normalized text, set
    semantics; empty/None → empty; len<k → one hash of the whole text).

    One UTF-32 encode of the concatenated batch → uint64 codepoint
    array → k-step rolling polynomial (·_SHINGLE_P, wrap-around 64-bit)
    + splitmix64 finalize → per-doc ``np.unique``. Replaces the per-doc
    Python set-of-slices + per-object siphash (~10× the CPU on long web
    pages). The hash FAMILY is deterministic but different from
    ``hash64``'s siphash: MinHash kept-sets over exact duplicates are
    invariant to the family, and both the banding stage and the
    candidate signature recompute go through this one function, so
    signatures always agree."""
    n_docs = len(texts)
    out = [np.empty(0, dtype=np.uint64)] * n_docs
    idx = [i for i in range(n_docs)
           if texts[i] and len(texts[i]) >= k]
    # rare short texts: one whole-text "window" under the same family
    for i in range(n_docs):
        txt = texts[i]
        if txt and len(txt) < k:
            cp = np.frombuffer(txt.encode("utf-32-le"),
                               dtype=np.uint32).astype(np.uint64)
            with np.errstate(over="ignore"):
                g = cp[0]
                for j in range(1, cp.size):
                    g = g * _SHINGLE_P + cp[j]
            out[i] = _mix64(np.asarray([g], dtype=np.uint64))
    if not idx:
        return out
    joined = "".join(texts[i] for i in idx)
    cp = np.frombuffer(joined.encode("utf-32-le"),
                       dtype=np.uint32).astype(np.uint64)
    lens = np.asarray([len(texts[i]) for i in idx], dtype=np.int64)
    m = cp.size - k + 1
    with np.errstate(over="ignore"):
        g = cp[:m].copy()
        for j in range(1, k):
            g = g * _SHINGLE_P + cp[j:m + j]
    g = _mix64(g)
    # windows crossing a doc boundary are invalid; per-doc window counts
    # are lens-k+1 over the valid (sorted-by-doc) windows
    cnt = lens - k + 1
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    offs = starts[:len(idx)]
    for d, i in enumerate(idx):
        seg = g[offs[d]:offs[d] + cnt[d]]
        out[i] = np.unique(seg)
    return out


def char_shingle_hashes(text: str, k: int = DEFAULT_SHINGLE_K) -> np.ndarray:
    """Per-doc twin of ``char_shingle_hashes_batch`` (single source of
    truth for the shingle-hash family)."""
    return char_shingle_hashes_batch([text], k)[0]


def word_ngram_hashes(text: str, n: int = 3) -> np.ndarray:
    toks = text.split() if text else []
    if len(toks) < n:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = list({" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)})
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return hash64(np.asarray(grams, dtype=object))


class MinHashStage:
    """Actor-pool stage: text column → LSH band keys.

    Emits one row per (doc × band): ``{id, band, band_key}`` — the
    shingle→minhash→band→bucket pipeline (SURVEY §2.7). Permutation tables
    are built once per actor in ``__init__``.

    Scale note: the band rows deliberately do NOT carry the 128×8-byte
    signature — the bucket shuffle moves ~16 bytes per (doc × band)
    instead of ~1 KB (~16 KB/doc across 16 bands). Signatures are
    recomputed only for CANDIDATE ids in the scoring stage
    (``minhash_candidate_pairs``) — near-dup candidates are sparse, so
    re-deriving beats shipping every signature through the shuffle.
    """

    def __init__(self, text_col: str, id_col: str, n_perm: int = 128,
                 n_bands: int = 16, shingle_k: int = DEFAULT_SHINGLE_K,
                 normalize: bool = True):
        self.text_col = text_col
        self.id_col = id_col
        self.mh = MinHasher(n_perm=n_perm)
        self.n_bands = n_bands
        self.shingle_k = shingle_k
        self.normalize = normalize

    def _signature(self, txt) -> np.ndarray | None:
        sh = char_shingle_hashes(txt, self.shingle_k)
        if sh.size == 0:
            return None
        return self.mh.sig(sh)

    def __call__(self, t: pa.Table) -> pa.Table:
        arr = t[self.text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if self.normalize:
            arr = normalize_strings(arr)
        texts = arr.to_pylist()
        sh = char_shingle_hashes_batch(texts, self.shingle_k)
        keep = np.asarray([s.size > 0 for s in sh], dtype=bool)
        if not keep.any():
            return pa.table({
                "id": t[self.id_col].slice(0, 0),
                "band": pa.array([], type=pa.int32()),
                "band_key": pa.array([], type=pa.int64())})
        # batched signatures + band keys (bit-identical to the per-doc
        # forms; pinned by test) — no per-doc Python in the hot loop
        sigs = self.mh.signatures([s for s, k in zip(sh, keep) if k])
        keys = self.mh.band_keys_batch(sigs, self.n_bands)  # (n, bands)
        n = keys.shape[0]
        kept_ids = t[self.id_col].filter(pa.array(keep))
        id_np = np.repeat(np.arange(n, dtype=np.int64), self.n_bands)
        return pa.table({
            "id": kept_ids.take(pa.array(id_np, type=pa.int64())),
            "band": pa.array(np.tile(
                np.arange(self.n_bands, dtype=np.int32), n)),
            "band_key": pa.array(keys.ravel().astype(np.int64)),
        })


_PAIR_STATS_COLS = ("oversized_buckets", "dropped_members")


def _combine_bucket_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mix two int arrays into one int64 key for vectorized membership
    tests (np.isin). Collisions only ever KEEP an extra row (the exact
    groupby downstream still partitions by the true pair), never drop a
    matching one — safe for pruning filters."""
    return (a.astype(np.int64) * np.int64(-7046029254386353131)
            + b.astype(np.int64))


def _id_filter_fn(arr: pa.Array, need_ref):
    """Vectorized membership mask of an id column against a broadcast
    id array (sorted numpy for numeric ids, Arrow is_in otherwise)."""
    import ray
    need = ray.get(need_ref)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(need, np.ndarray) and need.dtype.kind in "iuf":
        v = arr.to_numpy(zero_copy_only=False)
        idx = np.searchsorted(need, v)
        idx = np.clip(idx, 0, max(len(need) - 1, 0))
        return pa.array((need[idx] == v) if len(need)
                        else np.zeros(len(v), dtype=bool))
    return pc.is_in(arr, value_set=pa.array(list(need)))


def _bucketed_group_pairs(sigs, key_cols, group_fn, empty: pd.DataFrame):
    """ONE ``shuffle.partition_fold`` on the bucket key for the
    bucket→pairs step, replacing the old three-pass shape (count
    aggregate over every band row + driver ray.put of the multi-bucket
    key array + a pruned second sort) AND the frame-per-bucket
    map_groups (the round-4 tiny-cells anti-pattern — a pandas frame per
    LSH bucket, including millions of singletons on the embedding path).

    The fold has ~``shuffle.ROWS_PER_BLOCK`` rows per partition (floor
    64, ``shuffle.target_blocks``), and
    every bucket lands wholly in one fold frame; each frame then runs a
    single vectorized pass: one lexsort, run-boundary detection on the
    key columns, and ``group_fn`` — unchanged from the per-bucket form,
    so per-group semantics (member id-sort, max_bucket cap, counter
    rows) are preserved by construction — called only for runs of
    size ≥ 2.

    Removes the O(multi-buckets) driver broadcast entirely: nothing
    about the corpus's bucket structure ever lands on the driver."""
    from prompture_ray.stages.shuffle import partition_fold, target_blocks

    sigs = sigs.materialize()
    n_parts = target_blocks(sigs.count())

    def part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return empty
        g = g.sort_values([*key_cols, "id"], kind="mergesort",
                          ignore_index=True)
        ks = [g[c].to_numpy() for c in key_cols]
        diff = np.zeros(len(g) - 1, dtype=bool)
        for k in ks:
            diff |= k[1:] != k[:-1]
        starts = np.flatnonzero(np.r_[True, diff])
        ends = np.r_[starts[1:], len(g)]
        outs = [group_fn(g.iloc[s:e])
                for s, e in zip(starts, ends) if e - s >= 2]
        if not outs:
            return empty
        return pd.concat(outs, ignore_index=True)

    return partition_fold(sigs, key_cols, part, n_parts=n_parts)


def _distinct_pairs(pairs_ds, min_col: str | None = None):
    """Dedupe (id_a, id_b) pairs found in multiple buckets: ONE
    ``shuffle.partition_fold`` on (id_a, id_b) with one vectorized
    pandas pass per fold frame (drop_duplicates, or a grouped min over
    ``min_col`` for a payload like hamming — a function of the pair, so
    min == any occurrence). A Ray grouped aggregate over the |pairs|
    DISTINCT two-column groups measured ~100× slower at ~1M pairs (60.5
    vs 0.6 s — the round-5 seventh-session finding); every pair lands
    wholly in one frame so per-pair semantics are unchanged."""
    from prompture_ray.stages.shuffle import partition_fold, target_blocks

    alias = min_col
    pairs_ds = pairs_ds.materialize()
    n_parts = target_blocks(pairs_ds.count())

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if alias is None:
            return g.drop_duplicates(["id_a", "id_b"])
        out = g.groupby(["id_a", "id_b"], sort=False)[alias].min() \
            .reset_index()
        out[alias] = out[alias].astype(g[alias].dtype)
        return out

    return partition_fold(pairs_ds, ["id_a", "id_b"], fold,
                          n_parts=n_parts)


def _bucket_counter_row(df: pd.DataFrame, dropped: int) -> pd.DataFrame:
    """One side-channel row per truncated bucket (null ids) so recall
    loss is visible, never silent (VERDICT r1 'what's wrong' #3)."""
    row = {c: [None] for c in df.columns}
    row["bucket_dropped"] = [dropped]
    return pd.concat([df, pd.DataFrame(row)], ignore_index=True)


def _split_pairs_and_stats(raw_ds):
    """Split bucket output into (pairs_df-free Dataset, stats dict).
    ``raw_ds`` is materialized (candidate pairs are small relative to the
    corpus); counter rows have null id_a.

    The bucket fold upstream emits one block per fold frame — about as
    many as its input has blocks, whatever the pair count — and the
    distinct-pairs sort downstream pays per-block task overhead
    superlinearly (the components-round lesson, same fix): consolidate
    to ~500k rows/block here, once, so every consumer of the pair
    multiset sorts over a bounded block count."""
    from prompture_ray.stages.shuffle import bound_blocks
    import pyarrow.compute as _pc

    raw = bound_blocks(raw_ds.materialize()).materialize()

    def is_counter(t: pa.Table) -> pa.Table:
        return t.filter(_pc.is_null(t["id_a"]))

    def is_pair(t: pa.Table) -> pa.Table:
        t = t.filter(_pc.is_valid(t["id_a"]))
        return t.drop_columns(["bucket_dropped"]) \
            if "bucket_dropped" in t.column_names else t

    counters = raw.map_batches(is_counter, batch_format="pyarrow")
    n_over = counters.count()
    dropped = int(counters.sum("bucket_dropped") or 0) if n_over else 0
    pairs = raw.map_batches(is_pair, batch_format="pyarrow")
    return pairs, {"oversized_buckets": int(n_over),
                   "dropped_members": dropped}


def minhash_candidate_pairs(ds, text_col: str, id_col: str,
                            n_perm: int = 128, n_bands: int = 16,
                            shingle_k: int = DEFAULT_SHINGLE_K,
                            threshold: float = DEFAULT_JACCARD,
                            max_bucket: int = 200,
                            stats_out: dict | None = None,
                            pair_filter=None,
                            score_broadcast_max: int = 1_000_000,
                            pair_mode: str = "triangle"):
    """Candidate near-dup pairs with estimated Jaccard ≥ threshold.

    Stage 1 — shingle→minhash→band keys in map_batches (NO signatures in
    the shuffle) → groupby (band, band_key) → all in-bucket id pairs
    (bucket size capped; a truncated bucket emits an
    oversized/dropped-members counter surfaced in ``stats_out``).
    Stage 2 — signatures are recomputed for the candidate ids only
    (broadcast id-array filter over the corpus, ~8 B/candidate) into a
    (id, sig) Dataset, then pairs are scored with a size-aware dispatch
    (see ``_score_pairs_bucketed``): ≤ ``score_broadcast_max``
    candidate sigs → ONE ray.put of the sorted-id sig matrix
    (1 KB/candidate) + per-batch searchsorted agreement (no join, no
    per-pair sig payload in any shuffle); above the cap → two
    hash-bucketed equi-joins with n_buckets auto-sized from the pair
    count. est_jaccard = fraction of agreeing minhashes, filtered
    ≥ threshold. Identical pair set and estimates to shipping
    signatures through the band shuffle, at a fraction of the shuffled
    bytes; driver/broadcast state is O(candidates).

    ``pair_mode``: "triangle" (default) emits ALL in-bucket pairs —
    O(k²) per bucket, the exact pair semantics every oracle query pins.
    "star" emits only (min-id, member) edges — O(k) per bucket, the
    100-TB scale path (template-heavy web corpora put thousands of docs
    in one band bucket; the capped triangle still costs ~20k pair rows
    per bucket per band, measured 100M+ raw pair rows and a 500+ s
    distinct-pairs sort at just 900k docs). Star keeps every member
    that verifies against the bucket REPRESENTATIVE (transitive closure
    across bands/buckets still applies via connected components);
    borderline members similar to each other but not to the
    representative can land in different components — acceptable for
    dedup KEPT-set use, wrong for pair-level reporting. Default stays
    triangle; opt in per call for scale.
    """
    if pair_mode not in ("triangle", "star"):
        raise ValueError(f"pair_mode must be 'triangle' or 'star', "
                         f"got {pair_mode!r}")
    import ray

    stage = MinHashStage(text_col, id_col, n_perm, n_bands, shingle_k)
    sigs = ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=2048)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": [], "id_b": [], "bucket_dropped": []})
        if len(g) < 2:
            return empty
        dropped = max(0, len(g) - max_bucket)
        g = g.sort_values("id", kind="mergesort").head(max_bucket)
        ids = g["id"].to_numpy()
        if pair_mode == "star":
            out = pd.DataFrame({"id_a": ids[0], "id_b": ids[1:],
                                "bucket_dropped": 0})
        else:
            iu = np.triu_indices(len(ids), k=1)
            out = pd.DataFrame({"id_a": ids[iu[0]], "id_b": ids[iu[1]],
                                "bucket_dropped": 0})
        if dropped:
            out = _bucket_counter_row(out, dropped)
        return out

    raw = _bucketed_group_pairs(
        sigs, ["band", "band_key"], bucket_pairs,
        empty=pd.DataFrame({"id_a": [], "id_b": [], "bucket_dropped": []}))
    pairs, stats = _split_pairs_and_stats(raw)
    if stats_out is not None:
        stats_out.update(stats)
    # dedupe pairs discovered in multiple bands (one sorted aggregate)
    cand = _distinct_pairs(pairs).materialize()
    if pair_filter is not None:
        # prune candidates BEFORE signature recompute + scoring (e.g.
        # cross-corpus contamination drops same-side pairs here, so
        # train-train duplicates never cost a verify)
        cand = cand.map_batches(pair_filter,
                                batch_format="pyarrow").materialize()

    # ---- stage 2: distributed scoring by recomputed signatures -------
    if cand.count() == 0:
        return cand.map_batches(
            lambda t: t.append_column(
                "est_jaccard", pa.array([0.0] * t.num_rows)),
            batch_format="pyarrow")

    # flat candidate-id array (8 B/id), broadcast once for the corpus
    # sig-recompute filter
    need = _candidate_id_array(cand)
    need_ref = ray.put(need)

    def sig_rows(t: pa.Table) -> pa.Table:
        mask = _id_filter_fn(t[id_col], need_ref)
        sub = t.select([id_col, text_col]).filter(mask)
        txts = sub[text_col]
        if isinstance(txts, pa.ChunkedArray):
            txts = txts.combine_chunks()
        txts = normalize_strings(txts)
        sh = char_shingle_hashes_batch(txts.to_pylist(), stage.shingle_k)
        keep = [i for i, s in enumerate(sh) if s.size > 0]
        sigs = stage.mh.signatures([sh[i] for i in keep])
        ids = sub[id_col].take(pa.array(keep, type=pa.int64()))
        out_sig = [sigs[r].astype(np.int64).tobytes()
                   for r in range(len(keep))]
        return pa.table({"id": ids,
                         "sig": pa.array(out_sig, type=pa.binary())})

    sig_ds = ds.map_batches(sig_rows, batch_format="pyarrow")
    return _score_pairs_bucketed(cand, sig_ds, n_perm, threshold,
                                 broadcast_max=score_broadcast_max)


def _candidate_id_array(cand) -> np.ndarray:
    """Distinct candidate ids of a (id_a, id_b) pair Dataset as a sorted
    array (the broadcast side of the sig-recompute filter)."""

    def ids(t: pa.Table) -> pa.Table:
        a = t["id_a"]
        b = t["id_b"]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        return pa.table({"id": pa.concat_arrays([a, b])})

    uniq = cand.map_batches(ids, batch_format="pyarrow").unique("id")
    arr = np.asarray(uniq)
    if arr.dtype.kind in "iuf":
        return np.sort(arr)
    return np.asarray(sorted(uniq), dtype=object)


def _score_pairs_bucketed(cand, sig_ds, n_perm: int, threshold: float,
                          n_buckets: int | None = None,
                          broadcast_max: int = 1_000_000):
    """Distributed pair scoring — size-aware dispatch (the round-4
    tiny-side rule, applied to the candidate signature table):

    * ``n_sigs <= broadcast_max`` (the overwhelmingly common case —
      near-dup candidates are sparse): the candidate (id, sig) rows are
      gathered into ONE sorted id array + sig matrix and ``ray.put``
      once (plasma, zero-copy for every worker); each pair batch looks
      both sides up via searchsorted and computes the agreement kernel
      in place. NO join, NO per-pair sig payload in any shuffle — at
      1 KB/signature, shipping sigs per PAIR row (the old always-join
      form) multiplied hub-document signatures by their pair count and
      built multi-GB join buckets on template-heavy web corpora.
    * above the cap: two hash-bucketed equi-joins as before, with
      ``n_buckets`` auto-sized from the materialized pair count
      (~100k pair rows ≈ 200 MB with sig payloads per bucket frame)
      instead of the old fixed 16.

    ``sig_ds`` is materialized either way (the joins probe
    ``.schema()``; an unmaterialized input re-runs the corpus signature
    scan once per probe — measured 3× the scan cost)."""
    import ray

    sig_ds = sig_ds.materialize()
    n_sigs = sig_ds.count()

    if n_sigs <= broadcast_max:
        ids_l, sig_l = [], []
        for t in sig_ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            ids_l.append(t["id"].to_numpy(zero_copy_only=False))
            sig_l.append(np.frombuffer(
                b"".join(t["sig"].to_pylist()),
                dtype=np.int64).reshape(-1, n_perm))
        ids = np.concatenate(ids_l) if ids_l else np.empty(0, np.int64)
        sigs = np.vstack(sig_l) if sig_l else np.empty((0, n_perm),
                                                       np.int64)
        order = np.argsort(ids, kind="mergesort")
        ids, sigs = ids[order], sigs[order]
        ids_ref, sigs_ref = ray.put(ids), ray.put(sigs)

        def score_bc(t: pa.Table) -> pa.Table:
            I = ray.get(ids_ref)
            S = ray.get(sigs_ref)
            a = t["id_a"].to_numpy(zero_copy_only=False)
            b = t["id_b"].to_numpy(zero_copy_only=False)
            pa_pos = np.searchsorted(I, a)
            pb_pos = np.searchsorted(I, b)
            np.clip(pa_pos, 0, max(len(I) - 1, 0), out=pa_pos)
            np.clip(pb_pos, 0, max(len(I) - 1, 0), out=pb_pos)
            # inner-join semantics: drop pairs whose side has no sig
            # (empty-shingle docs never got a signature row)
            ok = (I[pa_pos] == a) & (I[pb_pos] == b) if len(I) \
                else np.zeros(len(a), dtype=bool)
            est = np.zeros(len(a), dtype=np.float64)
            if ok.any():
                est[ok] = (S[pa_pos[ok]] == S[pb_pos[ok]]).mean(axis=1)
            out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                            "est_jaccard": pa.array(
                                est, type=pa.float64())})
            return out.filter(pa.array(
                ok & (est >= threshold)))

        return cand.map_batches(score_bc, batch_format="pyarrow")

    from prompture_ray.stages.shuffle import join

    if n_buckets is None:
        n_pairs = cand.count()
        n_buckets = int(max(16, min(4096, np.ceil(n_pairs / 100_000))))
    sig_a = sig_ds.map_batches(
        lambda t: pa.table({"id_a": t["id"], "sig_a": t["sig"]}),
        batch_format="pyarrow")
    sig_b = sig_ds.map_batches(
        lambda t: pa.table({"id_b": t["id"], "sig_b": t["sig"]}),
        batch_format="pyarrow")
    j1 = join(cand, sig_a, "id_a", n_buckets=n_buckets).materialize()
    j2 = join(j1, sig_b, "id_b", n_buckets=n_buckets)

    def score(t: pa.Table) -> pa.Table:
        a = t["sig_a"]
        b = t["sig_b"]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        A = np.frombuffer(b"".join(a.to_pylist()),
                          dtype=np.int64).reshape(-1, n_perm)
        B = np.frombuffer(b"".join(b.to_pylist()),
                          dtype=np.int64).reshape(-1, n_perm)
        est = (A == B).mean(axis=1)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "est_jaccard": pa.array(est, type=pa.float64())})
        return out.filter(pc.greater_equal(out["est_jaccard"],
                                           pa.scalar(threshold)))

    return j2.map_batches(score, batch_format="pyarrow")


def _components(pairs: pd.DataFrame) -> dict:
    """Union-find over verified pairs → {id: component_root}."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def canon_le(x, y):
        # natural ordering (numeric ids compare numerically — MUST match
        # the distributed min-label path); string fallback for mixed types
        try:
            return x <= y
        except TypeError:
            return str(x) <= str(y)

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            ra, rb = (ra, rb) if canon_le(ra, rb) else (rb, ra)
            parent[rb] = ra
    return {x: find(x) for x in list(parent)}


def _best_drop_ids(ds, comp_df: "pd.DataFrame", id_col: str,
                   score_col: str) -> np.ndarray:
    """Quality-aware survivor selection (RefinedWeb/FineWeb-style "keep
    the best copy", beyond the reference's first-wins): component member
    ids MINUS the max-``score_col`` member of each component (ties →
    min id). Member (id, score) rows are fetched with one broadcast
    membership-filtered projection over ``ds`` — driver memory is
    O(component members), the same bound as the label table itself
    (components already collect to the driver in both modes)."""
    import ray
    member = comp_df["id"].to_numpy()
    int_ids = member.dtype.kind in "iu"
    member_arr = (np.sort(member.astype(np.int64)) if int_ids
                  else np.asarray(member, dtype=object))
    ref = ray.put(member_arr)

    def fetch(t: pa.Table) -> pa.Table:
        mask = _id_filter_fn(t[id_col], ref)
        return t.filter(mask).select([id_col, score_col])

    sc = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    m = sc.merge(comp_df.rename(columns={"id": id_col}), on=id_col)
    m = m.sort_values(["component", score_col, id_col],
                      ascending=[True, False, True], kind="mergesort")
    surv = m.groupby("component", sort=False).head(1)[id_col].to_numpy()
    if int_ids:
        return np.setdiff1d(member_arr, surv.astype(np.int64))
    return np.asarray(sorted(set(member_arr) - set(surv), key=str),
                      dtype=object)


def _dedup_from_pairs(ds, pairs_ds, id_col: str, max_pairs: int,
                      components: str, score_col: str | None = None):
    """Shared tail of every near-dup strategy: verified pair Dataset →
    connected components → drop all but one survivor per component (the
    canonical min id, or the best ``score_col`` member when given).
    Returns (kept Dataset, stats dict)."""
    import ray
    # the verified pair set is consumed several times below (auto count,
    # the components' edge explode, the stats count) — materialize ONCE
    # so the expensive scoring lineage never re-executes (observed at
    # 900k docs: a 280 s signature-scoring pass re-ran as a bare
    # recount because pairs_ds was still lazy)
    pairs_ds = pairs_ds.materialize()
    if components == "auto":
        n_pairs = pairs_ds.count()
        components = "driver" if n_pairs <= max_pairs else "distributed"
    if components == "distributed":
        comp_df = components_label_propagation(pairs_ds).to_pandas()
        if score_col is not None:
            drop = _best_drop_ids(ds, comp_df, id_col, score_col)
        else:
            ids_np = comp_df["id"].to_numpy().astype(np.int64)
            comp_np = comp_df["component"].to_numpy().astype(np.int64)
            drop = np.sort(ids_np[ids_np != comp_np])
        n_pairs_stat = int(pairs_ds.count())
        n_components = int(comp_df["component"].nunique())
        drop_ref = ray.put(drop)

        def keep_d(t: pa.Table) -> pa.Table:
            mask = _id_filter_fn(t[id_col], drop_ref)
            return t.filter(pc.invert(mask))

        kept = ds.map_batches(keep_d, batch_format="pyarrow")
        return kept, {"pairs": n_pairs_stat, "removed": len(drop),
                      "components": n_components,
                      "strategy": "distributed",
                      "survivor": "best" if score_col else "min_id"}
    pairs = pairs_ds.to_pandas()
    if len(pairs) > max_pairs:
        raise RuntimeError(
            f"near-dup pair set too large for driver union-find "
            f"({len(pairs)} > {max_pairs}); use components='distributed'")
    comp = _components(pairs)
    if score_col is not None:
        comp_df = pd.DataFrame({"id": list(comp),
                                "component": list(comp.values())})
        drop_arr = _best_drop_ids(ds, comp_df, id_col, score_col)
        drop = list(drop_arr)
    else:
        drop = [x for x, root in comp.items() if x != root]
        drop_arr = np.asarray(drop)
        if drop_arr.dtype.kind in "iuf":
            drop_arr = np.sort(drop_arr)
        else:
            drop_arr = drop_arr.astype(object)
    drop_ref = ray.put(drop_arr)

    def keep(t: pa.Table) -> pa.Table:
        mask = _id_filter_fn(t[id_col], drop_ref)
        return t.filter(pc.invert(mask))

    kept = ds.map_batches(keep, batch_format="pyarrow")
    return kept, {"pairs": int(len(pairs)), "removed": len(drop),
                  "components": len({r for r in comp.values()}),
                  "strategy": "driver",
                  "survivor": "best" if score_col else "min_id"}


def dedup_minhash(ds, text_col: str, id_col: str, max_pairs: int = 2_000_000,
                  components: str = "auto", score_col: str | None = None,
                  **kw):
    """Near-dup dedup: keep one survivor per duplicate component — the
    canonical min id, or the best ``score_col`` member when given
    (quality-aware survivor selection; ties → min id). Returns
    (kept Dataset, stats dict).

    ``components``: "driver" = union-find over the collected pair set
    (fast, bounded by ``max_pairs``); "distributed" = min-label
    propagation entirely in Ray Data (no driver state — the 10^12-doc
    path); "auto" picks driver below ``max_pairs`` and distributed above.
    """
    bucket_stats: dict = {}
    pairs_ds = minhash_candidate_pairs(ds, text_col, id_col,
                                       stats_out=bucket_stats, **kw)
    kept, stats = _dedup_from_pairs(ds, pairs_ds, id_col, max_pairs,
                                    components, score_col=score_col)
    stats.update(bucket_stats)
    return kept, stats


def dedup_semantic(ds, vec_col: str, id_col: str,
                   threshold: float = DEFAULT_COSINE,
                   max_pairs: int = 2_000_000, components: str = "auto",
                   score_col: str | None = None, **kw):
    """Embedding-cosine near-dup dedup with a KEPT-SET result (reference
    ``dedup_semantic`` returns the kept list, dedup.py:199-272): LSH
    bucket pairs → components → keep the canonical min id per component
    (or the best ``score_col`` member when given). Returns
    (kept Dataset, stats dict)."""
    bucket_stats: dict = {}
    pairs_ds = embedding_neardup_pairs(ds, vec_col, id_col,
                                       threshold=threshold,
                                       stats_out=bucket_stats, **kw)
    kept, stats = _dedup_from_pairs(ds, pairs_ds, id_col, max_pairs,
                                    components, score_col=score_col)
    stats.update(bucket_stats)
    return kept, stats


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------
class SimHashStage:
    """text → 64-bit simhash + 4×16-bit chunk keys for bucketing.

    Two docs within Hamming distance 3 share at least one identical 16-bit
    chunk (pigeonhole), so chunk-bucketing finds all such pairs."""

    def __init__(self, text_col: str, id_col: str, normalize: bool = True):
        self.text_col = text_col
        self.id_col = id_col
        self.normalize = normalize

    def __call__(self, t: pa.Table) -> pa.Table:
        arr = t[self.text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if self.normalize:
            arr = normalize_strings(arr)
        texts = arr.to_pylist()
        ids = t[self.id_col].to_pylist()
        out_id, out_chunk, out_key, out_sh = [], [], [], []
        for i, txt in enumerate(texts):
            toks = txt.split() if txt else []
            if not toks:
                continue
            th = hash64(np.asarray(list(set(toks)), dtype=object))
            sh = simhash64(th)
            for cidx in range(4):
                out_id.append(ids[i])
                out_chunk.append(cidx)
                out_key.append((sh >> (16 * cidx)) & 0xFFFF)
                out_sh.append(np.int64(np.uint64(sh).astype(np.int64)))
        return pa.table({
            "id": pa.array(out_id),
            "chunk": pa.array(out_chunk, type=pa.int32()),
            "chunk_key": pa.array(out_key, type=pa.int32()),
            "simhash": pa.array(out_sh, type=pa.int64()),
        })


def simhash_pairs(ds, text_col: str, id_col: str, max_hamming: int = 3,
                  max_bucket: int = 500, stats_out: dict | None = None):
    """Pairs within Hamming ≤ max_hamming via chunk bucketing. A bucket
    over ``max_bucket`` emits an oversized/dropped counter into
    ``stats_out`` — truncation is never silent."""
    sigs = ds.map_batches(SimHashStage(text_col, id_col),
                          batch_format="pyarrow", batch_size=2048)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": [], "id_b": [], "hamming": [],
                              "bucket_dropped": []})
        if len(g) < 2:
            return empty
        dropped = max(0, len(g) - max_bucket)
        g = g.sort_values("id", kind="mergesort").head(max_bucket)
        ids = g["id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.int64).astype(np.uint64)
        a_l, b_l, d_l = [], [], []
        for i in range(len(ids) - 1):
            d = hamming_distance64(hs[i + 1:], hs[i])
            hit = np.where(d <= max_hamming)[0]
            for j in hit:
                a_l.append(ids[i])
                b_l.append(ids[i + 1 + j])
                d_l.append(int(d[j]))
        out = pd.DataFrame({"id_a": a_l, "id_b": b_l,
                            "hamming": np.asarray(d_l, dtype=np.int64),
                            "bucket_dropped": 0})
        if dropped:
            out = _bucket_counter_row(out, dropped)
        return out

    raw = _bucketed_group_pairs(
        sigs, ["chunk", "chunk_key"], bucket_pairs,
        empty=pd.DataFrame({"id_a": [], "id_b": [], "hamming": [],
                            "bucket_dropped": []}))
    pairs, stats = _split_pairs_and_stats(raw)
    if stats_out is not None:
        stats_out.update(stats)
    # same pair may surface from several chunks (hamming is a function
    # of the two simhashes, so min == any occurrence's value)
    return _distinct_pairs(pairs, min_col="hamming")


# ---------------------------------------------------------------------------
# exact n-gram Jaccard verification (for candidate pairs)
# ---------------------------------------------------------------------------
def verify_jaccard_pairs(ds, pairs_df: pd.DataFrame, text_col: str,
                         id_col: str, k: int = DEFAULT_SHINGLE_K,
                         threshold: float = DEFAULT_JACCARD) -> pd.DataFrame:
    """Exact Jaccard over char-k shingles for a candidate pair set —
    fetches only the needed docs (broadcast id set → filter)."""
    import ray
    need = np.concatenate([pairs_df["id_a"].to_numpy(),
                           pairs_df["id_b"].to_numpy()])
    if need.dtype.kind in "iuf":
        need = np.sort(np.unique(need))
    else:
        need = np.asarray(sorted(set(need.tolist())), dtype=object)
    need_ref = ray.put(need)

    def fetch(t: pa.Table) -> pa.Table:
        mask = _id_filter_fn(t[id_col], need_ref)
        return t.select([id_col, text_col]).filter(mask)

    docs = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    text_of = dict(zip(docs[id_col], docs[text_col]))
    out = []
    for a, b in zip(pairs_df["id_a"], pairs_df["id_b"]):
        sa = set(char_shingle_hashes(normalize_text(text_of.get(a, "") or ""), k))
        sb = set(char_shingle_hashes(normalize_text(text_of.get(b, "") or ""), k))
        j = len(sa & sb) / len(sa | sb) if (sa or sb) else 0.0
        out.append(j)
    pairs_df = pairs_df.copy()
    pairs_df["jaccard"] = out
    return pairs_df[pairs_df["jaccard"] >= threshold]


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------
class HyperplaneLSH:
    """Random-hyperplane sign buckets for embeddings (seed-pinned)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 11):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(n_planes, dim)).astype(np.float32)

    def bucket(self, mat: np.ndarray) -> np.ndarray:
        signs = (mat @ self.planes.T) > 0
        return (signs * (1 << np.arange(signs.shape[1]))).sum(axis=1)


def embedding_neardup_pairs(ds, vec_col: str, id_col: str,
                            threshold: float = DEFAULT_COSINE,
                            n_planes: int = 10, max_bucket: int = 1000,
                            stats_out: dict | None = None):
    """Cosine ≥ threshold pairs via hyperplane-LSH bucketing + in-bucket
    verification (reference dedup_semantic semantics, dedup.py:199-272).
    Oversized-bucket truncation is surfaced via ``stats_out``."""
    state = {}

    def sig(t: pa.Table) -> pa.Table:
        mat = np.stack(t[vec_col].to_pylist()).astype(np.float64)
        if "lsh" not in state:
            state["lsh"] = HyperplaneLSH(mat.shape[1], n_planes)
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        unit = mat / norm
        return pa.table({
            "id": t[id_col],
            "bucket": pa.array(state["lsh"].bucket(unit).astype(np.int64)),
            "vec": pa.array([v.astype(np.float32).tobytes() for v in unit],
                            type=pa.binary()),
        })

    sigs = ds.map_batches(sig, batch_format="pyarrow", batch_size=4096)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": [], "id_b": [], "cosine": [],
                              "bucket_dropped": []})
        if len(g) < 2:
            return empty
        dropped = max(0, len(g) - max_bucket)
        g = g.sort_values("id", kind="mergesort").head(max_bucket)
        ids = g["id"].to_numpy()
        mat = np.stack([np.frombuffer(b, dtype=np.float32) for b in g["vec"]])
        simm = mat @ mat.T
        iu = np.triu_indices(len(ids), k=1)
        sims = simm[iu]
        hit = sims >= threshold
        out = pd.DataFrame({"id_a": ids[iu[0][hit]],
                            "id_b": ids[iu[1][hit]],
                            "cosine": sims[hit].astype(np.float64),
                            "bucket_dropped": 0})
        if dropped:
            out = _bucket_counter_row(out, dropped)
        return out

    raw = _bucketed_group_pairs(
        sigs, ["bucket"], bucket_pairs,
        empty=pd.DataFrame({"id_a": [], "id_b": [], "cosine": [],
                            "bucket_dropped": []}))
    pairs, stats = _split_pairs_and_stats(raw)
    if stats_out is not None:
        stats_out.update(stats)
    return pairs


# ---------------------------------------------------------------------------
# Bloom-filter streaming dedup (shared mutable index — the one case where
# the Dataset API can't express the semantics, SURVEY §2.3: a raw Ray
# actor holds the seen-set)
# ---------------------------------------------------------------------------
def make_bloom_actor(n_bits: int = 1 << 24, n_hashes: int = 5):
    """Create the shared Bloom actor (call once on the driver)."""
    import ray

    @ray.remote(num_cpus=0)
    class BloomSeen:
        def __init__(self):
            from prompture_ray.functions.sketches import Bloom
            self.bloom = Bloom(n_bits, n_hashes)

        def check_and_add(self, hashes: np.ndarray) -> np.ndarray:
            """Returns mask of FIRST-SEEN rows; adds them to the filter.
            Single actor → calls serialize → first-wins in arrival order.
            Also dedups WITHIN the call (first index of each hash wins)."""
            _, first_idx = np.unique(hashes, return_index=True)
            within = np.zeros(len(hashes), dtype=bool)
            within[first_idx] = True
            fresh = within & ~self.bloom.contains_hashes(hashes)
            self.bloom.add_hashes(hashes[fresh])
            return fresh

    return BloomSeen.remote()


def bloom_dedup(ds, col: str, actor, normalize: bool = True):
    """Approximate streaming dedup: drop rows whose key was already seen
    by the shared Bloom actor. First occurrence wins in ARRIVAL order
    (nondeterministic under parallelism — the deterministic alternative is
    ``dedup_exact``); false positives drop at most fp-rate extra rows,
    never duplicate. The prefilter pattern for 10^12-key dedup where the
    exact groupby would shuffle everything."""

    def fn(t: pa.Table) -> pa.Table:
        import ray
        arr = t[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        key_arr = normalize_strings(arr) if normalize else arr
        vals = np.asarray(key_arr.to_pylist(), dtype=object)
        h = hash64(vals)
        fresh = ray.get(actor.check_and_add.remote(h))
        return t.filter(pa.array(fresh))

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# distributed connected components (min-label propagation)
# ---------------------------------------------------------------------------
def components_label_propagation(pairs_ds, max_rounds: int = 10,
                                 jump: bool | str = "auto",
                                 auto_jump_after: int = 3):
    """Connected components over a pair Dataset (id_a, id_b) of INTEGER
    node ids WITHOUT driver state: iterative min-label propagation via
    groupby rounds — the scale path when the verified-pair set outgrows
    the driver union-find (``dedup_minhash(components="auto")``).

    Each round, every node takes the min of its own label and its
    neighbors' labels. Labels are monotonically non-increasing, so
    Σlabels is a convergence certificate: when a round leaves it
    unchanged, components are final. Rounds ≈ component diameter
    (LSH near-dup components are near-cliques → 2-3 rounds typical).

    Returns a Dataset (id, component) for every node in ``pairs_ds``.
    Node ids are int64-EXACT at any magnitude: the tagged label/edge
    union travels as Arrow blocks and each side is split by validity
    BEFORE any pandas conversion (the ``shuffle.cogroup`` arrow-union
    pattern), so the nullable ``peer``/``label`` columns never take
    the pandas float64 null-fill that would round ids above 2^53 —
    hash64(url)-style node ids are safe (this exact corruption was
    observed with the earlier pandas form: a 900k-node run crashed
    with label-table KeyErrors once rounded peer ids diverged).

    ``jump=True`` adds POINTER JUMPING after each propagation round:
    label ← label(label) via one self-join of the label table (labels
    are node ids, so every label exists as a row). The remaining
    diameter halves per round → O(log d) rounds instead of O(d), at
    the cost of one extra bucketed join per round. Worth it only for
    long-chain graphs; near-dup cluster graphs converge in 2-3 plain
    rounds (measured — see BASELINE round-4 fourth session).

    ``jump="auto"`` (the default) is the diameter probe (r4 verdict #4):
    the first ``auto_jump_after`` rounds run plain — near-clique LSH
    graphs converge inside them and never pay the extra join — and if
    the Σlabel certificate is STILL moving after that, the graph is
    long-chain-shaped and every remaining round jumps. A diameter-d
    chain then finishes in ~auto_jump_after + O(log d) rounds instead
    of d, with no flag from the caller.
    """
    from prompture_ray.stages.shuffle import bound_blocks

    def explode(t: pa.Table) -> pa.Table:
        a = pc.cast(t["id_a"], pa.int64())
        b = pc.cast(t["id_b"], pa.int64())
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        return pa.table({"id": pa.concat_arrays([a, b]),
                         "peer": pa.concat_arrays([b, a])})

    edges = pairs_ds.map_batches(explode, batch_format="pyarrow") \
        .materialize()

    # Bound block counts ONCE for the whole iteration. A sort emits
    # roughly one output block per input block, and each round unions
    # the label table with the edge table — so an edge Dataset arriving
    # in hundreds of tiny blocks (typical when pairs come out of a
    # per-bucket fold) makes the label table's block count GROW by the
    # edge block count every round, and the per-round sort cost climbs
    # superlinearly (observed at 900k docs: rounds of
    # 21→46→59→297→319→1385 s on a CONSTANT 18k-row label table).
    # ``shuffle.bound_blocks`` on the edges, and on the tagged input of
    # every round's ``aggregate`` (its fold applies it), keeps every
    # round's shuffle flat.
    edges = bound_blocks(edges).materialize()

    labels = aggregate(edges, ["id"], m=("min", "peer")).map_batches(
        lambda t: pa.table({
            "id": t["id"],
            "label": pc.min_element_wise(t["id"], t["m"]),
        }), batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    def label_checksum(lab) -> int:
        """Exact Σlabel as a Python int via hi/lo 32-bit split sums.
        Labels are monotonically non-increasing per node, so Σlabel is
        a convergence certificate — but a direct int64 Sum OVERFLOWS
        with hash-magnitude node ids (observed: 18k ids near 2^62).
        Arithmetic-shift hi keeps the sign; Σhi/Σlo stay inside int64
        below 2^31 nodes, and Σlabel = (Σhi << 32) + Σlo exactly."""

        def split(t: pa.Table) -> pa.Table:
            v = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"hi": pa.array(v >> 32),
                             "lo": pa.array(v & 0xFFFFFFFF)})

        agg = lab.map_batches(split, batch_format="pyarrow") \
            .aggregate(Sum("hi"), Sum("lo"))
        if not agg or agg.get("sum(hi)") is None:
            return 0
        return (int(agg["sum(hi)"]) << 32) + int(agg["sum(lo)"])

    from prompture_ray.functions.sketches import hash64
    N_PARTS = 64

    def pb_tagged(which):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            iv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
            pb = (hash64(iv) % np.uint64(N_PARTS)).astype(np.int64)
            cols = {"id": ids, "__pb": pa.array(pb)}
            if which == "label":
                cols["peer"] = pa.nulls(t.num_rows, pa.int64())
                cols["label"] = pc.cast(t["label"], pa.int64())
            else:
                cols["peer"] = pc.cast(t["peer"], pa.int64())
                cols["label"] = pa.nulls(t.num_rows, pa.int64())
            return pa.table(cols)
        return fn

    # message passing without a join primitive: union label rows
    # (peer = null) with edge rows (label = null) inside hash(id)
    # partitions, then ONE vectorized pass per partition sends every
    # node's label to all its peers + itself (never a frame per node —
    # a node's edges and label row share its partition). The partition
    # table stays ARROW and each side is filtered by validity before
    # touching numpy/pandas, so nullable int64 columns are never
    # float64-widened (ids above 2^53 stay exact).
    tagged_edges = edges.map_batches(pb_tagged("edge"),
                                     batch_format="pyarrow").materialize()

    def send_part(t: pa.Table) -> pa.Table:
        empty = pa.table({"id": pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        lt = t.filter(pc.is_valid(t["label"]))
        et = t.filter(pc.is_valid(t["peer"]))
        if lt.num_rows == 0:
            return empty
        lab_ids = lt["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab_vals = lt["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lab = pd.Series(lab_vals, index=lab_ids).groupby(level=0).min()
        eg_id = et["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eg_peer = et["peer"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out_id = np.concatenate([eg_peer, lab.index.to_numpy()])
        out_lab = np.concatenate([lab.loc[eg_id].to_numpy(),
                                  lab.to_numpy()])
        return pa.table({"id": pa.array(out_id), "label": pa.array(out_lab)})

    def jump_once(lab):
        # bucketed lookup: this operator promises no driver state. The
        # label travels as Arrow int64 end to end (exact above 2^53).
        from prompture_ray.stages.shuffle import lookup
        lut = lab.map_batches(
            lambda t: pa.table({
                "label": pc.cast(t["id"], pa.int64()),
                "rlabel": pc.cast(t["label"], pa.int64())}),
            batch_format="pyarrow").materialize()
        # rlabel = label(label) <= label (labels only decrease); every
        # label is a node id, so every row finds its rlabel
        return lookup(lab, lut, ["label"], ["rlabel"], broadcast_max=0) \
            .map_batches(lambda t: pa.table({"id": t["id"],
                                             "label": t["rlabel"]}),
                         batch_format="pyarrow").materialize()

    prev = label_checksum(labels)
    for rnd in range(max_rounds):
        tagged_labels = labels.map_batches(pb_tagged("label"),
                                           batch_format="pyarrow")
        # stays a map_groups on its own tag: the edges are tagged once,
        # materialized and reused every round (ROADMAP D reworks this)
        msgs = tagged_labels.union(tagged_edges).groupby("__pb") \
            .map_groups(send_part, batch_format="pyarrow")
        labels = aggregate(msgs, ["id"], label=("min", "label")) \
            .materialize()
        if jump is True or (jump == "auto" and rnd >= auto_jump_after):
            labels = bound_blocks(jump_once(labels)).materialize()
        cur = label_checksum(labels)
        if cur == prev:
            break
        prev = cur

    return labels.map_batches(
        lambda t: pa.table({"id": t["id"],
                            "component": pc.cast(t["label"], pa.int64())}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# unified dedup dispatch (reference DedupConfig/apply_dedup shape,
# dataset/dedup.py strategy enum)
# ---------------------------------------------------------------------------

from dataclasses import dataclass, field as _field


@dataclass(frozen=True)
class DedupConfig:
    """One config object → one dedup strategy, mirroring the reference's
    strategy-enum dispatch. ``params`` forwards strategy-specific knobs
    (threshold, n_perm, max_bucket, components, ...)."""

    strategy: str            # exact | minhash | simhash | semantic | bloom
    column: str              # text column (or embedding column for semantic)
    id_col: str = "id"       # canonical-order / identity column
    params: dict = _field(default_factory=dict)

    STRATEGIES = ("exact", "minhash", "simhash", "semantic", "bloom")

    def __post_init__(self):
        if self.strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown dedup strategy {self.strategy!r}; "
                f"one of {self.STRATEGIES}")


def apply_dedup(ds, config: DedupConfig):
    """Dispatch to the configured strategy. Returns (kept Dataset,
    stats dict) for every strategy (simhash keeps via the shared
    pairs→components→keep-min tail)."""
    p = dict(config.params)
    if config.strategy == "exact":
        kept = dedup_exact(ds, config.column, order_col=config.id_col,
                           **{k: v for k, v in p.items()
                              if k in ("normalize", "hash_col")})
        stats = dedup_exact_stats(ds, config.column,
                                  p.get("normalize", True))
        return kept, stats
    if config.strategy == "minhash":
        return dedup_minhash(ds, config.column, config.id_col, **p)
    if config.strategy == "semantic":
        return dedup_semantic(ds, config.column, config.id_col, **p)
    if config.strategy == "simhash":
        bucket_stats: dict = {}
        pairs = simhash_pairs(ds, config.column, config.id_col,
                              stats_out=bucket_stats,
                              **{k: v for k, v in p.items()
                                 if k in ("max_hamming", "max_bucket")})
        kept, stats = _dedup_from_pairs(
            ds, pairs, config.id_col,
            p.get("max_pairs", 2_000_000), p.get("components", "auto"))
        stats.update(bucket_stats)
        return kept, stats
    # bloom: approximate streaming first-wins (arrival order)
    actor = p.get("actor") or make_bloom_actor(
        p.get("n_bits", 1 << 24), p.get("n_hashes", 5))
    kept = bloom_dedup(ds, config.column, actor,
                       normalize=p.get("normalize", True))
    return kept, {"strategy": "bloom", "approximate": True}


def make_bloom_shards(n_shards: int = 8, n_bits: int = 1 << 24,
                      n_hashes: int = 5):
    """Sharded Bloom state: N actors, each owning a hash range — removes
    the single-actor serialization bottleneck of ``make_bloom_actor``
    (every key routes to exactly one shard, so first-wins semantics per
    key are preserved while N batches proceed in parallel)."""
    return [make_bloom_actor(n_bits, n_hashes) for _ in range(n_shards)]


def bloom_dedup_sharded(ds, col: str, shards, normalize: bool = True):
    """Approximate streaming dedup against sharded Bloom actors: per
    batch, keys are hash-partitioned across the shards and the N
    ``check_and_add`` calls run CONCURRENTLY (ray.get on the list). Same
    semantics as ``bloom_dedup`` (arrival-order first-wins, fp-rate
    overdrop bound), ~n_shards× the state throughput."""
    n_shards = len(shards)

    def fn(t: pa.Table) -> pa.Table:
        import ray
        arr = t[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        key_arr = normalize_strings(arr) if normalize else arr
        vals = np.asarray(key_arr.to_pylist(), dtype=object)
        h = hash64(vals)
        shard_of = (h % np.uint64(n_shards)).astype(np.int64)
        refs, idx_lists = [], []
        for s in range(n_shards):
            idx = np.where(shard_of == s)[0]
            if len(idx):
                refs.append(shards[s].check_and_add.remote(h[idx]))
                idx_lists.append(idx)
        fresh = np.zeros(len(h), dtype=bool)
        for idx, mask in zip(idx_lists, ray.get(refs)):
            fresh[idx] = mask
        return t.filter(pa.array(fresh))

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# cross-corpus n-gram contamination (train/test decontamination — beyond
# reference, the standard eval-leakage check a training pipeline runs)
# ---------------------------------------------------------------------------
_GRAM_P = np.uint64(0x9E3779B97F4A7C15)     # golden-ratio odd multiplier


def _token_ngram_rows(ds, text_col: str, id_col: str, n: int,
                      normalize: bool = True, with_pos: bool = False):
    """(id, gram_hash[, pos]) — one row per token n-gram POSITION.
    Vectorized: Arrow whitespace split → flattened token array → hash64
    per TOKEN → rolling 64-bit combine per window (no per-gram Python
    strings, no per-doc loop). ``with_pos`` adds the 0-based in-doc token
    position of each window. Gram identity is hash-only (~n²/2^64
    collision odds corpus-wide — same order as hashing the joined
    strings). Tokenizer caveat: Arrow's White_Space set, not
    str.split's (\\x1c-\\x1f) — identical on whitespace-regular
    corpora."""

    def fn(t: pa.Table) -> pa.Table:
        ids_w, g, pos, _, _ = _window_arrays(t, text_col, id_col, n,
                                             normalize)
        cols = {
            "id": pa.array(ids_w, type=pa.int64()),
            "gram": pa.array(g.astype(np.int64), type=pa.int64()),
        }
        if with_pos:
            cols["pos"] = pa.array(pos, type=pa.int64())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def _doc_windows_rich(t: pa.Table, text_col: str, id_col: str, n: int,
                      normalize: bool) -> dict:
    """Vectorized tokenization + window struct for one batch of DOCS (one
    doc per row, so every doc's windows are complete here). Docs with
    empty text are dropped (matches the oracles' WHERE length(text) > 0).
    Returns per-NONEMPTY-doc arrays ``ids``/``lens``, the flattened token
    StringArray ``flat`` with ``doc_idx``/``doc_start`` into it, and
    per-valid-window arrays ``wdoc`` (doc INDEX), ``wpos`` (0-based token
    position), ``wg`` (uint64 rolling gram hash)."""
    arr = t[text_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if normalize:
        arr = normalize_strings(arr)
    arr = pc.fill_null(arr, "")
    # empty texts yield no gram rows (Arrow split of "" is [''],
    # unlike str.split's []; drop those rows up front)
    nonempty = pc.greater(pc.utf8_length(arr), 0)
    t = t.filter(nonempty)
    arr = arr.filter(nonempty)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.utf8_split_whitespace(arr)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    e64, eu64 = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    if len(flat) == 0:
        return {"ids": ids, "lens": lens, "flat": flat,
                "doc_idx": e64, "doc_start": np.zeros(max(len(lens), 1),
                                                      dtype=np.int64),
                "wdoc": e64, "wpos": e64, "wg": eu64}
    th = hash64(np.asarray(flat.to_pylist(), dtype=object))
    # rolling combine over each window of n token hashes
    g = th[:len(th) - n + 1].copy() if len(th) >= n \
        else np.empty(0, dtype=np.uint64)
    for j in range(1, n):
        g = g * _GRAM_P + th[j:len(th) - n + 1 + j]
    # valid positions: window stays inside its doc
    doc_idx = np.repeat(np.arange(len(lens)), lens)
    doc_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
    pos = np.arange(len(flat)) - doc_start[doc_idx]
    valid = np.nonzero((pos <= lens[doc_idx] - n)[:len(g)])[0]
    return {"ids": ids, "lens": lens, "flat": flat,
            "doc_idx": doc_idx, "doc_start": doc_start,
            "wdoc": doc_idx[valid], "wpos": pos[valid], "wg": g[valid]}


def _window_arrays(t: pa.Table, text_col: str, id_col: str, n: int,
                   normalize: bool):
    """Thin wrapper over ``_doc_windows_rich``: returns
    ``(ids_per_window, gram_hash_per_window, pos_per_window,
    doc_ids_with_ge_n_tokens, n_tokens_of_those_docs)``."""
    r = _doc_windows_rich(t, text_col, id_col, n, normalize)
    big = r["lens"] >= n
    return (r["ids"][r["wdoc"]], r["wg"], r["wpos"],
            r["ids"][big], r["lens"][big])


def ngram_contamination(train_ds, eval_ds, text_col: str, id_col: str,
                        n: int = 8, n_buckets: int = 32,
                        normalize: bool = True,
                        broadcast_max: int = 20_000_000):
    """Eval-set contamination against a training corpus: for every eval
    document, how many of its token n-gram positions also occur ANYWHERE
    in the training corpus.

    Shape: train grams → distinct gram hashes (sorted aggregate, one
    narrow shuffle of 8-byte hashes). Size-aware dispatch on the
    distinct-gram count, mirroring REF_BROADCAST_MAX: up to
    ``broadcast_max`` distinct grams (160 MB at the default) the sorted
    hash array is broadcast once via ``ray.put`` and each eval batch
    folds membership (searchsorted) + per-doc partials locally — ONE
    narrow shuffle of (id, contaminated, total) partial rows and no
    join at all. Beyond that, eval positions × distinct grams go
    through the hash-bucketed equi-join (the 100-TB path — nothing
    corpus-sized on the driver either way). Returns a Dataset
    ``(id, contaminated, total_grams, rate)`` with one row per eval doc
    that has ≥ n tokens.
    """
    import ray
    from prompture_ray.stages.shuffle import join

    train_grams = _token_ngram_rows(train_ds, text_col, id_col, n,
                                    normalize)
    distinct = aggregate(train_grams, ["gram"]).materialize()

    eval_grams = _token_ngram_rows(eval_ds, text_col, id_col, n,
                                   normalize)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["contaminated"] = b["contaminated"].fillna(0).astype(np.int64)
        b["total_grams"] = b["total_grams"].astype(np.int64)
        b["rate"] = b["contaminated"] / b["total_grams"]
        return b[["id", "contaminated", "total_grams", "rate"]]

    if distinct.count() <= broadcast_max:
        grams_sorted = np.sort(np.concatenate(
            [t["gram"].to_numpy(zero_copy_only=False)
             for t in distinct.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]))
        ref = ray.put(grams_sorted)

        def hit(t: pa.Table) -> pa.Table:
            gs = ray.get(ref)
            g = t["gram"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(gs, g)
            h = (idx < len(gs)) & (gs[np.clip(idx, 0, max(len(gs) - 1,
                                                          0))] == g) \
                if len(gs) else np.zeros(len(g), dtype=bool)
            return pa.table({"id": t["id"],
                             "h": pa.array(h.astype(np.int64))})

        out = aggregate(eval_grams.map_batches(hit, batch_format="pyarrow"),
                        ["id"], contaminated=("sum", "h"),
                        total_grams=("count", None))
        return out.map_batches(finish, batch_format="pandas")

    eval_grams = eval_grams.materialize()   # consumed twice below
    totals = aggregate(eval_grams, ["id"], total_grams=("count", None))
    hits = join(eval_grams, distinct, "gram", n_buckets=n_buckets)
    hit_counts = aggregate(hits, ["id"],
                           contaminated=("count", None)).materialize()
    # totals ⋈ hit_counts (left): docs with zero hits keep contaminated=0
    joined = join(totals, hit_counts, "id", how="left", n_buckets=n_buckets)
    return joined.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# corpus-wide line-level dedup (CCNet §4.1 / RefinedWeb boilerplate-line
# removal — beyond reference; cf. prompture/dataset/dedup.py which dedupes
# whole documents only)
# ---------------------------------------------------------------------------
def _split_lines(t: pa.Table, text_col: str, sep: str):
    """Vectorized line split of a batch: (flat lines, per-row lengths,
    flat→row index, 64-bit line hashes)."""
    arr = t[text_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    toks = pc.split_pattern(arr, pattern=sep)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    h = hash64(np.asarray(flat.to_pylist(), dtype=object)).astype(np.int64) \
        if len(flat) else np.empty(0, dtype=np.int64)
    doc_idx = np.repeat(np.arange(len(lens)), lens)
    return flat, lens, doc_idx, h


def _rebuild_cell(g: pd.DataFrame, sep: str, text_col: str,
                  id_col: str) -> pd.DataFrame:
    """Docs rebuilt from their line rows ``(id, pos, line, __dup)``, any
    number of docs per frame: the lines without ``__dup`` joined with
    ``sep`` in ``pos`` order, with kept and removed line counts."""
    g = g.sort_values(["id", "pos"], kind="mergesort")
    kept = g[g["__dup"].isna()]
    agg = kept.groupby("id", sort=True)["line"].agg(sep.join)
    n_kept = kept.groupby("id", sort=True).size()
    tot = g.groupby("id", sort=True).size()
    out = pd.DataFrame({"id": tot.index.to_numpy()})
    out[text_col] = agg.reindex(tot.index).fillna("").to_numpy()
    out["n_kept"] = n_kept.reindex(tot.index).fillna(0) \
        .to_numpy().astype(np.int64)
    out["n_removed"] = (tot - n_kept.reindex(tot.index).fillna(0)) \
        .to_numpy().astype(np.int64)
    return out.rename(columns={"id": id_col})


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               min_docs: int = 2, sep: str = "\n", n_buckets: int = 32,
               broadcast_max: int = 20_000_000):
    """Corpus-level duplicated-line removal: drop every line whose corpus
    DOCUMENT-frequency is >= ``min_docs`` (boilerplate nav/footer text),
    rebuild each doc's text from the kept lines in original order.
    Returns ``(id, text, n_kept, n_removed)``, one row per input doc.

    Shape: pass 1 emits per-batch (line_hash, partial_df) rows — each doc
    is one row so within-batch (doc, hash) dedupe makes the global
    distinct-doc count exact — then ONE narrow shuffle of 8-byte hashes
    folds the corpus df. Size-aware dispatch on the common-line count
    (boilerplate sets are tiny next to the corpus): up to
    ``broadcast_max`` hashes the sorted array is broadcast once via
    ``ray.put`` and pass 2 rebuilds texts locally — membership by
    searchsorted, kept lines re-listed by offset arithmetic,
    ``pc.binary_join`` per row, NO second shuffle. Beyond that, line rows
    go through the hash-bucketed left join and docs are rebuilt in one
    ``partition_fold`` on the doc id (the 100-TB path; nothing
    corpus-sized on the driver either way). Line identity is hash-only
    (64-bit; ~n²/2^64 collision odds corpus-wide)."""
    import ray
    from prompture_ray.stages.shuffle import join, partition_fold

    def doc_lines(t: pa.Table) -> pa.Table:
        # one gram row per distinct line of each doc (a doc is one row,
        # so its lines are all in this batch)
        flat, lens, doc_idx, h = _split_lines(t, text_col, sep)
        order = np.lexsort((h, doc_idx))
        ds_, hs_ = doc_idx[order], h[order]
        first = np.ones(len(hs_), dtype=bool)
        first[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
        return pa.table({"gram": pa.array(hs_[first], type=pa.int64())})

    df_rows = aggregate(ds.map_batches(doc_lines, batch_format="pyarrow"),
                        ["gram"], df=("count", None))
    common = df_rows.map_batches(
        lambda t: t.filter(pc.greater_equal(t["df"], min_docs))
        .select(["gram"]), batch_format="pyarrow").materialize()

    if common.count() <= broadcast_max:
        grams_sorted = np.sort(np.concatenate(
            [t["gram"].to_numpy(zero_copy_only=False)
             for t in common.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]))
        ref = ray.put(grams_sorted)

        def rebuild(t: pa.Table) -> pa.Table:
            gs = ray.get(ref)
            flat, lens, doc_idx, h = _split_lines(t, text_col, sep)
            if len(gs) and len(h):
                idx = np.clip(np.searchsorted(gs, h), 0, len(gs) - 1)
                keep = gs[idx] != h
            else:
                keep = np.ones(len(h), dtype=bool)
            kept_counts = np.bincount(doc_idx[keep],
                                      minlength=len(lens)).astype(np.int64)
            offsets = np.concatenate(
                ([0], np.cumsum(kept_counts))).astype(np.int32)
            lst = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()),
                flat.filter(pa.array(keep)) if len(h)
                else pa.array([], type=pa.string()))
            return pa.table({
                id_col: t[id_col],
                text_col: pc.binary_join(lst, sep),
                "n_kept": pa.array(kept_counts, type=pa.int64()),
                "n_removed": pa.array(lens - kept_counts,
                                      type=pa.int64())})

        return ds.map_batches(rebuild, batch_format="pyarrow")

    # 100-TB fallback: line rows × common hashes through the bucketed
    # left join, then per-doc text rebuild in a doc-id fold (one
    # vectorized pandas pass per fold frame, never a frame per doc —
    # CLAUDE.md round-4 pattern).
    def line_rows(t: pa.Table) -> pa.Table:
        flat, lens, doc_idx, h = _split_lines(t, text_col, sep)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(len(h)) - doc_start[doc_idx]
        return pa.table({
            "id": pa.array(ids[doc_idx], type=pa.int64()),
            "pos": pa.array(pos, type=pa.int64()),
            "line": flat,
            "gram": pa.array(h, type=pa.int64())})

    rows = ds.map_batches(line_rows, batch_format="pyarrow").materialize()
    marked = common.map_batches(
        lambda t: t.append_column("__dup", pa.array(
            np.ones(t.num_rows, dtype=np.int64), type=pa.int64())),
        batch_format="pyarrow").materialize()
    flagged = join(rows, marked, "gram", how="left", n_buckets=n_buckets)
    return partition_fold(
        flagged, ["id"],
        lambda g: _rebuild_cell(g, sep, text_col, id_col),
        n_parts=n_buckets * 2)


# ---------------------------------------------------------------------------
# corpus-wide duplicated-span detection (exact substring dedup semantics —
# Lee et al. 2022 "Deduplicating Training Data Makes Language Models
# Better"; beyond reference). A position is duplicated when its token
# n-gram occurs >= min_count times ANYWHERE in the corpus (including the
# same doc); overlapping/adjacent duplicated windows merge into spans.
# ---------------------------------------------------------------------------
def _span_stats_from_positions(d_idx, p, n):
    """Vectorized merged-span statistics over (doc index, window position)
    pairs sorted by (doc, pos): per-doc span count and covered-token
    count. A window covers [p, p+n); windows with gap <= n merge (overlap
    or touch)."""
    if len(p) == 0:
        return (np.empty(0, dtype=np.int64),) * 3
    new_doc = np.ones(len(p), dtype=bool)
    new_doc[1:] = d_idx[1:] != d_idx[:-1]
    gap = np.empty(len(p), dtype=np.int64)
    gap[0] = n
    gap[1:] = p[1:] - p[:-1]
    start = new_doc | (gap > n)
    contrib = np.where(start, n, np.minimum(gap, n))
    docs = np.unique(d_idx)
    remap = np.searchsorted(docs, d_idx)
    n_spans = np.bincount(remap[start], minlength=len(docs))
    covered = np.bincount(remap, weights=contrib,
                          minlength=len(docs)).astype(np.int64)
    return docs, n_spans.astype(np.int64), covered


def duplicate_span_stats(ds, text_col: str = "text",
                         id_col: str = "doc_id", n: int = 16,
                         min_count: int = 2, normalize: bool = True,
                         n_buckets: int = 32,
                         broadcast_max: int = 20_000_000):
    """Per doc with >= n tokens: how much of it is covered by token
    n-grams that repeat >= ``min_count`` times corpus-wide. Returns
    ``(id, n_tokens, dup_windows, n_spans, covered_tokens, dup_frac)``
    where dup_frac = covered_tokens / n_tokens (single division of exact
    ints — bit-identical to a SQL oracle).

    Shape: gram rows → ONE ``shuffle.aggregate`` count of 8-byte hashes
    for the corpus occurrence counts. Size-aware dispatch
    on the duplicated-gram count: up to ``broadcast_max`` the sorted
    array is broadcast via ``ray.put`` and pass 2 is a pure map over the
    docs — each doc is one row, so its windows are complete inside the
    batch and spans merge locally with NO second shuffle. Beyond that,
    position rows × dup grams go through the hash-bucketed join and
    spans merge in one ``partition_fold`` on the doc id."""
    import ray
    from prompture_ray.stages.shuffle import join, partition_fold

    grams = _token_ngram_rows(ds, text_col, id_col, n, normalize,
                              with_pos=True)

    counts = aggregate(grams, ["gram"], cnt=("count", None))
    dup = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], min_count))
        .select(["gram"]), batch_format="pyarrow").materialize()

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        for c in ("dup_windows", "n_spans", "covered_tokens"):
            b[c] = b[c].fillna(0).astype(np.int64)
        b["n_tokens"] = b["n_tokens"].astype(np.int64)
        b["dup_frac"] = b["covered_tokens"] / b["n_tokens"]
        return b[["id", "n_tokens", "dup_windows", "n_spans",
                  "covered_tokens", "dup_frac"]]

    if dup.count() <= broadcast_max:
        dup_sorted = np.sort(np.concatenate(
            [t["gram"].to_numpy(zero_copy_only=False)
             for t in dup.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]))
        ref = ray.put(dup_sorted)

        def per_doc(t: pa.Table) -> pa.Table:
            # maps over the DOCS dataset (one doc per row): every doc's
            # windows are complete inside the batch, so spans merge
            # locally. (Mapping over the gram-rows dataset would be
            # wrong — Ray re-batches between operators and can split a
            # doc's windows across batches.)
            gs = ray.get(ref)
            ids, g, pos, docs_all, ntok = _window_arrays(
                t, text_col, id_col, n, normalize)
            g = g.view(np.int64)             # match the int64 dup set
            order = np.argsort(docs_all)     # searchsorted target below
            docs_all, ntok = docs_all[order], ntok[order]
            if len(gs) and len(g):
                idx = np.clip(np.searchsorted(gs, g), 0, len(gs) - 1)
                hit = gs[idx] == g
            else:
                hit = np.zeros(len(g), dtype=bool)
            d, spans, cov = _span_stats_from_positions(
                ids[hit], pos[hit], n)
            si = np.searchsorted(docs_all, d)
            sp = np.zeros(len(docs_all), dtype=np.int64)
            cv = np.zeros(len(docs_all), dtype=np.int64)
            sp[si], cv[si] = spans, cov
            dw = np.bincount(np.searchsorted(docs_all, ids[hit]),
                             minlength=len(docs_all)).astype(np.int64)
            return pa.table({
                "id": pa.array(docs_all, type=pa.int64()),
                "n_tokens": pa.array(ntok, type=pa.int64()),
                "dup_windows": pa.array(dw, type=pa.int64()),
                "n_spans": pa.array(sp, type=pa.int64()),
                "covered_tokens": pa.array(cv, type=pa.int64())})

        out = ds.map_batches(per_doc, batch_format="pyarrow")
        return out.map_batches(finish, batch_format="pandas")

    # 100-TB fallback: positions × dup grams through the bucketed join,
    # spans merged in a doc-id fold. Totals
    # come from the docs dataset (doc-complete batches), not from the
    # re-batched gram rows.
    def doc_totals(t: pa.Table) -> pa.Table:
        _, _, _, docs_all, ntok = _window_arrays(t, text_col, id_col, n,
                                                 normalize)
        return pa.table({"id": pa.array(docs_all, type=pa.int64()),
                         "n_tokens": pa.array(ntok, type=pa.int64())})

    totals = ds.map_batches(doc_totals, batch_format="pyarrow")
    grams = grams.materialize()
    hits = join(grams, dup, "gram", n_buckets=n_buckets)

    def spans_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id", "pos"], kind="mergesort")
        ids = g["id"].to_numpy()
        d, spans, cov = _span_stats_from_positions(
            ids, g["pos"].to_numpy(), n)
        dw = np.bincount(np.searchsorted(d, ids), minlength=len(d))
        return pd.DataFrame({"id": d, "dup_windows": dw.astype(np.int64),
                             "n_spans": spans, "covered_tokens": cov})

    stats = partition_fold(hits, ["id"], spans_cell,
                           n_parts=n_buckets * 2).materialize()
    joined = join(totals, stats, "id", how="left", n_buckets=n_buckets)
    return joined.map_batches(finish, batch_format="pandas")


def _merged_spans(d, p, n):
    """Merged coverage intervals over (doc, window position) pairs sorted
    by (doc, pos): returns ``(doc, start, end_exclusive)`` per span. A
    window covers [p, p+n); windows with gap <= n merge."""
    if len(p) == 0:
        return (np.empty(0, dtype=np.int64),) * 3
    start = np.ones(len(p), dtype=bool)
    start[1:] = (d[1:] != d[:-1]) | (p[1:] - p[:-1] > n)
    idx = np.nonzero(start)[0]
    last = np.concatenate([idx[1:] - 1, [len(p) - 1]])
    return d[idx], p[idx], p[last] + n


def _cut_covered(r: dict, iv_doc, iv_s, iv_e, n):
    """Shared removal kernel: given the rich window struct of one doc
    batch and coverage intervals ``[s, e)`` in token-position space
    (``iv_doc`` = doc INDEX into ``r``), drop covered tokens and rejoin
    with single spaces. Returns ``(kept_per_doc, clean_text_array)``."""
    lens, flat = r["lens"], r["flat"]
    total = int(lens.sum())
    if total == 0:
        return (np.zeros(len(r["ids"]), dtype=np.int64),
                pa.array([""] * len(r["ids"]), type=pa.string()))
    delta = np.zeros(total + 1, dtype=np.int64)
    np.add.at(delta, r["doc_start"][iv_doc] + iv_s, 1)
    np.add.at(delta, r["doc_start"][iv_doc] + iv_e, -1)
    keep = np.cumsum(delta)[:total] == 0
    kept_per_doc = np.bincount(r["doc_idx"], weights=keep,
                               minlength=len(lens)).astype(np.int64)
    kept_flat = flat.filter(pa.array(keep))
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(kept_per_doc, out=offsets[1:])
    la = pa.LargeListArray.from_arrays(
        pa.array(offsets, type=pa.int64()), kept_flat)
    return kept_per_doc, pc.binary_join(la, " ")


def _cut_spans_by_gramset(ds, grams, dup, text_col, id_col, n,
                          normalize, n_buckets, broadcast_max):
    """Shared cleaning tail: cut every token of ``ds`` covered by a
    token n-gram whose hash is in the ``dup`` gram Dataset. Size-aware
    pass 2 of remove_duplicate_spans, factored out so decontamination
    (grams from ANOTHER corpus) reuses it verbatim. ``grams`` must be
    the with_pos=True gram rows of ``ds``."""
    import ray
    from prompture_ray.stages.shuffle import join, partition_fold

    def out_table(ids, lens, kept, clean) -> pa.Table:
        return pa.table({
            "id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(lens, type=pa.int64()),
            "kept_tokens": pa.array(kept, type=pa.int64()),
            "removed_tokens": pa.array(lens - kept, type=pa.int64()),
            "clean_text": clean.cast(pa.string())})

    if dup.count() <= broadcast_max:
        dup_sorted = np.sort(np.concatenate(
            [t["gram"].to_numpy(zero_copy_only=False)
             for t in dup.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]))
        ref = ray.put(dup_sorted)

        def per_doc(t: pa.Table) -> pa.Table:
            gs = ray.get(ref)
            r = _doc_windows_rich(t, text_col, id_col, n, normalize)
            g = r["wg"].view(np.int64)       # match the int64 dup set
            if len(gs) and len(g):
                idx = np.clip(np.searchsorted(gs, g), 0, len(gs) - 1)
                hit = gs[idx] == g
            else:
                hit = np.zeros(len(g), dtype=bool)
            kept, clean = _cut_covered(r, r["wdoc"][hit],
                                       r["wpos"][hit],
                                       r["wpos"][hit] + n, n)
            return out_table(r["ids"], r["lens"], kept, clean)

        return ds.map_batches(per_doc, batch_format="pyarrow")

    # 100-TB fallback: hit positions through the bucketed join, merged
    # intervals string-packed per doc (one row per doc — the doc's text
    # is never replicated per interval), then docs × interval-strings
    # through one more bucketed join and a self-contained final map.
    grams = grams.materialize()
    hits = join(grams, dup, "gram", n_buckets=n_buckets)

    def spans_str_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["id", "pos"], kind="mergesort")
        doc, s, e = _merged_spans(g["id"].to_numpy(),
                                 g["pos"].to_numpy(), n)
        sp = pd.Series(s.astype(str)) + ":" + pd.Series(e.astype(str))
        return pd.DataFrame({"id": doc, "sp": sp}) \
            .groupby("id", sort=False)["sp"].agg(";".join).reset_index()

    iv = partition_fold(hits, ["id"], spans_str_cell,
                        n_parts=n_buckets * 2).materialize()

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"id": t[id_col].combine_chunks().cast(pa.int64()),
                         "__text": t[text_col].combine_chunks()})

    docs2 = ds.map_batches(project, batch_format="pyarrow")
    joined = join(docs2, iv, "id", how="left", n_buckets=n_buckets)

    def clean_rows(b: pd.DataFrame) -> pd.DataFrame:
        t = pa.table({id_col: pa.array(b["id"].to_numpy(),
                                       type=pa.int64()),
                      text_col: pa.array(b["__text"], type=pa.string())})
        # subset to nonempty FIRST so batch row index == rich doc index
        arr = t[text_col]
        if normalize:
            arr = normalize_strings(arr.combine_chunks())
        ne = pc.greater(pc.utf8_length(pc.fill_null(arr, "")), 0) \
            .to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ne))
        sp = b["sp"].to_numpy()[ne]
        r = _doc_windows_rich(t, text_col, id_col, n, normalize)
        has = pd.notna(sp)
        if has.any():
            packed = ";".join(sp[has])
            pairs = np.array(packed.replace(":", ";").split(";"),
                             dtype=np.int64).reshape(-1, 2)
            counts = pd.Series(sp[has]).str.count(";").to_numpy() + 1
            iv_doc = np.repeat(np.nonzero(has)[0], counts)
            kept, clean = _cut_covered(r, iv_doc, pairs[:, 0],
                                       pairs[:, 1], n)
        else:
            kept, clean = _cut_covered(
                r, np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64), n)
        return out_table(r["ids"], r["lens"], kept,
                         clean).to_pandas()

    return joined.map_batches(clean_rows, batch_format="pandas")


def remove_duplicate_spans(ds, text_col: str = "text",
                           id_col: str = "doc_id", n: int = 16,
                           min_count: int = 2, normalize: bool = True,
                           n_buckets: int = 32,
                           broadcast_max: int = 20_000_000):
    """Substring-dedup as a CLEANING operator (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better" — beyond
    the reference, whose dedup only drops whole docs:
    prompture/dataset/dedup.py:127-169): every token covered by a token
    n-gram that repeats >= ``min_count`` times corpus-wide is cut out;
    the cleaned text is the single-space rejoin of the survivors (the
    operator is defined on the whitespace tokenization — original
    inter-token whitespace is not preserved). One row per doc with
    nonempty text: ``(id, n_tokens, kept_tokens, removed_tokens,
    clean_text)``; docs with < n tokens pass through unchanged.

    Shape: identical pass 1 to ``duplicate_span_stats`` (gram partial
    counts → ONE narrow shuffle of 8-byte hashes). Size-aware pass 2: up
    to ``broadcast_max`` duplicated grams the sorted hash array is
    broadcast via ``ray.put`` and cleaning is a pure map over the docs
    (windows complete per batch, coverage union via a vectorized +1/-1
    prefix sum — no second shuffle). Beyond that, position rows × dup
    grams go through the hash-bucketed join, merged coverage intervals
    are string-packed per doc inside bounded ``hash(id) % cells``
    frames, and ONE more bucketed join ships each doc's text past its
    own interval list — text moves through the shuffle exactly once."""
    grams = _token_ngram_rows(ds, text_col, id_col, n, normalize,
                              with_pos=True)

    counts = aggregate(grams, ["gram"], cnt=("count", None))
    dup = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], min_count))
        .select(["gram"]), batch_format="pyarrow").materialize()

    return _cut_spans_by_gramset(ds, grams, dup, text_col, id_col,
                                 n, normalize, n_buckets,
                                 broadcast_max)


# ---------------------------------------------------------------------------
# cross-corpus near-dup contamination (benchmark decontamination — the
# FUZZY complement of ngram_contamination's exact 5-gram overlap; GPT-3
# appendix C uses both)
# ---------------------------------------------------------------------------
def cross_corpus_minhash_pairs(train_ds, eval_ds, text_col: str,
                               id_col: str, offset: int = 1 << 40,
                               **kw):
    """Near-duplicate (train_id, eval_id, est_jaccard) pairs BETWEEN two
    corpora: eval ids ride through one shared banding pass under
    ``+offset`` namespacing (both sides' ids must stay below
    ``offset``), same-side candidate pairs are pruned BEFORE signature
    recompute/scoring (a duplicate-heavy train side never costs a
    verify), and verified cross pairs come back de-namespaced. Reuses
    the whole distributed minhash machinery — no new shuffle shapes."""
    def tag(shift: int):
        def fn(t: pa.Table) -> pa.Table:
            ids = pc.cast(t[id_col], pa.int64())
            if shift:
                ids = pc.add(ids, shift)
            return pa.table({id_col: ids, text_col: t[text_col]})
        return fn

    u = train_ds.map_batches(tag(0), batch_format="pyarrow").union(
        eval_ds.map_batches(tag(offset), batch_format="pyarrow"))

    def cross_only(t: pa.Table) -> pa.Table:
        a = pc.less(t["id_a"], offset)
        b = pc.less(t["id_b"], offset)
        return t.filter(pc.xor(a, b))

    pairs = minhash_candidate_pairs(u, text_col, id_col,
                                    pair_filter=cross_only, **kw)
    # in-bucket pairs are emitted id_a < id_b, and every train id is
    # below every eval id by construction
    return pairs.map_batches(
        lambda t: pa.table({
            "train_id": pc.cast(t["id_a"], pa.int64()),
            "eval_id": pc.cast(pc.subtract(t["id_b"], offset),
                               pa.int64()),
            "est_jaccard": t["est_jaccard"],
        }), batch_format="pyarrow")


def remove_contaminated_spans(train_ds, eval_ds, text_col: str = "text",
                              id_col: str = "doc_id", n: int = 8,
                              normalize: bool = True, n_buckets: int = 32,
                              broadcast_max: int = 20_000_000):
    """Decontamination by REMOVAL (the PaLM/GPT-3 cleanup step, not
    just the report): cut from every TRAIN doc each token covered by a
    token n-gram that occurs ANYWHERE in the EVAL corpus; overlapping
    windows merge (coverage union). Returns the remove_duplicate_spans
    schema: (id, n_tokens, kept_tokens, removed_tokens, clean_text),
    one row per nonempty train doc.

    Shape: the eval gram set folds with one keys-only
    ``shuffle.aggregate`` of 8-byte hashes (bounded by the
    EVAL corpus — small next to train by definition); cleaning reuses
    the substring-dedup tail verbatim (size-aware: broadcast sorted
    hash array + pure map, or hash-bucketed joins at >broadcast_max
    eval grams)."""
    egrams = _token_ngram_rows(eval_ds, text_col, id_col, n, normalize,
                               with_pos=False)
    dup = aggregate(egrams, ["gram"]).materialize()

    tgrams = _token_ngram_rows(train_ds, text_col, id_col, n, normalize,
                               with_pos=True)
    return _cut_spans_by_gramset(train_ds, tgrams, dup, text_col,
                                 id_col, n, normalize, n_buckets,
                                 broadcast_max)
