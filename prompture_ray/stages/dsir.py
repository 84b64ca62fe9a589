"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
arXiv:2302.03169): select raw-corpus documents whose hashed-n-gram
distribution looks like a small target corpus. The standard recipe for
"give me CommonCrawl that looks like Wikipedia" — beyond the reference
(which has no corpus-level selection operator); sits beside the quality/
perplexity filters (stages/textstats.py, stages/lm.py) in a curation
pipeline.

Semantics:
  feature(doc)  = bag of hashed n-grams (unigrams, optionally bigrams)
                  over ``n_buckets`` buckets
  p_hat[b]      = (count[b] + alpha) / (total + alpha * n_buckets)
                  fit separately on the target and raw corpora
  log w(doc)    = sum_b count_b(doc) * (log p_target[b] - log p_raw[b])
  select        = log w > threshold   (or deterministic Gumbel top-k)

Scale shape: fitting reduces each corpus to (bucket, cnt) rows with one
``shuffle.aggregate`` (its per-batch combine leaves at most
``n_buckets`` rows per batch to shuffle); the two count
vectors (driver-bounded at exactly ``n_buckets`` float64 — 512 KB at
the 65536 default, NOT data-sized) fold into one log-ratio array that
ships once via ``ray.put``; scoring is a pure map_batches (hash →
gather → one ``bincount`` segment-sum per batch). No per-row Python.

``dedup_first=True`` fits on DISTINCT texts (one extra grouped
shuffle) — the same N-invariance device as stages/lm.py, which is what
makes the planted oracle closed-form; it is also the sane default for
importance estimation on crawl data (exact duplicates would otherwise
dominate the raw distribution).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.classify import _flat_tokens

_MIX = np.uint64(0x9E3779B97F4A7C15)    # splitmix64 increment


def _bucket_ids(lens: np.ndarray, flat: np.ndarray, n_buckets: int,
                bigrams: bool):
    """Per-token (and optionally within-doc bigram) hashed bucket ids +
    the owning doc index of every feature occurrence."""
    h = hash64(flat) if len(flat) else np.empty(0, np.uint64)
    uni = h % np.uint64(n_buckets)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    if not bigrams or len(flat) < 2:
        return uni.astype(np.int64), doc_of
    ends = np.cumsum(lens) - 1
    valid = np.ones(len(flat) - 1, dtype=bool)
    valid[ends[ends < len(flat) - 1]] = False
    bg = ((h[:-1][valid] * _MIX) ^ h[1:][valid]) % np.uint64(n_buckets)
    return (np.concatenate([uni, bg]).astype(np.int64),
            np.concatenate([doc_of, doc_of[:-1][valid]]))


def _corpus_counts(ds, text_col: str, n_buckets: int, bigrams: bool,
                   normalize: bool, dedup_first: bool):
    """Distributed (bucket, cnt) feature counts for one corpus."""
    from prompture_ray.stages.shuffle import aggregate
    if dedup_first:
        # distinct texts via a keys-only aggregate
        ds = aggregate(ds, [text_col]).materialize()

    def features(t: pa.Table) -> pa.Table:
        t, lens, flat = _flat_tokens(t, text_col, normalize)
        ids, _ = _bucket_ids(lens, flat, n_buckets, bigrams)
        return pa.table({"bucket": pa.array(ids, type=pa.int64())})

    return aggregate(ds.map_batches(features, batch_format="pyarrow"),
                     ["bucket"], cnt=("count", None))


def _counts_to_vec(counts_ds, n_buckets: int) -> np.ndarray:
    vec = np.zeros(n_buckets, dtype=np.int64)
    for t in counts_ds.iter_batches(batch_format="pyarrow",
                                    batch_size=65536):
        vec[t["bucket"].to_numpy()] += t["cnt"].to_numpy()
    return vec


def dsir_fit(ds_target, ds_raw, text_col: str, n_buckets: int = 65536,
             bigrams: bool = True, alpha: float = 1.0,
             normalize: bool = False, dedup_first: bool = True) -> dict:
    """Fit the importance model: two distributed count passes → one
    log-ratio array ``lam`` (float64[n_buckets]). Returns a plain dict
    ready for ``ray.put``. Driver memory is exactly 2 count vectors +
    lam — bounded by ``n_buckets``, never by data size."""
    ct = _counts_to_vec(_corpus_counts(ds_target, text_col, n_buckets,
                                       bigrams, normalize, dedup_first),
                        n_buckets)
    cr = _counts_to_vec(_corpus_counts(ds_raw, text_col, n_buckets,
                                       bigrams, normalize, dedup_first),
                        n_buckets)
    tt, tr = int(ct.sum()), int(cr.sum())
    lam = (np.log((ct + alpha) / (tt + alpha * n_buckets))
           - np.log((cr + alpha) / (tr + alpha * n_buckets)))
    return {"lam": lam, "n_buckets": int(n_buckets),
            "bigrams": bool(bigrams), "normalize": bool(normalize),
            "target_total": tt, "raw_total": tr, "alpha": float(alpha)}


def dsir_score(ds, model, text_col: str, id_col: str,
               threshold: float | None = None):
    """Broadcast importance scoring: per nonempty-text document,
    ``(id, n_tokens, log_weight[, selected])``. The lam array ships
    once; the kernel is hash → gather → segment ``bincount``."""
    import ray
    model_ref = model if isinstance(model, ray.ObjectRef) \
        else ray.put(model)

    def score(t: pa.Table) -> pa.Table:
        m = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) \
            else model_ref
        t, lens, flat = _flat_tokens(t, text_col, m["normalize"])
        ids, doc_of = _bucket_ids(lens, flat, m["n_buckets"],
                                  m["bigrams"])
        n = len(lens)
        logw = np.bincount(doc_of, weights=m["lam"][ids], minlength=n) \
            if len(ids) else np.zeros(n)
        cols = {
            id_col: t[id_col],
            "n_tokens": pa.array(lens, type=pa.int64()),
            "log_weight": pa.array(logw, type=pa.float64()),
        }
        if threshold is not None:
            cols["selected"] = pa.array(logw > threshold,
                                        type=pa.bool_())
        return pa.table(cols)

    return ds.map_batches(score, batch_format="pyarrow")


def dsir_resample(scored_ds, k: int, id_col: str,
                  gumbel: bool = True):
    """Deterministic Gumbel top-k resampling over a scored dataset
    (the paper's sampling-without-replacement trick): key_i = logw_i +
    G(id_i) with G derived from the id hash — reproducible under any
    block layout. ``gumbel=False`` gives plain top-k by weight.
    One distributed sort of the (id, key) projection; ties broken by
    id for determinism."""

    def key(t: pa.Table) -> pa.Table:
        logw = t["log_weight"].to_numpy()
        if gumbel:
            h = hash64(t[id_col].to_numpy(zero_copy_only=False))
            u = (h.astype(np.float64) + 0.5) / 2.0 ** 64
            logw = logw - np.log(-np.log(u))
        return pa.table({id_col: t[id_col],
                         "resample_key": pa.array(logw,
                                                  type=pa.float64())})

    return scored_ds.map_batches(key, batch_format="pyarrow") \
        .sort(["resample_key", id_col], descending=[True, False]) \
        .limit(k)
