"""KenLM/CCNet-style n-gram language-model quality scoring (the
perplexity-filter slot in crawl pipelines — CCNet buckets documents
into head/middle/tail by LM perplexity; beyond the reference, which
has no statistical LM).

Scale shape: training reduces the corpus to (w1, w2, cnt) bigram and
(w, cnt) unigram count tables with ONE narrow groupby shuffle each
(Heaps' law keeps the lexicon small; ``max_vocab`` documents the
driver bound — a corpus whose MODEL outgrows one node needs a sharded
LM, which is out of scope for a reference-parity engine). The trained
model is broadcast once via ``ray.put``; scoring is a pure
map_batches — flat token hashes → searchsorted vocab lookup →
composite-int bigram key lookup → per-doc ``bincount`` log-prob sums —
no per-row Python anywhere.

Semantics (add-α smoothed bigram LM, α=1 Laplace by default):
  P(t_0)           = (c(t_0)+α) / (T+α·V_s)           (unigram start)
  P(t_i | t_{i-1}) = (c(t_{i-1},t_i)+α) / (c(t_{i-1})+α·V_s)
  logprob(doc)     = Σ event log-probs (natural log)
  perplexity(doc)  = exp(-logprob / n_tokens)
where V_s = |vocab|+1 reserves one smoothing type for OOV tokens
(an OOV token contributes count 0 in any slot). With α=1 every event
probability is a single division of two exact small integers, so the
doubles are correctly rounded on any conforming platform — the basis
of the planted closed-form oracle (tests/test_lm.py hand-derives the
constants with Fraction + math.log, non-circularly).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.classify import _flat_tokens
from prompture_ray.stages.shuffle import aggregate


def _bigram_pairs(lens: np.ndarray, flat: np.ndarray):
    """(prev, cur) object arrays of within-doc adjacent token pairs."""
    total = len(flat)
    if total < 2:
        e = np.empty(0, dtype=object)
        return e, e
    # position j pairs with j+1 unless j is the last token of its doc
    ends = np.cumsum(lens) - 1
    valid = np.ones(total - 1, dtype=bool)
    valid[ends[ends < total - 1]] = False
    return flat[:-1][valid], flat[1:][valid]


def _pair_counts(ds, pairs):
    """``(w1, w2, cnt)``: one ``shuffle.aggregate`` count of the token
    pairs ``pairs(t)`` gives per batch as two object arrays (unordered).
    """

    def rows(t: pa.Table) -> pa.Table:
        a, b = pairs(t)
        return pa.table({"w1": pa.array(a, type=pa.string()),
                         "w2": pa.array(b, type=pa.string())})

    return aggregate(ds.map_batches(rows, batch_format="pyarrow"),
                     ["w1", "w2"], cnt=("count", None))


def bigram_counts(ds, text_col: str, normalize: bool = False):
    """Distributed (w1, w2, cnt) within-document bigram counts: one
    ``shuffle.aggregate`` count of the bigram rows. Oracle-checkable
    with a SQL GROUP BY."""

    def bigrams(t: pa.Table):
        _, lens, flat = _flat_tokens(t, text_col, normalize)
        return _bigram_pairs(lens, flat)

    return _pair_counts(ds, bigrams)


def unigram_counts(ds, text_col: str, normalize: bool = False):
    """Distributed (w, cnt) token counts — same shuffle shape."""

    def tokens(t: pa.Table) -> pa.Table:
        _, _, flat = _flat_tokens(t, text_col, normalize)
        return pa.table({"w": pa.array(flat, type=pa.string())})

    return aggregate(ds.map_batches(tokens, batch_format="pyarrow"),
                     ["w"], cnt=("count", None))


def _collect(counts, cols):
    """Materialized aggregate → tuple of numpy columns."""
    parts = {c: [] for c in cols}
    for t in counts.iter_batches(batch_format="pyarrow"):
        for c in cols:
            a = t[c]
            if pa.types.is_string(a.type) or pa.types.is_large_string(a.type):
                parts[c].append(np.asarray(a.to_pylist(), dtype=object))
            else:
                parts[c].append(a.to_numpy(zero_copy_only=False))
    out = []
    for c in cols:
        out.append(np.concatenate(parts[c]) if parts[c]
                   else np.empty(0, dtype=object))
    return tuple(out)


def _joint_counts(ds, text_col: str, normalize: bool):
    """Unigram + bigram counts in ONE pass and ONE grouped shuffle:
    unigram rows carry the empty-string sentinel in ``w2`` (whitespace
    tokens are never empty, so the namespaces can't collide)."""

    def joint(t: pa.Table):
        _, lens, flat = _flat_tokens(t, text_col, normalize)
        prev, cur = _bigram_pairs(lens, flat)
        return (np.concatenate([flat, prev]),
                np.concatenate([np.full(len(flat), "", dtype=object), cur]))

    return _pair_counts(ds, joint)


def train_bigram_lm(ds, text_col: str, alpha: float = 1.0,
                    normalize: bool = False,
                    max_vocab: int = 50_000_000) -> dict:
    """Train the LM: ONE distributed count shuffle (unigrams + bigrams
    share it via the sentinel scheme of ``_joint_counts``) → driver
    arrays (sorted token-hash vocab + aligned unigram counts; sorted
    composite int64 bigram keys + counts). Returns a plain dict ready
    for ``ray.put``. The input Dataset is consumed exactly once."""
    joint = _joint_counts(ds, text_col, normalize).materialize()
    if joint.count() > max_vocab:
        raise ValueError(f"vocab exceeds max_vocab ({max_vocab}) — "
                         "driver model bound; shard the LM")
    jw1, jw2, jc = _collect(joint, ["w1", "w2", "cnt"])
    is_uni = np.array([x == "" for x in jw2], dtype=bool)
    w, uc = jw1[is_uni], jc[is_uni]
    th = hash64(w).view(np.int64) if len(w) else np.empty(0, np.int64)
    order = np.argsort(th, kind="stable")
    vocab = th[order]
    ucnt = uc[order].astype(np.int64) if len(w) else np.empty(0, np.int64)
    V = len(vocab)

    w1, w2, bc = jw1[~is_uni], jw2[~is_uni], jc[~is_uni]
    if len(w1):
        i1 = np.searchsorted(vocab, hash64(w1).view(np.int64))
        i2 = np.searchsorted(vocab, hash64(w2).view(np.int64))
        keys = i1.astype(np.int64) * (V + 1) + i2
        border = np.argsort(keys, kind="stable")
        bkeys = keys[border]
        bcnt = bc[border].astype(np.int64)
    else:
        bkeys = np.empty(0, np.int64)
        bcnt = np.empty(0, np.int64)

    return {"vocab": vocab, "ucnt": ucnt, "total": int(ucnt.sum()),
            "bkeys": bkeys, "bcnt": bcnt,
            "alpha": float(alpha), "v_smooth": V + 1}


def _lookup_counts(sorted_keys: np.ndarray, counts: np.ndarray,
                   keys: np.ndarray, valid=None) -> np.ndarray:
    """Vectorized count lookup: searchsorted + equality, 0 for misses."""
    out = np.zeros(len(keys), dtype=np.int64)
    if len(sorted_keys) == 0 or len(keys) == 0:
        return out
    idx = np.clip(np.searchsorted(sorted_keys, keys), 0,
                  len(sorted_keys) - 1)
    hit = sorted_keys[idx] == keys
    if valid is not None:
        hit &= valid
    out[hit] = counts[idx[hit]]
    return out


def lm_score(ds, model, text_col: str, id_col: str,
             normalize: bool = False,
             buckets: tuple[float, float] | None = None,
             append: bool = False):
    """Broadcast LM scoring: per document with nonempty text,
    ``(id, n_tokens, logprob, ppl[, bucket])``. The model ships once
    (``ray.put``); the kernel is flat-stream vectorized (searchsorted
    lookups + one ``bincount`` segment sum per batch).

    ``buckets=(lo, hi)`` adds the CCNet head/middle/tail column:
    ppl <= lo → 'head', <= hi → 'middle', else 'tail'.

    ``append=True`` keeps EVERY input row and column (pipeline
    composition mode): empty-text rows get n_tokens 0 and null
    logprob/ppl/bucket instead of being dropped."""
    import ray
    model_ref = model if isinstance(model, ray.ObjectRef) \
        else ray.put(model)

    def score_append(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        ne = pc.greater(pc.utf8_length(pc.fill_null(arr, "")), 0) \
            .to_numpy(zero_copy_only=False)
        sub = score(t.filter(pa.array(ne)))
        n = len(t)
        if len(sub) != int(ne.sum()):    # normalize=True can re-empty
            raise ValueError("lm_score(append=True) requires "
                             "normalize=False (row alignment)")
        n_tok = np.zeros(n, dtype=np.int64)
        lp = np.full(n, np.nan)
        ppl = np.full(n, np.nan)
        idx = np.nonzero(ne)[0]
        n_tok[idx] = sub["n_tokens"].to_numpy(zero_copy_only=False)
        lp[idx] = sub["logprob"].to_numpy(zero_copy_only=False)
        ppl[idx] = sub["ppl"].to_numpy(zero_copy_only=False)
        out = t.append_column("n_tokens", pa.array(n_tok)) \
            .append_column("logprob",
                           pa.array(lp, type=pa.float64(),
                                    from_pandas=True)) \
            .append_column("ppl", pa.array(ppl, type=pa.float64(),
                                           from_pandas=True))
        if buckets is not None:
            b = np.full(n, None, dtype=object)
            b[idx] = np.asarray(sub["bucket"].to_pylist(), dtype=object)
            out = out.append_column("bucket",
                                    pa.array(b, type=pa.string()))
        return out

    def score(t: pa.Table) -> pa.Table:
        m = ray.get(model_ref)
        a, Vs, T = m["alpha"], m["v_smooth"], m["total"]
        t, lens, flat = _flat_tokens(t, text_col, normalize)
        ids = t[id_col].combine_chunks().cast(pa.int64())
        n_docs, total = len(lens), len(flat)
        if total == 0:
            empty = {"id": pa.array([], type=pa.int64()),
                     "n_tokens": pa.array([], type=pa.int64()),
                     "logprob": pa.array([], type=pa.float64()),
                     "ppl": pa.array([], type=pa.float64())}
            if buckets is not None:
                empty["bucket"] = pa.array([], type=pa.string())
            return pa.table(empty)
        th = hash64(flat).view(np.int64)
        cu = np.zeros(total, dtype=np.float64)
        if len(m["vocab"]):
            vi = np.clip(np.searchsorted(m["vocab"], th), 0,
                         len(m["vocab"]) - 1)
            known = m["vocab"][vi] == th
            cu[known] = m["ucnt"][vi[known]]
        else:
            vi = np.zeros(total, dtype=np.int64)
            known = np.zeros(total, dtype=bool)

        offs = np.cumsum(lens) - lens          # first-token positions
        starts = np.zeros(total, dtype=bool)
        starts[offs] = True
        lp = np.empty(total, dtype=np.float64)
        # unigram start events: (c(w)+a) / (T+a*Vs)
        lp[starts] = np.log((cu[starts] + a) / (T + a * Vs))
        # bigram events: (c(w1,w2)+a) / (c(w1)+a*Vs)
        mid = np.nonzero(~starts)[0]
        if len(mid):
            both = known[mid - 1] & known[mid]
            keys = vi[mid - 1].astype(np.int64) * Vs + vi[mid]
            c12 = _lookup_counts(m["bkeys"], m["bcnt"], keys,
                                 valid=both).astype(np.float64)
            lp[mid] = np.log((c12 + a) / (cu[mid - 1] + a * Vs))

        doc_idx = np.repeat(np.arange(n_docs), lens)
        logprob = np.bincount(doc_idx, weights=lp, minlength=n_docs)
        ppl = np.exp(-logprob / lens)
        cols = {"id": ids,
                "n_tokens": pa.array(lens, type=pa.int64()),
                "logprob": pa.array(logprob, type=pa.float64()),
                "ppl": pa.array(ppl, type=pa.float64())}
        if buckets is not None:
            lo, hi = buckets
            b = np.where(ppl <= lo, "head",
                         np.where(ppl <= hi, "middle", "tail"))
            cols["bucket"] = pa.array(b.astype(object), type=pa.string())
        return pa.table(cols)

    return ds.map_batches(score_append if append else score,
                          batch_format="pyarrow")


def top_collocations(ds, text_col: str = "text", k: int = 20,
                     min_count: int = 5, normalize: bool = False):
    """Top-``k`` PMI collocations — the classic corpus-analysis
    "characteristic word pairs" op (beyond the reference): within-doc
    adjacent bigrams ranked by the PMI ratio

        score = (cnt · N) / (c1 · c2)

    with N = total bigram events — monotone in true PMI (log of it) and
    ORACLE-EXACT: one double division of exact int64 products on both
    sides (the tf/df precedent; exact while cnt·N < 2^53 — beyond that
    scale switch the oracle off, the ranking stays correct to double
    rounding). Rank order: score desc, then (w1, w2) asc — a
    deterministic total order on both sides.

    Scale shape: the two narrow lexicon-sized count shuffles of
    ``bigram_counts``/``unigram_counts``; the unigram lexicon is
    collected and broadcast as sorted hash arrays (Heaps-small — the
    train_bigram_lm bound); per-batch partial top-k bounds the driver
    fold to k rows per block. Returns (rank, w1, w2, cnt, c1, c2,
    score), rank 1..k."""
    import ray
    import pyarrow.compute as pc

    big = bigram_counts(ds, text_col, normalize).materialize()
    uni = unigram_counts(ds, text_col, normalize).materialize()

    n_total = 0
    for t in big.iter_batches(batch_format="pyarrow"):
        n_total += int(pc.sum(t["cnt"]).as_py() or 0)

    w, c = _collect(uni, ["w", "cnt"])
    h = hash64(w).astype(np.int64) if len(w) \
        else np.empty(0, dtype=np.int64)
    order = np.argsort(h)
    ref = ray.put((h[order], c[order].astype(np.int64)))

    def partial_topk(t: pa.Table) -> pa.Table:
        hs, cs = ray.get(ref)
        w1 = np.asarray(t["w1"].to_pylist(), dtype=object)
        w2 = np.asarray(t["w2"].to_pylist(), dtype=object)
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cnt >= min_count
        w1, w2, cnt = w1[keep], w2[keep], cnt[keep]
        if not len(cnt):
            return pa.table({"w1": pa.array([], type=pa.string()),
                             "w2": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64()),
                             "c1": pa.array([], type=pa.int64()),
                             "c2": pa.array([], type=pa.int64()),
                             "score": pa.array([], type=pa.float64())})
        c1 = cs[np.searchsorted(hs, hash64(w1).astype(np.int64))]
        c2 = cs[np.searchsorted(hs, hash64(w2).astype(np.int64))]
        score = (cnt * n_total) / (c1 * c2)
        sel = np.lexsort((w2, w1, -score))[:k]
        return pa.table({"w1": pa.array(w1[sel].tolist(),
                                        type=pa.string()),
                         "w2": pa.array(w2[sel].tolist(),
                                        type=pa.string()),
                         "cnt": pa.array(cnt[sel], type=pa.int64()),
                         "c1": pa.array(c1[sel], type=pa.int64()),
                         "c2": pa.array(c2[sel], type=pa.int64()),
                         "score": pa.array(score[sel],
                                           type=pa.float64())})

    folded = big.map_batches(partial_topk,
                             batch_format="pyarrow").to_pandas()
    folded = folded.sort_values(
        ["score", "w1", "w2"], ascending=[False, True, True],
        kind="mergesort", ignore_index=True).head(k)
    folded.insert(0, "rank", np.arange(1, len(folded) + 1,
                                       dtype=np.int64))
    return folded


def skipgram_counts(ds, text_col: str = "text", window: int = 4,
                    min_count: int = 1, normalize: bool = False):
    """Ordered skip-gram co-occurrence counts ``(w1, w2, cnt)`` —
    every within-doc token pair at distance 1..``window`` (the
    word2vec-window corpus statistic; collocations' adjacent bigram is
    the window=1 special case). Keeps pairs with ``cnt >=
    min_count``; plain integer counting, SQL replays it with the
    position-zip self-join idiom.

    Scale shape: ZERO shuffle until the count fold — per batch, the
    window offsets are ``window`` vectorized shifted-zip passes over
    the flattened token stream (doc boundaries masked by a cumulative
    ends test, the bigram kernel generalized), combined into batch
    pairs; one ``shuffle.aggregate`` counts them, bounded by the pair
    lexicon (Heaps × window). min_count filters AFTER the fold,
    distributed."""

    def window_pairs(t: pa.Table):
        _, lens, flat = _flat_tokens(t, text_col, normalize)
        total = len(flat)
        doc_id = np.repeat(np.arange(len(lens)), lens)
        lefts = [np.empty(0, dtype=object)]
        rights = [np.empty(0, dtype=object)]
        for d in range(1, window + 1):
            if total <= d:
                break
            same = doc_id[:-d] == doc_id[d:]
            lefts.append(flat[:-d][same])
            rights.append(flat[d:][same])
        return np.concatenate(lefts), np.concatenate(rights)

    folded = _pair_counts(ds, window_pairs)
    if min_count <= 1:
        return folded
    return folded.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
        batch_format="pyarrow")
