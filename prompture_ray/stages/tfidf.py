"""TF-IDF keyword extraction — top-k characteristic terms per document
(beyond the reference, which retrieves with BM25 only: this is the
corpus-statistics inverse, "which terms describe this doc", the
standard signal for topic labeling / domain mixing of training data;
cf. reference prompture/rag/retrievers.py BM25 statistics shape).

Exactness contract (the oracle basis): the ranking score is tf/df —
ONE correctly-rounded double division of exact small integers on both
sides, so engine and SQL doubles are bit-identical with no rounding.
(Classic tf·log(N/df) needs libm `log`, whose 1-ulp noise can flip
ranking ties between numpy and DuckDB; tf/df is the same monotone
family for fixed tf and keeps the oracle exact.) Ties break by term
ascending — deterministic on both sides.

Scale shape (one narrow shuffle total):
- pass 1: per-batch distinct (doc, term) posting rows reduced to
  hash64(term) → grouped Count = document frequency. Only 8-byte
  hashes shuffle; Heaps' law keeps the lexicon small.
- size-aware df broadcast (`ray.put` sorted (hash, df) arrays) — per
  batch, pass 2 recomputes (doc, term, tf) locally with the
  dictionary-encode kernel (a doc's tokens never leave its batch),
  looks df up via searchsorted, and selects the per-doc top-k with one
  vectorized lexsort. Document text and term strings are never
  shuffled. Beyond ``broadcast_max`` lexicon entries the df lookup goes
  through the hash-bucketed equi-join (the 100-TB path),
  equality-tested via ``broadcast_max=0`` in tests/test_tfidf.py.
``distinctive_terms`` maps its term totals back with
``shuffle.lookup``, which makes the same size dispatch.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.shuffle import aggregate


def _postings(t: pa.Table, text_col: str, id_col: str):
    """Per-batch (row_idx, term-string, tf) over lowercased whitespace
    tokens — the text_index dictionary-encode kernel (only the batch
    VOCAB materializes as Python strings, the stream stays int32)."""
    from prompture_ray.functions import limit_arrow_threads
    limit_arrow_threads(1)
    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lists = pc.utf8_split_whitespace(
        pc.utf8_trim_whitespace(pc.utf8_lower(pc.fill_null(col, ""))))
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    row_len = pc.list_value_length(lists).to_numpy(
        zero_copy_only=False).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    dict_arr = lists.flatten().dictionary_encode()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    vocab = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)
    parent = np.repeat(np.arange(len(ids)), row_len)
    keep = np.ones(len(codes), dtype=bool)
    empty_hit = np.flatnonzero(vocab == "")
    if empty_hit.size:
        keep = codes != int(empty_hit[0])
    nv = max(len(vocab), 1)
    combo = parent[keep] * nv + codes[keep]
    uc, counts = np.unique(combo, return_counts=True)
    return ids, uc // nv, vocab[uc % nv], counts.astype(np.int64)


def _lexicon(ds, text_col: str, id_col: str):
    """Document frequency per term hash: ``(gram, df)``, one row per
    distinct term, unordered."""

    def df_rows(t: pa.Table) -> pa.Table:
        _, _, terms, _ = _postings(t, text_col, id_col)
        return pa.table({"gram": pa.array(hash64(terms).astype(np.int64)
                                          if len(terms) else
                                          np.empty(0, np.int64),
                                          type=pa.int64())})

    return aggregate(ds.map_batches(df_rows, batch_format="pyarrow"),
                     ["gram"], df=("count", None))


def tfidf_topk_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                     k: int = 3, n_buckets: int = 32,
                     broadcast_max: int = 20_000_000):
    """Top-``k`` terms per doc by tf/df (desc), term (asc).

    Returns rows ``(id, rank 1..k, term, tf, df, score)`` — docs with
    fewer than ``k`` distinct terms emit fewer rows; empty docs none.
    """
    import pandas as pd
    import ray

    lexicon = _lexicon(ds, text_col, id_col).materialize()

    def topk_local(ids, rows, terms, tf, dfv) -> pa.Table:
        score = tf / dfv                       # one exact division
        # per-row (doc) top-k: sort by (row asc, score desc, term asc)
        order = np.lexsort((terms, -score, rows))
        rows_s = rows[order]
        first = np.flatnonzero(np.r_[True, rows_s[1:] != rows_s[:-1]])
        rank = np.arange(len(rows_s)) - np.repeat(
            first, np.diff(np.r_[first, len(rows_s)]))
        sel = order[rank < k]
        sel_rank = rank[rank < k]
        return pa.table({
            "id": pa.array(ids[rows[sel]], type=pa.int64()),
            "rank": pa.array(sel_rank + 1, type=pa.int64()),
            "term": pa.array(terms[sel].tolist(), type=pa.string()),
            "tf": pa.array(tf[sel], type=pa.int64()),
            "df": pa.array(dfv[sel], type=pa.int64()),
            "score": pa.array(score[sel], type=pa.float64()),
        })

    n_lex = lexicon.count()
    if n_lex <= broadcast_max:
        parts = [(t["gram"].to_numpy(zero_copy_only=False),
                  t["df"].to_numpy(zero_copy_only=False))
                 for t in lexicon.iter_batches(batch_format="pyarrow")]
        g_all = np.concatenate([p[0] for p in parts]) if parts \
            else np.empty(0, dtype=np.int64)
        d_all = np.concatenate([p[1] for p in parts]) if parts \
            else np.empty(0, dtype=np.int64)
        order = np.argsort(g_all)
        ref = ray.put((g_all[order], d_all[order].astype(np.int64)))

        def score_batch(t: pa.Table) -> pa.Table:
            gs, dfs = ray.get(ref)
            ids, rows, terms, tf = _postings(t, text_col, id_col)
            if not len(rows):
                return topk_local(ids, rows, terms, tf,
                                  np.empty(0, np.int64))
            h = hash64(terms).astype(np.int64)
            dfv = dfs[np.searchsorted(gs, h)]
            return topk_local(ids, rows, terms, tf, dfv)

        return ds.map_batches(score_batch, batch_format="pyarrow")

    # 100-TB path: distinct (doc, term) rows × lexicon via the
    # hash-bucketed equi-join, then the same vectorized per-doc top-k
    # in a doc-id fold (each doc's candidate rows land wholly in one
    # fold frame).
    from prompture_ray.stages.shuffle import join, partition_fold

    def posting_rows(t: pa.Table) -> pa.Table:
        ids, rows, terms, tf = _postings(t, text_col, id_col)
        h = hash64(terms).astype(np.int64) if len(terms) \
            else np.empty(0, np.int64)
        return pa.table({
            "id": pa.array(ids[rows], type=pa.int64()),
            "gram": pa.array(h, type=pa.int64()),
            "term": pa.array(terms.tolist(), type=pa.string()),
            "tf": pa.array(tf, type=pa.int64())})

    posts = ds.map_batches(posting_rows, batch_format="pyarrow")
    joined = join(posts, lexicon, "gram", n_buckets=n_buckets)

    def part_topk(g: pd.DataFrame) -> pd.DataFrame:
        ids_u, rows = np.unique(
            g["id"].to_numpy().astype(np.int64), return_inverse=True)
        t = topk_local(ids_u, rows,
                       np.asarray(g["term"].to_numpy(), dtype=object),
                       g["tf"].to_numpy().astype(np.int64),
                       g["df"].to_numpy().astype(np.int64))
        return t.to_pandas()

    out = partition_fold(joined, ["id"], part_topk, n_parts=64)
    empty = pa.table({"id": pa.array([], type=pa.int64()),
                      "rank": pa.array([], type=pa.int64()),
                      "term": pa.array([], type=pa.string()),
                      "tf": pa.array([], type=pa.int64()),
                      "df": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64())})
    return out.map_batches(
        lambda t: t.select(empty.column_names) if t.num_rows
        else empty, batch_format="pyarrow")


def vocab_coverage(ds, text_col: str = "text", id_col: str = "doc_id",
                   min_df: int = 2, n_buckets: int = 32,
                   broadcast_max: int = 20_000_000):
    """Per-document vocabulary-coverage signals against the corpus's own
    vocabulary (beyond the reference; the standard OOV-rate / lexical-
    diversity quality gate for training data): with vocab = terms whose
    document frequency >= ``min_df``,

    returns ``(id, n_tokens, n_distinct, n_oov, oov_rate)`` — total
    token count, distinct-term count, tokens outside the vocab, and
    ``n_oov / n_tokens`` (ONE exact division of small ints on both
    sides — bit-identical to SQL, the tf/df precedent). Documents with
    zero tokens emit no row (their rate is undefined on both sides).

    Scale shape mirrors ``tfidf_topk_terms``: one narrow df shuffle of
    8-byte term hashes (Heaps-small lexicon), then a size-aware
    broadcast df lookup per batch — document text never shuffles.
    Beyond ``broadcast_max`` lexicon entries, posting rows go through
    the hash-bucketed equi-join and fold per doc with one grouped
    aggregate (equality-tested via ``broadcast_max=0``)."""
    import ray

    lexicon = _lexicon(ds, text_col, id_col).materialize()

    def fold_local(ids, rows, tf, oov_mask) -> pa.Table:
        n_docs = len(ids)
        n_tokens = np.bincount(rows, weights=tf,
                               minlength=n_docs).astype(np.int64)
        n_distinct = np.bincount(rows, minlength=n_docs).astype(np.int64)
        n_oov = np.bincount(rows, weights=tf * oov_mask,
                            minlength=n_docs).astype(np.int64)
        keep = n_tokens > 0
        nt, no = n_tokens[keep], n_oov[keep]
        return pa.table({
            "id": pa.array(ids[keep].astype(np.int64), type=pa.int64()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            "n_distinct": pa.array(n_distinct[keep], type=pa.int64()),
            "n_oov": pa.array(no, type=pa.int64()),
            "oov_rate": pa.array(no / nt, type=pa.float64())})

    n_lex = lexicon.count()
    if n_lex <= broadcast_max:
        parts = [(t["gram"].to_numpy(zero_copy_only=False),
                  t["df"].to_numpy(zero_copy_only=False))
                 for t in lexicon.iter_batches(batch_format="pyarrow")]
        g_all = np.concatenate([p[0] for p in parts]) if parts \
            else np.empty(0, dtype=np.int64)
        d_all = np.concatenate([p[1] for p in parts]) if parts \
            else np.empty(0, dtype=np.int64)
        order = np.argsort(g_all)
        ref = ray.put((g_all[order], d_all[order].astype(np.int64)))

        def cover_batch(t: pa.Table) -> pa.Table:
            gs, dfs = ray.get(ref)
            ids, rows, terms, tf = _postings(t, text_col, id_col)
            if not len(rows):
                return fold_local(ids, rows, tf,
                                  np.empty(0, dtype=np.int64))
            h = hash64(terms).astype(np.int64)
            dfv = dfs[np.searchsorted(gs, h)]
            return fold_local(ids, rows, tf,
                              (dfv < min_df).astype(np.int64))

        return ds.map_batches(cover_batch, batch_format="pyarrow")

    # 100-TB path: posting rows × lexicon through the bucketed join,
    # one grouped Sum/Count per doc id (rows are Heaps-compressed
    # (doc, term) postings, never raw tokens)
    from prompture_ray.stages.shuffle import join

    def posting_rows(t: pa.Table) -> pa.Table:
        ids, rows, terms, tf = _postings(t, text_col, id_col)
        h = hash64(terms).astype(np.int64) if len(terms) \
            else np.empty(0, np.int64)
        return pa.table({
            "id": pa.array(ids[rows], type=pa.int64()),
            "gram": pa.array(h, type=pa.int64()),
            "tf": pa.array(tf, type=pa.int64())})

    posts = ds.map_batches(posting_rows, batch_format="pyarrow")
    joined = join(posts, lexicon, "gram", n_buckets=n_buckets)

    def oov(t: pa.Table) -> pa.Table:
        return pa.table({"id": t["id"], "tf": t["tf"], "oov": pc.if_else(
            pc.less(t["df"], min_df), t["tf"], 0)})

    agg = aggregate(joined.map_batches(oov, batch_format="pyarrow"),
                    ["id"], n_tokens=("sum", "tf"),
                    n_distinct=("count", None), n_oov=("sum", "oov"))

    def finish(t: pa.Table) -> pa.Table:
        nt = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        no = t["n_oov"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = nt > 0
        t = t.filter(pa.array(keep))
        return t.append_column("oov_rate", pa.array(
            no[keep] / nt[keep], type=pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def vocab_jaccard(ds, group_col: str, text_col: str = "text",
                  n_parts: int = 64):
    """Pairwise vocabulary Jaccard overlap between groups — "how much
    do the corpora of two languages / domains share a lexicon", the
    corpus-similarity audit behind domain-mixing decisions. Returns
    ``(group_a, group_b, inter, size_a, size_b, jaccard)`` for every
    group pair sharing at least one token (group_a < group_b, binary
    collation).

    Exactness: inter/size are exact int64 set cardinalities over
    distinct (group, token-hash) pairs (8-byte token hashes shuffle,
    never strings — the tfidf df-count precedent, |V|²/2^64 collision
    odds accepted); jaccard = inter / (size_a + size_b − inter) is ONE
    correctly-rounded double division of exact ints on both sides.

    Scale shape: ONE ``partition_fold`` of 16-byte rows on the token
    hash — partitioning BY TOKEN makes the per-frame drop_duplicates a
    GLOBAL distinct, and every token's group set lands whole, so one
    vectorized run-boundary pass (itemsets' pair-expansion kernel)
    emits intersection partials and per-group size partials together;
    one ``shuffle.aggregate`` sums them, bounded by groups², and only
    that tiny
    pair table reaches the driver for the final division."""
    import pandas as pd
    from prompture_ray.stages.itemsets import pairs_within_sorted_groups
    from prompture_ray.stages.shuffle import partition_fold
    from prompture_ray.functions import limit_arrow_threads

    def pairs_partial(t: pa.Table) -> pa.Table:
        limit_arrow_threads(1)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(col, "")))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        row_len = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        gv = np.asarray(t[group_col].to_pylist(), dtype=object)
        flat = lists.flatten()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = np.asarray(flat.to_pylist(), dtype=object)[keep]
        th = hash64(toks).astype(np.int64)
        g = np.repeat(gv, row_len)[keep]
        df = pd.DataFrame({"g": g, "th": th}).drop_duplicates()
        return pa.table({"g": pa.array(df["g"].to_numpy(),
                                       type=pa.string()),
                         "th": pa.array(df["th"].to_numpy(),
                                        type=pa.int64())})

    def per_token(part: pd.DataFrame) -> pd.DataFrame:
        d = part.drop_duplicates(["g", "th"]) \
            .sort_values(["th", "g"], kind="mergesort")
        th = d["th"].to_numpy()
        g = d["g"].to_numpy()
        if len(th):
            first = np.flatnonzero(np.r_[True, th[1:] != th[:-1]])
            sizes = np.diff(np.r_[first, len(th)])
        else:
            sizes = np.empty(0, dtype=np.int64)
        li, ri = pairs_within_sorted_groups(sizes)
        inter = pd.DataFrame({"ga": g[li], "gb": g[ri]}) \
            .groupby(["ga", "gb"], sort=False).size() \
            .rename("c").reset_index()
        sz = pd.DataFrame({"ga": g}).groupby("ga", sort=False) \
            .size().rename("c").reset_index()
        sz["gb"] = ""            # sentinel: per-group vocab size row
        out = pd.concat([inter, sz[["ga", "gb", "c"]]],
                        ignore_index=True)
        out["c"] = out["c"].astype("int64")
        return out

    folded = aggregate(partition_fold(
        ds.map_batches(pairs_partial, batch_format="pyarrow"), ["th"],
        per_token, n_parts=n_parts), ["ga", "gb"], c=("sum", "c")) \
        .to_pandas()          # bounded by groups² rows — the contract

    sizes = folded[folded["gb"] == ""].set_index("ga")["c"]
    pairs = folded[folded["gb"] != ""].reset_index(drop=True)
    sa = sizes[pairs["ga"]].to_numpy().astype(np.int64)
    sb = sizes[pairs["gb"]].to_numpy().astype(np.int64)
    inter = pairs["c"].to_numpy().astype(np.int64)
    out = pa.table({
        "group_a": pa.array(pairs["ga"].to_numpy(), type=pa.string()),
        "group_b": pa.array(pairs["gb"].to_numpy(), type=pa.string()),
        "inter": pa.array(inter, type=pa.int64()),
        "size_a": pa.array(sa, type=pa.int64()),
        "size_b": pa.array(sb, type=pa.int64()),
        "jaccard": pa.array(inter / (sa + sb - inter),
                            type=pa.float64())})
    import ray.data as rd
    return rd.from_arrow(out)


def distinctive_terms(ds, group_col: str, text_col: str = "text",
                      k: int = 10, broadcast_max: int = 20_000_000):
    """Top-k distinctive terms per group by LIFT —
    ``lift(t, g) = P(t|g) / P(t) = (c_tg · N) / (n_g · c_t)`` over raw
    token occurrence counts — the per-language / per-domain vocabulary
    profiling staple (what does THIS slice over-use). Returns
    ``(group, term, c_tg, lift, rk)``, k rows per group, ordered lift
    desc with term-asc tie-break (identical doubles on both sides: the
    lift is ONE correctly-rounded double division of exact int64
    products — caller bound c_tg·N < 2^53, the collocations PMI
    precedent — so the total order is deterministic and a SQL replay
    is bit-identical).

    Scale shape: per-batch (group, term) count partials → ONE grouped
    Sum shuffle bounded by groups × lexicon (Heaps-small); term totals
    fold from that table (narrow), group totals are a tiny fold; term
    totals map back via ``shuffle.lookup`` (broadcast up to
    ``broadcast_max`` terms, hash buckets beyond — equality-tested via
    ``broadcast_max=0``); the final cut is analytic.top_k_per_group
    (partial top-k per block)."""
    from prompture_ray.stages.analytic import top_k_per_group
    from prompture_ray.stages.shuffle import lookup
    from prompture_ray.functions import limit_arrow_threads

    def group_terms(t: pa.Table) -> pa.Table:
        limit_arrow_threads(1)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.fill_null(col, "")))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        row_len = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        gv = np.asarray(t[group_col].to_pylist(), dtype=object)
        flat = lists.flatten()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = np.asarray(flat.to_pylist(), dtype=object)[keep]
        return pa.table({"g": pa.array(np.repeat(gv, row_len)[keep],
                                       type=pa.string()),
                         "term": pa.array(toks, type=pa.string())})

    counts = aggregate(ds.map_batches(group_terms, batch_format="pyarrow"),
                       ["g", "term"], c=("count", None)).materialize()
    term_tot = aggregate(counts, ["term"], ct=("sum", "c")).materialize()
    gt = aggregate(counts, ["g"], ng=("sum", "c")) \
        .to_pandas()                       # tiny: one row per group
    ng_map = dict(zip(gt["g"], gt["ng"].astype(np.int64)))
    big_n = int(gt["ng"].sum())

    def lift_cols(t: pa.Table) -> pa.Table:
        c_tg = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        ct = t["ct"].to_numpy(zero_copy_only=False).astype(np.int64)
        ng = np.asarray([ng_map[g] for g in t["g"].to_pylist()],
                        dtype=np.int64)
        lift = (c_tg * big_n) / (ng * ct)
        return pa.table({"group": t["g"], "term": t["term"],
                         "c_tg": pa.array(c_tg, type=pa.int64()),
                         "lift": pa.array(lift, type=pa.float64())})

    # every term exists in term_tot by construction
    lifted = lookup(counts, term_tot, ["term"], ["ct"],
                    broadcast_max=broadcast_max) \
        .map_batches(lift_cols, batch_format="pyarrow")
    return top_k_per_group(lifted, "group", "lift", k,
                           tie_col="term")
