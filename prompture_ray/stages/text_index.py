"""Persisted sparse (BM25) text index — the inverted-index counterpart of
``build_ivf_index`` (VERDICT r2 "what's missing" #6).

Build (one corpus tokenize, ever):

- postings parquet partitioned by ``bucket = hash64(term) % n_buckets``:
  rows (term, doc_id, tf, dl) — a search reads ONLY the buckets its query
  terms hash into (partition pruning at the read, like the IVF lists)
- ``bucket=-1/`` holds one sentinel row per document (term null, dl) —
  the per-doc length table, written in the same pass
- ``df.parquet`` (term → document frequency) + ``meta.json``
  (n_docs, avgdl), derived from the WRITTEN postings by narrow disk
  re-reads — the corpus text itself is never scanned twice

Maintenance is generational (ADVICE r4): delta files carry an ``updG-``
prefix (G = delta generation, base files are generation 0) and each
tombstone records the generation it was issued at — a tombstone kills
only postings from files of generation <= its own, so re-adding a
removed doc_id UPDATES the document (the newer postings survive)
instead of silently deleting it.

Search: tokenize the query, read the probed buckets with a term filter,
score Okapi BM25 vectorized per batch (same idf/score form as
``similarity.bm25_topk``), groupby-doc sum, top-k. Reference scoring
semantics: prompture/rag/retrievers/hybrid.py:12-19,130-190.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.shuffle import aggregate
from prompture_ray.stages.similarity import bm25_tokenize


def _term_bucket(terms: np.ndarray, n_buckets: int) -> np.ndarray:
    return (hash64(terms) % np.uint64(n_buckets)).astype(np.int32)


def _make_extract(text_col: str, id_col: str, n_buckets: int):
    """Tokenize-and-post batch fn shared by build and incremental
    update (one tokenize per document, ever)."""

    def extract(t: pa.Table) -> pa.Table:
        from prompture_ray.functions import limit_arrow_threads
        limit_arrow_threads(1)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(
                pc.utf8_lower(pc.fill_null(col, ""))))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        row_len = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        # dictionary-encode the token stream: only the per-batch VOCAB
        # ever becomes Python strings — the stream itself stays int32
        # (the naive to_pylist materialized every token as an object)
        dict_arr = lists.flatten().dictionary_encode()
        codes = dict_arr.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vocab = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)
        parent = np.repeat(np.arange(len(ids)), row_len)
        empty_code = -1
        empty_hit = np.flatnonzero(vocab == "")
        if empty_hit.size:
            empty_code = int(empty_hit[0])
        nonempty = codes != empty_code
        dl = row_len - np.bincount(parent[~nonempty], minlength=len(ids))
        # per-(doc, term) tf via ONE np.unique over a combined int key
        combo = parent[nonempty] * len(vocab) + codes[nonempty]
        uc, counts = np.unique(combo, return_counts=True)
        rows = uc // len(vocab)
        term_codes = uc % len(vocab)
        terms = vocab[term_codes]
        post = pa.table({
            "bucket": pa.array(_term_bucket(terms, n_buckets)),
            "term": pa.array(terms.tolist(), type=pa.string()),
            "doc_id": pa.array(ids[rows]),
            "tf": pa.array(counts, type=pa.int64()),
            "dl": pa.array(dl[rows], type=pa.int64()),
        })
        sentinel = pa.table({
            "bucket": pa.array(np.full(len(ids), -1, dtype=np.int32)),
            "term": pa.array([None] * len(ids), type=pa.string()),
            "doc_id": pa.array(ids),
            "tf": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "dl": pa.array(dl, type=pa.int64()),
        })
        return pa.concat_tables([post, sentinel])

    return extract


# ---------------------------------------------------------------------------
# generational layout helpers
# ---------------------------------------------------------------------------


def _gen_of_path(p: str) -> int:
    """Delta generation of a posting file: ``updG-*`` files are
    generation G, everything else (base build / compacted) is 0."""
    b = os.path.basename(p)
    if b.startswith("upd"):
        head = b[3:].split("-", 1)[0]
        if head.isdigit():
            return int(head)
    return 0


def _live_bucket_dirs(index_dir: str) -> dict:
    """bucket number → directory path, preferring the primary
    ``bucket=K`` name and falling back to the ``bucket=K.old``
    rename-aside left by an interrupted compaction
    (``compact_text_index`` keeps a complete bucket under one of the
    two names at every intermediate state)."""
    primary, old = {}, {}
    for d in glob.glob(os.path.join(index_dir, "bucket=*")):
        base = os.path.basename(d)[len("bucket="):]
        if base.endswith(".compact"):
            continue
        tgt = primary
        if base.endswith(".old"):
            base, tgt = base[:-len(".old")], old
        try:
            tgt[int(base)] = d
        except ValueError:
            continue
    merged = dict(old)
    merged.update(primary)
    return merged


def _paths_for_buckets(index_dir: str, bucket_nums) -> list:
    dirs = _live_bucket_dirs(index_dir)
    paths = []
    for b in bucket_nums:
        d = dirs.get(int(b))
        if d:
            paths.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
    return paths


def _max_gen(index_dir: str) -> int:
    g = 0
    for d in _live_bucket_dirs(index_dir).values():
        for p in glob.glob(os.path.join(d, "*.parquet")):
            g = max(g, _gen_of_path(p))
    return g


def _tombstones(index_dir: str) -> tuple:
    """(sorted unique doc ids, max tombstone generation per id).
    A tombstone issued at generation g kills postings from files of
    generation <= g; postings added by a LATER delta survive — so
    remove+re-add updates a document instead of deleting it. Pre-
    generational tombstone files (no ``gen`` column) kill every
    generation."""
    paths = sorted(glob.glob(
        os.path.join(index_dir, "tombstones", "*.parquet")))
    if not paths:
        e = np.empty(0, dtype=np.int64)
        return e, e
    import pyarrow.parquet as pq
    ids_l, gen_l = [], []
    for p in paths:
        t = pq.read_table(p)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if "gen" in t.column_names:
            gens = t["gen"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        else:
            gens = np.full(len(ids), np.iinfo(np.int64).max)
        ids_l.append(ids)
        gen_l.append(gens)
    ids = np.concatenate(ids_l)
    gens = np.concatenate(gen_l)
    order = np.argsort(ids, kind="stable")
    ids, gens = ids[order], gens[order]
    uniq, start = np.unique(ids, return_index=True)
    maxg = np.maximum.reduceat(gens, start)
    return uniq, maxg


def _tombstone_ids(index_dir: str) -> np.ndarray:
    """Sorted array of doc ids with ANY tombstone (empty if none)."""
    return _tombstones(index_dir)[0]


def _read_live(paths: list, columns, tomb: tuple):
    """Read posting files grouped by delta generation, each group
    dropping only the doc ids whose tombstone generation >= the file
    generation (one small sorted dead-id array broadcast per group)."""
    import ray
    import ray.data as rd

    tomb_ids, tomb_gens = tomb
    groups: dict = {}
    for p in paths:
        groups.setdefault(_gen_of_path(p), []).append(p)
    parts = []
    for g, ps in sorted(groups.items()):
        d = rd.read_parquet(ps, columns=columns)
        dead = tomb_ids[tomb_gens >= g] if len(tomb_ids) else tomb_ids
        if len(dead):
            dead_ref = ray.put(dead)

            def live(t: pa.Table, _ref=dead_ref) -> pa.Table:
                ds_ = ray.get(_ref)
                if t.num_rows == 0:
                    return t
                ids = t["doc_id"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                i = np.clip(np.searchsorted(ds_, ids), 0, len(ds_) - 1)
                return t.filter(pa.array(ds_[i] != ids))

            d = d.map_batches(live, batch_format="pyarrow")
        parts.append(d)
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def _refresh_derived(index_dir: str, n_buckets: int, id_col: str) -> dict:
    """Recompute df table + meta from narrow DISK re-reads of the
    written postings (the corpus is never re-tokenized), excluding
    generation-dead docs so BM25 statistics stay exact after removals
    AND updates."""
    tomb = _tombstones(index_dir)
    dirs = _live_bucket_dirs(index_dir)
    doc_paths = sorted(glob.glob(os.path.join(dirs.get(-1, "__none__"),
                                              "*.parquet"))) \
        if -1 in dirs else []
    docs = _read_live(doc_paths, ["doc_id", "dl"], tomb).materialize()
    n_docs = docs.count()
    total_len = int(docs.sum("dl") or 0)

    post_paths = _paths_for_buckets(index_dir,
                                    [b for b in dirs if b != -1])
    df_dir = os.path.join(index_dir, "df")
    shutil.rmtree(df_dir, ignore_errors=True)
    if post_paths:
        df_tbl = aggregate(_read_live(post_paths, ["term", "doc_id"], tomb),
                           ["term"], df=("count", None))
        df_tbl.write_parquet(df_dir)

    meta = {"n_docs": int(n_docs), "total_len": total_len,
            "avgdl": total_len / n_docs if n_docs else 0.0,
            "n_buckets": int(n_buckets), "id_col": id_col}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def build_text_index(ds, text_col: str, id_col: str, index_dir: str,
                     n_buckets: int = 32, overwrite: bool = False) -> dict:
    """One corpus pass → partitioned postings + df table + meta."""
    if os.path.exists(os.path.join(index_dir, "meta.json")):
        if not overwrite:
            raise FileExistsError(
                f"text index already exists at {index_dir}; pass "
                "overwrite=True to rebuild")
        shutil.rmtree(index_dir)

    os.makedirs(index_dir, exist_ok=True)
    ds.map_batches(_make_extract(text_col, id_col, n_buckets),
                   batch_format="pyarrow") \
        .write_parquet(index_dir, partition_cols=["bucket"])
    return _refresh_derived(index_dir, n_buckets, id_col)


def update_text_index(index_dir: str, add_ds=None, text_col: str = "text",
                      remove_ids=None) -> dict:
    """Incremental index maintenance — the CDC story for the text index:

    - ``add_ds``: new documents tokenize ONCE (same extract as build)
      and their postings are written as ADDITIONAL files moved into the
      existing ``bucket=K`` partition dirs under an ``updG-`` prefix
      (G = this call's delta generation) — the old corpus is never
      re-read, and a search picks the delta up automatically because it
      globs the bucket dir.
    - ``remove_ids``: appended to a ``tombstones/`` parquet with the
      PRE-delta generation; removed docs are filtered out of search
      results AND out of the refreshed df/n_docs/avgdl statistics, so
      scores equal a from-scratch build over the live corpus. Postings
      stay on disk (cheap, append-only); a removal-heavy index should
      eventually rebuild (compaction).

    Updating a document = remove_ids + add_ds in ONE call: the
    tombstone is generation-scoped to the pre-existing files, so the
    new postings for the same doc_id survive and the doc carries the
    NEW text (ADVICE r4 — the id-set tombstone silently deleted it).
    Re-adding an id WITHOUT tombstoning its old copy duplicates the
    document (two sentinel rows) — always pass it in ``remove_ids``.

    Returns the refreshed meta. ``remove_ids`` is a driver-side list by
    contract — tombstone sets (benchmark scrubs, takedowns) are small;
    a corpus-scale removal should rebuild the index over the filtered
    corpus instead (one pass, same cost as the refresh would be)."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_buckets, id_col = int(meta["n_buckets"]), meta["id_col"]
    prev_gen = _max_gen(index_dir)

    # tombstones first: they are scoped to generations <= prev_gen, so
    # a crash between the two steps never kills the (unwritten) delta
    if remove_ids is not None and len(remove_ids):
        tdir = os.path.join(index_dir, "tombstones")
        os.makedirs(tdir, exist_ok=True)
        import pyarrow.parquet as pq
        ids = np.asarray(sorted(set(int(i) for i in remove_ids)),
                         dtype=np.int64)
        pq.write_table(
            pa.table({"doc_id": pa.array(ids),
                      "gen": pa.array(np.full(len(ids), prev_gen,
                                              dtype=np.int64))}),
            os.path.join(tdir, f"t{len(os.listdir(tdir))}.parquet"))

    if add_ds is not None:
        tmp = os.path.join(index_dir, "_delta_tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        add_ds.map_batches(_make_extract(text_col, id_col, n_buckets),
                           batch_format="pyarrow") \
            .write_parquet(tmp, partition_cols=["bucket"])
        gen = prev_gen + 1
        for src in glob.glob(os.path.join(tmp, "bucket=*", "*.parquet")):
            bdir = os.path.join(index_dir, os.path.basename(
                os.path.dirname(src)))
            os.makedirs(bdir, exist_ok=True)
            os.replace(src, os.path.join(
                bdir, f"upd{gen}-{os.path.basename(src)}"))
        shutil.rmtree(tmp, ignore_errors=True)

    return _refresh_derived(index_dir, n_buckets, id_col)


def compact_text_index(index_dir: str) -> dict:
    """Fold deltas and drop generation-dead postings: re-read every
    bucket live-filtered and rewrite it as a fresh file set (generation
    0), then clear the tombstone dir. Search results are unchanged
    (equality-tested); disk and per-search read cost shrink to the live
    corpus. Crash-safe per bucket: the old dir is renamed aside
    (``bucket=K.old``) BEFORE the new one is promoted, so every
    intermediate state has a complete bucket under one of the two names
    (readers fall back to ``.old``); interrupted compactions are
    recovered at the start of the next run."""
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)

    # recover any interrupted compaction: promote orphaned .old dirs
    # whose primary is missing, drop stale .old/.compact leftovers
    for d in glob.glob(os.path.join(index_dir, "bucket=*.compact")):
        shutil.rmtree(d, ignore_errors=True)
    for d in glob.glob(os.path.join(index_dir, "bucket=*.old")):
        primary = d[:-len(".old")]
        if os.path.isdir(primary):
            shutil.rmtree(d, ignore_errors=True)
        else:
            os.replace(d, primary)

    tomb = _tombstones(index_dir)
    for bdir in sorted(glob.glob(os.path.join(index_dir, "bucket=*"))):
        paths = sorted(glob.glob(os.path.join(bdir, "*.parquet")))
        if not paths:
            continue
        tmp = bdir + ".compact"
        shutil.rmtree(tmp, ignore_errors=True)
        ds = _read_live(paths, None, tomb).materialize()
        # coalesce: a handful of files per bucket, not one per input
        # block (5M posting rows ≈ 150 MB per output file)
        ds.repartition(max(1, -(-ds.count() // 5_000_000))) \
            .write_parquet(tmp)
        old = bdir + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.replace(bdir, old)
        os.replace(tmp, bdir)
        shutil.rmtree(old, ignore_errors=True)
    shutil.rmtree(os.path.join(index_dir, "tombstones"),
                  ignore_errors=True)
    return _refresh_derived(index_dir, int(meta["n_buckets"]),
                            meta["id_col"])


def text_index_search(index_dir: str, query: str, k: int = 10,
                      k1: float = 1.5, b: float = 0.75) -> pd.DataFrame:
    """BM25 top-k from the persisted index: reads ONLY the buckets the
    query terms hash into plus the tiny df rows for those terms."""
    import duckdb

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    terms = bm25_tokenize(query)
    uniq = sorted(set(terms))
    id_col = meta["id_col"]
    empty = pd.DataFrame({id_col: pd.Series([], dtype=object),
                          "bm25": pd.Series([], dtype=float)})
    if not uniq or meta["n_docs"] == 0 or meta["avgdl"] == 0.0:
        return empty

    # df lookup for the query terms only (tiny predicate-pushdown read)
    df_dir = os.path.join(index_dir, "df")
    df_map = {t: 0 for t in uniq}
    if os.path.isdir(df_dir):
        in_list = ",".join("'" + t.replace("'", "''") + "'" for t in uniq)
        got = duckdb.sql(
            f"SELECT term, df FROM '{df_dir}/*.parquet' "
            f"WHERE term IN ({in_list})").fetchdf()
        df_map.update(dict(zip(got["term"], got["df"].astype(int))))

    n_docs, avgdl = meta["n_docs"], meta["avgdl"]
    idf = {t: float(np.log((n_docs - df_map[t] + 0.5)
                           / (df_map[t] + 0.5) + 1.0)) for t in uniq}

    buckets = sorted({int(bkt) for bkt in
                      _term_bucket(np.asarray(uniq, dtype=object),
                                   meta["n_buckets"])})
    paths = _paths_for_buckets(index_dir, buckets)
    if not paths:
        return empty
    post = _read_live(paths, ["term", "doc_id", "tf", "dl"],
                      _tombstones(index_dir))

    term_arr = pa.array(uniq, type=pa.string())
    # per-term weight = idf × query multiplicity (dup query terms score ×n)
    weights = np.array([idf[t] * terms.count(t) for t in uniq])

    def score(t: pa.Table) -> pa.Table:
        col = t["term"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.index_in(col, value_set=term_arr)
        keep = pc.is_valid(codes)
        t = t.filter(keep)
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64())})
        c = codes.filter(keep).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = weights[c] * tf * (k1 + 1.0) / (tf + norm)
        return pa.table({"doc_id": t["doc_id"],
                         "s": pa.array(s, type=pa.float64())})

    scored = aggregate(post.map_batches(score, batch_format="pyarrow"),
                       ["doc_id"], bm25=("sum", "s")).to_pandas()
    if scored.empty:
        return empty
    scored = scored[scored["bm25"] > 0.0]
    out = scored.rename(columns={"doc_id": id_col}) \
        .sort_values(["bm25", id_col], ascending=[False, True],
                     kind="mergesort").head(k).reset_index(drop=True)
    return out[[id_col, "bm25"]]


def text_index_phrase_search(index_dir: str, phrase: str, docs_ds,
                             text_col: str = "text",
                             broadcast_max: int = 20_000_000):
    """Exact-phrase search served BY the index without positional
    postings: the index prunes (boolean AND — only docs containing
    EVERY phrase term, read from the probed buckets alone), then a
    verification pass re-reads just the candidate docs and counts
    adjacent occurrences vectorized over the dictionary-encoded token
    stream. The classic candidate-then-verify trade: postings stay
    position-free (¼ the size), and the verify scan is bounded by the
    rarest term's document frequency, not the corpus.

    ``docs_ds`` must be the LIVE corpus the index currently reflects
    (updated docs carry their new text; the id column named as at build
    time). Returns (id, n_occ) for docs with >= 1 occurrence."""
    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    terms = bm25_tokenize(phrase)
    uniq = sorted(set(terms))
    if not terms:
        raise ValueError("empty phrase")

    buckets = sorted({int(b) for b in
                      _term_bucket(np.asarray(uniq, dtype=object),
                                   meta["n_buckets"])})
    paths = _paths_for_buckets(index_dir, buckets)
    empty = pa.table({id_col: pa.array([], type=pa.int64()),
                      "n_occ": pa.array([], type=pa.int64())})
    if not paths:
        return rd.from_arrow(empty)

    term_arr = pa.array(uniq, type=pa.string())

    def hit_rows(t: pa.Table) -> pa.Table:
        keep = pc.is_valid(pc.index_in(t["term"], value_set=term_arr))
        return t.filter(keep).select(["doc_id", "term"])

    hits = aggregate(_read_live(paths, ["term", "doc_id"],
                                _tombstones(index_dir))
                     .map_batches(hit_rows, batch_format="pyarrow"),
                     ["doc_id"], nt=("count", None))
    cand = np.sort(np.concatenate(
        [t.filter(pc.equal(t["nt"], len(uniq)))["doc_id"]
         .to_numpy(zero_copy_only=False).astype(np.int64)
         for t in hits.iter_batches(batch_format="pyarrow")]
        or [np.empty(0, dtype=np.int64)]))
    if not len(cand):
        return rd.from_arrow(empty)
    if len(cand) > broadcast_max:
        # candidate count = docs containing EVERY phrase term, bounded
        # by the rarest term's df — a phrase of only stopword-common
        # terms can approach the corpus size, and then the broadcast
        # array (not the verify scan) becomes the limit
        raise RuntimeError(
            f"phrase candidate set too large to broadcast "
            f"({len(cand)} > {broadcast_max}); the phrase has no rare "
            f"anchor term — add one, or raise broadcast_max")
    cand_ref = ray.put(cand)

    def verify(t: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        j = np.clip(np.searchsorted(cs, ids), 0, len(cs) - 1)
        t = t.filter(pa.array(cs[j] == ids))
        if t.num_rows == 0:
            return empty
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(
                pc.utf8_lower(pc.fill_null(col, ""))))
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        row_len = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dict_arr = lists.flatten().dictionary_encode()
        codes = dict_arr.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vocab = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)
        tcodes = []
        for w in terms:
            hit = np.flatnonzero(vocab == w)
            tcodes.append(int(hit[0]) if hit.size else -1)
        parent = np.repeat(np.arange(t.num_rows), row_len)
        n, L = len(codes), len(terms)
        if -1 in tcodes or n < L:
            occ = np.zeros(t.num_rows, dtype=np.int64)
        else:
            m = codes[:n - L + 1] == tcodes[0]
            for off in range(1, L):
                m &= codes[off:n - L + 1 + off] == tcodes[off]
            # the whole window must sit inside ONE doc
            m &= parent[:n - L + 1] == parent[L - 1:]
            occ = np.bincount(parent[:n - L + 1][m],
                              minlength=t.num_rows).astype(np.int64)
        keep = occ > 0
        return pa.table({
            id_col: pa.array(
                t[id_col].to_numpy(zero_copy_only=False)[keep]),
            "n_occ": pa.array(occ[keep], type=pa.int64())})

    return docs_ds.map_batches(verify, batch_format="pyarrow")
