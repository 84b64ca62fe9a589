"""Persisted MinHash-LSH near-dup index — the NEAR-dup twin of
stages/dedup_index.py, completing the incremental corpus-ingestion
story (beyond the reference, whose shingle dedup is single-run:
prompture/extras/dedup.py): a crawl wave is checked for near-duplicates
against everything ingested before it WITHOUT re-reading or re-banding
the old corpus.

Layout (all bucket-partitioned parquet; deltas are ``updG-`` files in
the same bucket dirs, the text_index/dedup_index generation scheme):

    index_dir/meta.json            {n_perm, n_bands, shingle_k,
                                    normalize, n_buckets, id_col, n_docs}
    index_dir/sigs/bucket=K/...    (id int64, sig binary n_perm×8B)
                                   K = id mod n_buckets
    index_dir/bands/bucket=K/...   (ckey int64, id int64)
                                   ckey = mix(band, band_key),
                                   K = ckey mod n_buckets

Build = ONE corpus text pass (signatures written first, band keys then
derived FROM the stored signatures — the text is never re-shingled).

Lookup (``minhash_index_flags``) is zero-shuffle: the driver
``ray.put``s each band bucket's sorted (ckey, id) arrays and each sig
bucket's (sorted id, sig matrix) ONCE (one object-store copy per node,
zero-copy views in every task); each wave batch computes its own
signatures + band keys, searchsorts candidate id ranges, gathers the
candidates' stored signatures, and verifies by exact permutation
agreement ≥ threshold — bit-identical semantics to the in-run
minhash_candidate_pairs verify (same MinHasher, same band keys, same
agreement fraction). Broadcast cost is the index itself
(n_docs × (n_perm·8 + n_bands·16) bytes ≈ 1.25 KB/doc at 128/16) —
fine to ~10^7 docs/10 GB of aggregate object store. Beyond that,
``minhash_index_flags_partitioned`` is the implemented disk path:
only wave-derived rows shuffle, each partition task reads just its
band/sig bucket files — holds for indexes of any size
(equality-tested against the broadcast form).

Same probabilistic contract as the in-run path: identical texts give
identical signatures (guaranteed candidate + agreement 1.0); candidate
recall for borderline pairs follows the (n_perm, n_bands) S-curve.
Oversized band buckets truncate candidate ranges at ``max_bucket``
(counted, surfaced in the output's ``truncated`` column).
"""
from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa

from prompture_ray.functions.sketches import MinHasher
from prompture_ray.stages.dedup import (DEFAULT_SHINGLE_K,
                                        _combine_bucket_keys,
                                        char_shingle_hashes_batch)
from prompture_ray.functions.textfuncs import normalize_strings


def read_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "meta.json")) as f:
        return json.load(f)


def _write_meta(index_dir: str, meta: dict):
    tmp = os.path.join(index_dir, "meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(index_dir, "meta.json"))


def _bucket_files(root: str, k: int) -> list:
    return sorted(glob.glob(os.path.join(root, f"bucket={k}",
                                         "*.parquet")))


def _sig_fn(text_col: str, id_col: str, n_perm: int, shingle_k: int,
            normalize: bool):
    """Wave/corpus batch → (id, sig bytes) rows; empty-shingle docs are
    dropped (no signature — same contract as MinHashStage)."""
    mh = MinHasher(n_perm=n_perm)

    def fn(t: pa.Table) -> pa.Table:
        from prompture_ray.functions import limit_arrow_threads
        limit_arrow_threads(1)
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if normalize:
            arr = normalize_strings(arr)
        sh = char_shingle_hashes_batch(arr.to_pylist(), shingle_k)
        keep = [i for i, s in enumerate(sh) if s.size > 0]
        if not keep:
            return pa.table({"id": pa.array([], type=pa.int64()),
                             "sig": pa.array([], type=pa.binary())})
        sigs = mh.signatures([sh[i] for i in keep])
        ids = t[id_col].take(pa.array(keep, type=pa.int64()))
        return pa.table({
            "id": ids.cast(pa.int64()) if ids.type != pa.int64() else ids,
            "sig": pa.array([sigs[r].astype(np.int64).tobytes()
                             for r in range(len(keep))],
                            type=pa.binary())})

    return fn


def _band_fn(n_perm: int, n_bands: int, n_buckets: int):
    """(id, sig) rows → (bucket, ckey, id) band rows derived from the
    STORED signatures (no re-shingle)."""
    mh = MinHasher(n_perm=n_perm)

    def fn(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False)
        if not len(ids):
            return pa.table({"bucket": pa.array([], type=pa.int32()),
                             "ckey": pa.array([], type=pa.int64()),
                             "id": pa.array([], type=pa.int64())})
        sigs = np.stack([np.frombuffer(b, dtype=np.uint64)
                         for b in t["sig"].to_pylist()])
        keys = mh.band_keys_batch(sigs, n_bands)          # (n, bands)
        ckey = _combine_bucket_keys(
            np.tile(np.arange(n_bands, dtype=np.int64), len(ids)),
            keys.ravel().astype(np.int64))
        return pa.table({
            "bucket": pa.array((ckey.astype(np.uint64)
                                % np.uint64(n_buckets)).astype(np.int32)),
            "ckey": pa.array(ckey, type=pa.int64()),
            "id": pa.array(np.repeat(ids, n_bands), type=pa.int64())})

    return fn


def _move_partition(tmp: str, dest_root: str, prefix: str = ""):
    for src in glob.glob(os.path.join(tmp, "bucket=*", "*.parquet")):
        bdir = os.path.join(dest_root,
                            os.path.basename(os.path.dirname(src)))
        os.makedirs(bdir, exist_ok=True)
        os.replace(src, os.path.join(
            bdir, prefix + os.path.basename(src)))
    shutil.rmtree(tmp, ignore_errors=True)


def _write_wave(index_dir: str, ds, meta: dict, prefix: str):
    """One text pass: sig rows → sigs/ buckets; band rows derived from
    the just-written sig files → bands/ buckets."""
    n_buckets = int(meta["n_buckets"])
    sfn = _sig_fn(meta["text_col"], meta["id_col"], int(meta["n_perm"]),
                  int(meta["shingle_k"]), bool(meta["normalize"]))

    def tag_sig(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array((ids.astype(np.uint64)
                                % np.uint64(n_buckets)).astype(np.int32)))

    tmp = os.path.join(index_dir, "_sig_tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.map_batches(sfn, batch_format="pyarrow") \
        .map_batches(tag_sig, batch_format="pyarrow") \
        .write_parquet(tmp, partition_cols=["bucket"])
    new_sig_files = glob.glob(os.path.join(tmp, "bucket=*", "*.parquet"))
    _move_partition(tmp, os.path.join(index_dir, "sigs"), prefix)
    if new_sig_files:
        import ray.data as rd
        moved = [os.path.join(
            index_dir, "sigs", os.path.basename(os.path.dirname(p)),
            prefix + os.path.basename(p)) for p in new_sig_files]
        bands_src = rd.read_parquet(moved)
        tmp2 = os.path.join(index_dir, "_band_tmp")
        shutil.rmtree(tmp2, ignore_errors=True)
        bands_src.map_batches(
            _band_fn(int(meta["n_perm"]), int(meta["n_bands"]),
                     n_buckets),
            batch_format="pyarrow") \
            .write_parquet(tmp2, partition_cols=["bucket"])
        _move_partition(tmp2, os.path.join(index_dir, "bands"), prefix)


def _count_docs(index_dir: str, n_buckets: int) -> int:
    import pyarrow.parquet as pq
    n = 0
    for k in range(n_buckets):
        for p in _bucket_files(os.path.join(index_dir, "sigs"), k):
            n += pq.ParquetFile(p).metadata.num_rows
    return n


def build_minhash_index(ds, text_col: str, id_col: str, index_dir: str,
                        n_perm: int = 128, n_bands: int = 16,
                        shingle_k: int = DEFAULT_SHINGLE_K,
                        normalize: bool = True, n_buckets: int = 32,
                        overwrite: bool = False) -> dict:
    if os.path.exists(os.path.join(index_dir, "meta.json")):
        if not overwrite:
            raise FileExistsError(
                f"minhash index already exists at {index_dir}; pass "
                "overwrite=True to rebuild")
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    meta = {"n_perm": n_perm, "n_bands": n_bands,
            "shingle_k": shingle_k, "normalize": normalize,
            "n_buckets": n_buckets, "text_col": text_col,
            "id_col": id_col}
    _write_wave(index_dir, ds, meta, prefix="")
    meta["n_docs"] = _count_docs(index_dir, n_buckets)
    _write_meta(index_dir, meta)
    return meta


def update_minhash_index(index_dir: str, add_ds) -> dict:
    """Append a wave's signatures + band rows as delta files; the old
    corpus is never re-read. Ids must be new (a re-added id would
    duplicate candidates — dedup ingestion always adds post-filter)."""
    meta = read_meta(index_dir)
    gens = [int(os.path.basename(p).split("-")[0][3:])
            for p in glob.glob(os.path.join(index_dir, "*", "bucket=*",
                                            "upd*-*.parquet"))]
    gen = (max(gens) + 1) if gens else 1
    _write_wave(index_dir, add_ds, meta, prefix=f"upd{gen}-")
    meta["n_docs"] = _count_docs(index_dir, int(meta["n_buckets"]))
    _write_meta(index_dir, meta)
    return meta


def _load_refs(index_dir: str, meta: dict):
    """Per-bucket broadcast arrays: bands → (sorted ckey, aligned id);
    sigs → (sorted id, sig uint64 matrix)."""
    import pyarrow.parquet as pq
    import ray
    n_buckets = int(meta["n_buckets"])
    n_perm = int(meta["n_perm"])
    band_refs, sig_refs = [], []
    for k in range(n_buckets):
        paths = _bucket_files(os.path.join(index_dir, "bands"), k)
        if paths:
            t = pa.concat_tables([pq.read_table(
                p, columns=["ckey", "id"]) for p in paths])
            ck = t.column("ckey").to_numpy(zero_copy_only=False)
            ids = t.column("id").to_numpy(zero_copy_only=False)
            order = np.argsort(ck, kind="stable")
            band_refs.append(ray.put((ck[order], ids[order])))
        else:
            band_refs.append(ray.put((np.empty(0, np.int64),
                                      np.empty(0, np.int64))))
        spaths = _bucket_files(os.path.join(index_dir, "sigs"), k)
        if spaths:
            t = pa.concat_tables([pq.read_table(
                p, columns=["id", "sig"]) for p in spaths])
            ids = t.column("id").to_numpy(zero_copy_only=False)
            mat = np.stack([np.frombuffer(b, dtype=np.uint64)
                            for b in t.column("sig").to_pylist()]) \
                if len(ids) else np.empty((0, n_perm), np.uint64)
            order = np.argsort(ids, kind="stable")
            sig_refs.append(ray.put((ids[order], mat[order])))
        else:
            sig_refs.append(ray.put((np.empty(0, np.int64),
                                     np.empty((0, n_perm), np.uint64))))
    return band_refs, sig_refs


def minhash_index_flags(ds, index_dir: str, threshold: float = 0.8,
                        flag_col: str = "is_dup",
                        max_bucket: int = 200):
    """Flag each wave row as a near-dup of the indexed corpus (exact
    permutation-agreement verify, est ≥ threshold). Appends:
    ``flag_col`` (bool), ``match_id`` (best-agreement indexed id, -1 if
    none), ``est_jaccard`` (best agreement, 0.0 if none), ``truncated``
    (candidate ranges clipped at max_bucket — recall caveat marker).
    Docs too short to shingle get flag false / match -1 (no signature
    to judge with — same contract as the in-run path, which drops
    them from banding)."""
    import ray

    meta = read_meta(index_dir)
    n_perm, n_bands = int(meta["n_perm"]), int(meta["n_bands"])
    n_buckets = int(meta["n_buckets"])
    band_refs, sig_refs = _load_refs(index_dir, meta)
    mh = MinHasher(n_perm=n_perm)
    text_col, id_col = meta["text_col"], meta["id_col"]
    shingle_k, normalize = int(meta["shingle_k"]), bool(meta["normalize"])

    def fn(t: pa.Table) -> pa.Table:
        from prompture_ray.functions import limit_arrow_threads
        limit_arrow_threads(1)
        n_rows = t.num_rows
        flag = np.zeros(n_rows, dtype=bool)
        match = np.full(n_rows, -1, dtype=np.int64)
        best = np.zeros(n_rows, dtype=np.float64)
        trunc = np.zeros(n_rows, dtype=bool)

        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if normalize:
            arr = normalize_strings(arr)
        sh = char_shingle_hashes_batch(arr.to_pylist(), shingle_k)
        keep = [i for i, s in enumerate(sh) if s.size > 0]
        if keep:
            sigs = mh.signatures([sh[i] for i in keep])
            keys = mh.band_keys_batch(sigs, n_bands)
            ckey = _combine_bucket_keys(
                np.tile(np.arange(n_bands, dtype=np.int64), len(keep)),
                keys.ravel().astype(np.int64))
            wrow = np.repeat(np.asarray(keep, dtype=np.int64), n_bands)
            buck = (ckey.astype(np.uint64) % np.uint64(n_buckets)) \
                .astype(np.int64)

            cand_r, cand_i = [], []
            for k in np.unique(buck):
                cks, cids = ray.get(band_refs[int(k)])
                if not len(cks):
                    continue
                m = buck == k
                lo = np.searchsorted(cks, ckey[m], side="left")
                hi = np.searchsorted(cks, ckey[m], side="right")
                cnt = hi - lo
                over = cnt > max_bucket
                if over.any():
                    trunc[wrow[m][over]] = True
                    cnt = np.minimum(cnt, max_bucket)
                tot = int(cnt.sum())
                if not tot:
                    continue
                # vectorized ranges-gather: index j of output maps to
                # lo[src] + (j - start[src])
                src = np.repeat(np.arange(len(cnt)), cnt)
                start = np.repeat(np.cumsum(cnt) - cnt, cnt)
                idx = lo[src] + (np.arange(tot) - start)
                cand_r.append(wrow[m][src])
                cand_i.append(cids[idx])

            if cand_r:
                rows = np.concatenate(cand_r)
                cids = np.concatenate(cand_i)
                # dedupe (row, cand) hit in several bands
                combo = _combine_bucket_keys(rows, cids)
                _, uidx = np.unique(combo, return_index=True)
                rows, cids = rows[uidx], cids[uidx]
                # map batch row → signature row
                sig_of_row = np.full(n_rows, -1, dtype=np.int64)
                sig_of_row[np.asarray(keep, dtype=np.int64)] = \
                    np.arange(len(keep))
                sbuck = (cids.astype(np.uint64) % np.uint64(n_buckets)) \
                    .astype(np.int64)
                for k in np.unique(sbuck):
                    s_ids, s_mat = ray.get(sig_refs[int(k)])
                    if not len(s_ids):
                        continue
                    m = sbuck == k
                    pos = np.searchsorted(s_ids, cids[m])
                    pos[pos == len(s_ids)] = 0
                    ok = s_ids[pos] == cids[m]
                    if not ok.any():
                        continue
                    r = rows[m][ok]
                    agree = (sigs[sig_of_row[r]]
                             == s_mat[pos[ok]]).mean(axis=1)
                    cand_ids_k = cids[m][ok]
                    hit = agree >= threshold
                    if not hit.any():
                        continue
                    # best-match fold (ties → smallest id): sort by
                    # (row, -agree, id) and keep first per row
                    hr, ha, hi_ = r[hit], agree[hit], cand_ids_k[hit]
                    order = np.lexsort((hi_, -ha, hr))
                    hr, ha, hi_ = hr[order], ha[order], hi_[order]
                    firsts = np.flatnonzero(
                        np.r_[True, hr[1:] != hr[:-1]])
                    for j in firsts:
                        rj = hr[j]
                        if (not flag[rj]) or (ha[j] > best[rj]) or \
                                (ha[j] == best[rj]
                                 and hi_[j] < match[rj]):
                            flag[rj] = True
                            best[rj] = ha[j]
                            match[rj] = hi_[j]

        out = t.append_column(flag_col, pa.array(flag))
        out = out.append_column("match_id",
                                pa.array(match, type=pa.int64()))
        out = out.append_column("est_jaccard",
                                pa.array(best, type=pa.float64()))
        return out.append_column("truncated", pa.array(trunc))

    return ds.map_batches(fn, batch_format="pyarrow")


def compact_minhash_index(index_dir: str) -> dict:
    """Fold delta files into one file per bucket (sigs and bands).
    Rows are already distinct by the update contract (ids must be
    new), so compaction is a pure concat-rewrite. Crash-safe via the
    rename-aside pattern: the old dir is moved aside BEFORE the new
    one is promoted, so every intermediate state has a complete bucket
    on disk under either name."""
    import pyarrow.parquet as pq

    meta = read_meta(index_dir)
    n_buckets = int(meta["n_buckets"])
    for sub in ("sigs", "bands"):
        root = os.path.join(index_dir, sub)
        for k in range(n_buckets):
            paths = _bucket_files(root, k)
            if len(paths) <= 1:
                continue
            bdir = os.path.join(root, f"bucket={k}")
            allt = pa.concat_tables([pq.read_table(p) for p in paths],
                                    promote_options="default")
            tmp = bdir + ".compact"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            pq.write_table(allt, os.path.join(tmp, "part-0.parquet"))
            old = bdir + ".old"
            shutil.rmtree(old, ignore_errors=True)
            os.replace(bdir, old)
            os.replace(tmp, bdir)
            shutil.rmtree(old)
    meta["n_docs"] = _count_docs(index_dir, n_buckets)
    _write_meta(index_dir, meta)
    return meta


def minhash_index_flags_partitioned(ds, index_dir: str,
                                    threshold: float = 0.8,
                                    flag_col: str = "is_dup",
                                    max_bucket: int = 200,
                                    n_parts: int = 32):
    """Disk-partitioned lookup — the beyond-object-store path (the
    dedup_index `_dedup_partitioned` precedent, two-level because the
    index has bands AND sigs):

    1. wave signatures once (narrow (id, sig) rows, materialized);
    2. wave band rows (bucket, ckey, id) — ONE narrow shuffle by band
       bucket; each partition task reads only ITS bucket's (ckey, id)
       files from disk and emits candidate (wave_id, cand_id) pairs
       (ranges clipped at max_bucket, like the broadcast path);
    3. distinct candidates joined back to the wave sigs (hash-bucketed
       equi-join on wave_id), then ONE shuffle by candidate sig bucket;
       each partition task reads only its sig files and verifies by
       exact permutation agreement;
    4. per-wave-row best-match fold (grouped aggregate), joined onto
       the wave rows as the same output columns as
       ``minhash_index_flags`` minus ``truncated`` per-row detail
       (truncation is still applied, the marker column is always
       False on this path — the per-row attribution needs the
       broadcast form).

    Nothing index-sized is ever broadcast or shuffled — only wave-
    derived rows move. Equality-tested against the broadcast path in
    tests/test_minhash_index.py."""
    import pandas as pd
    import pyarrow.parquet as pq

    meta = read_meta(index_dir)
    n_perm, n_bands = int(meta["n_perm"]), int(meta["n_bands"])
    n_buckets = int(meta["n_buckets"])
    text_col, id_col = meta["text_col"], meta["id_col"]
    sfn = _sig_fn(text_col, id_col, n_perm, int(meta["shingle_k"]),
                  bool(meta["normalize"]))

    wave_sigs = ds.map_batches(sfn, batch_format="pyarrow") \
        .materialize()
    band_rows = wave_sigs.map_batches(
        _band_fn(n_perm, n_bands, n_buckets), batch_format="pyarrow")

    def bucket_cands(g: pa.Table) -> pa.Table:
        empty = pa.table({"wave_id": pa.array([], type=pa.int64()),
                          "cand_id": pa.array([], type=pa.int64())})
        if not g.num_rows:
            return empty
        k = int(g.column("bucket")[0].as_py())
        paths = _bucket_files(os.path.join(index_dir, "bands"), k)
        if not paths:
            return empty
        t = pa.concat_tables([pq.read_table(p, columns=["ckey", "id"])
                              for p in paths])
        cks = t.column("ckey").to_numpy(zero_copy_only=False)
        cids = t.column("id").to_numpy(zero_copy_only=False)
        order = np.argsort(cks, kind="stable")
        cks, cids = cks[order], cids[order]
        wk = g.column("ckey").to_numpy(zero_copy_only=False)
        wid = g.column("id").to_numpy(zero_copy_only=False)
        lo = np.searchsorted(cks, wk, side="left")
        hi = np.searchsorted(cks, wk, side="right")
        cnt = np.minimum(hi - lo, max_bucket)
        tot = int(cnt.sum())
        if not tot:
            return empty
        src = np.repeat(np.arange(len(cnt)), cnt)
        start = np.repeat(np.cumsum(cnt) - cnt, cnt)
        idx = lo[src] + (np.arange(tot) - start)
        return pa.table({
            "wave_id": pa.array(wid[src], type=pa.int64()),
            "cand_id": pa.array(cids[idx], type=pa.int64())})

    # stays a Ray map_groups: each call opens the files of the one
    # on-disk bucket it was called for
    cands = band_rows.groupby("bucket") \
        .map_groups(bucket_cands, batch_format="pyarrow")

    def distinct_pairs(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            return g
        w = g.column("wave_id").to_numpy(zero_copy_only=False)
        c = g.column("cand_id").to_numpy(zero_copy_only=False)
        combo = _combine_bucket_keys(w, c)
        _, uidx = np.unique(combo, return_index=True)
        return pa.table({"wave_id": pa.array(w[uidx], type=pa.int64()),
                         "cand_id": pa.array(c[uidx], type=pa.int64())})

    from prompture_ray.stages.shuffle import join, partition_fold

    # wave-id fold distinct, then join wave sigs on
    cand_d = partition_fold(cands, ["wave_id"], distinct_pairs,
                            n_parts=n_parts,
                            batch_format="pyarrow").materialize()
    paired = join(
        cand_d, wave_sigs.map_batches(
            lambda t: t.rename_columns(["wave_id", "wave_sig"]),
            batch_format="pyarrow"),
        "wave_id", n_buckets=max(8, n_parts // 2))

    def tag_sigbucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_sb"] = (b["cand_id"].to_numpy().astype(np.uint64)
                    % np.uint64(n_buckets)).astype(np.int64)
        return b

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"wave_id": pd.Series([], dtype="int64"),
                              "agree": pd.Series([], dtype="float64"),
                              "cand_id": pd.Series([], dtype="int64")})
        if not len(g):
            return empty
        k = int(g["_sb"].iloc[0])
        paths = _bucket_files(os.path.join(index_dir, "sigs"), k)
        if not paths:
            return empty
        t = pa.concat_tables([pq.read_table(p, columns=["id", "sig"])
                              for p in paths])
        s_ids = t.column("id").to_numpy(zero_copy_only=False)
        order = np.argsort(s_ids, kind="stable")
        s_ids = s_ids[order]
        s_mat = np.stack([np.frombuffer(b, dtype=np.uint64)
                          for b in t.column("sig").to_pylist()])[order]
        cids = g["cand_id"].to_numpy().astype(np.int64)
        pos = np.searchsorted(s_ids, cids)
        pos[pos == len(s_ids)] = 0
        ok = s_ids[pos] == cids
        if not ok.any():
            return empty
        wmat = np.stack([np.frombuffer(b, dtype=np.uint64)
                         for b in g["wave_sig"].to_numpy()[ok]])
        agree = (wmat == s_mat[pos[ok]]).mean(axis=1)
        hit = agree >= threshold
        return pd.DataFrame({
            "wave_id": g["wave_id"].to_numpy()[ok][hit]
            .astype(np.int64),
            "agree": agree[hit],
            "cand_id": cids[ok][hit]})

    # stays a Ray map_groups: each call opens the files of the one
    # on-disk signature bucket it was called for
    hits = paired.map_batches(tag_sigbucket, batch_format="pandas") \
        .groupby("_sb").map_groups(verify, batch_format="pandas") \
        .materialize()

    # best match per wave id: max agreement, ties -> smallest cand id
    def best_fold(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "wave_id": pd.Series([], dtype="int64"),
                "est_jaccard": pd.Series([], dtype="float64"),
                "match_id": pd.Series([], dtype="int64")})
        g = g.sort_values(["wave_id", "agree", "cand_id"],
                          ascending=[True, False, True],
                          kind="mergesort")
        f = g.groupby("wave_id", sort=False).head(1)
        return pd.DataFrame({
            "wave_id": f["wave_id"].to_numpy().astype(np.int64),
            "est_jaccard": f["agree"].to_numpy(),
            "match_id": f["cand_id"].to_numpy().astype(np.int64)})

    best = partition_fold(hits, ["wave_id"], best_fold,
                          n_parts=n_parts).materialize()

    # broadcast the (small) hit fold onto the wave rows — hits are
    # bounded by the wave size, not the corpus
    import ray
    parts = [(t["wave_id"].to_numpy(zero_copy_only=False),
              t["est_jaccard"].to_numpy(zero_copy_only=False),
              t["match_id"].to_numpy(zero_copy_only=False))
             for t in best.iter_batches(batch_format="pyarrow")]
    if parts:
        w_all = np.concatenate([p[0] for p in parts])
        e_all = np.concatenate([p[1] for p in parts])
        m_all = np.concatenate([p[2] for p in parts])
        order = np.argsort(w_all)
        ref = ray.put((w_all[order], e_all[order], m_all[order]))
    else:
        ref = ray.put((np.empty(0, np.int64), np.empty(0, np.float64),
                       np.empty(0, np.int64)))

    def attach(t: pa.Table) -> pa.Table:
        ws, es, ms = ray.get(ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        flag = np.zeros(len(ids), dtype=bool)
        est = np.zeros(len(ids), dtype=np.float64)
        mid = np.full(len(ids), -1, dtype=np.int64)
        if len(ws) and len(ids):
            pos = np.searchsorted(ws, ids)
            pos[pos == len(ws)] = 0
            okm = ws[pos] == ids
            flag[okm] = True
            est[okm] = es[pos[okm]]
            mid[okm] = ms[pos[okm]]
        out = t.append_column(flag_col, pa.array(flag))
        out = out.append_column("match_id",
                                pa.array(mid, type=pa.int64()))
        out = out.append_column("est_jaccard",
                                pa.array(est, type=pa.float64()))
        return out.append_column(
            "truncated", pa.array(np.zeros(len(ids), dtype=bool)))

    return ds.map_batches(attach, batch_format="pyarrow")
