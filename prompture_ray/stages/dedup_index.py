"""Persisted exact-dedup hash index — incremental corpus-ingestion
dedup (beyond the reference, whose dedup helpers are single-run:
prompture/extras/dedup.py normalizes+hashes within one batch only).

The 100-TB ingestion story: a crawl arrives in waves; each wave must
drop documents whose (exact) text already exists in everything
ingested before it, WITHOUT re-reading the old corpus. The index is a
content-hash set persisted as bucket-partitioned parquet:

    index_dir/meta.json                 {n_buckets, col, n_hashes}
    index_dir/bucket=K/*.parquet        (content_hash int64) rows
    index_dir/bucket=K/updG-*.parquet   delta generations (appends)

- ``build_dedup_index``: ONE ``shuffle.aggregate`` of 8-byte hashes
  (distinct + intra-corpus dup count as a bonus stat); text never
  shuffles.
- ``dedup_against_index``: zero-shuffle membership filter — the driver
  ``ray.put``s each bucket's sorted hash array ONCE (object-store
  copy per node, zero-copy numpy views in every task); each batch
  searchsorts only the buckets it touches. For indexes beyond
  aggregate object-store memory, partition the incoming wave by
  bucket first and read per-bucket files inside the group task (the
  text-index pattern); the broadcast path covers indexes to ~10^9
  hashes (8 GB/node).
- ``update_dedup_index``: hashes of the kept wave are appended as
  delta files into the existing bucket dirs (old corpus never
  re-read) — readers glob the bucket dir so deltas are picked up
  automatically.
- ``compact_dedup_index``: per-bucket distinct rewrite, crash-safe via
  rename-aside (every intermediate state has a complete bucket under
  either name — the ADVICE r4 compaction contract).

Collision note: membership is 64-bit-hash equality; at 10^9 docs the
expected false-drop count is n²/2^65 ≈ 0.03 documents. The oracle
checks TEXT-set semantics, which agree unless a collision occurs.
"""
from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.shuffle import aggregate


def _content_hashes(t: pa.Table, col: str) -> np.ndarray:
    """int64 hash of the raw text (null → '') — one scheme everywhere
    in this module; vectorized, no normalization (EXACT dedup)."""
    arr = t[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    vals = np.asarray(pc.fill_null(arr, "").to_pylist(), dtype=object)
    if not len(vals):
        return np.empty(0, dtype=np.int64)
    return hash64(vals).astype(np.int64)


def _bucket_of(h: np.ndarray, n_buckets: int) -> np.ndarray:
    return (h.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int32)


def _write_meta(index_dir: str, meta: dict):
    tmp = os.path.join(index_dir, "meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(index_dir, "meta.json"))


def read_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "meta.json")) as f:
        return json.load(f)


def _bucket_files(index_dir: str, k: int) -> list:
    return sorted(glob.glob(
        os.path.join(index_dir, f"bucket={k}", "*.parquet")))


def _count_hashes(index_dir: str, n_buckets: int) -> int:
    import pyarrow.parquet as pq
    n = 0
    for k in range(n_buckets):
        for p in _bucket_files(index_dir, k):
            n += pq.ParquetFile(p).metadata.num_rows
    return n


def build_dedup_index(ds, col: str, index_dir: str,
                      n_buckets: int = 64,
                      overwrite: bool = False) -> dict:
    """One pass: distinct content hashes (+ intra-corpus dup counts)
    bucket-partitioned under ``index_dir``. Returns the meta dict."""
    if os.path.exists(os.path.join(index_dir, "meta.json")):
        if not overwrite:
            raise FileExistsError(
                f"dedup index already exists at {index_dir}; pass "
                "overwrite=True to rebuild")
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)

    def hash_rows(t: pa.Table) -> pa.Table:
        h = _content_hashes(t, col)
        return pa.table({"content_hash": pa.array(h, type=pa.int64())})

    distinct = aggregate(ds.map_batches(hash_rows, batch_format="pyarrow"),
                         ["content_hash"], n_dups=("count", None))

    def tag(t: pa.Table) -> pa.Table:
        h = t["content_hash"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(_bucket_of(h, n_buckets)))

    distinct.map_batches(tag, batch_format="pyarrow") \
        .write_parquet(index_dir, partition_cols=["bucket"])
    meta = {"n_buckets": n_buckets, "col": col,
            "n_hashes": _count_hashes(index_dir, n_buckets)}
    _write_meta(index_dir, meta)
    return meta


def _bucket_hash_refs(index_dir: str, n_buckets: int) -> list:
    """Sorted per-bucket hash arrays → list of ObjectRefs (one
    object-store copy per node; tasks get zero-copy views)."""
    import pyarrow.parquet as pq
    import ray
    refs = []
    for k in range(n_buckets):
        paths = _bucket_files(index_dir, k)
        if paths:
            arrs = [pq.read_table(p, columns=["content_hash"])
                    .column("content_hash").to_numpy(zero_copy_only=False)
                    for p in paths]
            h = np.unique(np.concatenate(arrs))
        else:
            h = np.empty(0, dtype=np.int64)
        refs.append(ray.put(h))
    return refs


def dedup_against_index(ds, index_dir: str, col: str | None = None,
                        flag_col: str | None = None,
                        broadcast_max: int = 1_000_000_000):
    """Filter rows whose content hash is present in the index (keep
    the complement). With ``flag_col`` set, keep ALL rows and append a
    boolean "is new" column instead (audit mode, dedup_exact parity).

    Size-aware dispatch: up to ``broadcast_max`` indexed hashes (8 GB
    of object store at the default — an ~10^9-doc corpus) the lookup
    is ZERO-shuffle, a per-batch searchsorted against broadcast
    per-bucket sorted hash arrays. Beyond that, the wave is
    hash-partitioned by index bucket (ONE wave shuffle) and each
    partition task reads ONLY its bucket's parquet files from the
    index — nothing index-sized ever leaves disk except the touched
    buckets, so the path holds for indexes of any size. The two paths
    are equality-tested via ``broadcast_max=0`` in
    tests/test_dedup_index.py."""
    import ray

    meta = read_meta(index_dir)
    n_buckets = int(meta["n_buckets"])
    col = col or meta["col"]
    if int(meta.get("n_hashes", 0)) > broadcast_max:
        return _dedup_partitioned(ds, index_dir, col, flag_col,
                                  n_buckets)
    refs = _bucket_hash_refs(index_dir, n_buckets)

    def filter_batch(t: pa.Table) -> pa.Table:
        h = _content_hashes(t, col)
        if not len(h):
            return t if flag_col is None else t.append_column(
                flag_col, pa.array(np.empty(0, dtype=bool)))
        b = _bucket_of(h, n_buckets)
        seen = np.zeros(len(h), dtype=bool)
        for k in np.unique(b):
            hk = ray.get(refs[int(k)])
            if not len(hk):
                continue
            m = b == k
            pos = np.searchsorted(hk, h[m])
            pos[pos == len(hk)] = 0
            seen[m] = hk[pos] == h[m]
        if flag_col is not None:
            return t.append_column(flag_col, pa.array(~seen))
        return t.filter(pa.array(~seen))

    return ds.map_batches(filter_batch, batch_format="pyarrow")


def _dedup_partitioned(ds, index_dir: str, col: str,
                       flag_col: str | None, n_buckets: int):
    """100-TB path: one wave shuffle by index bucket; each partition
    task reads only its bucket's hash files from disk."""
    import pandas as pd
    import pyarrow.parquet as pq

    def tag(t: pa.Table) -> pa.Table:
        h = _content_hashes(t, col)
        t = t.append_column("_h", pa.array(h, type=pa.int64()))
        return t.append_column(
            "_b", pa.array(_bucket_of(h, n_buckets).astype(np.int64)))

    def per_bucket(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            return g.drop_columns(["_h", "_b"])
        k = int(g.column("_b")[0].as_py())
        paths = _bucket_files(index_dir, k)
        if paths:
            hk = np.unique(np.concatenate(
                [pq.read_table(p, columns=["content_hash"])
                 .column("content_hash").to_numpy(zero_copy_only=False)
                 for p in paths]))
        else:
            hk = np.empty(0, dtype=np.int64)
        h = g.column("_h").to_numpy(zero_copy_only=False)
        if len(hk):
            pos = np.searchsorted(hk, h)
            pos[pos == len(hk)] = 0
            seen = hk[pos] == h
        else:
            seen = np.zeros(len(h), dtype=bool)
        g = g.drop_columns(["_h", "_b"])
        if flag_col is not None:
            return g.append_column(flag_col, pa.array(~seen))
        return g.filter(pa.array(~seen))

    # stays a Ray map_groups: each call opens the files of the one
    # on-disk bucket it was called for
    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("_b").map_groups(per_bucket, batch_format="pyarrow")


def update_dedup_index(index_dir: str, add_ds,
                       col: str | None = None) -> dict:
    """Append the wave's (distinct) hashes as delta files into the
    existing bucket dirs; the old corpus is never re-read."""
    meta = read_meta(index_dir)
    n_buckets = int(meta["n_buckets"])
    col = col or meta["col"]
    gens = [int(os.path.basename(p).split("-")[0][3:])
            for p in glob.glob(os.path.join(index_dir, "bucket=*",
                                            "upd*-*.parquet"))]
    gen = (max(gens) + 1) if gens else 1

    def hash_rows(t: pa.Table) -> pa.Table:
        h = _content_hashes(t, col)
        return pa.table({"content_hash": pa.array(h, type=pa.int64())})

    def tag(t: pa.Table) -> pa.Table:
        h = t["content_hash"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(_bucket_of(h, n_buckets)))

    tmp = os.path.join(index_dir, "_delta_tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    aggregate(add_ds.map_batches(hash_rows, batch_format="pyarrow"),
              ["content_hash"], n_dups=("count", None)) \
        .map_batches(tag, batch_format="pyarrow") \
        .write_parquet(tmp, partition_cols=["bucket"])
    for src in glob.glob(os.path.join(tmp, "bucket=*", "*.parquet")):
        bdir = os.path.join(index_dir,
                            os.path.basename(os.path.dirname(src)))
        os.makedirs(bdir, exist_ok=True)
        os.replace(src, os.path.join(
            bdir, f"upd{gen}-{os.path.basename(src)}"))
    shutil.rmtree(tmp, ignore_errors=True)
    meta["n_hashes"] = _count_hashes(index_dir, n_buckets)
    _write_meta(index_dir, meta)
    return meta


def compact_dedup_index(index_dir: str) -> dict:
    """Per-bucket distinct rewrite (deltas folded into one file).
    Crash-safe: old dir renamed aside BEFORE the new one is promoted,
    so every intermediate state has a complete bucket on disk."""
    import pyarrow.parquet as pq

    meta = read_meta(index_dir)
    n_buckets = int(meta["n_buckets"])
    for k in range(n_buckets):
        paths = _bucket_files(index_dir, k)
        if len(paths) <= 1:
            continue
        bdir = os.path.join(index_dir, f"bucket={k}")
        tabs = [pq.read_table(p) for p in paths]
        allt = pa.concat_tables(tabs, promote_options="default")
        h = allt.column("content_hash").to_numpy(zero_copy_only=False)
        n = allt.column("n_dups").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uh, inv = np.unique(h, return_inverse=True)
        un = np.zeros(len(uh), dtype=np.int64)
        np.add.at(un, inv, n)
        tmp = bdir + ".compact"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pq.write_table(
            pa.table({"content_hash": pa.array(uh, type=pa.int64()),
                      "n_dups": pa.array(un, type=pa.int64())}),
            os.path.join(tmp, "part-0.parquet"))
        old = bdir + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.replace(bdir, old)
        os.replace(tmp, bdir)
        shutil.rmtree(old)
    meta["n_hashes"] = _count_hashes(index_dir, n_buckets)
    _write_meta(index_dir, meta)
    return meta
