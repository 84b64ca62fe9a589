"""Per-host boilerplate line removal (trafilatura / CCNet shape).

A line is boilerplate FOR ITS HOST when it occurs in at least
``max(min_docs, ceil(frac * docs(host)))`` distinct documents of that
host — nav bars, footers, cookie banners repeat on (nearly) every page
of a site but differ across sites, which is exactly what the
corpus-global ``line_dedup`` (stages/dedup.py) cannot express. The
fraction threshold is held exact in integers (``df * frac_den >=
frac_num * n_host``) so the SQL oracle can mirror it with no float
anywhere.

Reference analogue: prompture's HtmlParser drops structural chrome
per page (prompture/ingestion/parsers/html.py; our per-page parity
lives in functions/extract_html.py); this operator is the
corpus-statistical generalization a 100-TB crawl pipeline needs —
chrome the per-page parse can't identify (plain-text nav repeated
site-wide) falls out of cross-page frequency.

Scale shape mirrors ``line_dedup``: pass 1 emits per-batch
(host_hash, line_hash, partial-df) rows — each doc is a single row in
a single batch, so within-batch (doc, line) dedupe makes the global
distinct-doc count exact — and ONE narrow shuffle of 16-byte hash rows
folds the per-host document frequency; host doc counts fold in a
second tiny shuffle. Size-aware dispatch everywhere: host counts map
back onto the line rows with ``shuffle.lookup`` (broadcast under
``broadcast_max`` hosts, hash buckets beyond); a boilerplate-line table
under ``broadcast_max`` rows is broadcast once via ``ray.put`` as a
sorted array (searchsorted membership, no further shuffle), beyond
that it goes through the hash-bucketed join and docs are rebuilt in
one ``partition_fold`` on the doc id (``dedup._rebuild_cell``). Line
identity is hash-only (64-bit mixed host×line; ~n²/2^64 collision odds
per corpus).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _host_line_hashes(t: pa.Table, text_col: str, host_col: str,
                      sep: str):
    """Split every doc into lines; return (flat lines, per-doc line
    counts, per-line doc index, per-line host hash, per-line combined
    host×line hash, per-doc host hash)."""
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.dedup import _split_lines
    flat, lens, doc_idx, h = _split_lines(t, text_col, sep)
    hosts = t[host_col]
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    hh_doc = hash64(np.asarray(hosts.to_pylist(), dtype=object)) \
        .astype(np.int64) if t.num_rows else np.empty(0, dtype=np.int64)
    hh = hh_doc[doc_idx] if len(h) else np.empty(0, dtype=np.int64)
    comb = ((hh.astype(np.uint64) * _GOLD) ^ h.astype(np.uint64)) \
        .view(np.int64) if len(h) else np.empty(0, dtype=np.int64)
    return flat, lens, doc_idx, hh, comb, hh_doc


def boilerplate_lines(ds, text_col: str = "text", id_col: str = "doc_id",
                      host_col: str = "source", min_docs: int = 2,
                      frac_num: int = 1, frac_den: int = 2,
                      sep: str = "\n", n_buckets: int = 32,
                      broadcast_max: int = 20_000_000):
    """Remove per-host boilerplate lines; returns one row per input doc:
    ``(id_col, text_col cleaned, n_kept, n_removed)`` with kept lines
    rejoined by ``sep`` in original order."""
    import ray
    from prompture_ray.stages.dedup import _rebuild_cell
    from prompture_ray.stages.shuffle import (aggregate, join, lookup,
                                              partition_fold)

    # -- pass 1a: per-host distinct-doc frequency of every line --------
    def doc_lines(t: pa.Table) -> pa.Table:
        # one (host, line) row per distinct line of each doc (comb
        # determines the host)
        _, _, doc_idx, hh, comb, _ = _host_line_hashes(
            t, text_col, host_col, sep)
        order = np.lexsort((comb, doc_idx))
        d_, c_ = doc_idx[order], comb[order]
        first = np.ones(len(c_), dtype=bool)
        first[1:] = (d_[1:] != d_[:-1]) | (c_[1:] != c_[:-1])
        return pa.table({"hh": pa.array(hh[order][first], type=pa.int64()),
                         "comb": pa.array(c_[first], type=pa.int64())})

    df_rows = aggregate(ds.map_batches(doc_lines, batch_format="pyarrow"),
                        ["hh", "comb"], df=("count", None))

    # -- pass 1b: docs per host ----------------------------------------
    def doc_hosts(t: pa.Table) -> pa.Table:
        _, _, _, _, _, hh_doc = _host_line_hashes(
            t, text_col, host_col, sep)
        return pa.table({"hh": pa.array(hh_doc, type=pa.int64())})

    host_counts = aggregate(ds.map_batches(doc_hosts, batch_format="pyarrow"),
                            ["hh"], n=("count", None)).materialize()

    # -- threshold: df*frac_den >= frac_num*n_host AND df >= min_docs --
    def mark_bp(t: pa.Table) -> pa.Table:
        df = t["df"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)  # every hh exists
        keep = (df >= min_docs) & (df * frac_den >= frac_num * n)
        return t.filter(pa.array(keep)).select(["comb"])

    bp = lookup(df_rows, host_counts, ["hh"], ["n"],
                broadcast_max=broadcast_max, n_buckets=n_buckets) \
        .map_batches(mark_bp, batch_format="pyarrow").materialize()

    # -- pass 2: rebuild each doc from its kept lines -------------------
    if bp.count() <= broadcast_max:
        combs_sorted = np.sort(np.concatenate(
            [t["comb"].to_numpy(zero_copy_only=False)
             for t in bp.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]))
        bref = ray.put(combs_sorted)

        def rebuild(t: pa.Table) -> pa.Table:
            cs = ray.get(bref)
            flat, lens, doc_idx, _, comb, _ = _host_line_hashes(
                t, text_col, host_col, sep)
            if len(cs) and len(comb):
                idx = np.clip(np.searchsorted(cs, comb), 0, len(cs) - 1)
                keep = cs[idx] != comb
            else:
                keep = np.ones(len(comb), dtype=bool)
            kept_counts = np.bincount(doc_idx[keep],
                                      minlength=len(lens)).astype(np.int64)
            offsets = np.concatenate(
                ([0], np.cumsum(kept_counts))).astype(np.int32)
            lst = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()),
                flat.filter(pa.array(keep)) if len(comb)
                else pa.array([], type=pa.string()))
            return pa.table({
                id_col: t[id_col],
                text_col: pc.binary_join(lst, sep),
                "n_kept": pa.array(kept_counts, type=pa.int64()),
                "n_removed": pa.array(lens - kept_counts,
                                      type=pa.int64())})

        return ds.map_batches(rebuild, batch_format="pyarrow")

    # 100-TB fallback: line rows × boilerplate hashes through the
    # bucketed left join, per-doc rebuild in a doc-id fold (one
    # vectorized pandas pass per fold frame — never a frame per doc).
    def line_rows(t: pa.Table) -> pa.Table:
        flat, lens, doc_idx, _, comb, _ = _host_line_hashes(
            t, text_col, host_col, sep)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(len(comb)) - doc_start[doc_idx]
        return pa.table({
            "id": pa.array(ids[doc_idx], type=pa.int64()),
            "pos": pa.array(pos, type=pa.int64()),
            "line": flat,
            "comb": pa.array(comb, type=pa.int64())})

    rows = ds.map_batches(line_rows, batch_format="pyarrow").materialize()
    marked = bp.map_batches(
        lambda t: t.append_column("__dup", pa.array(
            np.ones(t.num_rows, dtype=np.int64), type=pa.int64())),
        batch_format="pyarrow").materialize()
    flagged = join(rows, marked, "comb", how="left", n_buckets=n_buckets)
    return partition_fold(
        flagged, ["id"],
        lambda g: _rebuild_cell(g, sep, text_col, id_col),
        n_parts=n_buckets * 2)
