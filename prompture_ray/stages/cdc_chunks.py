"""Content-defined chunking (CDC) dedup statistics — the storage-dedup /
delta-compression staple (FastCDC/LBFS family): split every document at
positions where a windowed rolling hash of the CONTENT hits a mask, so
equal byte runs chunk identically regardless of their position, then
dedup chunks corpus-wide and account duplicated bytes per document.
Insertions/deletions only perturb chunk boundaries locally — unlike
fixed-size blocks, a one-byte prefix edit leaves every chunk after the
next content-defined cut identical (pinned in tests).

Reference analogue: the dedup family in prompture's normalization path
(SURVEY §2.7) is whole-text (exact/MinHash); CDC is the byte-level
complement used by crawl/storage layers (WARC dedup, delta encoding)
and pairs with stages/dedup.py's span dedup (Lee et al.) which finds
REPEATED n-grams — CDC finds shared byte extents across blob columns,
including binary payloads where tokenization is meaningless.

Exactness/semantics contract:
- Cut positions: after byte i when the w-byte windowed gear hash
  ``H_i = sum_{j<w} GEAR[b[i-j]] << j`` (uint64 wrap) satisfies
  ``H_i & (2^mask_bits - 1) == 0``, i is at least
  ``max(window, min_len) - 1`` bytes into the document, at least
  ``min_len`` bytes remain after the cut, and NO other qualifying hash
  hit occurred in the ``min_len`` positions before i within the same
  document (vectorized prefix-count suppression — an "isolated hit"
  rule, NOT FastCDC's greedy sequential skip, whose first-hit-wins
  scan defeats vectorization). Every rule depends only on the
  ``window + min_len`` bytes before the position, so boundaries stay
  strictly content-defined with that locality radius, and every chunk
  is at least ``min_len`` bytes (first chunk: at least
  ``max(window, min_len)``) — tiny chunks whose content would collide
  across unrelated documents cannot form. Expected chunk size ~
  2^mask_bits bytes.
- Chunk identity: 64-bit polynomial hash of the chunk bytes (odd
  multiplier M, computed via modular-inverse prefix sums — fully
  vectorized, position-independent) finalized with the chunk length.
  Collisions are ~n_chunks^2 / 2^64 — statistics-grade, like every
  64-bit hash in this repo (functions/sketches.py); a consumer needing
  cryptographic certainty re-verifies candidate chunk pairs byte-wise.
- Duplicate accounting: occurrences of the same chunk hash are ordered
  by (doc_id, chunk_idx); the first is the owner, every later
  occurrence adds its length to its document's ``dup_bytes``.

Scale shape: the chunking + hashing stage is ONE vectorized pass over
each batch's concatenated utf-8/binary buffer (w shifted adds for the
boundary hash, one cumprod/cumsum pair for chunk hashes — never a
Python loop over bytes or rows); only narrow (hash, doc_id, idx, len)
chunk rows shuffle in one ``shuffle.partition_fold`` on the chunk hash,
so duplicate detection is a run-boundary scan per fold frame (the
_bucketed_group_pairs discipline, one vectorized lexsort pass — never a
frame per chunk); per-doc rows fold through one final
``shuffle.aggregate`` sum.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9))
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB))
    return x ^ (x >> np.uint64(31))


_GEAR = _splitmix64(np.arange(256, dtype=np.uint64))
_M = np.uint64(0x9E3779B97F4A7C15 | 1)          # odd -> invertible mod 2^64
_MINV = np.uint64(pow(int(_M), -1, 1 << 64))


def _concat_bytes(col: pa.ChunkedArray):
    """(byte array uint8, doc offsets int64) for a string/binary column,
    zero-copy from the Arrow buffers."""
    arr = col.combine_chunks()
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        arr = arr.cast(pa.large_binary())
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0]: offs[-1]], (offs - offs[0]).astype(np.int64)


def chunk_boundaries(data: np.ndarray, doc_offs: np.ndarray,
                     window: int = 16, mask_bits: int = 8,
                     min_len: int = 48) -> np.ndarray:
    """All chunk boundary positions (sorted int64, includes every doc
    start and end) over concatenated ``data`` with documents delimited
    by ``doc_offs``. Exposed for tests (boundary-invariance pins)."""
    n = len(data)
    mask = np.uint64((1 << mask_bits) - 1)
    g = _GEAR[data]
    h = g.copy()
    for j in range(1, window):
        h[j:] += g[:-j] << np.uint64(j)
    hit = (h & mask) == 0
    if n:
        doc_lens = np.diff(doc_offs)
        starts_rep = np.repeat(doc_offs[:-1], doc_lens)
        ends_rep = np.repeat(doc_offs[1:], doc_lens)
        pos = np.arange(n, dtype=np.int64)
        valid = ((pos - starts_rep >= max(window, min_len) - 1)
                 & (ends_rep - pos - 1 >= min_len))
        hv = hit & valid
        # isolated-hit suppression: drop a hit with another valid hit
        # in the min_len positions before it IN THE SAME DOC (prefix
        # counts clamped at the doc start keep docs independent)
        c = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hv, out=c[1:])
        lo = np.maximum(pos - min_len, starts_rep)
        cuts = pos[hv & (c[pos] - c[lo] == 0)] + 1
    else:
        cuts = np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([doc_offs, cuts]))


def _chunk_rows(t: pa.Table, text_col: str, id_col: str,
                window: int, mask_bits: int, min_len: int) -> pa.Table:
    """One narrow row per chunk: (h, doc_id, idx, len)."""
    empty = pa.table({
        "h": pa.array([], type=pa.int64()),
        "doc_id": pa.array([], type=pa.int64()),
        "idx": pa.array([], type=pa.int64()),
        "len": pa.array([], type=pa.int64())})
    if t.num_rows == 0:
        return empty
    data, doc_offs = _concat_bytes(t[text_col])
    if len(data) == 0:
        return empty
    bounds = chunk_boundaries(data, doc_offs, window, mask_bits,
                              min_len)
    # empty docs contribute a repeated offset -> drop zero-length spans
    s, e = bounds[:-1], bounds[1:]
    keep = e > s
    s, e = s[keep], e[keep]

    # chunk hash: polynomial sum b_j * M^(e-1-j) mod 2^64 via prefix
    # sums of b_j * Minv^j (odd M is invertible mod 2^64), one cumprod
    # + one cumsum over the batch — position-independent by algebra
    npos = len(data)
    pw_inv = np.empty(npos, dtype=np.uint64)
    pw_inv[0] = 1
    if npos > 1:
        np.cumprod(np.full(npos - 1, _MINV, dtype=np.uint64),
                   out=pw_inv[1:])
    pw = np.empty(npos, dtype=np.uint64)
    pw[0] = 1
    if npos > 1:
        np.cumprod(np.full(npos - 1, _M, dtype=np.uint64), out=pw[1:])
    tsum = np.zeros(npos + 1, dtype=np.uint64)
    np.cumsum(data.astype(np.uint64) * pw_inv, out=tsum[1:])
    h = pw[e - 1] * (tsum[e] - tsum[s])
    ln = (e - s).astype(np.int64)
    h = h ^ _splitmix64(ln.astype(np.uint64))

    doc_idx = np.searchsorted(doc_offs, s, side="right") - 1
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    # chunk index within its doc = position among this doc's chunks
    doc_first = np.flatnonzero(
        np.r_[True, doc_idx[1:] != doc_idx[:-1]])
    idx = np.arange(len(s), dtype=np.int64) - np.repeat(
        doc_first, np.diff(np.r_[doc_first, len(s)]))
    return pa.table({
        "h": pa.array(h.view(np.int64)),
        "doc_id": pa.array(ids[doc_idx], type=pa.int64()),
        "idx": pa.array(idx, type=pa.int64()),
        "len": pa.array(ln, type=pa.int64())})


def cdc_chunk_stats(ds, text_col: str, id_col: str, *,
                    window: int = 16, mask_bits: int = 8,
                    min_len: int = 48, n_parts: int = 64):
    """Per-document CDC dedup statistics over a text/binary column:
    Dataset ``(doc_id, n_chunks, n_bytes, dup_bytes)`` where
    ``dup_bytes`` sums the lengths of this document's chunk occurrences
    whose content appeared earlier in (doc_id, idx) order anywhere in
    the corpus. Documents with empty payloads emit no row.

    See module docstring for the boundary/hash/ordering contract and
    the scale shape."""
    from prompture_ray.stages.shuffle import aggregate, partition_fold

    # Per-doc (n_chunks, n_bytes) totals are known at CHUNKING time
    # (each doc is whole within its batch) and ride as ONE sentinel row
    # per doc (idx = -1, its fold key h holding the doc_id); the hash
    # partitions then emit ONLY sparse dup partials — without this the
    # final groupby would fold n_parts x n_docs dense partial rows
    # (chunk hashes are uniform, so every partition saw almost every
    # doc; measured 105 s -> the sparse form is bounded by the actual
    # duplicate volume).
    def make_chunks(t: pa.Table) -> pa.Table:
        rows = _chunk_rows(t, text_col, id_col, window, mask_bits,
                           min_len)
        if rows.num_rows == 0:
            z = pa.array([], type=pa.int64())
            return pa.table({"h": z, "doc_id": z, "idx": z, "len": z,
                             "n_chunks": z})
        d = rows["doc_id"].to_numpy(zero_copy_only=False)
        ln = rows["len"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        sizes = np.diff(np.r_[starts, len(d)])
        stat_doc = d[starts]
        stat_bytes = np.add.reduceat(ln, starts) if len(ln) \
            else np.empty(0, dtype=np.int64)
        return pa.table({
            "h": pa.concat_arrays([rows["h"].combine_chunks(),
                                   pa.array(stat_doc, type=pa.int64())]),
            "doc_id": pa.array(np.concatenate([d, stat_doc]),
                               type=pa.int64()),
            "idx": pa.concat_arrays([rows["idx"].combine_chunks(),
                                     pa.array(np.full(len(starts), -1,
                                              dtype=np.int64))]),
            "len": pa.array(np.concatenate([ln, stat_bytes]),
                            type=pa.int64()),
            "n_chunks": pa.array(np.concatenate(
                [np.zeros(len(d), dtype=np.int64), sizes]),
                type=pa.int64())})

    def dedup_part(g: pa.Table) -> pa.Table:
        ix = g["idx"].to_numpy(zero_copy_only=False)
        stat_mask = ix == -1
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        ln = g["len"].to_numpy(zero_copy_only=False)

        out_doc = [d[stat_mask]]
        out_chunks = [g["n_chunks"].to_numpy(
            zero_copy_only=False)[stat_mask]]
        out_bytes = [ln[stat_mask]]
        out_dup = [np.zeros(int(stat_mask.sum()), dtype=np.int64)]

        cm = ~stat_mask
        if cm.any():
            h = g["h"].to_numpy(zero_copy_only=False)[cm]
            dc = d[cm]
            ic = ix[cm]
            lc = ln[cm]
            order = np.lexsort((ic, dc, h))
            hs = h[order]
            # one row per dup occurrence; the final aggregate sums them
            dup_sorted = np.r_[False, hs[1:] == hs[:-1]]
            out_doc.append(dc[order][dup_sorted])
            zero = np.zeros(int(dup_sorted.sum()), dtype=np.int64)
            out_chunks.append(zero)
            out_bytes.append(zero)
            out_dup.append(lc[order][dup_sorted])

        return pa.table({
            "doc_id": pa.array(np.concatenate(out_doc), type=pa.int64()),
            "n_chunks": pa.array(np.concatenate(out_chunks)
                                 .astype(np.int64)),
            "n_bytes": pa.array(np.concatenate(out_bytes)
                                .astype(np.int64)),
            "dup_bytes": pa.array(np.concatenate(out_dup)
                                  .astype(np.int64))})

    partials = partition_fold(
        ds.map_batches(make_chunks, batch_format="pyarrow"), ["h"],
        dedup_part, n_parts=n_parts, batch_format="pyarrow")
    return aggregate(partials, ["doc_id"], n_chunks=("sum", "n_chunks"),
                     n_bytes=("sum", "n_bytes"),
                     dup_bytes=("sum", "dup_bytes"))
