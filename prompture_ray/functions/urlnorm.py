"""URL canonicalization + URL-keyed dedup (beyond the reference — a
webtext-pipeline staple; cf. the crawl-dedup preprocessing described in
RefinedWeb/CCNet). The reference has no URL operator; its closest
surface is the url-regex validator (prompture/validation/fields.py).

Canonical form (documented, deliberately conservative — no
percent-decoding, no path '//' collapsing, so distinct URLs are never
aliased):

- trim surrounding whitespace; drop the ``#fragment``
- lowercase scheme and host; strip a leading ``www.``
- strip the scheme's default port (``:80`` http, ``:443`` https)
- empty path -> ``/``; strip ONE trailing slash (``/a/`` -> ``/a``,
  root stays ``/``)
- drop tracking query params (``utm_*``, ``gclid``, ``fbclid``,
  ``msclkid``, ``ref``, ``mc_eid``), sort the survivors bytewise,
  rejoin with ``&``; an emptied query drops its ``?``
- strings that do not look like ``scheme://host...`` pass through
  trimmed and otherwise unchanged

Everything is Arrow/numpy vectorized: one ``extract_regex`` pass for
the structure, explode + lexsort + ``binary_join`` for the query
params — no per-row Python in the hot path.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_URL_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
           r"(?P<host>[^/]*)(?P<path>.*)$")
_TRACKING_RE = r"^(utm_[^=]*|gclid|fbclid|msclkid|ref|mc_eid)(=|$)"


def canonicalize_urls(arr, strip_www: bool = True,
                      strip_tracking: bool = True) -> pa.Array:
    """Vectorized canonicalization of a string array of URLs."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(arr, type=pa.string())
    trimmed = pc.utf8_trim_whitespace(pc.fill_null(arr, ""))
    # fragment off first — it may contain '?' or '://'
    nofrag = pc.list_element(
        pc.split_pattern(trimmed, "#", max_splits=1), 0)
    base = pc.list_element(pc.split_pattern(nofrag, "?", max_splits=1), 0)
    # everything after the first '?' ('' when there is none)
    query = pc.replace_substring_regex(nofrag, r"^[^?]*\??", "",
                                       max_replacements=1)

    m = pc.extract_regex(base, _URL_RE)
    matched = pc.is_valid(m)
    scheme = pc.utf8_lower(pc.fill_null(pc.struct_field(m, "scheme"), ""))
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(m, "host"), ""))
    path = pc.fill_null(pc.struct_field(m, "path"), "")

    host = pc.if_else(pc.equal(scheme, "http"),
                      pc.replace_substring_regex(host, ":80$", ""), host)
    host = pc.if_else(pc.equal(scheme, "https"),
                      pc.replace_substring_regex(host, ":443$", ""), host)
    if strip_www:
        host = pc.replace_substring_regex(host, r"^www\.", "")

    p2 = pc.replace_substring_regex(path, "/$", "")
    path = pc.if_else(pc.equal(p2, ""), "/", p2)

    canon_q = _canonical_query(query, strip_tracking)
    assembled = pc.binary_join_element_wise(
        scheme, "://", host, path,
        pc.if_else(pc.equal(canon_q, ""), "",
                   pc.binary_join_element_wise("?", canon_q, "")),
        "")      # last arg = the element-wise separator
    return pc.if_else(matched, assembled, trimmed)


def _canonical_query(query: pa.Array, strip_tracking: bool) -> pa.Array:
    """Per-row: split on '&', drop empties (+ tracking params), sort
    bytewise, rejoin. Explode + np.lexsort + ListArray rebuild — no
    per-row loop."""
    parts = pc.split_pattern(query, "&")
    flat = pc.list_flatten(parts)
    parents = pc.list_parent_indices(parts).to_numpy(
        zero_copy_only=False).astype(np.int64)
    keep = pc.greater(pc.utf8_length(flat), 0)
    if strip_tracking:
        keep = pc.and_(keep, pc.invert(
            pc.match_substring_regex(flat, _TRACKING_RE)))
    keep_np = keep.to_numpy(zero_copy_only=False)
    kept_parents = parents[keep_np]
    kept_flat = flat.filter(keep)
    n = len(query)
    if len(kept_flat) == 0:
        return pa.array([""] * n, type=pa.string())
    vals = np.asarray(kept_flat.to_pylist(), dtype=object)
    order = np.lexsort((vals, kept_parents))
    counts = np.bincount(kept_parents, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    la = pa.LargeListArray.from_arrays(
        pa.array(offsets, type=pa.int64()),
        kept_flat.take(pa.array(order, type=pa.int64())))
    return pc.binary_join(la, "&").cast(pa.string())


def canonicalize_url(url: str, **kw) -> str:
    """Scalar convenience wrapper (tests / interactive use)."""
    return canonicalize_urls(pa.array([url], type=pa.string()),
                             **kw)[0].as_py()


def add_canonical_url(ds, url_col: str, out_col: str = "canonical_url",
                      **kw):
    """Dataset stage: append the canonical-URL column."""
    def fn(t: pa.Table) -> pa.Table:
        return t.append_column(out_col,
                               canonicalize_urls(t[url_col], **kw))
    return ds.map_batches(fn, batch_format="pyarrow")


def url_dedup_flags(ds, url_col: str, id_col: str,
                    broadcast_max: int = 20_000_000, n_buckets: int = 32,
                    **kw):
    """First-wins URL dedup flags: one row per input row with
    ``(id, canonical_url, keep)`` where keep = this row has the minimum
    ``id_col`` among all rows sharing its canonical URL (64-bit-hash
    group identity, ~2^-64 corpus collision odds like the other exact
    dedups here).

    Shape: canonical hash per row -> ``shuffle.aggregate`` min(id) (ONE
    narrow shuffle of (8-byte hash, id) pairs). Pass 2: ``shuffle.lookup``
    maps the per-URL minimum back onto the rows — broadcast up to
    ``broadcast_max`` distinct URLs (flagging is a pure map), hash
    buckets beyond."""
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.shuffle import aggregate, lookup

    def with_hash(t: pa.Table) -> pa.Table:
        canon = canonicalize_urls(t[url_col], **kw)
        h = hash64(np.asarray(canon.to_pylist(), dtype=object)) \
            .view(np.int64)
        return pa.table({
            "id": t[id_col].combine_chunks().cast(pa.int64()),
            "canonical_url": canon,
            "__ch": pa.array(h, type=pa.int64())})

    rows = ds.map_batches(with_hash, batch_format="pyarrow")
    mins = aggregate(rows, ["__ch"], min_id=("min", "id")).materialize()

    def flag(t: pa.Table) -> pa.Table:
        # every URL hash has its minimum by construction
        return pa.table({"id": t["id"], "canonical_url": t["canonical_url"],
                         "keep": pc.equal(t["id"], t["min_id"])})

    return lookup(rows, mins, ["__ch"], ["min_id"],
                  broadcast_max=broadcast_max, n_buckets=n_buckets) \
        .map_batches(flag, batch_format="pyarrow")


def extract_hosts(arr) -> pa.Array:
    """Vectorized URL → lowercase host (port stripped, '' for strings
    that do not look like ``scheme://host...``)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(arr, type=pa.string())
    m = pc.extract_regex(
        pc.utf8_trim_whitespace(pc.fill_null(arr, "")), _URL_RE)
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(m, "host"), ""))
    return pc.replace_substring_regex(host, r":\d+$", "")


def domain_blocklist_flags(ds, url_col: str, blocked,
                           out_col: str = "blocked",
                           max_labels: int = 4):
    """URL blocklist filtering by registered-domain suffix (the
    C4/RefinedWeb "blocked domains" curation step; beyond the
    reference): a row is flagged when its URL's host equals a blocklist
    entry or ends with ``"." + entry`` — label-aligned, so
    ``notspam.example`` does NOT match entry ``spam.example``.

    Zero shuffle: host extraction and the last-k-label candidate
    suffixes (k = 1..``max_labels``) are Arrow regex kernels; membership
    is ``pc.index_in`` against the blocklist, which is tiny and ships in
    the task closure (entries with more than ``max_labels`` labels still
    match exact hosts). Appends boolean ``out_col``."""
    entries = sorted({str(b).lower().lstrip(".") for b in blocked})
    val_set = pa.array(entries, type=pa.string())

    def fn(t: pa.Table) -> pa.Table:
        host = extract_hosts(t[url_col])
        hit = pc.is_valid(pc.index_in(host, value_set=val_set))
        for k in range(1, max_labels + 1):
            pat = r"(?P<sfx>(?:[^.]+\.){%d}[^.]+)$" % (k - 1)
            sfx = pc.struct_field(pc.extract_regex(host, pat), "sfx")
            # suffix must be label-aligned: either the whole host or
            # preceded by a dot — the regex anchors at $ and [^.]+
            # labels, so a k-label suffix of a host with > k labels is
            # always dot-preceded; equality with the host covers the
            # rest
            k_hit = pc.is_valid(pc.index_in(sfx, value_set=val_set))
            hit = pc.or_(hit, pc.fill_null(k_hit, False))
        return t.append_column(out_col, pc.fill_null(hit, False))

    return ds.map_batches(fn, batch_format="pyarrow")
