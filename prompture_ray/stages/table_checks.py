"""Table-level checks: uniqueness and referential integrity.

These are the wide (shuffle) operations of the suite — kept on narrow
projected columns so the exchange moves keys, not pages (SURVEY §7.3).

- uniqueness: ``shuffle.aggregate`` counts rows per key (each batch is
  pre-combined with one Arrow ``group_by``, so the shuffle moves
  distinct-keys-per-block rows) → keys with count > 1.
- referential (url → warc record): the reference's nearest analog is the
  KG entity lookup (reference prompture/kg/core.py:63-76,150-182);
  distributed it becomes an anti-join. Two strategies:
    * broadcast: right side small → ``ray.put`` a sorted key-hash array
      once; each batch does a vectorized ``searchsorted`` membership test —
      no shuffle of the rows.
    * partitioned: both sides large → both meet in ``shuffle.cogroup``
      buckets, where left keys are compared with the right keys by value.
      One narrow shuffle of the two key columns.
  Both paths hash keys under ``shuffle``'s key rule (5.0 meets 5), keep
  the left key's type and count the missing keys with
  ``shuffle.aggregate`` (a null left key is missing, as in SQL's
  NOT EXISTS). A Bloom prefilter (``functions.sketches.Bloom``) can cut
  the partitioned path's right volume; with the broadcast path it is
  unnecessary.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from prompture_ray.stages.shuffle import aggregate, cogroup, key_hash

BROADCAST_THRESHOLD = 5_000_000  # keys; ~40MB of hashes — fine to broadcast


def duplicate_keys(ds, col: str):
    """Dataset of ``(col, n)`` for keys appearing more than once."""
    agg = aggregate(ds.select_columns([col]), [col], n=("count", None))
    return agg.map_batches(lambda t: t.filter(pc.greater(t["n"], 1)),
                           batch_format="pyarrow")


def distinct_count(ds, col: str) -> int:
    """Exact count of the distinct non-null keys (SQL ``COUNT(DISTINCT
    col)``)."""
    keys = ds.select_columns([col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[col])), batch_format="pyarrow")
    return aggregate(keys, [col]).count()


def _hashes(t: pa.Table, col: str) -> np.ndarray:
    """Key hashes of the non-null keys of ``t[col]``."""
    h, null, _ = key_hash(t, [col])
    return h[~null]


class _BroadcastAntiJoin:
    """map_batches callable: keep rows whose key is NOT in the broadcast
    sorted key-hash array (actor-ish init cost amortized via ray.put)."""

    def __init__(self, key: str, sorted_hashes_ref):
        self.key = key
        self.ref = sorted_hashes_ref
        self._hashes = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._hashes is None:
            self._hashes = ray.get(self.ref) if not isinstance(self.ref, np.ndarray) else self.ref
        h, null, _ = key_hash(t, [self.key])
        idx = np.searchsorted(self._hashes, h)
        idx = np.clip(idx, 0, len(self._hashes) - 1)
        present = self._hashes[idx] == h if len(self._hashes) else np.zeros(len(h), bool)
        return t.filter(pa.array(~present | null))


def build_bloom(ds, col: str, n_bits: int = 1 << 24, n_hashes: int = 5):
    """Distributed Bloom build: per-batch key-hash blobs → driver folds
    them into one filter via ``add_hashes`` (OR-merge equivalent). The
    blobs are 8 bytes/row; the filter itself never ships between workers
    during the build."""
    from prompture_ray.functions.sketches import Bloom

    def blob(t: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array([_hashes(t, col).tobytes()],
                                       type=pa.binary())})

    bloom = Bloom(n_bits, n_hashes)
    for b in ds.map_batches(blob, batch_format="pyarrow") \
               .iter_batches(batch_size=None, batch_format="pyarrow"):
        for raw in b["h"].to_pylist():
            bloom.add_hashes(np.frombuffer(raw, dtype=np.uint64))
    return bloom


def referential_missing(left_ds, right_ds, key: str, right_key: str | None = None,
                        broadcast_threshold: int = BROADCAST_THRESHOLD,
                        n_buckets: int = 64, bloom_prefilter: bool = True):
    """Rows of ``left_ds`` (projected to ``key``) whose key has no match in
    ``right_ds[right_key]``. Returns a Dataset with columns (key, n), the
    key in its ``left_ds`` type, not sorted.

    Partitioned path with ``bloom_prefilter``: a Bloom filter of the LEFT
    keys drops right rows that cannot affect the anti-join result before
    the shuffle (false positives only let extra right rows through —
    exactness is preserved; the win is shuffle volume when the right side
    dwarfs the overlap)."""
    right_key = right_key or key
    # counted before the projection: a projected read's count() reads
    # the data, a plain read's comes from the file metadata
    n_right = right_ds.count()
    left = left_ds.select_columns([key])
    right = right_ds.select_columns([right_key])
    if n_right <= broadcast_threshold:
        # hash the right keys once on the driver side (streamed), broadcast
        hashes = [_hashes(b, right_key) for b in right.iter_batches(
            batch_size=65536, batch_format="pyarrow")]
        sorted_hashes = np.sort(np.concatenate(hashes)) if hashes else np.empty(0, np.uint64)
        ref = ray.put(sorted_hashes)
        missing = left.map_batches(_BroadcastAntiJoin(key, ref),
                                   batch_format="pyarrow")
        return aggregate(missing, [key], n=("count", None))

    # partitioned path: both sides meet in cogroup buckets
    if bloom_prefilter:
        bloom_ref = ray.put(build_bloom(left, key))

        def right_filter(t: pa.Table) -> pa.Table:
            h, _, _ = key_hash(t, [right_key])
            return t.filter(pa.array(ray.get(bloom_ref).contains_hashes(h)))

        right = right.map_batches(right_filter, batch_format="pyarrow")

    def anti(l: pa.Table, r: pa.Table) -> pa.Table:
        # compared by value under the key rule; a null left key is
        # missing and a null right key matches nothing
        _, miss, (lv,) = key_hash(l, [key])
        _, rnull, (rv,) = key_hash(r, [right_key])
        lv, rv = lv[~miss], rv[~rnull]
        if lv.dtype != rv.dtype:
            lv, rv = lv.astype(object), rv.astype(object)
        miss[~miss] = ~np.isin(lv, rv)
        return l.filter(pa.array(miss))

    missing = cogroup(left, right, [key], [right_key], anti,
                      n_buckets=n_buckets)
    return aggregate(missing, [key], n=("count", None))
