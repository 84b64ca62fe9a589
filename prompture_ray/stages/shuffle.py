"""Hash partitioning on a key: the one place a key value becomes a
hash or a partition id, the per-key fold built on it, and the keyed
lookup that maps a per-key table back onto rows.

Most per-key operators in ``stages/`` share one scale shape:
hash-partition the rows on the key so every key lands wholly in one
partition, then run ONE vectorized pass per partition (never a pandas
frame per key, no driver state). ``partition_fold`` is that shape;
``partition_ids`` is its partitioner, which the bucketed joins also use.
The other common shape attaches a per-key aggregate (a group prior,
quantile bounds, a term total) back to every row: ``lookup`` does it
with one size dispatch — a small table is broadcast, a large one meets
the rows in ``partition_ids`` buckets — and one probe for both.

Partition-id rule (a result must not depend on block layout):

- ``hash64(int64) != hash64(object)``: pandas hashes an int64 array by
  its bytes but an object array through ``str()``. A null in an int64
  Arrow column turns ``to_numpy`` into float64, which then hashed as an
  object — so one key landed in two partitions depending on whether its
  batch held a null, and a per-key fold split that key. Here integer
  and boolean columns are cast to int64 at the Arrow level before
  hashing, so a value's hash never depends on its neighbours (a
  non-null int64 key keeps the partition ``hash64(int64)`` gave it).
- Integral floats take the same int64 path (5.0 meets 5, as in an
  equi-join); other floats hash their float64 bits.
- Timestamps hash as their microsecond int64.
- Strings and every other type hash as Python objects.
- A row with a null (or NaN) in any key column goes to the dedicated
  partition ``n_parts``, so null-key rows never share a frame with a
  non-null key (whose column would turn float64 in that frame).
- Multi-column keys mix the per-column hashes with the golden-ratio
  combine ``(h * 0x9E3779B97F4A7C15) ^ h_next``.

Lookup rule (``lookup``): a row matches the table row whose key hash
(``key_hash``, the rule above without the modulo) equals its own. A key
with any null (or NaN) component never matches, as in a SQL join, and
a miss gives null payload columns. Payload columns keep their Arrow
types on both paths (an int64 above 2^53 stays exact). int64 keys
hash one-to-one, so they match exactly; multi-column and string keys
match by 64-bit hash (~n^2/2^64 collision odds).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _column_hash(col) -> "tuple[np.ndarray, np.ndarray]":
    """(uint64 hash, null mask) of one key column under the module rule."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    typ = col.type
    if pa.types.is_timestamp(typ):
        col = pc.cast(pc.cast(col, pa.timestamp("us", typ.tz),
                              safe=False), pa.int64())
        typ = col.type
    null = pc.is_null(col, nan_is_null=True) \
        .to_numpy(zero_copy_only=False)
    if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        v = pc.cast(col, pa.int64(), safe=False).fill_null(0)
        return hash64(v.to_numpy(zero_copy_only=False)), null
    if pa.types.is_floating(typ):
        f = pc.cast(col, pa.float64()).fill_null(0) \
            .to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            integral = (np.floor(f) == f) & (np.abs(f) < 2.0 ** 63)
        h = hash64(f)
        h[integral] = hash64(f[integral].astype(np.int64))
        return h, null
    return hash64(np.asarray(col.to_numpy(zero_copy_only=False),
                             dtype=object)), null


def key_hash(table: pa.Table, cols: list) -> "tuple[np.ndarray, np.ndarray]":
    """(uint64 key hash, null mask) per row of ``table`` keyed on
    ``cols`` (see the module docstring for the rule). A row's mask is
    set when any key component is null or NaN."""
    h = None
    null = np.zeros(table.num_rows, dtype=bool)
    for c in cols:
        hc, nc = _column_hash(table[c])
        h = hc if h is None else (h * _GOLD) ^ hc
        null |= nc
    return h, null


def partition_ids(table: pa.Table, cols: list, n_parts: int) -> pa.Array:
    """int64 partition id per row of ``table`` keyed on ``cols``: ids in
    ``[0, n_parts)`` for non-null keys, ``n_parts`` for any row with a
    null key component (see the module docstring for the rule)."""
    return _pids(*key_hash(table, cols), n_parts)


def _pids(h: np.ndarray, null: np.ndarray, n_parts: int) -> pa.Array:
    pid = (h % np.uint64(n_parts)).astype(np.int64)
    pid[null] = n_parts
    return pa.array(pid, type=pa.int64())


TARGET_ROWS_PER_PART = 5_000_000


def auto_n_parts(ds, target: int = TARGET_ROWS_PER_PART) -> int:
    """Partition count that keeps a ``partition_fold`` frame near
    ``target`` rows (at least 64). ``count()`` on a projected parquet
    read is metadata-cheap, so nothing is materialized."""
    return max(64, int(np.ceil(ds.count() / target)))


def partition_fold(ds, cols: list, fn, *, n_parts: int,
                   shuffle_blocks: int | None = None,
                   batch_format: str = "pandas"):
    """Hash-partition ``ds`` on ``cols`` and run ``fn`` once per
    partition. ``fn`` receives the partition frame (``batch_format``)
    without the ``__pb`` id column and must handle every key of the
    partition in one vectorized pass.

    ``shuffle_blocks`` coalesces the tagged rows to that many blocks
    before the groupby: Ray's groupby sort cost follows the INPUT block
    count (a 1500-fragment 9M-row run measured 128x superlinear
    without it); size it ≈ rows / 500k beyond ~64M rows. ``None`` keeps
    the input's blocks."""
    cols = list(cols)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("__pb", partition_ids(t, cols, n_parts))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    if shuffle_blocks is not None:
        tagged = tagged.repartition(shuffle_blocks)

    def run(g: pa.Table):
        # drop the id in Arrow (zero-copy), not after a pandas conversion
        g = g.drop_columns(["__pb"])
        return fn(g.to_pandas() if batch_format == "pandas" else g)

    return tagged.groupby("__pb").map_groups(run, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# keyed lookup
# ---------------------------------------------------------------------------
def _sorted_side(h: np.ndarray, payload: pa.Table):
    """The table side of a probe: key hashes ascending, payload rows in
    the same order."""
    order = np.argsort(h, kind="stable")
    return h[order], payload.take(pa.array(order))


def _probe(hs: np.ndarray, payload: pa.Table, h: np.ndarray,
           null: np.ndarray | None = None) -> pa.Table:
    """``payload`` row of each probe hash in ``h`` (one searchsorted);
    a null row where the hash is absent or ``null`` is set."""
    pos = np.searchsorted(hs, h)
    hit = pos < len(hs)
    hit[hit] = hs[pos[hit]] == h[hit]
    if null is not None:
        hit &= ~null
    return payload.take(pa.array(pos, type=pa.int64(), mask=~hit))


def _append(t: pa.Table, got: pa.Table) -> pa.Table:
    for c in got.column_names:
        t = t.append_column(c, got[c])
    return t


def _arrow_types(ds, cols: list) -> list:
    """Arrow type of each of ``cols`` in ``ds`` (null where unknown)."""
    s = ds.schema()
    types = dict(zip(s.names, s.types)) if s is not None else {}
    return [t if isinstance(t, pa.DataType) else pa.null()
            for t in (types.get(c) for c in cols)]


def lookup(ds, table, on: list, values: list, *, broadcast_max: int,
           n_buckets: int = 32):
    """Append the ``values`` columns of the Dataset ``table`` to every
    row of ``ds`` whose ``on`` key columns match; ``table`` holds at
    most one row per key. Rows keep their columns and are neither
    dropped nor repeated (their order may change on the bucketed path).

    Contract (the module docstring's lookup rule): keys hash with
    ``key_hash``; a key with any null component never matches; a miss
    or a null key gives null ``values``; payloads keep their Arrow
    types on both paths; int64 keys match exactly, multi-column and
    string keys by 64-bit hash.

    Size dispatch, one probe (hash-sorted table, one ``searchsorted``
    per batch) on both paths:

    - up to ``broadcast_max`` table rows, the table is collected once,
      sorted by key hash and shared with ``ray.put``; rows never
      shuffle.
    - beyond that, both sides are tagged with their key hash and
      ``partition_ids`` bucket (of ``n_buckets``), unioned as Arrow
      blocks (so payload types survive the union) and the same probe
      runs once per bucket.
    """
    import ray

    on, values = list(on), list(values)
    empty = pa.schema(list(zip(values, _arrow_types(table, values)))) \
        .empty_table()

    def keyed(t: pa.Table):
        """(key hash, bucket, payload) of the non-null keys of a block
        of ``table`` — a null key never matches."""
        h, null = key_hash(t, on)
        keep = ~null
        return (h[keep], _pids(h[keep], null[keep], n_buckets),
                t.select(values).filter(pa.array(keep)))

    if table.count() <= broadcast_max:
        # hashed block by block: a block's key type may differ (an int
        # key null-widened to float64), its hash does not
        hs, parts = [np.empty(0, dtype=np.uint64)], []
        for t in table.iter_batches(batch_size=None,
                                    batch_format="pyarrow"):
            h, _, payload = keyed(t)
            hs.append(h)
            parts.append(payload)
        ref = ray.put(_sorted_side(
            np.concatenate(hs),
            pa.concat_tables(parts or [empty], promote_options="default")))
        cache = {}

        def attach(b: pa.Table) -> pa.Table:
            # deserialize the table side once per worker, not per batch
            if "side" not in cache:
                cache["side"] = ray.get(ref)
            return _append(b, _probe(*cache["side"], *key_hash(b, on)))

        return ds.map_batches(attach, batch_format="pyarrow")

    tmp = [f"__v{i}" for i in range(len(values))]

    def tag_rows(b: pa.Table) -> pa.Table:
        h, null = key_hash(b, on)
        return b.append_column("__lh", pa.array(h)) \
            .append_column("__pb", _pids(h, null, n_buckets))

    def tag_table(t: pa.Table) -> pa.Table:
        h, pid, payload = keyed(t)
        return payload.rename_columns(tmp) \
            .append_column("__rh", pa.array(h)) \
            .append_column("__pb", pid)

    def per_bucket(g: pa.Table) -> pa.Table:
        # each side's rows are the ones whose own hash column is set;
        # a block may lack one side's columns altogether (Ray skips the
        # column-less empty result in every later map, sort and union)
        if "__lh" not in g.column_names:
            return pa.table({})
        rows = g.filter(pc.is_valid(g["__lh"]))
        if "__rh" in g.column_names:
            side = g.filter(pc.is_valid(g["__rh"]))
            hs, payload = _sorted_side(
                side["__rh"].to_numpy(),
                side.select(tmp).rename_columns(values))
        else:
            hs, payload = np.empty(0, dtype=np.uint64), empty
        got = _probe(hs, payload, rows["__lh"].to_numpy())
        drop = {"__lh", "__rh", "__pb", *tmp}
        return _append(rows.drop_columns(
            [c for c in rows.column_names if c in drop]), got)

    tagged = ds.map_batches(tag_rows, batch_format="pyarrow").union(
        table.map_batches(tag_table, batch_format="pyarrow"))
    return tagged.groupby("__pb").map_groups(per_bucket,
                                             batch_format="pyarrow")
