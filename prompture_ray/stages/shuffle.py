"""Hash partitioning on a key: the one place a key value becomes a
partition id, and the per-key fold built on it.

Most per-key operators in ``stages/`` share one scale shape:
hash-partition the rows on the key so every key lands wholly in one
partition, then run ONE vectorized pass per partition (never a pandas
frame per key, no driver state). ``partition_fold`` is that shape;
``partition_ids`` is its partitioner, which the bucketed joins also use.

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


def partition_ids(table: pa.Table, cols: list, n_parts: int) -> pa.Array:
    """int64 partition id per row of ``table`` keyed on ``cols``: ids in
    ``[0, n_parts)`` for non-null keys, ``n_parts`` for any row with a
    null key component (see the module docstring for the rule)."""
    h = None
    null = np.zeros(table.num_rows, dtype=bool)
    for c in cols:
        hc, nc = _column_hash(table[c])
        h = hc if h is None else (h * _GOLD) ^ hc
        null |= nc
    pid = (h % np.uint64(n_parts)).astype(np.int64)
    pid[null] = n_parts
    return pa.array(pid, type=pa.int64())


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
