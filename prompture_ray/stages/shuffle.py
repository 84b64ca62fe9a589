"""Hash partitioning on a key: the one place a key value becomes a
hash or a partition id, the per-key fold built on it, the grouped
aggregate built on the fold, the two-sided bucket runner with the
equi-join built on it, and the keyed lookup that maps a per-key table
back onto rows.

Most per-key operators in ``stages/`` share one scale shape:
hash-partition the rows on the key so every key lands wholly in one
partition, then run ONE vectorized pass per fold frame (never a pandas
frame per key, no driver state). ``partition_fold`` is that shape;
``partition_ids`` is its partitioner. A fold frame is one or more whole
partitions of a sorted block, the null-key partition always alone
(``_fold_partitions``). The grouped count/sum/min/max is built on it:
``aggregate`` combines each batch with one Arrow ``group_by`` and
merges the partials in a ``partition_fold`` with one more per fold
frame, where Ray's ``groupby().aggregate`` walks every row in Python.
It is the one keyed grouped aggregate of the package
(``tests/test_shuffle.py::test_keyed_aggregates_only_through_shuffle``):
the report queries and ``table_checks``; the node sets, degrees and
per-node sums of ``graph``; the document frequencies and lexicons of
``tfidf``, ``dedup``, ``setjoin``, ``text_index``, ``textstats``,
``lm``, ``bpe``, ``classify``, ``keywords`` and ``dsir``; the group
statistics of ``groupstats``, ``rollup``, ``salted``, ``windows``,
``userpath``, ``regression``, ``evalmetrics``, ``stats``,
``analytic`` and ``consensus``; and the per-hash counts and minima of
``dedup_index``, ``boilerplate``, ``cdc_chunks``, ``diff``,
``sampling``, ``itemsets`` and ``functions/urlnorm``. A site projects
or derives its rows and leaves the combine to ``aggregate``.
Also built on ``partition_fold``: the per-key window and group-stat
folds (``analytic``, ``windows``, ``groupstats``, ``intervals``,
``userpath``, ``itemsets``) and every hash-bucket fold of the
dedup/report half: the token and pair folds of ``setjoin``, the LSH
bucket and pair-distinct folds and the doc-id rebuild folds of
``dedup`` and ``boilerplate``, the edge, wedge and closing folds of
``graph``, the token and doc folds of ``tfidf``, the chunk-hash fold of
``cdc_chunks``, the domain and shard-cell folds of ``sampling`` and the
wave-id folds of ``minhash_index``.

When two Datasets meet on a key, ``cogroup`` is the shape: both sides
are tagged with their ``partition_ids`` bucket, unioned as Arrow blocks
and folded the same way, and its function gets each fold frame's rows
of the two sides as two typed Arrow tables. Built on it: ``join`` (the
both-sides-large equi-join, one Arrow hash join per frame), the bucketed
path of ``lookup``, the bucketed as-of and interval joins
(``stages/joins.py``), the partitioned referential anti-join
(``stages/table_checks.py``) and the k-hop semi-join and anti-join of
``stages/entity_store.py``. ``lookup`` attaches a per-key aggregate
(a group prior, quantile bounds, a term total) back to every row with
one size dispatch — a small table is broadcast, a large one meets the
rows in ``cogroup`` buckets — and one probe for both.

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

Block-count rule (``bound_blocks``, the one place a pre-sort block
count is decided): Ray's sort, groupby and join costs follow the INPUT
block count (a 1500-fragment 9M-row input measured 128x superlinear
before a coalesce). An input with more than twice
``target_blocks(rows) = max(64, ceil(rows / 500k))`` blocks is coalesced
to that many; any other input is left as it is, so a two-block table is
never split into a hundred tiny blocks before a sort. Every fold runs
its tagged input through it (``_fold_partitions``), so every
``aggregate``, ``cogroup`` and ``join`` gets it too, and the per-round
tables of ``stages/`` call it directly.

Lookup rule (``lookup``): a row matches the table row whose key equals
its own: the probe finds the candidate by key hash (``key_hash``, the
rule above without the modulo), then compares the key values under the
same rule (5.0 equals 5), so a hash hit on another key is a miss. Two
table keys sharing a hash raise ``ValueError``. A key with any null (or
NaN) component never matches, as in a SQL join, and a miss gives null
payload columns. Payloads keep their Arrow types on both paths (an
int64 above 2^53 stays exact).

Join rule (``join``): keys match as in the lookup rule (by hash, then
by value, so 5.0 meets 5 and a shared hash is no match; a key with any
null or NaN component never matches); every matching left and right row
pair gives one output row, and a left join adds each unmatched left row
once with null right columns. Every column keeps its Arrow type on both
sides (an int64 payload above 2^53 stays exact next to a miss's null;
list columns ride along). Columns: the left ones, then the right ones
without a right key named as its left key (pandas ``merge``'s shape).

Aggregate rule (``aggregate``, Ray's where they agree): a null key is
its own group, and a NaN key is a group apart from null (both go to
partition ``n_parts``); ``sum``, ``min`` and ``max`` skip nulls and
give null for an all-null group; ``count`` counts rows; integer sums
stay exact int64. Output blocks are Arrow, keys then outputs, and NOT
sorted by key: a consumer that needs key order sorts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _column_key(col) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(values, uint64 hash, null mask) of one key column under the
    module rule. Values are int64 for integers, booleans, timestamps
    (µs) and all-integral float columns, float64 for other floats and
    Python objects otherwise; null slots hold 0."""
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
        v = pc.cast(col, pa.int64(), safe=False).fill_null(0) \
            .to_numpy(zero_copy_only=False)
    elif pa.types.is_floating(typ):
        v = np.where(null, 0.0, pc.cast(col, pa.float64())
                     .to_numpy(zero_copy_only=False))
        integral = (np.floor(v) == v) & (np.abs(v) < 2.0 ** 63)
        if not integral.all():
            h = hash64(v)
            h[integral] = hash64(v[integral].astype(np.int64))
            return v, h, null
        v = v.astype(np.int64)
    else:
        v = np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)
    return v, hash64(v), null


def key_hash(table: pa.Table, cols: list):
    """(uint64 key hash, null mask, per-column ``_column_key`` values)
    per row of ``table`` keyed on ``cols`` (see the module docstring for
    the rule). A row's mask is set when any key component is null or
    NaN."""
    h = None
    null = np.zeros(table.num_rows, dtype=bool)
    vals = []
    for c in cols:
        v, hc, nc = _column_key(table[c])
        h = hc if h is None else (h * _GOLD) ^ hc
        null |= nc
        vals.append(v)
    return h, null, vals


def _keys_equal(a: list, b: list) -> np.ndarray:
    """Row-wise equality of two aligned lists of per-column key values
    (``key_hash``'s third item) under the rule above: 5.0 equals 5."""
    same = np.ones(len(a[0]), dtype=bool)
    for x, y in zip(a, b):
        if x.dtype != y.dtype:
            x, y = x.astype(object), y.astype(object)
        same &= np.asarray(x == y, dtype=bool)
    return same


def partition_ids(table: pa.Table, cols: list, n_parts: int) -> pa.Array:
    """int64 partition id per row of ``table`` keyed on ``cols``: ids in
    ``[0, n_parts)`` for non-null keys, ``n_parts`` for any row with a
    null key component (see the module docstring for the rule)."""
    h, null, _ = key_hash(table, cols)
    pid = (h % np.uint64(n_parts)).astype(np.int64)
    pid[null] = n_parts
    return pa.array(pid, type=pa.int64())


TARGET_ROWS_PER_PART = 5_000_000
# the block-count rule: at least BLOCK_FLOOR blocks of ROWS_PER_BLOCK rows
BLOCK_FLOOR = 64
ROWS_PER_BLOCK = 500_000


def target_blocks(rows: int | None) -> int:
    """Block (or partition) count for ``rows`` rows under the module's
    block-count rule: ``max(64, ceil(rows / 500k))``; unknown rows
    (None) give the floor."""
    return max(BLOCK_FLOOR, -(-(rows or 0) // ROWS_PER_BLOCK))


def bound_blocks(ds):
    """``ds`` coalesced to ``target_blocks(rows)`` blocks when it holds
    more than twice that many, else ``ds`` itself (the module's
    block-count rule). Never executes ``ds``.

    The block and row counts come from Ray's plan:
    ``ds._plan.initial_num_blocks()`` and ``ds._plan.meta_count()``.
    For a materialized Dataset they are its ``num_blocks()`` and
    ``count()``; for a lazy one they are estimates that cost no
    execution (a mapped input has no row estimate, so the floor of 64
    applies). Both are private Ray 2.49 methods, and this is the only
    place that reads them."""
    plan = ds._plan
    n_blocks = plan.initial_num_blocks()
    target = target_blocks(plan.meta_count())
    if n_blocks is None or n_blocks <= 2 * target:
        return ds
    return ds.repartition(target)


def auto_n_parts(ds, target: int = TARGET_ROWS_PER_PART) -> int:
    """Partition count that keeps a ``partition_fold`` frame near
    ``target`` rows (at least 64). It calls ``ds.count()``, which reads
    only file metadata for a plain parquet read or a materialized
    Dataset, but executes every other input: a projected
    (``select_columns``) or mapped read is read in full. Callers pass
    ``n_parts`` or such a cheap input."""
    return max(64, int(np.ceil(ds.count() / target)))


def partition_fold(ds, cols: list, fn, *, n_parts: int,
                   batch_format: str = "pandas"):
    """Hash-partition ``ds`` on ``cols`` and run ``fn`` over whole
    partitions. ``fn`` receives a frame (``batch_format``) without the
    ``__pb`` id column holding one or more whole partitions, never part
    of one, of at most ``TARGET_ROWS_PER_PART`` rows unless a single
    partition is larger (``_fold_partitions``); the null-key partition
    always comes alone. ``fn`` must handle every key of its frame in
    one vectorized pass.

    The tagged rows go through ``bound_blocks`` before the sort, so a
    many-fragment input is coalesced and a small one keeps its blocks.

    A pandas ``fn``'s frame comes back as an Arrow block whose integer
    input columns keep their input types (``_unwiden``), so a null key
    or value does not change a column's type in one frame only, and
    without pandas schema metadata."""
    from ray.data.block import BlockAccessor
    cols = list(cols)

    def tag(t: pa.Table) -> pa.Table:
        # a block Ray converted from pandas carries b"pandas" schema
        # metadata, which makes its schema unhashable and sends the
        # sort's schema unification down Ray's slow path
        return t.append_column("__pb", partition_ids(t, cols, n_parts)) \
            .replace_schema_metadata(None)

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def run(g: pa.Table):
        # drop the id in Arrow (zero-copy), not after a pandas conversion
        g = g.drop_columns(["__pb"])
        if batch_format != "pandas":
            return fn(g)
        # Ray's own pandas -> Arrow block conversion (all-null -> null type);
        # the b"pandas" metadata would make the schema unhashable, which
        # sends Ray's schema unification down its slow path
        out = BlockAccessor.for_block(fn(g.to_pandas())).to_arrow()
        return _unwiden(out, g).replace_schema_metadata(None)

    return _fold_partitions(tagged, run, n_parts)


def _fold_partitions(tagged, run, n_parts: int):
    """Run ``run`` over the ``__pb``-tagged rows of ``tagged``, whole
    partitions at a time: ``bound_blocks``, one sort on the id, then
    one call per run of contiguous partitions in each sorted block
    (``_runs``). Ray's ``groupby().map_groups`` would call it once per
    partition id in every block, a pandas/Arrow round trip each."""
    cap = TARGET_ROWS_PER_PART

    def run_block(b: pa.Table):
        # an empty block may come without columns
        pb = b["__pb"].to_numpy() if b.num_rows else []
        for lo, hi in _runs(pb, n_parts, cap):
            yield run(b.slice(lo, hi - lo))

    return bound_blocks(tagged).sort("__pb").map_batches(
        run_block, batch_size=None, batch_format="pyarrow")


def _runs(pb: np.ndarray, n_parts: int, cap: int) -> list:
    """``(lo, hi)`` row ranges cutting the ascending partition ids
    ``pb`` into runs of whole partitions: a run grows until the next
    partition would take it past ``cap`` rows (a partition larger than
    ``cap`` runs alone), and the null-key partition ``n_parts`` always
    runs alone."""
    n = len(pb)
    if not n:
        return []
    edges = [0, *(np.flatnonzero(pb[1:] != pb[:-1]) + 1).tolist()]
    null_at = int(np.searchsorted(pb, n_parts))
    runs, start = [], 0
    for lo, hi in zip(edges, edges[1:] + [n]):
        if lo > start and (lo == null_at or hi - start > cap):
            runs.append((start, lo))
            start = lo
    return runs + [(start, n)]


def _unwiden(t: pa.Table, src: pa.Table) -> pa.Table:
    """``t`` with every integer column of ``src`` that pandas widened
    cast back to its type. An int64 column holding a null (a null key in
    partition ``n_parts``, a null value anywhere) comes out of pandas as
    float64, or as the null type when it is all null, while the same
    column of a partition without nulls stays int64: the blocks of one
    Dataset would then disagree on the column's type.

    The float64 detour rounds a value beyond 2^53, and casting it back
    would make the rounded value look exact: an output column whose
    ``src`` column holds a null and such a value raises ``ValueError``
    instead."""
    like = src.schema
    want = t.schema
    for i, f in enumerate(want):
        j = like.get_field_index(f.name)
        if j < 0 or not pa.types.is_integer(like.field(j).type):
            continue
        col = src.column(j)
        if col.null_count and max(-(pc.min(col).as_py() or 0),
                                  pc.max(col).as_py() or 0) > 2 ** 53:
            raise ValueError(f"column {f.name!r} holds a null and a value "
                             f"beyond 2^53, which pandas rounds; fold it "
                             f"on Arrow blocks or fill the nulls first")
        if pa.types.is_floating(f.type) or pa.types.is_null(f.type):
            want = want.set(i, f.with_type(like.field(j).type))
    return t if want.equals(t.schema) else t.cast(want)


# ---------------------------------------------------------------------------
# grouped aggregate
# ---------------------------------------------------------------------------
# how the partials of each aggregate merge
_MERGE = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
# the auto_n_parts floor; counting a mapped input would execute it
AGG_PARTS = 64


def _group(t: pa.Table, keys: list, specs: list) -> pa.Table:
    """``t`` grouped on ``keys``: the key columns, then one column per
    ``(name, fn, col)`` of ``specs`` (``col`` None counts rows)."""
    g = t.group_by(keys, use_threads=False).aggregate(
        [([], "count_all") if col is None else (col, fn)
         for _, fn, col in specs])
    vals = [c for n, c in zip(g.column_names, g.columns) if n not in keys]
    return pa.Table.from_arrays(g.select(keys).columns + vals,
                                keys + [name for name, _, _ in specs])


def aggregate(ds, keys: list, **outs):
    """Group ``ds`` on ``keys``; each ``outs`` entry ``name=(fn, col)``
    adds column ``name`` with ``fn`` (``count``, ``sum``, ``min`` or
    ``max``) of ``col`` per group; ``("count", None)`` counts rows.

    Each batch is combined with one Arrow ``group_by``, and a
    ``partition_fold`` (``AGG_PARTS`` partitions) merges the partials
    with one more per fold frame (counts and sums add, minima and
    maxima fold). Null, order and type contract: the module
    docstring's aggregate rule."""
    keys = list(keys)
    specs = [(name, fn, col) for name, (fn, col) in outs.items()]
    merge = [(name, _MERGE[fn], name) for name, fn, _ in specs]
    partials = ds.map_batches(lambda t: _group(t, keys, specs),
                              batch_format="pyarrow")
    return partition_fold(partials, keys, lambda g: _group(g, keys, merge),
                          n_parts=AGG_PARTS, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# two-sided buckets: cogroup and the equi-join on it
# ---------------------------------------------------------------------------
def _arrow_schema(ds) -> pa.Schema:
    """Arrow schema of ``ds``; a type a pandas-backed Dataset reports
    as a Python class (an object column) becomes null."""
    s = ds.schema()
    if s is None:
        return pa.schema([])
    return pa.schema([(n, t if isinstance(t, pa.DataType) else pa.null())
                      for n, t in zip(s.names, s.types)])


def cogroup(left, right, on: list, right_on: list, fn, *, n_buckets: int):
    """Run ``fn(l, r)`` over the rows of ``left`` and ``right`` that
    share ``partition_ids`` buckets (``left`` keyed on ``on``, ``right``
    on ``right_on``, ``n_buckets`` buckets): ``l`` and ``r`` are Arrow
    tables with each side's own column names and types, either possibly
    empty, holding one or more whole buckets (``_fold_partitions``), so
    two equal keys always meet in one call. ``fn`` returns the frame's
    output block; it runs once for every frame that holds a row of
    either side. Null-key rows of both sides come together in the null
    frame, which always comes alone.

    Both sides are tagged with their bucket and a side marker; the right
    side's columns travel renamed, so the Arrow union cannot clash on a
    name or a type. A sorted block may hold rows of one side only, and
    then lacks the other side's columns: that side comes as a typed
    empty table built once from its schema."""
    on, right_on = list(on), list(right_on)
    ls, rs = _arrow_schema(left), _arrow_schema(right)
    rtmp = [f"__r{i}" for i in range(len(rs))]

    def tag(cols: list, names: list, is_right: bool):
        def tag_block(t: pa.Table) -> pa.Table:
            pid = partition_ids(t, cols, n_buckets)
            return pa.Table.from_arrays(
                [*t.columns, pid, pa.array(np.full(t.num_rows, is_right))],
                [*names, "__pb", "__right"])
        return tag_block

    def side(g: pa.Table, mask, names: list, schema: pa.Schema):
        if not set(names) <= set(g.column_names):
            return schema.empty_table()
        return g.filter(mask).select(names).rename_columns(schema.names)

    def run(g: pa.Table):
        is_right = g["__right"]
        return fn(side(g, pc.invert(is_right), ls.names, ls),
                  side(g, is_right, rtmp, rs))

    tagged = left.map_batches(tag(on, ls.names, False),
                              batch_format="pyarrow").union(
        right.map_batches(tag(right_on, rtmp, True),
                          batch_format="pyarrow"))
    return _fold_partitions(tagged, run, n_buckets)


def _matches(l: pa.Table, on: list, r: pa.Table, right_on: list):
    """``(li, ri)`` row index pairs of ``l`` and ``r`` whose keys are
    equal under the key rule, ordered by ``li`` then ``ri``. Arrow's
    hash join pairs the rows on the key hash (key and row-index columns
    only: a join over the full rows rejects list payloads), then the key
    values are compared, so a hash shared by two keys is no match. A key
    with any null component never matches."""
    lh, lnull, lv = key_hash(l, on)
    rh, rnull, rv = key_hash(r, right_on)
    li, ri = np.flatnonzero(~lnull), np.flatnonzero(~rnull)
    m = pa.table({"h": lh[li], "i": li}).join(
        pa.table({"h": rh[ri], "j": ri}), "h", join_type="inner",
        use_threads=False)
    li, ri = m["i"].to_numpy(), m["j"].to_numpy()
    same = _keys_equal([a[li] for a in lv], [b[ri] for b in rv])
    li, ri = li[same], ri[same]
    order = np.lexsort((ri, li))
    return li[order], ri[order]


def join(left, right, on, right_on=None, *, how: str = "inner",
         n_buckets: int = 32):
    """Equi-join of two Datasets on ``on`` = ``right_on`` (a column
    name or a list; ``right_on`` defaults to ``on``): ``how="inner"``
    keeps the matching row pairs, ``"left"`` also keeps every unmatched
    left row with null right columns. Both sides meet in ``cogroup``
    buckets; project them to the columns you need first.

    Contract (the module docstring's join rule): keys match as in
    ``lookup`` (5.0 meets 5, a null never matches); every column keeps
    its Arrow type, a left join's null-filled right payloads included;
    the output holds the left columns, then the right ones, with a right
    key column dropped where its name equals its left key's (pandas
    ``merge``'s shape). Another column name on both sides raises
    ``ValueError``."""
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else \
        [right_on] if isinstance(right_on, str) else list(right_on)
    if how not in ("inner", "left"):
        raise ValueError(f"join: how must be 'inner' or 'left', not {how!r}")
    drop = [rk for lk, rk in zip(on, right_on) if lk == rk]

    def per_frame(l: pa.Table, r: pa.Table) -> pa.Table:
        li, ri = _matches(l, on, r, right_on)
        r = r.drop_columns(drop)
        clash = set(l.column_names) & set(r.column_names)
        if clash:
            raise ValueError(f"join: columns {sorted(clash)} are on both "
                             f"sides; rename or drop them first")
        n_hit = len(li)
        if how == "left":
            # then every left row without a match, its right index null
            alone = np.ones(l.num_rows, dtype=bool)
            alone[li] = False
            li = np.concatenate([li, np.flatnonzero(alone)])
            ri = np.concatenate([ri, np.zeros(len(li) - n_hit, np.int64)])
        miss = np.arange(len(li)) >= n_hit
        lt = l.take(pa.array(li, type=pa.int64()))
        rt = r.take(pa.array(ri, type=pa.int64(), mask=miss))
        return pa.Table.from_arrays(lt.columns + rt.columns,
                                    lt.column_names + rt.column_names)

    return cogroup(left, right, on, right_on, per_frame,
                   n_buckets=n_buckets)


# ---------------------------------------------------------------------------
# keyed lookup
# ---------------------------------------------------------------------------
# table rows up to which an operator without its own size knob
# broadcasts its lookup table (the broadcast_max default elsewhere)
BROADCAST_MAX = 20_000_000


def _concat(parts: list) -> np.ndarray:
    """Key values over blocks, as exact Python objects where non-empty
    blocks disagree on the dtype."""
    parts = [p for p in parts if len(p)]
    if len({p.dtype for p in parts}) > 1:
        parts = [p.astype(object) for p in parts]
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def _sorted_side(h: np.ndarray, keys: list, payload: pa.Table):
    """The table side of a probe: key hashes ascending, key values and
    payload rows in the same order. Two table rows sharing a hash could
    not both be found, so they raise."""
    order = np.argsort(h, kind="stable")
    hs, keys = h[order], [k[order] for k in keys]
    dup = np.flatnonzero(hs[1:] == hs[:-1])
    if len(dup):
        a, b = ([k[j:j + 1].tolist()[0] for k in keys]
                for j in (dup[0], dup[0] + 1))
        raise ValueError(f"lookup: table keys {a} and {b} share a key "
                         f"hash; keep one table row per key")
    return hs, keys, payload.take(pa.array(order))


def _probe(side, h: np.ndarray, null: np.ndarray, keys: list) -> pa.Table:
    """``payload`` row of each probe key (one searchsorted on the hash,
    then a key compare); a null row where the key is absent or ``null``
    is set."""
    hs, tkeys, payload = side
    pos = np.searchsorted(hs, h)
    hit = pos < len(hs)
    hit[hit] = hs[pos[hit]] == h[hit]
    hit &= ~null
    at = pos[hit]
    hit[hit] = _keys_equal([k[hit] for k in keys], [tk[at] for tk in tkeys])
    return payload.take(pa.array(pos, type=pa.int64(), mask=~hit))


def _append(t: pa.Table, got: pa.Table) -> pa.Table:
    for c in got.column_names:
        t = t.append_column(c, got[c])
    return t


def lookup(ds, table, on: list, values: list, *, broadcast_max: int,
           n_buckets: int = 32):
    """Append the ``values`` columns of the Dataset ``table`` to every
    row of ``ds`` whose ``on`` key columns match; ``table`` holds at
    most one row per key. Rows keep their columns and are neither
    dropped nor repeated (their order may change on the bucketed path).

    Contract (the module docstring's lookup rule): keys match exactly
    (hash, then key compare); a key with any null component never
    matches; a miss or a null key gives null ``values``; payloads keep
    their Arrow types on both paths; two table rows sharing a key hash
    raise ``ValueError``.

    Size dispatch, one probe (hash-sorted table with its key values,
    one ``searchsorted`` per batch) on both paths:

    - up to ``broadcast_max`` table rows, the table is collected once,
      sorted by key hash and shared with ``ray.put``; rows never
      shuffle. The driver peaks near 4x the table's key, hash and
      payload bytes while it builds the sorted side.
    - beyond that, both sides meet in ``cogroup`` buckets (of
      ``n_buckets``) and the same probe runs once per fold frame.
    """
    import ray

    on, values = list(on), list(values)
    tmp = [f"__v{i}" for i in range(len(values))]
    tkey = [f"__rk{i}" for i in range(len(on))]
    empty = _arrow_schema(table).empty_table().select(values) \
        .rename_columns(tmp)

    def tag_table(t: pa.Table) -> pa.Table:
        # hashed block by block: a block's key type may differ (an int
        # key null-widened to float64), its hash does not; a null key
        # never matches, so its row is dropped
        h, null, _ = key_hash(t, on)
        keep = ~null
        return pa.Table.from_arrays(
            t.select(values).columns + t.select(on).columns,
            tmp + tkey).filter(pa.array(keep)) \
            .append_column("__rh", pa.array(h[keep]))

    def side(parts: list):
        """The probe's table side from ``tag_table`` rows."""
        return _sorted_side(
            _concat([p["__rh"].to_numpy() for p in parts]).astype(np.uint64),
            [_concat([_column_key(p[c])[0] for p in parts]) for c in tkey],
            pa.concat_tables([p.select(tmp) for p in parts] or [empty],
                             promote_options="default")
            .rename_columns(values))

    if table.count() <= broadcast_max:
        ref = ray.put(side([tag_table(t) for t in table.iter_batches(
            batch_size=None, batch_format="pyarrow")]))
        cache = {}

        def attach(b: pa.Table) -> pa.Table:
            # deserialize the table side once per worker, not per batch
            if "side" not in cache:
                cache["side"] = ray.get(ref)
            return _append(b, _probe(cache["side"], *key_hash(b, on)))

        return ds.map_batches(attach, batch_format="pyarrow")

    def per_frame(rows: pa.Table, found: pa.Table) -> pa.Table:
        # the table side is built even without rows: its keys are
        # checked for a shared hash, as on the broadcast path
        found = side([tag_table(found)])
        return _append(rows, _probe(found, *key_hash(rows, on)))

    return cogroup(ds, table.select_columns(on + values), on, on,
                   per_frame, n_buckets=n_buckets)
