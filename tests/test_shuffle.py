"""stages/shuffle.py: the partition-id rule, the grouped aggregate, the
keyed lookup, and layout independence of every per-key fold and
map-back built on them."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

N = 64


def _ids(table, cols=("k",), n=N):
    from prompture_ray.stages.shuffle import partition_ids
    return partition_ids(table, list(cols), n).to_pylist()


# ---------------------------------------------------------------------------
# partition_ids
# ---------------------------------------------------------------------------
def test_int_key_id_independent_of_width_chunks_and_nulls():
    keys = [5, 7, -3, 0, 2**40]
    ref = _ids(pa.table({"k": pa.array(keys, pa.int64())}))
    assert _ids(pa.table({"k": pa.array(keys[:4], pa.int32())})) \
        == ref[:4]
    chunked = pa.chunked_array([pa.array(keys[:2], pa.int64()),
                                pa.array(keys[2:], pa.int64())])
    assert _ids(pa.table({"k": chunked})) == ref
    with_null = _ids(pa.table({"k": pa.array(keys + [None], pa.int64())}))
    assert with_null[:-1] == ref
    # the same ints as an integral float column (a null-widened int64)
    assert _ids(pa.table({"k": pa.array([float(x) for x in keys])})) == ref
    # non-null int64 keys keep their historic partition
    from prompture_ray.functions.sketches import hash64
    assert ref == (hash64(np.asarray(keys, dtype=np.int64))
                   % np.uint64(N)).astype(np.int64).tolist()


def test_nulls_get_the_fixed_partition():
    t = pa.table({"k": pa.array([None, 5, None], pa.int64()),
                  "s": pa.array(["a", None, "b"]),
                  "f": pa.array([1.5, float("nan"), 2.0])})
    ids = _ids(t, ["k"])
    assert ids[0] == ids[2] == N and ids[1] < N
    assert _ids(t, ["s"])[1] == N
    assert _ids(t, ["f"])[1] == N           # NaN counts as null
    assert _ids(t, ["k", "s"]) == [N, N, N]   # any null component


def test_string_timestamp_and_bool_keys():
    s = pa.table({"k": pa.array(["x", "y", "x", None])})
    ids = _ids(s)
    assert ids[0] == ids[2] and ids[3] == N
    assert all(0 <= i < N for i in ids[:3])
    assert _ids(pa.table({"k": pa.array(["x", "y"], pa.large_string())})) \
        == ids[:2]
    us = [1_700_000_000_000_000, 1_700_000_000_000_007]
    ts_us = pa.array(us, pa.int64()).cast(pa.timestamp("us"))
    ts_ns = pa.array([u * 1000 for u in us], pa.int64()) \
        .cast(pa.timestamp("ns"))
    ref = _ids(pa.table({"k": pa.array(us, pa.int64())}))
    assert _ids(pa.table({"k": ts_us})) == ref
    assert _ids(pa.table({"k": ts_ns})) == ref
    assert _ids(pa.table({"k": pa.array([True, False])})) \
        == _ids(pa.table({"k": pa.array([1, 0], pa.int64())}))


def test_two_column_keys():
    t = pa.table({"a": pa.array([1, 1, 2, 1, None], pa.int64()),
                  "b": pa.array(["x", "y", "x", "x", "x"])})
    ids = _ids(t, ["a", "b"])
    assert ids[0] == ids[3]
    assert all(0 <= i < N for i in ids[:4]) and ids[4] == N
    # the pair hash separates keys that share a first column
    wide = _ids(t, ["a", "b"], n=2**31)
    assert len(set(wide[:4])) == 3


def test_empty_table():
    t = pa.table({"k": pa.array([], pa.int64()),
                  "s": pa.array([], pa.string())})
    from prompture_ray.stages.shuffle import partition_ids
    out = partition_ids(t, ["k", "s"], N)
    assert out.type == pa.int64() and len(out) == 0


# ---------------------------------------------------------------------------
# partition_fold: whole partitions per call, the null partition alone
# ---------------------------------------------------------------------------
def test_runs_cut_whole_partitions_and_the_null_one_alone():
    from prompture_ray.stages.shuffle import _runs
    pb = np.asarray([0, 0, 1, 3, 3, 3, 5, N, N])
    assert _runs(pb, N, 100) == [(0, 7), (7, 9)]
    # partition 3 (3 rows) would take the first run past 4 rows
    assert _runs(pb, N, 4) == [(0, 3), (3, 7), (7, 9)]
    # a partition above the cap runs alone
    assert _runs(pb, N, 2) == [(0, 2), (2, 3), (3, 6), (6, 7), (7, 9)]
    assert _runs(np.asarray([N, N]), N, 1) == [(0, 2)]
    assert _runs(np.asarray([], np.int64), N, 10) == []


def _fold_input() -> pa.Table:
    """1,200 rows over 300 int keys and 12 null keys."""
    i = np.arange(1200)
    return pa.table({"k": pa.array(i * 7 % 300, mask=(i % 100 == 0)),
                     "v": i})


def _fold_calls(n_blocks: int) -> tuple:
    """(``_fold_input()``, one row per input row: its key and the id of
    the ``partition_fold`` call that saw it) with the input cut into
    ``n_blocks`` blocks."""
    import uuid

    import ray.data as rd
    from prompture_ray.stages.shuffle import partition_fold
    t = _fold_input()
    step = -(-t.num_rows // n_blocks)
    blocks = [t.slice(o, step) for o in range(0, t.num_rows, step)]

    def tag_call(g: pa.Table) -> pa.Table:
        return pa.table({"k": g["k"],
                         "call": pa.array([uuid.uuid4().hex] * g.num_rows)})

    ds = partition_fold(rd.from_arrow(blocks), ["k"], tag_call, n_parts=N,
                        batch_format="pyarrow")
    return t, ds.to_pandas()


def _assert_calls_hold_whole_keys(t: pa.Table, seen) -> None:
    assert len(seen) == t.num_rows
    real = seen[seen["k"].notna()]
    assert (real.groupby("k")["call"].nunique() == 1).all()
    null_calls = set(seen.loc[seen["k"].isna(), "call"])
    assert len(null_calls) == 1
    assert not null_calls & set(real["call"])


def test_fold_runs_once_per_sorted_block(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import partition_fold
    t = _fold_input()
    blocks = [t.slice(0, 600), t.slice(600)]
    out = partition_fold(
        rd.from_arrow(blocks), ["k"],
        lambda g: pa.table({"n": [g.num_rows]}), n_parts=N,
        batch_format="pyarrow").to_pandas()
    assert len(out) <= len(blocks) + 1
    assert out["n"].sum() == t.num_rows


@pytest.mark.parametrize("n_blocks", [1, 6])
def test_fold_call_never_splits_a_key_or_mixes_null(ray_session, n_blocks):
    _assert_calls_hold_whole_keys(*_fold_calls(n_blocks))


@pytest.mark.parametrize("n_blocks", [1, 6])
def test_fold_call_stays_under_the_row_cap(ray_session, monkeypatch,
                                           n_blocks):
    from prompture_ray.stages import shuffle
    monkeypatch.setattr(shuffle, "TARGET_ROWS_PER_PART", 30)
    t, seen = _fold_calls(n_blocks)
    _assert_calls_hold_whole_keys(t, seen)
    largest = max(np.bincount(np.asarray(_ids(t, n=N))))
    assert seen.groupby("call").size().max() <= max(30, largest)
    assert seen["call"].nunique() > 1 + n_blocks


def test_fold_strips_pandas_metadata_before_its_sort(ray_session):
    """Blocks Ray converted from pandas carry ``b"pandas"`` schema
    metadata; the fold's tagged rows drop it, so the sort's schema
    unification can hash the schemas and ``fn`` never sees it."""
    import ray.data as rd
    from prompture_ray.stages.shuffle import partition_fold
    df = pd.DataFrame({"k": pd.array([1, 2, None, 1, 3, 2], dtype="Int64"),
                       "v": range(6)})
    out = partition_fold(
        rd.from_pandas([df.iloc[:3], df.iloc[3:]]), ["k"],
        lambda g: pa.table({"bare": [g.schema.metadata is None]}),
        n_parts=4, batch_format="pyarrow")
    bare = out.to_pandas()["bare"].tolist()
    assert bare and all(bare)


# ---------------------------------------------------------------------------
# the block-count rule
# ---------------------------------------------------------------------------
def test_bound_blocks_keeps_a_small_mapped_read(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd
    from prompture_ray.stages.shuffle import bound_blocks
    for j in range(2):
        pq.write_table(pa.table({"x": np.arange(j * 10, j * 10 + 10)}),
                       tmp_path / f"part-{j}.parquet")
    ds = rd.read_parquet(str(tmp_path)).map_batches(
        lambda t: t, batch_format="pyarrow")
    assert bound_blocks(ds) is ds


def test_bound_blocks_coalesces_a_materialized_dataset(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import bound_blocks
    ds = rd.range(3000, override_num_blocks=300).materialize()
    assert ds.num_blocks() == 300
    out = bound_blocks(ds).materialize()
    assert out.num_blocks() == 64
    assert out.sum("id") == sum(range(3000))


def test_bound_blocks_never_executes_a_lazy_input(ray_session):
    """A mapped input has no row estimate: the floor of 64 applies, and
    neither the input nor the result is computed."""
    import ray.data as rd
    from prompture_ray.stages.shuffle import bound_blocks
    ds = rd.range(3000, override_num_blocks=300).map_batches(
        lambda t: t, batch_format="pyarrow")
    out = bound_blocks(ds)
    assert out is not ds
    assert not ds._plan.has_computed_output()
    assert not out._plan.has_computed_output()
    out = out.materialize()
    assert out.num_blocks() == 64
    assert out.sum("id") == sum(range(3000))


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------
def _agg_table() -> pa.Table:
    """240 rows: a string + int key pair (nulls in both), a float key
    with NaN and null, int64 values above 2^55 (all null for key "w"),
    timestamps and strings."""
    i = np.arange(240)
    a = np.asarray(["x", "y", "z", "w", None], dtype=object)[i % 5]
    v = [None if (a[j] == "w" or j % 7 == 0) else 2**55 + j for j in i]
    f = np.asarray([1.5, 2.0, np.nan, 2.0, 1.5, 3.0], dtype=float)[i % 6]
    return pa.table({
        "a": pa.array(a, pa.string()),
        "b": pa.array([None if j % 11 == 0 else j % 3 for j in i],
                      pa.int64()),
        "f": pa.array(f, mask=(i % 13 == 0)),
        "v": pa.array(v, pa.int64()),
        "ts": pa.array(1_700_000_000_000_000 - i * 7919 % 1000 * 10**6,
                       pa.int64()).cast(pa.timestamp("us")),
        "s": pa.array([None if j % 4 == 0 else f"s{j * 37 % 101:03d}"
                       for j in i], pa.string()),
    })


def _rows(t: pa.Table) -> list:
    """Rows of ``t`` as sorted tuples, NaN spelled out (NaN != NaN)."""
    def norm(x):
        return "NaN" if isinstance(x, float) and np.isnan(x) else x
    return sorted((tuple(norm(x) for x in r.values())
                   for r in t.to_pylist()), key=repr)


def _duckdb(t: pa.Table, sql: str) -> pa.Table:
    import duckdb
    con = duckdb.connect()
    con.register("t", t)
    return con.execute(sql).arrow()


def _agg(n_blocks: int, keys: list, **outs) -> pa.Table:
    """``aggregate`` over ``_agg_table()`` cut into ``n_blocks`` blocks."""
    import ray
    import ray.data as rd
    from prompture_ray.stages.shuffle import aggregate
    t = _agg_table()
    step = -(-t.num_rows // n_blocks)
    blocks = [t.slice(o, step) for o in range(0, t.num_rows, step)]
    ds = aggregate(rd.from_arrow(blocks), keys, **outs)
    # Ray may emit a column-less empty block for a partition without rows
    return pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()],
                            promote_options="default")


@pytest.mark.parametrize("n_blocks", [1, 6])
def test_aggregate_matches_duckdb(ray_session, n_blocks):
    got = _agg(n_blocks, ["a", "b"], n=("count", None), sv=("sum", "v"),
               t0=("min", "ts"), lo=("min", "s"), hi=("max", "s"),
               vmax=("max", "v"))
    assert got.column_names == ["a", "b", "n", "sv", "t0", "lo", "hi",
                                "vmax"]
    assert got.schema.types == [pa.string(), pa.int64(), pa.int64(),
                                pa.int64(), pa.timestamp("us"),
                                pa.string(), pa.string(), pa.int64()]
    want = _duckdb(_agg_table(), """
        SELECT a, b, count(*), CAST(sum(v) AS BIGINT), min(ts), min(s),
               max(s), max(v)
        FROM t GROUP BY a, b""")
    assert _rows(got) == _rows(want)
    # exact int64 sums beyond 2^53, and null for an all-null group
    sums = {(r["a"], r["b"]): r["sv"] for r in got.to_pylist()}
    assert sums[("x", 0)] == sum(2**55 + j for j in range(240)
                                 if j % 5 == 0 and j % 11 and j % 7
                                 and j % 3 == 0)
    assert sums[("x", 0)] > 2**53
    assert {s for (a, _), s in sums.items() if a == "w"} == {None}


@pytest.mark.parametrize("n_blocks", [1, 6])
def test_aggregate_null_and_nan_keys_are_separate_groups(ray_session,
                                                         n_blocks):
    got = _agg(n_blocks, ["f"], n=("count", None), sv=("sum", "v"))
    want = _duckdb(_agg_table(), "SELECT f, count(*), CAST(sum(v) AS BIGINT) "
                      "FROM t GROUP BY f")
    assert _rows(got) == _rows(want)
    keys = [r[0] for r in _rows(got)]
    assert None in keys and "NaN" in keys and len(keys) == 5


def test_aggregate_empty_input_and_keys_only(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import aggregate
    empty = aggregate(rd.from_arrow(_agg_table().slice(0, 0)), ["a"],
                      n=("count", None))
    assert empty.count() == 0
    distinct = _agg(2, ["a"])
    assert sorted(distinct["a"].to_pylist(), key=repr) == \
        sorted(["x", "y", "z", "w", None], key=repr)


def test_table_checks_null_keys_match_sql(ray_session):
    """``distinct_count`` is SQL's COUNT(DISTINCT), which skips nulls;
    ``duplicate_keys`` is GROUP BY ... HAVING count(*) > 1, where the
    null key is one group."""
    import ray
    import ray.data as rd
    from prompture_ray.stages.table_checks import (distinct_count,
                                                   duplicate_keys)
    t = _agg_table()
    ds = rd.from_arrow([t.slice(0, 100), t.slice(100)])
    assert distinct_count(ds, "a") == _duckdb(
        t, "SELECT count(DISTINCT a) FROM t").column(0)[0].as_py() == 4
    dups = duplicate_keys(ds, "a").to_arrow_refs()
    got = pa.concat_tables([ray.get(r) for r in dups],
                           promote_options="default")
    want = _duckdb(t, "SELECT a, count(*) FROM t GROUP BY a "
                      "HAVING count(*) > 1")
    assert _rows(got) == _rows(want) and None in got["a"].to_pylist()


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------
BIG = 2**61 + 3          # not representable in float64


@pytest.mark.parametrize("bmax", [20_000_000, 0])
def test_lookup_matches_a_dict_reference(ray_session, bmax):
    import ray.data as rd
    from prompture_ray.stages.shuffle import lookup
    keys = [[5, 7, 11, None], [7, 13, 5, 2**40]]
    rows = [pa.table({"row": pa.array(range(4 * i, 4 * i + 4), pa.int64()),
                      "k": pa.array(b, pa.int64())})
            for i, b in enumerate(keys)]
    # 13 is absent; the null-key table row must not meet the null row
    table = pa.table({"k": pa.array([5, 7, 11, 2**40, None], pa.int64()),
                      "big": pa.array([BIG + i for i in range(5)],
                                      pa.int64()),
                      "name": ["five", "seven", None, "huge", "null"]})
    ref = {5: (BIG, "five"), 7: (BIG + 1, "seven"), 11: (BIG + 2, None),
           2**40: (BIG + 3, "huge")}
    out = lookup(rd.from_arrow(rows), rd.from_arrow(table), ["k"],
                 ["big", "name"], broadcast_max=bmax)
    got = sorted(out.take_all(), key=lambda r: r["row"])
    want = []
    for r, k in enumerate(keys[0] + keys[1]):
        big, name = ref.get(k, (None, None))
        want.append({"row": r, "k": k, "big": big, "name": name})
    assert got == want
    schema = out.schema()
    assert list(schema.names) == ["row", "k", "big", "name"]
    assert list(schema.types)[2:] == [pa.int64(), pa.string()]


def test_lookup_paths_agree_on_two_column_and_string_keys(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import lookup
    rows = rd.from_arrow([
        pa.table({"a": ["x", "y", None], "b": pa.array([1, 2, 3])}),
        pa.table({"a": ["x", "x", "z"], "b": pa.array([2, 1, 1])})])
    table = rd.from_arrow(pa.table({"a": ["x", "x", "y", "z"],
                                    "b": pa.array([1, 2, 2, 9]),
                                    "v": pa.array([10, 20, 30, 40])}))
    got = [sorted(lookup(rows, table, ["a", "b"], ["v"],
                         broadcast_max=bmax).take_all(),
                  key=repr) for bmax in (100, 0)]
    assert got[0] == got[1]
    assert sorted((r["a"], r["b"], r["v"]) for r in got[0]
                  if r["a"] is not None) == [
        ("x", 1, 10), ("x", 1, 10), ("x", 2, 20), ("y", 2, 30),
        ("z", 1, None)]


# 0.5's float64 bits read as an int64: its hash is this int's hash
HALF_BITS = int(np.array([0.5]).view(np.int64)[0])


@pytest.mark.parametrize("bmax", [20, 0])
def test_lookup_hash_match_on_another_key_is_a_miss(ray_session, bmax):
    import ray.data as rd
    from prompture_ray.stages.shuffle import key_hash, lookup
    rows = pa.table({"k": [0.5, 2.0, 3.5]})
    table = pa.table({"k": pa.array([HALF_BITS, 2], pa.int64()),
                      "v": pa.array([10, 20], pa.int64())})
    assert key_hash(rows, ["k"])[0][0] == key_hash(table, ["k"])[0][0]
    out = lookup(rd.from_arrow(rows), rd.from_arrow(table), ["k"], ["v"],
                 broadcast_max=bmax)
    assert sorted((r["k"], r["v"]) for r in out.take_all()) == [
        (0.5, None), (2.0, 20), (3.5, None)]


@pytest.mark.parametrize("bmax", [20, 0])
def test_lookup_table_keys_sharing_a_hash_raise(ray_session, bmax):
    import ray.data as rd
    from prompture_ray.stages.shuffle import lookup
    rows = rd.from_arrow(pa.table({"k": [0.5]}))
    for keys, match in (([0.5, float(HALF_BITS)], r"\[0.5\] and \[4.6"),
                        ([5.0, 5.0], r"\[5\] and \[5\] share")):
        table = rd.from_arrow(pa.table({"k": keys, "v": [1, 2]}))
        with pytest.raises(Exception, match=match):
            lookup(rows, table, ["k"], ["v"],
                   broadcast_max=bmax).materialize()


def test_unwiden_refuses_a_rounded_int():
    from prompture_ray.stages.shuffle import _unwiden
    src = pa.table({"w": pa.array([2**61 + 1, None], pa.int64()),
                    "v": pa.array([3, None], pa.int64())})
    out = pa.Table.from_pandas(src.to_pandas())
    assert out.schema.field("w").type == pa.float64()
    with pytest.raises(ValueError, match="column 'w' holds a null"):
        _unwiden(out, src)
    back = _unwiden(out.drop_columns(["w"]), src)
    assert back.schema.field("v").type == pa.int64()
    assert back["v"].to_pylist() == [3, None]


@pytest.mark.parametrize("bmax", [20_000_000, 0])
def test_group_prior_null_key_raises_on_both_paths(ray_session, bmax):
    import ray.data as rd
    from prompture_ray.stages.groupstats import group_prior
    ds = rd.from_arrow([_table(np.arange(24)),
                        _table(np.arange(30, 31), k=[None])])
    # Ray wraps the task's ValueError; its message names the cause
    with pytest.raises(Exception,
                       match="ValueError: group_prior: null 'k' keys"):
        group_prior(ds, "k", "v", broadcast_max=bmax).materialize()


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------
def _join_sides(shift: int) -> tuple:
    """Left and right tables keyed on ``k`` (keys offset by ``shift``),
    each with a null key, a key the other side lacks and a key repeated
    on both sides; int64 payloads above 2^61."""
    lk = [5, 7, 7, 11, None, 13, 5, 17]
    rk = [7, 5, 7, None, 19, 11, 7]
    off = lambda ks: pa.array([None if k is None else k + shift
                               for k in ks], pa.int64())
    left = pa.table({"k": off(lk), "row": pa.array(range(len(lk))),
                     "lp": pa.array([BIG + i for i in range(len(lk))])})
    right = pa.table({"rk": off(rk),
                      "rp": pa.array([BIG + 10 + i for i in range(len(rk))]),
                      "rs": pa.array(list("abcdefg"))})
    return left, right


def _split(t: pa.Table, n_blocks: int) -> list:
    step = -(-t.num_rows // n_blocks)
    return [t.slice(i, step) for i in range(0, t.num_rows, step)]


def _join_result(left: list, right: list, how: str, n_buckets: int = 4):
    """Rows (sorted) and Arrow schema of ``shuffle.join`` over the given
    blocks; the blocks must concatenate without a type change."""
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    out = _arrow(join(rd.from_arrow(left), rd.from_arrow(right), "k",
                      "rk", how=how, n_buckets=n_buckets))
    return sorted(out.to_pylist(), key=repr), out.schema


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("shift", [0, 2**61])
def test_join_is_layout_independent_and_exact(ray_session, how, shift):
    """1 block against several on either side, with keys and payloads
    beyond 2^53: the rows equal DuckDB's join and every layout gives the
    one-block result's rows and column types."""
    import duckdb
    lt, rt = _join_sides(shift)
    small = _join_result([lt], [rt], how)
    want = duckdb.sql(f"SELECT lt.*, rt.* FROM lt {how.upper()} JOIN rt "
                      f"ON lt.k = rt.rk").arrow()
    assert small[0] == sorted(want.to_pylist(), key=repr)
    assert small[1] == pa.schema([("k", pa.int64()), ("row", pa.int64()),
                                  ("lp", pa.int64()), ("rk", pa.int64()),
                                  ("rp", pa.int64()), ("rs", pa.string())])
    for nl, nr, nb in ((3, 1, 4), (1, 3, 4), (4, 3, 2), (2, 2, 32)):
        assert _join_result(_split(lt, nl), _split(rt, nr), how, nb) == small


def test_join_empty_side(ray_session):
    """An empty side: inner joins give no rows, a left join against an
    empty right side keeps every left row with typed null payloads."""
    lt, rt = _join_sides(2**61)
    assert _join_result([lt.slice(0, 0)], [rt], "inner")[0] == []
    assert _join_result([lt.slice(0, 0)], [rt], "left")[0] == []
    assert _join_result([lt], [rt.slice(0, 0)], "inner")[0] == []
    rows, schema = _join_result(_split(lt, 3), [rt.slice(0, 0)], "left")
    assert rows == sorted(({**r, "rk": None, "rp": None, "rs": None}
                           for r in lt.to_pylist()), key=repr)
    assert schema.field("rp").type == pa.int64()


def test_left_join_keeps_int64_payloads_beyond_2_53(ray_session):
    """Right int64 payloads above 2^53 come back int64 and exact next to
    the misses' nulls (a pandas merge turned them into rounded floats)."""
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4], pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 4], pa.int64()),
        "v": pa.array([2**61 + 1, 2**61 + 3], pa.int64())}))
    out = _arrow(join(left, right, "k", how="left", n_buckets=2))
    assert out.schema.field("v").type == pa.int64()
    assert dict(zip(out["k"].to_pylist(), out["v"].to_pylist())) == {
        1: None, 2: 2**61 + 1, 3: None, 4: 2**61 + 3}


@pytest.mark.parametrize("how", ["inner", "left"])
def test_join_keeps_a_list_payload(ray_session, how):
    """A list column rides the join (Arrow's hash join rejects list
    non-key fields, so only keys and row indices enter it)."""
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    left = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "sig": pa.array([[1, 2], [3], []], pa.list_(pa.int64()))}))
    right = rd.from_arrow(pa.table({
        "id": pa.array([1, 3, 3], pa.int64()),
        "tags": pa.array([["x"], ["y", "z"], None],
                         pa.list_(pa.string()))}))
    out = _arrow(join(left, right, "id", how=how, n_buckets=2))
    assert out.schema.field("sig").type == pa.list_(pa.int64())
    assert out.schema.field("tags").type == pa.list_(pa.string())
    want = [(1, [1, 2], ["x"]), (3, [], ["y", "z"]), (3, [], None)]
    if how == "left":
        want.append((2, [3], None))
    assert sorted(zip(*(out[c].to_pylist() for c in ("id", "sig", "tags"))),
                  key=repr) == sorted(want, key=repr)


def test_join_rejects_a_column_on_both_sides(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    t = rd.from_arrow(pa.table({"k": [1], "v": [2]}))
    with pytest.raises(Exception, match=r"columns \['v'\] are on both"):
        join(t, t, "k").materialize()


# ---------------------------------------------------------------------------
# layout independence of every per-key fold and map-back
# ---------------------------------------------------------------------------
HOUR = 3_600_000_000
KEYS = [5, 7, 11, 13, 17, 19]


def _table(i: np.ndarray, k=None) -> pa.Table:
    t = (i * HOUR + (i % 5) * 600_000_000).astype(np.int64)
    v = ((i * 7) % 11 // 3).astype(np.int64)
    if k is None:
        k = np.asarray(KEYS, dtype=np.int64)[i % len(KEYS)]
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "t": t,
        "ts": pa.array(t).cast(pa.timestamp("us")),
        "tie": i.astype(np.int64),
        "v": v,
        "w": pa.array(v, mask=(i % 3 == 0)),
        "e": t + (i % 4) * 40 * 60_000_000,
        "step": (i // 3).astype(np.int64),
        "typ": pa.array(np.asarray(["a", "b", "c"])[(i * 5) % 3]),
    })


def _blocks(with_null: bool, one_block: bool) -> list:
    """48 rows over six int64 keys in two blocks; ``with_null`` adds one
    null-key row to the second block."""
    blocks = [_table(np.arange(24)), _table(np.arange(24, 48))]
    if with_null:
        blocks[1] = pa.concat_tables(
            [blocks[1], _table(np.arange(30, 31), k=[None])
             .set_column(3, "tie", pa.array([1000], pa.int64()))])
    return [pa.concat_tables(blocks)] if one_block else blocks


def _bucketed_lookup(op):
    """``op`` built with ``shuffle.BROADCAST_MAX`` at 0, so the lookup
    it dispatches while being built takes the bucketed path."""
    from prompture_ray.stages import shuffle

    def run(ds):
        old, shuffle.BROADCAST_MAX = shuffle.BROADCAST_MAX, 0
        try:
            return op(ds)
        finally:
            shuffle.BROADCAST_MAX = old
    return run


def _ops():
    from prompture_ray.stages import (analytic as an, groupstats as gs,
                                      intervals as iv, userpath as up,
                                      windows as wn)
    from prompture_ray.stages.shuffle import aggregate, join
    return {
        "forward_fill": lambda ds: an.forward_fill(
            ds, "k", "t", "tie", ["w"]),
        "lag_shift": lambda ds: an.lag_shift(
            ds, "k", "ts", "tie", ["v"], shifts=(1, -1)),
        "suppress_bursts": lambda ds: an.suppress_bursts(
            ds, "k", "t", "tie", min_gap=7 * HOUR),
        "time_weighted_avg": lambda ds: an.time_weighted_avg(
            ds, "k", "t", "tie", "v"),
        "rolling_anomaly": lambda ds: an.rolling_anomaly(
            ds, "k", "t", "tie", "v", window=3, k=1),
        "cusum_flags": lambda ds: an.cusum_flags(
            ds, "k", "t", "tie", "v", target_k=1, threshold_h=2),
        "ntile_by_key": lambda ds: an.ntile_by_key(ds, "k", "tie", 3),
        "max_drawdown_by_key": lambda ds: an.max_drawdown_by_key(
            ds, "k", "t", "tie", "v"),
        "longest_streak": lambda ds: an.longest_streak(
            ds, "k", "t", "tie", "v"),
        "top_k_per_group": lambda ds: an.top_k_per_group(
            ds, "k", "v", 2, "tie"),
        "analytic_window_bucketed": lambda ds: an.analytic_window_bucketed(
            ds, "k", "ts", "tie", "v", window=3, bucket="1d"),
        "analytic_window_bucketed_bmax0": _bucketed_lookup(
            lambda ds: an.analytic_window_bucketed(
                ds, "k", "ts", "tie", "v", window=3, bucket="1d")),
        "running_aggregate_bucketed":
            lambda ds: wn.running_aggregate_bucketed(
                ds, "k", "ts", "v", bucket="1d"),
        "running_aggregate_bucketed_bmax0": _bucketed_lookup(
            lambda ds: wn.running_aggregate_bucketed(
                ds, "k", "ts", "v", bucket="1d")),
        "session_windows_bucketed": lambda ds: wn.session_windows_bucketed(
            ds, "k", "ts", gap="7h", bucket="1d"),
        "grouped_outliers": lambda ds: gs.grouped_outliers(
            ds, "k", "v", k=1),
        "grouped_quantiles": lambda ds: gs.grouped_quantiles(ds, "k", "v"),
        "grouped_weighted_quantiles":
            lambda ds: gs.grouped_weighted_quantiles(
                ds, "k", "v", "tie", qs=(0.5, 0.9)),
        "gini_by_key": lambda ds: gs.gini_by_key(ds, "k", "v"),
        "funnel_counts": lambda ds: up.funnel_counts(
            ds, "k", "ts", "typ", ["a", "b", "c"]),
        "retention_cohorts": lambda ds: up.retention_cohorts(
            ds, "k", "ts", day_us=6 * HOUR),
        "interval_coverage": lambda ds: iv.interval_coverage(
            ds, "k", "t", "e"),
        "gap_fill": lambda ds: iv.gap_fill(ds, "k", "step"),
        # map-backs on shuffle.lookup, at both sizes; percent_rank_by_key
        # has no broadcast_max=0 row: its driver cumsum needs the cells
        # collected, so the cell-count guard raises there
        "winsorize_by_key": lambda ds: gs.winsorize_by_key(
            ds, "k", "v", lo_q=0.25, hi_q=0.75),
        "winsorize_by_key_bucketed": lambda ds: gs.winsorize_by_key(
            ds, "k", "v", lo_q=0.25, hi_q=0.75, broadcast_max=0),
        "impute_group_median": lambda ds: gs.impute_group_median(
            ds, "k", "w", out_col="w_imp"),
        "impute_group_median_bucketed": lambda ds: gs.impute_group_median(
            ds, "k", "w", out_col="w_imp", broadcast_max=0),
        "percent_rank_by_key": lambda ds: an.percent_rank_by_key(
            ds, "k", "v"),
        "aggregate": lambda ds: aggregate(
            ds, ["k"], n=("count", None), v_sum=("sum", "v"),
            w_sum=("sum", "w"), ts_min=("min", "ts"), typ_max=("max", "typ")),
        "join_inner": lambda ds: join(ds, _join_right(), "k", n_buckets=4),
        "join_left": lambda ds: join(ds, _join_right(), "k", how="left",
                                     n_buckets=4),
    }


def _join_right():
    """Three blocks keyed on ``k``: two rows for key 5, one each for 7
    and 11, one for the absent key 23 and one null key."""
    import ray.data as rd
    k = [5, 5, 7, 11, 23, None]
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "rp": pa.array(range(100, 106), pa.int64()),
                  "rs": pa.array(["a", "b", None, "d", "e", "f"])})
    return rd.from_arrow([t.slice(0, 2), t.slice(2, 3), t.slice(5)])


def _norm(x):
    if isinstance(x, np.generic):
        x = x.item()
    if x is None or (not isinstance(x, (str, bytes)) and pd.isna(x)):
        return None
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _non_null_rows(ds) -> list:
    df = ds.to_pandas()
    if "k" in df.columns:
        df = df[df["k"].notna()]
    cols = sorted(df.columns)
    rows = [tuple(_norm(x) for x in r)
            for r in df[cols].itertuples(index=False)]
    return [cols] + sorted(rows, key=repr)


@pytest.mark.parametrize("op", sorted(_ops()))
def test_fold_is_layout_independent_with_a_null_key(ray_session, op):
    import ray.data as rd
    fn = _ops()[op]
    two = _non_null_rows(fn(rd.from_arrow(_blocks(True, False))))
    one = _non_null_rows(fn(rd.from_arrow(_blocks(True, True))))
    clean = _non_null_rows(fn(rd.from_arrow(_blocks(False, False))))
    assert len(clean) > 1
    assert two == one
    assert two == clean


@pytest.mark.parametrize("op", ["aggregate", "cusum_flags",
                                "grouped_quantiles",
                                "grouped_weighted_quantiles",
                                "ntile_by_key", "rolling_anomaly",
                                "session_windows_bucketed"])
def test_pandas_fold_blocks_keep_the_key_type(ray_session, op):
    """Every output block of a pandas fold (and of ``aggregate``), the
    null-key partition's included, carries the int64 key as int64
    (pandas turns a key column holding a null into float64), so the
    blocks concatenate; no block keeps pandas schema metadata, so the
    schemas hash (Ray's schema unification dedups them in a set)."""
    import ray
    import ray.data as rd
    ds = _ops()[op](rd.from_arrow(_blocks(True, False)))
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    assert len({b.schema for b in blocks}) >= 1
    out = pa.concat_tables(blocks, promote_options="default")
    assert out.schema.field("k").type == pa.int64()
    assert out["k"].null_count == 1


WINDOW_OPS = ["analytic_window_bucketed", "analytic_window_bucketed_bmax0",
              "running_aggregate_bucketed",
              "running_aggregate_bucketed_bmax0"]


def _arrow(ds) -> pa.Table:
    """The Dataset's blocks concatenated strictly: a column whose type
    differs between blocks raises."""
    import ray
    return pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()],
                            promote_options="default")


@pytest.mark.parametrize("op", WINDOW_OPS)
def test_bucketed_window_blocks_keep_the_passthrough_type(ray_session, op):
    """The bucketed window ops look their per-cell table up on Arrow
    blocks, so the nullable int64 ``w`` stays int64 in every block."""
    import ray.data as rd
    out = _arrow(_ops()[op](rd.from_arrow(_blocks(True, False))))
    assert out.schema.field("w").type == pa.int64()
    assert out.schema.field("k").type == pa.int64()


@pytest.mark.parametrize("op", WINDOW_OPS)
def test_bucketed_window_passthrough_above_2_53(ray_session, op):
    """A nullable int64 passthrough above 2^53 comes back exact, on the
    broadcast and the bucketed lookup path."""
    import ray.data as rd
    big = 2**61 + 1
    blocks = []
    for i in (np.arange(24), np.arange(24, 48)):
        t = _table(i)
        w = pa.array([None if j % 3 == 0 else big + j for j in i.tolist()],
                     pa.int64())
        blocks.append(t.set_column(t.schema.get_field_index("w"), "w", w))
    out = _arrow(_ops()[op](rd.from_arrow(blocks)))
    assert out.schema.field("w").type == pa.int64()
    assert dict(zip(out["tie"].to_pylist(), out["w"].to_pylist())) == {
        j: None if j % 3 == 0 else big + j for j in range(48)}


# ---------------------------------------------------------------------------
# stage ops on partition_fold / cogroup: one block against seven
# ---------------------------------------------------------------------------
def _docs() -> pa.Table:
    """40 docs of four lines each over a 12-line pool; docs 20-39 are
    docs 0-19 with their first line replaced, so lines, tokens and
    near-copies repeat across docs."""
    rng = np.random.default_rng(3)
    pool = [f"line{j} " + " ".join(f"w{(j * 7 + x) % 40}" for x in range(5))
            for j in range(12)]
    texts = [[pool[j] for j in sorted(rng.choice(12, 4, replace=False))]
             for _ in range(20)]
    texts += [[f"fresh{i} tail{i}"] + t[1:] for i, t in enumerate(texts)]
    n = len(texts)
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": ["\n".join(t) for t in texts],
                     "dom": [f"d{i % 7}" for i in range(n)],
                     "grp": [f"g{i % 4}" for i in range(n)]})


def _edges() -> pa.Table:
    """Node ids at and above 2^61 (beyond float64's exact range) with
    duplicate, reversed and self-loop edges."""
    rng = np.random.default_rng(5)
    a = rng.integers(0, 15, 60)
    b = rng.integers(0, 15, 60)
    base = 2**61
    return pa.table({"src": pa.array(a + base, pa.int64()),
                     "dst": pa.array(b + base, pa.int64()),
                     "subject_id": pa.array(a + base, pa.int64()),
                     "object_id": pa.array(b + base, pa.int64())})


def _keyed_rows() -> pa.Table:
    """40 rows over five int64 keys and a null key, with int64 payloads
    above 2^61 (beyond float64's exact range); ``w`` holds nulls."""
    i = np.arange(40)
    big = 2**61
    return pa.table({
        "k": pa.array([None if j % 9 == 4 else j % 5 for j in i.tolist()],
                      pa.int64()),
        "t": pa.array((i * 7 % 40) * HOUR, pa.int64()),
        "tie": pa.array(i, pa.int64()),
        "p": pa.array(big + i, pa.int64()),
        "w": pa.array([None if j % 3 else big + j for j in i.tolist()],
                      pa.int64())})


def _null_edges() -> pa.Table:
    """``_edges`` plus one edge with a null source."""
    t = _edges()
    return pa.concat_tables([t, pa.table({
        c: pa.array([None if c == "src" else 2**61 + 3], pa.int64())
        for c in t.column_names})])


def _null_host_docs() -> pa.Table:
    """``_docs`` with doc ids above 2^61 and a null ``dom`` host on
    every ninth doc."""
    t = _docs()
    dom = [None if i % 9 == 4 else d
           for i, d in enumerate(t["dom"].to_pylist())]
    return t.set_column(0, "doc_id", pc.add(t["doc_id"], 2**61)) \
        .set_column(2, "dom", pa.array(dom, pa.string()))


def _keyed_events() -> pa.Table:
    """``_keyed_rows`` with keys above 2^61 (the null key stays) and
    ``t`` also as a timestamp column ``ts``."""
    t = _keyed_rows()
    t = t.set_column(0, "k", pc.add(t["k"], 2**61))
    return t.append_column("ts", t["t"].cast(pa.timestamp("us")))


def _stage_ops():
    from prompture_ray.stages import (analytic, boilerplate, dedup,
                                      entity_store, graph, salted, sampling,
                                      setjoin, tfidf, windows)
    seeds = [2**61 + 1, 2**61 + 2]
    return {
        "set_similarity_join": (_docs, lambda ds: setjoin.set_similarity_join(
            ds, "doc_id", "text", 0.5)),
        "containment_join": (_docs, lambda ds: setjoin.containment_join(
            ds, "doc_id", "text", 0.7)),
        "canonical_edges": (_edges, lambda ds: graph.canonical_edges(
            ds, n_parts=8)),
        "triangle_count": (_edges, lambda ds: graph.triangle_count(ds)),
        "common_neighbors": (_edges, lambda ds: graph.common_neighbors(ds)),
        "vocab_jaccard": (_docs, lambda ds: tfidf.vocab_jaccard(
            ds, "grp", n_parts=8)),
        "tfidf_topk_terms": (_docs, lambda ds: tfidf.tfidf_topk_terms(
            ds, broadcast_max=0, n_buckets=4)),
        "line_dedup": (_docs, lambda ds: dedup.line_dedup(
            ds, broadcast_max=0, n_buckets=4)),
        "domain_cap": (_docs, lambda ds: sampling.domain_cap(
            ds, "dom", "doc_id", 2, n_buckets=4)),
        "assign_shards": (_docs, lambda ds: sampling.assign_shards(
            ds.select_columns(["doc_id", "dom"]), "doc_id", 3,
            cells_per_shard=4, n_parts=8)),
        "k_hop_neighbors": (_edges, lambda ds: entity_store.k_hop_neighbors(
            ds.select_columns(["subject_id", "object_id"]), seeds, k=3,
            broadcast_max=0, n_parts=8, as_dataset=True)),
        # Arrow folds whose function returns a pandas frame
        "forward_fill": (_keyed_rows, lambda ds: analytic.forward_fill(
            ds, "k", "t", "tie", ["w"], n_parts=8)),
        "lag_shift": (_keyed_rows, lambda ds: analytic.lag_shift(
            ds, "k", "t", "tie", ["p", "w"], shifts=(1, -2), n_parts=8)),
        "suppress_bursts": (_keyed_rows, lambda ds: analytic.suppress_bursts(
            ds, "k", "t", "tie", min_gap=3 * HOUR, n_parts=8)),
        # grouped aggregates on shuffle.aggregate
        "degree_table": (_null_edges, lambda ds: graph.degree_table(ds)),
        "session_counts_bucketed": (
            _keyed_events, lambda ds: windows.session_counts_bucketed(
                ds, "k", "ts", gap="2h", bucket="1d")),
        "salted_groupby_stats": (
            _keyed_events, lambda ds: salted.salted_groupby_stats(
                ds, "k", "w", n_salt=3)),
        "boilerplate_lines": (
            _null_host_docs, lambda ds: boilerplate.boilerplate_lines(
                ds, host_col="dom", broadcast_max=0, n_buckets=4)),
    }


# ops whose blocks stay pandas frames, so that ``Dataset.to_pandas()``
# keeps a nullable int64 above 2^53 exact (as nullable Int64); an Arrow
# block without pandas metadata would come back float64. The next fold
# strips the metadata before its sort
# (``test_fold_strips_pandas_metadata_before_its_sort``).
_PANDAS_BLOCK_OPS = {"forward_fill", "lag_shift", "suppress_bursts"}


@pytest.mark.parametrize("op", sorted(_stage_ops()))
def test_stage_fold_is_layout_independent(ray_session, op):
    """The same rows as one block and as seven give the same sorted
    result, ints compared exactly, and every output block's schema
    hashes outside ``_PANDAS_BLOCK_OPS`` (no block carries pandas schema
    metadata, which would send Ray's schema unification down its slow
    path)."""
    import ray
    import ray.data as rd
    data, fn = _stage_ops()[op]
    t = data()
    got = []
    for blocks in ([t], _split(t, 7)):
        out = fn(rd.from_arrow(blocks))
        parts = [ray.get(r) for r in out.to_arrow_refs()]
        if op not in _PANDAS_BLOCK_OPS:
            assert len({b.schema for b in parts}) >= 1
        # nullable Int64: int64 values above 2^53 compare exactly
        df = pa.concat_tables(parts, promote_options="default") \
            .to_pandas(types_mapper={pa.int64(): pd.Int64Dtype()}.get)
        df = df[sorted(df.columns)]
        got.append(df.sort_values(list(df.columns), ignore_index=True))
    assert len(got[0]) > 0
    pd.testing.assert_frame_equal(got[0], got[1])


# the ops whose result is one ``shuffle.aggregate``; ``boilerplate_lines``
# is left out: its ``shuffle.lookup`` of an empty host table raises
# ``KeyError`` (no columns to take the schema from)
@pytest.mark.parametrize("op", ["degree_table", "session_counts_bucketed",
                                "salted_groupby_stats"])
def test_stage_aggregate_of_no_rows(ray_session, op):
    """An empty input runs and gives no rows. (Its blocks carry no
    columns: a fold over no rows emits a column-less block.)"""
    import ray.data as rd
    data, fn = _stage_ops()[op]
    assert _arrow(fn(rd.from_arrow(data().slice(0, 0)))).num_rows == 0


# ---------------------------------------------------------------------------
# no hand-rolled hash-bucket fold in stages/
# ---------------------------------------------------------------------------
# column names the hand-rolled taggers used for a partition id
_TAG_COLS = {"__pb", "__pb2", "_p", "_sb", "_b", "__part", "_part",
             "__cell", "bucket"}
# (module, enclosing function, key): each fn opens the files of the one
# on-disk bucket it is called for, or (components_label_propagation)
# reuses edges tagged once across rounds
_KEPT_SITES = {
    ("minhash_index.py", "minhash_index_flags_partitioned", "bucket"),
    ("minhash_index.py", "minhash_index_flags_partitioned", "_sb"),
    ("dedup_index.py", "_dedup_partitioned", "_b"),
    ("dedup.py", "components_label_propagation", "__pb"),
}


def _tagged_map_groups(source: str, module: str) -> set:
    """``(module, top-level function, key)`` of every
    ``.groupby(<key>).map_groups(...)`` in ``source`` keyed on one of
    ``_TAG_COLS`` (function None at module level)."""
    import ast
    found = set()
    for top in ast.parse(source).body:
        fn_name = getattr(top, "name", None)
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Attribute)
                    and node.func.value.func.attr == "groupby"
                    and node.func.value.args):
                continue
            arg = node.func.value.args[0]
            keys = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) \
                else [arg]
            for k in keys:
                if isinstance(k, ast.Constant) and k.value in _TAG_COLS:
                    found.add((module, fn_name, k.value))
    return found


def test_guard_finds_a_hand_rolled_bucket_fold():
    src = ("def op(ds):\n"
           "    def inner(t):\n"
           "        return t\n"
           "    return ds.map_batches(tag).groupby('__pb') \\\n"
           "        .map_groups(inner)\n"
           "def other(ds):\n"
           "    return ds.groupby(['_p']).map_groups(f)\n"
           "def fine(ds):\n"
           "    return ds.groupby('doc_id').map_groups(f)\n")
    assert _tagged_map_groups(src, "m.py") == {("m.py", "op", "__pb"),
                                               ("m.py", "other", "_p")}


def test_stages_fold_hash_buckets_only_through_shuffle():
    """Every hash/bucket/cell fold in ``stages/`` runs on
    ``shuffle.partition_fold`` or ``cogroup`` (one call per run of whole
    partitions, the key → partition rule in one place); only the listed
    sites keep a tagged ``map_groups``."""
    import pathlib
    import prompture_ray.stages as stages
    root = pathlib.Path(stages.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        if path.name != "shuffle.py":
            found |= _tagged_map_groups(path.read_text(), path.name)
    assert found - _KEPT_SITES == set()
    assert _KEPT_SITES <= found, "a kept site moved: update _KEPT_SITES"


# ---------------------------------------------------------------------------
# one block-count rule: no per-op knob, no hand-sized repartition
# ---------------------------------------------------------------------------
# the deleted per-op block-count keyword, spelled in two parts so that a
# text search for it finds nothing in the repo
_KNOB = "shuffle" + "_blocks"
# (module, enclosing function): each repartition sizes an OUTPUT (a
# final table or files), not the input of a sort
_KEPT_REPARTITIONS = {
    # one block for a table of at most nine digit rows
    ("stats.py", "leading_digit_counts"),
    # ~5M posting rows per compacted index file
    ("text_index.py", "compact_text_index"),
    # the driver-built score table split for its consumers
    ("graph.py", "_hits_broadcast"),
    # the driver-built pair table split for its consumers
    ("setjoin.py", "containment_join"),
}


def _block_sizing(source: str, module: str) -> set:
    """``(module, top-level function, what)`` for every ``.repartition``
    call (what ``"repartition"``) and every name, parameter, keyword or
    attribute called ``_KNOB`` (what ``_KNOB``) in ``source``."""
    import ast
    found = set()
    for top in ast.parse(source).body:
        fn_name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "repartition":
                found.add((module, fn_name, "repartition"))
            name = getattr(node, "id", None) or getattr(node, "arg", None) \
                or getattr(node, "attr", None)
            if name == _KNOB:
                found.add((module, fn_name, _KNOB))
    return found


def test_guard_finds_a_hand_sized_repartition():
    src = ("def op(ds, n):\n"
           "    return ds.map_batches(f).repartition(max(64, n // 500_000))"
           ".groupby('k')\n"
           f"def knob(ds, {_KNOB}=128):\n"
           "    return ds\n"
           "def caller(ds):\n"
           f"    return knob(ds, {_KNOB}=8)\n"
           "def fine(ds):\n"
           "    return bound_blocks(ds).groupby('k')\n")
    assert _block_sizing(src, "m.py") == {("m.py", "op", "repartition"),
                                          ("m.py", "knob", _KNOB),
                                          ("m.py", "caller", _KNOB)}


def test_block_counts_are_decided_only_in_shuffle():
    """No module of ``prompture_ray`` names the deleted per-op knob, and
    no ``stages/`` module outside ``shuffle.py`` repartitions a sort's
    input by hand (``shuffle.bound_blocks`` is the one rule); only the
    listed output-sizing sites keep a ``repartition``."""
    import pathlib
    import prompture_ray
    import prompture_ray.stages as stages
    root = pathlib.Path(prompture_ray.__file__).parent
    stage_dir = pathlib.Path(stages.__file__).parent
    knobs, splits = set(), set()
    for path in sorted(root.rglob("*.py")):
        for site in _block_sizing(path.read_text(), path.name):
            if site[2] == _KNOB:
                knobs.add((str(path.relative_to(root)), site[1]))
            elif path.parent == stage_dir and path.name != "shuffle.py":
                splits.add(site[:2])
    assert knobs == set()
    assert splits - _KEPT_REPARTITIONS == set()
    assert _KEPT_REPARTITIONS <= splits, \
        "a kept site moved: update _KEPT_REPARTITIONS"


# ---------------------------------------------------------------------------
# one grouped aggregate: no keyed Ray groupby().aggregate outside shuffle.py
# ---------------------------------------------------------------------------
# (module, enclosing function): each keeps a keyed Ray aggregate for the
# reason given next to it
_KEPT_AGGREGATES: dict = {}


def _keyed_aggregates(source: str, module: str) -> set:
    """``(module, top-level function)`` of every
    ``.groupby(...).aggregate(...)`` call in ``source`` (Ray's keyed
    aggregate; Arrow's ``group_by`` and a keyless ``ds.aggregate`` do
    not count)."""
    import ast
    found = set()
    for top in ast.parse(source).body:
        fn_name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "aggregate" \
                    and isinstance(node.func.value, ast.Call) \
                    and isinstance(node.func.value.func, ast.Attribute) \
                    and node.func.value.func.attr == "groupby":
                found.add((module, fn_name))
    return found


def test_guard_finds_a_ray_groupby_aggregate():
    src = ("def op(ds):\n"
           "    return ds.map_batches(f).groupby('k') \\\n"
           "        .aggregate(Sum('c', alias_name='c'))\n"
           "def many(ds):\n"
           "    return ds.groupby(['a', 'b']).aggregate(Count())\n"
           "def fine(ds, t):\n"
           "    t.group_by('k').aggregate([('v', 'sum')])\n"
           "    ds.aggregate(Sum('v'))\n"
           "    return aggregate(ds, ['k'], n=('count', None))\n")
    assert _keyed_aggregates(src, "m.py") == {("m.py", "op"),
                                              ("m.py", "many")}


def test_keyed_aggregates_only_through_shuffle():
    """No module of ``prompture_ray`` outside ``stages/shuffle.py`` runs
    Ray's row-at-a-time keyed ``groupby().aggregate``: grouped counts,
    sums, minima and maxima go through ``shuffle.aggregate``. Only the
    sites in ``_KEPT_AGGREGATES`` keep one."""
    import pathlib
    import prompture_ray
    root = pathlib.Path(prompture_ray.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root) != pathlib.Path("stages", "shuffle.py"):
            found |= _keyed_aggregates(path.read_text(),
                                       str(path.relative_to(root)))
    assert found - set(_KEPT_AGGREGATES) == set()
    assert set(_KEPT_AGGREGATES) <= found, \
        "a kept site moved: update _KEPT_AGGREGATES"
