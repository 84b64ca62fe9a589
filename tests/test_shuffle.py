"""stages/shuffle.py: the partition-id rule, the keyed lookup, and
layout independence of every per-key fold and map-back built on them."""

import numpy as np
import pandas as pd
import pyarrow as pa
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


def _ops():
    from prompture_ray.stages import (analytic as an, groupstats as gs,
                                      intervals as iv, userpath as up,
                                      windows as wn)
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
        "running_aggregate_bucketed":
            lambda ds: wn.running_aggregate_bucketed(
                ds, "k", "ts", "v", bucket="1d"),
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
    }


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


@pytest.mark.parametrize("op", ["cusum_flags", "grouped_quantiles",
                                "grouped_weighted_quantiles",
                                "ntile_by_key", "rolling_anomaly"])
def test_pandas_fold_blocks_keep_the_key_type(ray_session, op):
    """Every output block of a pandas fold, the null-key partition's
    included, carries the int64 key as int64 (pandas turns a key column
    holding a null into float64), so the blocks concatenate."""
    import ray
    import ray.data as rd
    ds = _ops()[op](rd.from_arrow(_blocks(True, False)))
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    out = pa.concat_tables(blocks, promote_options="default")
    assert out.schema.field("k").type == pa.int64()
    assert out["k"].null_count == 1
