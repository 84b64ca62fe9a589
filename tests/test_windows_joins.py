"""Windows + join strategies: tumbling/session/running, broadcast vs
bucketed as-of equivalence, semi/anti joins."""

import datetime as dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from prompture_ray.stages import windows as w
from prompture_ray.stages import joins as j


def events_table():
    base = dt.datetime(2024, 1, 1)
    rows = []
    for uid, offsets in [(1, [0, 5, 70, 75]), (2, [10, 200])]:
        for m in offsets:
            rows.append({"user_id": uid, "ts": base + dt.timedelta(minutes=m),
                         "value": float(m)})
    return pa.Table.from_pylist(rows)


@pytest.fixture(scope="module")
def ev(ray_session):
    import ray.data as rd
    return rd.from_arrow(events_table())


def test_tumbling_window(ev):
    out = w.tumbling_window(ev, "ts", ["user_id"], unit="hour",
                            agg_col="value").to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("window")
    assert u1["n"].tolist() == [2, 2]        # minutes 0,5 | 70,75
    assert u1["sum_value"].tolist() == [5.0, 145.0]


def test_session_windows_and_counts(ev):
    sess = w.session_windows(ev, "user_id", "ts", gap="30min").to_pandas()
    u1 = sess[sess["user_id"] == 1]
    assert len(u1) == 2
    assert u1["n_events"].tolist() == [2, 2]
    counts = w.session_counts(ev, "user_id", "ts", gap="30min").to_pandas() \
        .sort_values("user_id")
    assert counts["n_sessions"].tolist() == [2, 2]
    assert counts["n_events"].tolist() == [4, 2]


def test_running_aggregate(ev):
    out = w.running_aggregate(ev, "user_id", "ts", "value").to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("ts")
    assert u1["running_sum"].tolist() == [0.0, 5.0, 75.0, 150.0]


def right_orders():
    base = dt.datetime(2023, 12, 1)
    return pd.DataFrame({
        "user_id": [1, 1, 2, 3],
        "ts": [base, base + dt.timedelta(days=40), base, base],
        "val": ["a", "b", "c", "d"],
    })


def test_asof_broadcast_vs_bucketed_equal(ev, ray_session):
    import ray.data as rd
    right = right_orders()
    bc = j.broadcast_asof_join(ev, right, key="user_id", ts="ts",
                               value_cols=["val"], inner=True).to_pandas()
    right_ds = rd.from_pandas(right.rename(columns={"ts": "rts"}))
    bk = j.bucketed_asof_join(ev, right_ds, key="user_id", ts="ts",
                              right_ts="rts", n_buckets=4).to_pandas()
    bc_s = bc.sort_values(["user_id", "ts"], ignore_index=True)
    bk_s = bk.dropna(subset=["rts"]).sort_values(["user_id", "ts"],
                                                 ignore_index=True)
    assert len(bc_s) == len(bk_s) == 6   # user 3 has no events; all u1/u2 match
    assert bc_s["val"].tolist() == bk_s["val"].tolist()
    # user 1 events (Jan 1) precede its second order (Dec 1 + 40d = Jan 10)
    # → the as-of match is the FIRST order for every event
    u1 = bc_s[bc_s["user_id"] == 1]
    assert u1["val"].tolist() == ["a", "a", "a", "a"]


def test_asof_no_match_excluded(ev):
    right = right_orders()
    right_future = right.copy()
    right_future["ts"] = dt.datetime(2030, 1, 1)
    out = j.broadcast_asof_join(ev, right_future, key="user_id", ts="ts",
                                value_cols=["val"], inner=True).to_pandas()
    assert len(out) == 0


def test_semi_and_anti_join(ev):
    semi = j.broadcast_semi_join(ev, keys=[1], on="user_id").to_pandas()
    anti = j.broadcast_semi_join(ev, keys=[1], on="user_id",
                                 anti=True).to_pandas()
    assert set(semi["user_id"]) == {1} and len(semi) == 4
    assert set(anti["user_id"]) == {2} and len(anti) == 2


def test_streaming_window_equals_batch(ray_session):
    """Streaming actor-held windows must equal the batch groupby windows
    on the real events table."""
    import ray.data as rd
    from prompture_ray.stages.streaming_windows import streaming_tumbling_window
    from prompture_ray.stages.windows import tumbling_window

    ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "ts", "value"])
    stream = streaming_tumbling_window(ds, "user_id", "ts", "value",
                                       window="1h", n_buckets=3)
    batch = tumbling_window(ds, "ts", ["user_id"], unit="hour",
                            agg_col="value").to_pandas() \
        .rename(columns={"user_id": "key"}) \
        .sort_values(["key", "window"], ignore_index=True)
    assert len(stream) == len(batch)
    assert stream["n"].tolist() == batch["n"].tolist()
    assert np.allclose(stream["sum_value"], batch["sum_value"])


def test_streaming_window_late_rows(ray_session):
    import ray.data as rd
    import datetime as dt
    from prompture_ray.stages.streaming_windows import (
        make_window_actors, streaming_tumbling_window)
    # lateness bound respected: rows behind the watermark are dropped+counted
    import ray
    actors = make_window_actors(1, window_s=60, lateness_s=0)
    import numpy as np
    out1 = ray.get(actors[0].feed.remote(
        np.array(["a"]), np.array([1000.0]), np.array([1.0])))
    out2 = ray.get(actors[0].feed.remote(
        np.array(["a"]), np.array([500.0]), np.array([1.0])))  # late
    stats = ray.get(actors[0].stats.remote())
    assert stats["late_dropped"] == 1


def test_routed_streaming_window_multi_source(ray_session, tmp_path):
    """Worker-routed streaming windows over a MULTI-row-group parquet:
    per-source watermarks (preregistered from row-group min stats) must
    close windows correctly under parallel out-of-order source reads and
    equal the batch tumbling_window result."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from prompture_ray.stages.streaming_windows import (
        streaming_tumbling_window_routed)
    from prompture_ray.stages.windows import tumbling_window

    rng = np.random.RandomState(5)
    n = 6000
    ts = pd.Timestamp("2024-03-01") + pd.to_timedelta(
        np.sort(rng.randint(0, 3600 * 24, size=n)), unit="s")
    df = pd.DataFrame({
        "user_id": rng.randint(0, 20, size=n),
        "ts": ts,
        "value": rng.uniform(0, 10, size=n).round(3),
    })
    path = str(tmp_path / "ev.parquet")
    # 6 row groups → 6 independent ordered sources
    pq.write_table(pa.Table.from_pandas(df), path, row_group_size=1000)
    assert pq.ParquetFile(path).num_row_groups == 6

    routed = streaming_tumbling_window_routed(
        path, "user_id", "ts", "value", window="1h", n_buckets=3)

    batch = tumbling_window(rd.from_pandas(df), "ts", ["user_id"],
                            unit="hour", agg_col="value").to_pandas()
    bm = {(k, pd.Timestamp(w)): (n_, round(s, 6)) for k, w, n_, s in
          zip(batch["user_id"], batch["window"], batch["n"],
              batch["sum_value"])}
    rm = {(k, pd.Timestamp(w)): (n_, round(s, 6)) for k, w, n_, s in
          zip(routed["key"], routed["window"], routed["n"],
              routed["sum_value"])}
    assert len(bm) == len(rm)
    for kw, (n_, s) in rm.items():
        assert bm[kw][0] == n_, kw
        assert abs(bm[kw][1] - s) < 1e-6, kw


def test_session_windows_bucketed_equals_single_group(ray_session):
    """Bucketed two-phase sessionization must exactly equal the
    one-group-per-key form, including sessions spanning many bucket
    boundaries."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.windows import (
        session_windows, session_windows_bucketed)

    rng = np.random.RandomState(11)
    rows = []
    base = pd.Timestamp("2024-05-01")
    for uid in range(12):
        t = base
        for _ in range(rng.randint(20, 60)):
            # mixture of small gaps (same session) and large (new session),
            # some gaps straddling the 6h bucket boundary
            t = t + pd.Timedelta(minutes=int(rng.choice(
                [1, 5, 20, 45, 90, 400])))
            rows.append({"user_id": uid, "ts": t})
    df = pd.DataFrame(rows).sample(frac=1.0, random_state=3)  # shuffle
    ds = rd.from_pandas(df)

    single = session_windows(ds, "user_id", "ts", gap="30min") \
        .to_pandas().sort_values(["user_id", "session_start"],
                                 ignore_index=True)
    bucketed = session_windows_bucketed(ds, "user_id", "ts", gap="30min",
                                        bucket="6h") \
        .to_pandas().sort_values(["user_id", "session_start"],
                                 ignore_index=True)
    assert len(single) == len(bucketed)
    for c in ("user_id", "session_start", "session_end", "n_events"):
        assert (pd.Series(single[c]).reset_index(drop=True) ==
                pd.Series(bucketed[c]).reset_index(drop=True)).all(), c


def test_session_windows_bucketed_merges_null_key_sessions(ray_session):
    """The null key is one more key: its sessions, several of them
    spanning bucket boundaries, merge exactly as in the one-group form."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.windows import (
        session_windows, session_windows_bucketed)

    rng = np.random.RandomState(5)
    keys, ts = [], []
    for uid in (1, None, 2):
        t = pd.Timestamp("2024-05-01")
        for _ in range(40):
            t += pd.Timedelta(minutes=int(rng.choice([5, 25, 50, 300])))
            keys.append(uid)
            ts.append(t)
    order = rng.permutation(len(keys))
    table = pa.table({"k": pa.array(keys, pa.int64()),
                      "ts": pa.array(ts, pa.timestamp("us"))}).take(order)
    ds = rd.from_arrow([table.slice(0, 50), table.slice(50)])

    def rows(out):
        return sorted(((-1 if r["k"] is None or r["k"] != r["k"]
                        else int(r["k"]), r["session_id"],
                        r["session_start"], r["session_end"],
                        r["n_events"]) for r in out.take_all()))

    single = rows(session_windows(ds, "k", "ts", gap="30min"))
    assert sum(1 for r in single if r[0] == -1) > 3
    assert rows(session_windows_bucketed(ds, "k", "ts", gap="30min",
                                         bucket="6h")) == single


def test_broadcast_interval_join(ray_session):
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.joins import broadcast_interval_join
    left = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "k": pa.array(["a", "a", "a", "b"]),
        "ts": pa.array(pd.to_datetime([
            "2024-01-05 00:00:00", "2024-01-08 00:00:00",
            "2024-02-01 00:00:00", "2024-01-05 00:00:00"]),
            type=pa.timestamp("us")),
    }))
    right = pd.DataFrame({
        "k": ["a", "a", "b"],
        "start": pd.to_datetime(["2024-01-01", "2024-01-04",
                                 "2023-12-30"]),
        "val": [10, 20, 30],
    })
    out = broadcast_interval_join(left, right, key="k", ts="ts",
                                  right_key="k", right_start="start",
                                  length="7d", right_cols=["val"]) \
        .to_pandas().sort_values(["id", "val"], ignore_index=True)
    # id=1 (Jan 5): inside [Jan1,Jan8) AND [Jan4,Jan11) -> both
    # id=2 (Jan 8 exactly): [Jan1,Jan8) excludes (half-open), [Jan4,..) in
    # id=3 (Feb 1): nothing; id=4 key b (Jan 5): [Dec30,Jan6) -> 30
    assert list(zip(out["id"], out["val"])) == [
        (1, 10), (1, 20), (2, 20), (4, 30)]


def test_shuffle_join(ray_session):
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 9], type=pa.int64()),
        "lv": pa.array(["a", "b", "c", "d", "e"]),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 2, 3, 4], type=pa.int64()),
        "rv": pa.array(["X", "Y", "Z", "W"]),
    }))
    out = join(left, right, "k", "rk", n_buckets=4).to_pandas() \
        .sort_values(["k", "lv", "rv"], ignore_index=True)
    # 1:N x M:N expansion: k=2 gives 2x2=4 rows, k=3 gives 1, others none
    assert list(zip(out["k"], out["lv"], out["rv"])) == [
        (2, "b", "X"), (2, "b", "Y"), (2, "c", "X"), (2, "c", "Y"),
        (3, "d", "Z")]


def test_session_counts_bucketed_equals_plain(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.windows import (
        session_counts, session_counts_bucketed)
    rng = np.random.RandomState(7)
    rows = []
    base = pd.Timestamp("2024-03-01")
    for uid in range(10):
        t = base
        for _ in range(rng.randint(10, 40)):
            t = t + pd.Timedelta(minutes=int(rng.choice(
                [2, 10, 40, 120, 500])))
            rows.append({"user_id": uid, "ts": t})
    ds = rd.from_pandas(pd.DataFrame(rows).sample(frac=1.0, random_state=5))
    plain = session_counts(ds, "user_id", "ts", gap="30min") \
        .to_pandas().sort_values("user_id", ignore_index=True)
    bucketed = session_counts_bucketed(ds, "user_id", "ts", gap="30min",
                                       bucket="6h") \
        .to_pandas().sort_values("user_id", ignore_index=True)
    assert plain["n_sessions"].tolist() == bucketed["n_sessions"].tolist()
    assert plain["n_events"].tolist() == bucketed["n_events"].tolist()


def test_asof_join_dispatch_paths_equal(ev, ray_session):
    """asof_join broadcast path == forced-bucketed path on the same
    inputs (size-aware dispatch, VERDICT r3 #4)."""
    import pandas as pd
    import ray.data as rd
    right = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 2], type=pa.int64()),
        "rts": pa.array(pd.to_datetime([
            "2024-01-01 00:02:00", "2024-01-01 01:00:00",
            "2024-01-01 00:00:00"]), type=pa.timestamp("us")),
        "v": pa.array([10, 20, 30], type=pa.int64()),
    }))
    a = j.asof_join(ev, right, key="user_id", ts="ts", right_ts="rts",
                    broadcast_max=10**9).to_pandas()
    b = j.asof_join(ev, right, key="user_id", ts="ts", right_ts="rts",
                    broadcast_max=0).to_pandas()
    a = a.sort_values(["user_id", "ts"], ignore_index=True)
    b = b.sort_values(["user_id", "ts"], ignore_index=True)
    assert a["v"].astype("int64").tolist() == b["v"].astype("int64").tolist()
    assert len(a) == len(b)


def test_interval_join_dispatch_paths_equal(ray_session):
    import pandas as pd
    import ray.data as rd
    left = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "k": pa.array(["a", "a", "a", "b"]),
        "ts": pa.array(pd.to_datetime([
            "2024-01-05 00:00:00", "2024-01-08 00:00:00",
            "2024-02-01 00:00:00", "2024-01-05 00:00:00"]),
            type=pa.timestamp("us")),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", "b"]),
        "start": pa.array(pd.to_datetime([
            "2024-01-01", "2024-01-04", "2023-12-30"]),
            type=pa.timestamp("us")),
        "val": pa.array([10, 20, 30], type=pa.int64()),
    }))
    kw = dict(key="k", ts="ts", right_key="k", right_start="start",
              length="7d", right_cols=["val"])
    bcast = j.interval_join(left, right, broadcast_max=10**9, **kw) \
        .to_pandas().sort_values(["id", "val"], ignore_index=True)
    buck = j.interval_join(left, right, broadcast_max=0, **kw) \
        .to_pandas().sort_values(["id", "val"], ignore_index=True)
    assert list(zip(bcast["id"], bcast["val"])) == [
        (1, 10), (1, 20), (2, 20), (4, 30)]
    assert list(zip(buck["id"].astype("int64"),
                    buck["val"].astype("int64"))) == [
        (1, 10), (1, 20), (2, 20), (4, 30)]


def test_hopping_window_null_ts_rows_dropped(ray_session):
    import pandas as pd
    import ray.data as rd
    t = pa.table({
        "user_id": pa.array([1, 1, 2], type=pa.int64()),
        "ts": pa.array([pd.Timestamp("2024-01-01 00:10:00"), None,
                        pd.Timestamp("2024-01-01 01:10:00")],
                       type=pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 3.0]),
    })
    out = w.hopping_window(rd.from_arrow(t), "ts", ["user_id"],
                           window="2h", hop="1h", agg_col="value") \
        .to_pandas()
    # the null-ts row contributes to no window
    assert out["n"].sum() == 2 * 2  # 2 valid rows x window/hop replicas
    assert out["sum_value"].sum() == (1.0 + 3.0) * 2


def test_shuffle_join_mixed_key_dtypes(ray_session):
    """A side whose int key materializes as float (nullable path) must
    still bucket identically to the int side (ADVICE r3 joins.py:254)."""
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], type=pa.int64()),
        "lv": pa.array(["a", "b", "c"]),
    }))
    right = rd.from_pandas(pd.DataFrame({
        "rk": np.array([2.0, 3.0, 4.0]),  # float64 ints
        "rv": ["X", "Y", "Z"],
    }))
    out = join(left, right, "k", "rk", n_buckets=8).to_pandas() \
        .sort_values("k", ignore_index=True)
    assert sorted(out["rv"].tolist()) == ["X", "Y"]


@pytest.mark.parametrize("how", ["inner", "left"])
def test_shuffle_join_null_keys_match_sql(ray_session, how):
    """A null key never matches, not even another null: the inner join
    drops those rows, the left join keeps them with null right columns
    (DuckDB's answer on the same tables)."""
    import duckdb
    import ray.data as rd
    from prompture_ray.stages.shuffle import join
    lt = pa.table({"k": pa.array([1, None, 2, None], pa.int64()),
                   "lv": pa.array([10, 11, 12, 13], pa.int64())})
    rt = pa.table({"rk": pa.array([1, None, 2, 2], pa.int64()),
                   "rv": pa.array(["a", "n", "b", "c"])})
    got = join(rd.from_arrow([lt.slice(0, 2), lt.slice(2)]),
               rd.from_arrow(rt), "k", "rk", how=how, n_buckets=4)
    sql = (f"SELECT k, lv, rk, rv FROM lt {how.upper()} JOIN rt "
           f"ON lt.k = rt.rk")
    want = duckdb.sql(sql).arrow()
    assert sorted(got.take_all(), key=repr) == \
        sorted(want.to_pylist(), key=repr)
    assert len(want) == (3 if how == "inner" else 5)


def test_running_aggregate_bucketed_equals_plain(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.windows import (
        running_aggregate, running_aggregate_bucketed)
    rng = np.random.RandomState(13)
    rows = []
    base = pd.Timestamp("2024-04-01")
    eid = 0
    for uid in range(8):
        t = base
        for _ in range(rng.randint(15, 50)):
            t = t + pd.Timedelta(minutes=int(rng.choice([7, 90, 700])))
            rows.append({"eid": eid, "user_id": uid, "ts": t,
                         "value": int(rng.randint(1, 100))})
            eid += 1
    ds = rd.from_pandas(pd.DataFrame(rows).sample(frac=1.0, random_state=2))
    plain = running_aggregate(ds, "user_id", "ts", "value") \
        .to_pandas().sort_values("eid", ignore_index=True)
    bucketed = running_aggregate_bucketed(ds, "user_id", "ts", "value",
                                          bucket="6h") \
        .to_pandas().sort_values("eid", ignore_index=True)
    assert plain["running_sum"].tolist() == \
        bucketed["running_sum"].tolist()


def test_bucketed_asof_interval_hash_magnitude_int64(ray_session):
    """r4 verdict #1: the pandas tagged union widened int64 columns above
    2^53 to float64 during null fill, rounding low bits. Both joins now
    travel as arrow-union blocks; keys AND payloads whose low bits would
    not survive a float64 round-trip must come through bit-exact, and two
    distinct keys that ROUND to the same float64 must not cross-match."""
    import ray.data as rd
    base = 1 << 61                      # float64 spacing here is 512
    kA, kB = base + 1, base + 2         # distinct; both round to 2^61
    assert kA != kB and float(kA) == float(kB)
    ts0 = pd.Timestamp("2024-01-01")
    left = rd.from_arrow(pa.table({
        "k": pa.array([kA, kA, kB], type=pa.int64()),
        "ts": pa.array([ts0 + pd.Timedelta(minutes=m) for m in (5, 15, 5)],
                       type=pa.timestamp("us")),
        "lpay": pa.array([base + 7, base + 9, base + 11], type=pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([kA, kB], type=pa.int64()),
        "rts": pa.array([ts0, ts0 + pd.Timedelta(minutes=10)],
                        type=pa.timestamp("us")),
        "rpay": pa.array([base + 3, base + 5], type=pa.int64()),
    }))
    out = j.bucketed_asof_join(left, right, key="k", ts="ts",
                               right_ts="rts", n_buckets=4).to_pandas() \
        .sort_values(["ts", "lpay"], ignore_index=True)
    assert out["lpay"].tolist() == [base + 7, base + 11, base + 9]
    # kB's event at minute 5 precedes its only order (minute 10) → no match;
    # kA's events both match kA's order ONLY (no float64 key collision)
    assert out["rpay"].tolist()[0] == base + 3
    assert pd.isna(out["rpay"].tolist()[1])
    assert out["rpay"].tolist()[2] == base + 3
    assert out["lpay"].dtype.kind == "i" and out["k"].dtype.kind == "i"

    iv_right = rd.from_arrow(pa.table({
        "rk": pa.array([kA, kB], type=pa.int64()),
        "start": pa.array([ts0, ts0], type=pa.timestamp("us")),
        "rpay": pa.array([base + 3, base + 5], type=pa.int64()),
    }))
    iout = j.bucketed_interval_join(
        left, iv_right, key="k", ts="ts", right_key="rk",
        right_start="start", length="30min", right_cols=["rpay"],
        n_buckets=4).to_pandas().sort_values(["lpay"], ignore_index=True)
    # every left row is inside its own key's interval; exact key match only
    assert iout["lpay"].tolist() == [base + 7, base + 9, base + 11]
    assert iout["rpay"].tolist() == [base + 3, base + 3, base + 5]
    assert iout["lpay"].dtype.kind == "i" and iout["rpay"].dtype.kind == "i"


def test_range_lookup(ray_session):
    """Keyless sorted-range lookup: edges, gaps, out-of-range and exact
    boundary semantics ([start, end))."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    import pytest
    from prompture_ray.stages.joins import range_lookup

    vals = [-5, 0, 9, 10, 15, 20, 29, 30, 99]
    ds = rd.from_arrow(pa.table({
        "i": pa.array(range(len(vals)), type=pa.int64()),
        "v": pa.array(vals, type=pa.int64())}))
    out = range_lookup(ds, "v", [0, 10, 20, 30], ["a", None, "c"],
                       miss="?").to_pandas().sort_values(
        "i", ignore_index=True)
    assert list(out["band"]) == ["?", "a", "a", "?", "?",
                                 "c", "c", "?", "?"]
    with pytest.raises(ValueError):
        range_lookup(ds, "v", [0, 0, 1], ["a", "b"])
    with pytest.raises(ValueError):
        range_lookup(ds, "v", [0, 1], ["a", "b"])


def test_bloom_semi_filter_exact_matches_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.joins import bloom_semi_filter
    rng = np.random.default_rng(41)
    big = pd.DataFrame({"k": rng.integers(0, 1000, 5000),
                        "v": np.arange(5000)})
    small = pd.DataFrame({"sk": rng.choice(1000, 120, replace=False)})
    out = bloom_semi_filter(rd.from_pandas(big).repartition(7), "k",
                            rd.from_pandas(small).repartition(3),
                            "sk", n_bits=1 << 12).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    exp = big[big["k"].isin(set(small["sk"]))].reset_index(drop=True)
    assert out["v"].tolist() == exp["v"].tolist()


def test_bloom_semi_filter_no_false_negatives_inexact(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.joins import bloom_semi_filter
    rng = np.random.default_rng(43)
    big = pd.DataFrame({"k": rng.integers(0, 500, 3000),
                        "v": np.arange(3000)})
    small = pd.DataFrame({"sk": rng.choice(500, 60, replace=False)})
    # tiny bitmap -> real false positives; exact=False keeps a SUPERSET
    out = bloom_semi_filter(rd.from_pandas(big).repartition(5), "k",
                            rd.from_pandas(small).repartition(2),
                            "sk", n_bits=1 << 8, exact=False) \
        .to_pandas()
    kept = set(out["v"])
    truth = set(big[big["k"].isin(set(small["sk"]))]["v"])
    assert truth <= kept          # no false negatives, ever
    assert len(kept) < len(big)   # but it did filter something


def test_bloom_semi_filter_string_keys(ray_session):
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.joins import bloom_semi_filter
    big = pd.DataFrame({"k": ["a", "b", "c", "d", "a"],
                        "v": [1, 2, 3, 4, 5]})
    small = pd.DataFrame({"sk": ["a", "d"]})
    out = bloom_semi_filter(rd.from_pandas(big), "k",
                            rd.from_pandas(small), "sk",
                            n_bits=1 << 10).to_pandas()
    assert sorted(out["v"].tolist()) == [1, 4, 5]
