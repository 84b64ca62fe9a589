"""Local mirror of the driver's correctness gate: run every queries() entry
and its oracle_sql() side by side on an sf dir, compare row count + schema +
order-insensitive values.

Usage: python tools/check_queries.py [--jsonl PATH] [sf_dir] [query ...]

``--jsonl PATH`` also writes one ``{name, wall_s, rows, status}`` record
per query (wall_s: running the query and collecting its result; status:
PASS, FAIL, rows-only, RAY ERROR or SQL ERROR), so two sweeps can be
diffed query by query.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    try:
        import ray.data as rd
        if isinstance(res, rd.Dataset):
            res = res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            # One SAME rounding (numpy half-even, 6 dp) applied to BOTH
            # sides, mirroring the driver's canonicalization: float-sum
            # noise below 5e-7 is forgiven, but a genuine 6th-decimal
            # divergence (e.g. a half-even vs half-away tie rounded
            # differently INSIDE the two queries) survives and fails.
            df[c] = df[c].astype("float64").round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), ignore_index=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f"SCHEMA mismatch: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT mismatch: ray={len(ray_df)} sql={len(sql_df)}"
    # Driver-style dtype sensitivity: a DuckDB HUGEINT sum surfaces as float64
    # in fetchdf while the Ray side is int64 — the driver's value-hash treats
    # that as a mismatch, so we must too (don't coerce it away).
    for c in sorted(ray_df.columns):
        ka = ray_df[c].dtype.kind
        kb = sql_df[c].dtype.kind
        norm = lambda k: {"u": "i"}.get(k, k)
        if norm(ka) != norm(kb) and not (len(ray_df) == 0):
            return f"DTYPE mismatch in col {c}: ray={ray_df[c].dtype} sql={sql_df[c].dtype}"
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if pd.api.types.is_float_dtype(a[c]):
            # Driver-style strictness: the driver hashes raw values, so any
            # sub-1e-6 diff (e.g. a rounding-mode tie) is a real failure.
            # Queries must round identically on both sides; we compare
            # exactly (NaN==NaN allowed), no atol/rtol.
            fa, fb = av.astype(float), bv.astype(float)
            ok = bool(np.all((fa == fb) | (np.isnan(fa) & np.isnan(fb))))
        else:
            ok = (pd.Series(av).fillna("__null__") ==
                  pd.Series(bv).fillna("__null__")).all()
        if not ok:
            bad = np.where(pd.Series(av).fillna('__null__').to_numpy() !=
                           pd.Series(bv).fillna('__null__').to_numpy())[0][:3]
            detail = [(c, i, av[i], bv[i]) for i in bad]
            return f"VALUES mismatch in col {c}: {detail}"
    return "OK"


def main() -> int:
    log = None
    if sys.argv[1:2] == ["--jsonl"]:
        log = open(sys.argv[2], "w")
        del sys.argv[1:3]
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    def record(name, wall_s, rows, status):
        if log:
            log.write(json.dumps({"name": name, "wall_s": round(wall_s, 4),
                                  "rows": rows, "status": status}) + "\n")
            log.flush()

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:32s} RAY ERROR: {type(e).__name__}: {e}")
            record(name, time.perf_counter() - t0, None, "RAY ERROR")
            failures += 1
            continue
        wall_s = time.perf_counter() - t0
        if name not in oracles:
            print(f"{name:32s} rows-only: {len(ray_df)} rows")
            record(name, wall_s, len(ray_df), "rows-only")
            continue
        try:
            sql_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"{name:32s} SQL ERROR: {type(e).__name__}: {e}")
            record(name, wall_s, len(ray_df), "SQL ERROR")
            failures += 1
            continue
        verdict = compare(name, ray_df, sql_df)
        status = "PASS" if verdict == "OK" else "FAIL"
        if status == "FAIL":
            failures += 1
        record(name, wall_s, len(ray_df), status)
        print(f"{name:32s} {status} ({len(ray_df)} rows) {'' if verdict=='OK' else verdict}")
    ray.shutdown()
    if log:
        log.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
