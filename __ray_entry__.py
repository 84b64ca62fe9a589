"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in prompture_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: synthesize the web_pages table (sf0.001-scale,
    deterministic, cached under /tmp) and run the full validation suite —
    one fused read → extract → validate+sink+sketch task per block →
    uniqueness/referential shuffle checks → report. Returns the violation
    rows as a pandas DataFrame (stable schema, ≥0 rows)."""
    import pandas as pd
    import pyarrow.parquet as pq
    from pathlib import Path

    from prompture_ray.synth import generate
    from prompture_ray.specs import default_webpages_suite
    from prompture_ray.pipelines.validate_pipeline import run_suite

    root = Path("/tmp/prompture_ray_entry")
    generate(root / "data", n_rows=4000, n_parts=4)
    suite = default_webpages_suite(ref_warc="warc_records")
    out = root / "out"
    # pinned drift baseline from the first fragment (clean-enough slice)
    baseline_path = root / "baseline.json"
    if not baseline_path.exists():
        from prompture_ray.stages.stats import create_baseline, save_baseline
        first = sorted((root / "data" / "pages").glob("*.parquet"))[0]
        save_baseline(create_baseline(pq.read_table(first)), baseline_path)
    # fresh verdicts each smoke run (resume tested elsewhere)
    run_suite(root / "data" / "pages", suite, out,
              ref_tables={"warc_records": str(root / "data" / "warc")},
              resume=False, run_id="entry", baseline_path=baseline_path)
    files = sorted((out / "violations").rglob("*.parquet"))
    if not files:
        return pd.DataFrame(columns=["check_id", "row_key", "column", "ok",
                                     "reason", "observed", "partition_id"])
    import pyarrow as pa
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY §2."""
    from prompture_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query (same column names both sides)."""
    from prompture_ray.pipelines.queries import ORACLE
    return dict(ORACLE)
