"""Independent reference answers that gate every benchmark operation.

Pages: per-check violation counts recomputed without the engine's
kernels — DuckDB SQL for ``not_null / regex / range / enum``, a plain
``extract_text`` loop for ``extract_match``, and exact hash-set counts
over the key column for ``unique`` and ``referential``. The row-check
counts of a pool fragment are computed once when the pool is built; the
set-level counts (unique, referential) depend on which fragments a
repetition reads and are computed per repetition, after its timed region.

Queries: each result is compared with the registry's DuckDB oracle over
the same tables, through ``tools/check_queries.compare``.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import pyarrow.parquet as pq


def webpages_suite():
    """The default webpages suite with its warc_records referential check."""
    from prompture_ray.specs import default_webpages_suite
    return default_webpages_suite(ref_warc="warc_records")


def _bound(value):
    if isinstance(value, str):
        try:
            return dt.datetime.fromisoformat(value)
        except ValueError:
            return value
    return value


def _sql_violations(check) -> tuple[str, list]:
    """A DuckDB predicate that is true on the rows violating ``check``."""
    col = '"' + check.column.replace('"', '""') + '"'
    null_bad = "FALSE" if check.nullable else f"{col} IS NULL"
    if check.kind == "not_null":
        return f"{col} IS NULL", []
    if check.kind == "regex":
        return (f"({null_bad} OR ({col} IS NOT NULL AND "
                f"NOT regexp_matches({col}, ?)))", [check.pattern])
    if check.kind == "enum":
        target = f"lower({col})" if check.case_insensitive else col
        vals = [v.lower() if check.case_insensitive else v
                for v in check.values]
        marks = ", ".join("?" for _ in vals)
        return (f"({null_bad} OR ({col} IS NOT NULL AND "
                f"{target} NOT IN ({marks})))", vals)
    if check.kind == "range":
        parts, params = [], []
        if check.min is not None:
            parts.append(f"{col} < ?")
            params.append(_bound(check.min))
        if check.max is not None:
            parts.append(f"{col} > ?")
            params.append(_bound(check.max))
        return (f"({null_bad} OR ({col} IS NOT NULL AND "
                f"({' OR '.join(parts)})))", params)
    raise ValueError(f"no SQL reference for check kind {check.kind!r}")


def fragment_row_counts(path: str | Path) -> dict:
    """Row-check violation counts of one pages fragment: check id → count."""
    import duckdb
    from prompture_ray.functions.extract_html import extract_text

    suite = webpages_suite()
    counts = {}
    con = duckdb.connect()
    src = "read_parquet('" + str(path).replace("'", "''") + "')"
    for c in suite.row_checks:
        if c.kind == "extract_match":
            t = pq.read_table(path, columns=[c.source, c.column])
            bad = 0
            for html, text in zip(t[c.source].to_pylist(),
                                  t[c.column].to_pylist()):
                got = None if html is None else extract_text(html)
                bad += got != text
            counts[c.id] = bad
            continue
        pred, params = _sql_violations(c)
        counts[c.id] = int(con.execute(
            f"SELECT count(*) FROM {src} WHERE {pred}", params).fetchone()[0])
    con.close()
    return counts


def _non_null(paths: list, col: str) -> list:
    return [v for p in paths
            for v in pq.read_table(p, columns=[col])[col].to_pylist()
            if v is not None]


def set_counts(pages: list, warc: list) -> dict:
    """unique / referential violation counts over a whole input: duplicate
    rows beyond each key's first, and rows whose key is missing from the
    referenced table (nulls are ignored by both); exact hash-set counts."""
    out = {}
    for c in webpages_suite().table_checks:
        if c.kind == "unique":
            keys = _non_null(pages, c.column)
            out[c.id] = len(keys) - len(set(keys))
        elif c.kind == "referential":
            ref = set(_non_null(warc, c.ref_column))
            out[c.id] = sum(k not in ref for k in _non_null(pages, c.column))
    return out


def expected_counts(input_dir: Path, row_counts: list[dict]) -> dict:
    """Reference counts of one repetition's input: the cached row-check
    counts of its fragments summed, plus the set-level counts."""
    total: dict[str, int] = {}
    for rc in row_counts:
        for k, v in rc.items():
            total[k] = total.get(k, 0) + v
    pages = sorted((input_dir / "pages").glob("*.parquet"))
    warc = sorted((input_dir / "warc").glob("*.parquet"))
    total.update(set_counts(pages, warc))
    return total


def check_report(report: dict, expected: dict, rows: int,
                 out_dir: Path) -> list[str]:
    """Every way ``report`` disagrees with the reference (empty = correct):
    per-check counts, input rows, and report totals against the violation
    rows written to disk."""
    errors = []
    got = {r["check_id"]: r["violations"] for r in report["results"]}
    if got != expected:
        errors.append(f"per-check counts {got} != reference {expected}")
    if report["run"]["rows"] != rows:
        errors.append(f"rows {report['run']['rows']} != input rows {rows}")
    on_disk = sum(pq.read_metadata(f).num_rows
                  for f in (out_dir / "violations").glob("pid=*/*.parquet"))
    if on_disk != report["run"]["violations"]:
        errors.append(f"violation rows on disk {on_disk} != report total "
                      f"{report['run']['violations']}")
    return errors


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def check_query(name: str, result_df, table_dir: Path) -> str:
    """"OK", or how the result differs from ``ORACLE[name]`` run by DuckDB
    over the same tables."""
    import duckdb
    from prompture_ray.pipelines.queries import ORACLE
    from tools.check_queries import compare

    con = duckdb.connect()
    for t in sorted(table_dir.glob("*.parquet")):
        con.execute(f"CREATE VIEW {t.stem} AS SELECT * FROM "
                    f"read_parquet('{t}')")
    sql_df = con.execute(ORACLE[name]).fetchdf()
    con.close()
    return compare(name, result_df, sql_df)
