"""End-to-end suite run + kill-and-resume semantics (SURVEY §5 item 4)."""

import json
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from prompture_ray.specs import default_webpages_suite
from prompture_ray.pipelines.validate_pipeline import run_suite
from prompture_ray.state.checkpoint import Manifest


@pytest.fixture(scope="module")
def run_dir(ray_session, webpages_small, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    suite = default_webpages_suite(ref_warc="warc_records")
    report = run_suite(webpages_small / "pages", suite, out,
                       ref_tables={"warc_records": str(webpages_small / "warc")},
                       run_id="t1")
    return out, report


def test_report_shape(run_dir):
    out, report = run_dir
    assert set(report) == {"meta", "results", "violation_samples",
                           "partitions", "stats", "drift", "run"}
    assert report["violation_samples"]  # some reason has exemplar rows
    for rows in report["violation_samples"].values():
        assert 1 <= len(rows) <= 3
        assert {"check_id", "row_key", "observed"} <= set(rows[0])
    assert len(report["partitions"]) == 4
    for p in report["partitions"]:
        assert p["rows"] == p["ok_rows"] + (p["rows"] - p["ok_rows"])
        assert p["pass"] == (p["violations"] == 0)
    ids = {r["check_id"] for r in report["results"]}
    assert {"url-notnull", "url-regex", "ts-range", "lang-enum",
            "text-extract", "url-unique", "url-ref"} <= ids
    for r in report["results"]:
        assert r["ok"] + r["violations"] == r["total"]
        assert 0 <= r["pass_rate"] <= 1
    assert report["run"]["rows"] == 3000
    assert report["run"]["partitions"] == 4


def test_violation_rates_plausible(run_dir):
    _, report = run_dir
    by = {r["check_id"]: r["violations"] / r["total"] for r in report["results"]}
    assert 0.002 < by["url-regex"] < 0.03
    assert 0.002 < by["ts-range"] < 0.03
    assert 0.005 < by["lang-enum"] < 0.04
    assert 0.01 < by["text-extract"] < 0.06
    assert 0.001 < by["url-ref"] < 0.05


def test_violation_parquet_shape(run_dir):
    out, _ = run_dir
    files = list((out / "violations").rglob("*.parquet"))
    assert files
    t = pq.read_table(files[0])
    assert set(t.column_names) == {"check_id", "row_key", "column", "ok",
                                   "reason", "observed", "partition_id"}


def test_manifest_records(run_dir):
    out, report = run_dir
    m = Manifest(out, "t1")
    recs = m.records()
    assert len(recs) == 4
    for r in recs:
        assert r["status"] == "completed"
        assert r["rows"] > 0
        assert "violations_by_check" in r
    assert m.totals()["rows"] == 3000


def test_stats_sketches(run_dir):
    _, report = run_dir
    s = report["stats"]
    # url cardinality ≈ distinct urls (3000 minus dups)
    est = s["url-card"]["hll"]["estimate"]
    assert 2700 < est < 3100
    q = s["len-stats"]["kll"]["quantiles"]
    assert q["0.5"] > 50  # median text length is nontrivial
    top = dict(s["lang-stats"]["topk"]["top"])
    assert max(top, key=top.get) == "en"  # Zipfian skew → en dominant


def test_resume_no_recompute(ray_session, webpages_small, tmp_path):
    """Simulate a killed run: mark only 2 of 4 partitions complete, then
    resume — completed partitions must not be recomputed and the final
    report must match a fresh full run."""
    suite = default_webpages_suite()
    out_full = tmp_path / "full"
    full = run_suite(webpages_small / "pages", suite, out_full, run_id="full")

    out = tmp_path / "resumable"
    # first: full run to produce per-partition artifacts
    run_suite(webpages_small / "pages", suite, out, run_id="r1")
    # simulate kill after 2 partitions: drop manifest + stats of pids 2,3
    for pid in (2, 3):
        (out / "manifest" / f"{pid:05d}.json").unlink()
        p = out / "stats" / f"pid-{pid:05d}.pkl"
        if p.exists():
            p.unlink()
    (out / "table_checks.json").unlink()
    before = {p: p.stat().st_mtime_ns
              for p in (out / "manifest").glob("*.json")}

    resumed = run_suite(webpages_small / "pages", suite, out, run_id="r2")
    # untouched completed partitions
    for p, mtime in before.items():
        assert p.stat().st_mtime_ns == mtime
    assert resumed["meta"]["resumed_partitions"] == [0, 1]
    # identical verdict totals vs the fresh run
    assert resumed["run"]["rows"] == full["run"]["rows"]
    assert resumed["run"]["violations_by_check"] == full["run"]["violations_by_check"]
    key = lambda rs: sorted((r["check_id"], r["violations"]) for r in rs)
    assert key(resumed["results"]) == key(full["results"])
    # sketches rebuilt from per-partition files → same estimates
    assert resumed["stats"]["url-card"]["hll"]["estimate"] == \
        full["stats"]["url-card"]["hll"]["estimate"]


def test_drift_scoring(ray_session, webpages_small, tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa
    from prompture_ray.stages.stats import create_baseline, save_baseline

    tables = [pq.read_table(p) for p in sorted((webpages_small / "pages").glob("*.parquet"))]
    table = pa.concat_tables(tables)
    baseline = create_baseline(table)
    bp = tmp_path / "baseline.json"
    save_baseline(baseline, bp)

    suite = default_webpages_suite()
    report = run_suite(webpages_small / "pages", suite, tmp_path / "out",
                       baseline_path=bp, run_id="drift")
    d = report["drift"]
    assert d is not None
    # live distribution == baseline source → tiny PSI/KS
    assert d["text_len_psi"] < 0.01
    assert d["text_len_ks"] < 0.01
    assert d["cat_psi"] < 0.05


def test_referential_partitioned_with_bloom(ray_session, webpages_small):
    """Partitioned anti-join (forced via threshold=0) with Bloom prefilter
    must equal the broadcast path exactly."""
    import ray.data as rd
    from prompture_ray.stages.table_checks import referential_missing

    left = rd.read_parquet(str(webpages_small / "pages"), columns=["url"])
    right = rd.read_parquet(str(webpages_small / "warc"), columns=["url"])
    bc = referential_missing(left, right, "url").to_pandas()
    part = referential_missing(
        rd.read_parquet(str(webpages_small / "pages"), columns=["url"]),
        rd.read_parquet(str(webpages_small / "warc"), columns=["url"]),
        "url", broadcast_threshold=0, n_buckets=8,
        bloom_prefilter=True).to_pandas()
    a = bc.sort_values("url", ignore_index=True)
    b = part.sort_values("url", ignore_index=True)
    assert a["url"].tolist() == b["url"].tolist()
    assert a["n"].tolist() == b["n"].tolist()

    # an int64 key keeps its type on both paths (the partitioned path
    # used to return it cast to string)
    # the sf0.01 events and supplier tables, as copied for the benchmark
    sf = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "sf0.01"
    got = [referential_missing(
        rd.read_parquet(f"{sf}/events.parquet", columns=["user_id"]),
        rd.read_parquet(f"{sf}/supplier.parquet", columns=["s_suppkey"]),
        "user_id", "s_suppkey", **kw).to_pandas()
        .sort_values("user_id", ignore_index=True)
        for kw in ({}, {"broadcast_threshold": 0, "n_buckets": 8})]
    assert [g.dtypes.to_dict() for g in got] == \
        [{"user_id": np.dtype("int64"), "n": np.dtype("int64")}] * 2
    assert got[0].equals(got[1])
    assert len(got[0]) == 50 and got[0]["n"].sum() == 3303


def test_table_checks_fused_and_fallback_agree_on_null_keys(
        ray_session, tmp_path, monkeypatch):
    """A nullable key column gives the same unique and referential
    results on the fused path and on the scale fallback (forced by
    setting both limits below the data): a null key is neither a
    duplicate nor a missing reference."""
    import pyarrow as pa
    from prompture_ray.pipelines import validate_pipeline as vp
    from prompture_ray.specs import Suite

    (tmp_path / "pages").mkdir()
    for i in range(2):
        k = [None, 1, 1, 2, 7, None, 8, 8, 8, 3]
        pq.write_table(pa.table({
            "url": [f"http://x/{i}/{j}" for j in range(len(k))],
            "k": pa.array(k, pa.int64())}),
            tmp_path / "pages" / f"part-{i}.parquet")
    pq.write_table(pa.table({"k": pa.array([1, 2, 3, None], pa.int64())}),
                   tmp_path / "ref.parquet")
    suite = Suite.from_dict({"checks": [
        {"id": "k-unique", "column": "k", "kind": "unique"},
        {"id": "k-ref", "column": "k", "kind": "referential",
         "ref_table": "ref", "ref_column": "k"}]})

    def table_checks(out, fallback):
        if fallback:
            monkeypatch.setattr(vp, "UNIQUE_FUSED_MAX", -1)
            monkeypatch.setattr(vp, "REF_BROADCAST_MAX", -1)
        vp.run_suite(tmp_path / "pages", suite, tmp_path / out,
                     ref_tables={"ref": str(tmp_path / "ref.parquet")})
        res = json.loads((tmp_path / out / "table_checks.json").read_text())
        assert res["k-ref"].get("fused", False) != fallback
        return ({f: res["k-unique"][f]
                 for f in ("duplicate_keys", "duplicate_rows")},
                res["k-ref"]["missing_rows"])

    # keys 1, 2, 3, 7, 8 hold 16 non-null rows: 11 are repeats; 7 and
    # 8 (8 rows) are not in ref
    expect = ({"duplicate_keys": 5, "duplicate_rows": 11}, 8)
    assert table_checks("fused", False) == expect
    assert table_checks("fallback", True) == expect


def test_run_callbacks(ray_session, tmp_path):
    """RunCallbacks fire per newly-completed partition, per table check,
    and once with the final report."""
    from prompture_ray.synth import generate
    from prompture_ray.specs import default_webpages_suite
    from prompture_ray.pipelines.validate_pipeline import (
        RunCallbacks, run_suite)

    generate(str(tmp_path / "d"), n_rows=1500, n_parts=3)
    suite = default_webpages_suite()
    seen = {"parts": [], "checks": [], "reports": []}
    cb = RunCallbacks(
        on_partition_complete=lambda p: seen["parts"].append(p),
        on_table_check=lambda c: seen["checks"].append(c),
        on_complete=lambda r: seen["reports"].append(r))
    report = run_suite(str(tmp_path / "d" / "pages"), suite,
                       str(tmp_path / "out"), callbacks=cb)
    assert len(seen["parts"]) == 3
    assert sum(p["rows"] for p in seen["parts"]) == 1500
    assert {p["partition_id"] for p in seen["parts"]} == {0, 1, 2}
    assert any(c["check_id"] == "url-unique" for c in seen["checks"])
    assert seen["reports"][0]["run"]["rows"] == report["run"]["rows"]
    phases = report["run"]["phases"]
    assert 0 < phases["first_partition"] <= phases["main_scan"]


def test_merge_partials_grouping_invariant(ray_session):
    """MergePartials must be associative: merging partial rows under ANY
    block grouping, then driver-folding, equals folding the raw rows."""
    import json
    import pickle
    import pyarrow as pa
    from prompture_ray.specs import Suite
    from prompture_ray.stages.stats import StatsAccumulator
    from prompture_ray.pipelines.validate_pipeline import (
        MergePartials, PARTIAL_SCHEMA)

    suite = Suite.from_dict({"meta": {}, "checks": [
        {"id": "len-stats", "column": "text", "kind": "stats",
         "sketches": ["kll", "hll"]}]})
    checks = suite.table_checks

    def partial_row(path, rows, ok, counts, values, hashes):
        acc = StatsAccumulator(checks)
        acc.update(pa.table({"text": pa.array(values)}))
        return {"path": path, "rows": rows, "ok_rows": ok,
                "viol_json": json.dumps(counts, sort_keys=True),
                "sketches": acc.dumps(),
                "key_hashes": pickle.dumps(
                    {"u": bytes(hashes)}) if hashes else None,
                "elapsed_ms": 1.0}

    raw = [
        partial_row("f1", 10, 8, {"a": 2}, ["xx", "yyy"], [1, 2, 3]),
        partial_row("f1", 5, 5, {}, ["zzzz"], [4]),
        partial_row("f2", 7, 6, {"a": 1, "b": 1}, ["w"], []),
        partial_row("f1", 3, 2, {"b": 4}, [], [5, 6]),
    ]

    def fold(rows):
        seen = {}
        for r in rows:
            st = seen.setdefault(r["path"], {
                "rows": 0, "ok": 0, "by": {}, "acc": StatsAccumulator(checks),
                "hashes": b""})
            st["rows"] += r["rows"]
            st["ok"] += r["ok_rows"]
            for k, v in json.loads(r["viol_json"]).items():
                st["by"][k] = st["by"].get(k, 0) + v
            if r["sketches"]:
                st["acc"].merge_bytes(r["sketches"])
            if r["key_hashes"]:
                st["hashes"] += pickle.loads(r["key_hashes"])["u"]
        return {p: {"rows": s["rows"], "ok": s["ok"], "by": s["by"],
                    "summ": json.dumps(s["acc"].summaries(),
                                       sort_keys=True, default=str),
                    "hashes": sorted(s["hashes"])}
                for p, s in seen.items()}

    direct = fold(raw)
    mp = MergePartials(checks)
    for grouping in ([[0, 1, 2, 3]], [[0], [1], [2], [3]],
                     [[0, 2], [1, 3]], [[0, 1], [2], [3]]):
        merged_rows = []
        for grp in grouping:
            tbl = pa.Table.from_pylist([raw[i] for i in grp],
                                       schema=PARTIAL_SCHEMA)
            merged_rows.extend(mp(tbl).to_pylist())
        assert fold(merged_rows) == direct, grouping


def test_partition_verdicts_stream_during_scan(ray_session, webpages_small,
                                               tmp_path, monkeypatch):
    """The driver folds each partial block as the scan yields it: the first
    partition verdict fires before the scan's last partial batch arrives,
    not after the whole stream has been buffered."""
    import ray.data
    from prompture_ray.pipelines.validate_pipeline import RunCallbacks

    events = []
    iter_batches = ray.data.Dataset.iter_batches

    def logged_iter_batches(self, *args, **kwargs):
        for batch in iter_batches(self, *args, **kwargs):
            if "viol_json" in batch.column_names:  # the scan's partials
                events.append("batch")
            yield batch

    monkeypatch.setattr(ray.data.Dataset, "iter_batches", logged_iter_batches)
    cb = RunCallbacks(on_partition_complete=lambda _p: events.append("verdict"))
    report = run_suite(webpages_small / "pages", default_webpages_suite(),
                       tmp_path / "out", callbacks=cb)
    assert report["run"]["partitions"] >= 4
    assert events.count("verdict") == report["run"]["partitions"]
    last_batch = len(events) - 1 - events[::-1].index("batch")
    assert events.index("verdict") < last_batch, events


def test_fused_scan_layout_independent(ray_session, webpages_small, tmp_path):
    """Slicing read blocks into 300-row or 4096-row validate batches gives
    the same counts, table-check results, stats and violation rows."""
    import collections

    suite = default_webpages_suite(ref_warc="warc_records")
    runs = {}
    for bs in (300, 4096):
        out = tmp_path / f"bs{bs}"
        report = run_suite(webpages_small / "pages", suite, out,
                           ref_tables={"warc_records":
                                       str(webpages_small / "warc")},
                           batch_size=bs, unique_violation_rows=True)
        viol = pq.read_table(sorted((out / "violations").rglob("*.parquet")),
                             columns=["check_id", "row_key"])
        runs[bs] = {
            "run": {k: report["run"][k]
                    for k in ("rows", "ok_rows", "violations_by_check")},
            "table": json.loads((out / "table_checks.json").read_text()),
            "stats": report["stats"],
            "viol": collections.Counter(zip(viol["check_id"].to_pylist(),
                                            viol["row_key"].to_pylist())),
        }
    small, large = runs[300], runs[4096]
    assert small["run"] == large["run"]
    assert small["table"] == large["table"]
    assert small["viol"] == large["viol"]
    assert sum(small["viol"].values()) > 0

    # every sketch but KLL merges exactly; KLL compacts each update, so its
    # quantiles follow the batch grouping and are checked against the true
    # text lengths within the sketch's rank error instead
    kll = {bs: r["stats"]["len-stats"].pop("kll") for bs, r in runs.items()}
    assert small["stats"] == large["stats"]
    text = pq.read_table(sorted((webpages_small / "pages").glob("*.parquet")),
                         columns=["text"])["text"].drop_null()
    lengths = np.sort([len(s) for s in text.to_pylist()])
    for summary in kll.values():
        assert summary["n"] == len(lengths)
        for q, v in summary["quantiles"].items():
            lo = np.searchsorted(lengths, v, "left") / len(lengths)
            hi = np.searchsorted(lengths, v, "right") / len(lengths)
            assert lo - 0.02 <= float(q) <= hi + 0.02, (q, v, lo, hi)
