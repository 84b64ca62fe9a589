"""Metric names and units: the end-to-end set printed by ``--trace 0`` and
the per-layer set printed by ``--trace 1`` (BENCHMARK.json lists the same
names)."""

WORKLOAD_NAMES = ("pages_extract", "queries")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "first_verdict_s": "s",
    "driver_peak_rss_mb": "MB",
}

QUERY_NAMES = ("analytic_window_events", "q1_lineitem",
               "duplicate_custkeys_in_orders", "dedup_first_events",
               "events_hourly", "ref_events_supplier", "running_sum_events")
ROW_CHECK_IDS = ("url-notnull", "url-regex", "ts-range", "lang-enum",
                 "text-extract")


def _pages_layer() -> dict[str, str]:
    m = {"extract_html.busy_s": "s", "extract_html.us_per_row": "us",
         "extract_html.fallback_rows": "rows"}
    m.update({f"validate.check.{c}.busy_s": "s" for c in ROW_CHECK_IDS})
    m.update({
        "validate.violations.busy_s": "s",
        "validate.violation_rows": "rows",
        "sketches.hash.busy_s": "s",
        "stats.update.busy_s": "s",
        "stats.merge.busy_s": "s",
        "stats.partial_bytes": "bytes",
        "sink.busy_s": "s",
        "sink.files": "count",
        "sink.bytes": "bytes",
        "read.busy_s": "s",
        "read.bytes": "bytes",
        "merge_partials.busy_s": "s",
        "merge_partials.rows_in": "rows",
        "merge_partials.rows_out": "rows",
        "manifest.records": "count",
        "manifest.bytes": "bytes",
        "manifest.busy_s": "s",
        "driver_fold.busy_s": "s",
        "run_suite.ref_broadcast_build_s": "s",
        "run_suite.main_scan_s": "s",
        "run_suite.driver_fold_s": "s",
        "run_suite.driver_fold_rows": "rows",
        "run_suite.table_checks_s": "s",
        "ray_data.overhead_s": "s",
        "trace.replayed_s": "s",
        "trace.replay_share": "ratio",
        "trace.overhead_s": "s",
    })
    return m


# the layers each workload's trace measures; a trace reports 0 for every
# metric of the other set, and no value at all is an error
PAGES_LAYER = _pages_layer()
QUERY_LAYER = {f"queries.{q}.{k}": unit for q in QUERY_NAMES
               for k, unit in (("wall_s", "s"), ("rows_out", "rows"),
                               ("fixed_s", "s"))}
PER_LAYER = {**PAGES_LAYER, **QUERY_LAYER}
