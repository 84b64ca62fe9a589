"""Benchmark harness. Prints ONE JSON line:

  {"metric": "suite_seconds", "value": <total sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": <sf>, "num_cpus": N,
   "flagship": {"rows": R, "docs_per_s": D, "checks_per_s": C}}

Headline = the flagship web_pages validation suite (synthesized,
deterministic, cached under /tmp) + representative operator queries over
$GRAFT_SF_DIR (default /root/testdata/sf0.1).

``--scaling`` runs the same bench in fresh subprocesses at num_cpus=8 and
num_cpus=32 on the same input and reports throughput at both plus the
scaling efficiency (the sandbox stand-in for the N vs 4N cluster-size
criterion — see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_ROOT = Path(os.environ.get("GRAFT_BENCH_ROOT", "/tmp/prompture_ray_bench"))
# flagship input size scales with the sf dir (sf0.1 → 3M pages — large
# enough that the parallel scan dominates fixed startup costs, which is
# what the 8-vs-32-CPU scaling-efficiency criterion measures)
_SF_ROWS = {"sf0.001": 8_000, "sf0.01": 40_000, "sf0.1": 9_000_000}


def _sf_name() -> str:
    return Path(SF_DIR).name


def flagship_rows() -> int:
    return int(os.environ.get("GRAFT_BENCH_ROWS",
                              _SF_ROWS.get(_sf_name(), 100_000)))


def run_bench() -> dict:
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from prompture_ray.synth import generate
    from prompture_ray.specs import default_webpages_suite
    from prompture_ray.pipelines.validate_pipeline import run_suite
    from prompture_ray.pipelines.queries import QUERIES

    timings: dict[str, float] = {}

    # ---- flagship: full web_pages validation suite ----------------------
    rows = flagship_rows()
    data_dir = BENCH_ROOT / f"webpages_{rows}"
    # ~6k rows per fragment: blocks stay ~25 MB so task waves balance and
    # stragglers don't idle a 32-CPU run (measured 3× faster than 95 MB
    # blocks), and per-fragment checkpoints stay fine-grained
    n_parts = max(64, rows // 6_000)
    generate(data_dir, n_rows=rows, n_parts=n_parts, words_scale=3.0)

    # warm page cache so we measure compute+shuffle, not first disk read
    for sub in ("pages", "warc"):
        for p in (data_dir / sub).glob("*.parquet"):
            p.read_bytes()
    # warm the Ray worker pool (untimed): the first Dataset execution in a
    # process pays worker-spawn + import costs that are not part of the
    # job being measured
    import ray.data as rd
    rd.range(NUM_CPUS * 1000, override_num_blocks=NUM_CPUS) \
        .map_batches(lambda b: b).count()

    out_dir = BENCH_ROOT / f"out_{rows}_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)
    suite = default_webpages_suite(ref_warc="warc_records")
    t0 = time.perf_counter()
    report = run_suite(data_dir / "pages", suite, out_dir,
                       ref_tables={"warc_records": str(data_dir / "warc")},
                       resume=False, run_id=f"bench{NUM_CPUS}",
                       batch_size=4096)
    t_flagship = time.perf_counter() - t0
    timings["flagship_webpages"] = round(t_flagship, 3)
    n_row_checks = len(suite.row_checks)

    # probe the per-row UDF process-CPU cost at this worker count (feeds
    # the contention-normalized efficiency; see run_scaling docstring)
    udf_us = _probe_udf_cpu(data_dir)
    # ---- operator queries over the sf dir -------------------------------
    bench_queries = ["q1_lineitem", "events_hourly", "dedup_first_events",
                     "token_stats_by_lang", "ref_events_supplier",
                     "duplicate_custkeys_in_orders"]
    for name in bench_queries:
        fn = QUERIES[name]
        t0 = time.perf_counter()
        res = fn(SF_DIR)
        # consume (Datasets are lazy)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        timings[name] = round(time.perf_counter() - t0, 3)

    ray.shutdown()
    total = round(sum(timings.values()), 3)
    return {
        "metric": "suite_seconds", "value": total, "unit": "sec",
        "queries": timings,
        "sf": _sf_name(), "num_cpus": NUM_CPUS,
        "flagship": {
            "rows": rows,
            "docs_per_s": round(rows / t_flagship, 1),
            "checks_per_s": round(rows * n_row_checks / t_flagship, 1),
            "udf_us_per_row": udf_us,
        },
    }


def _probe_udf_cpu(data_dir: Path, n_frags: int = 96) -> float:
    """Per-row process-CPU time of HTML extraction with all workers busy.

    Times the frozen original extractor (``tools/extract_seed.py``), not the
    engine's, so the reading tracks the host's speed and does not move when
    the engine's extraction gets faster: docs/s × probe µs/row then shows
    an engine speed-up instead of cancelling it."""
    import ray.data as rd
    import pyarrow as pa
    import pyarrow.compute as pc

    def work(t):
        import time as _t
        from tools.extract_seed import extract_text
        from prompture_ray.functions import limit_arrow_threads
        limit_arrow_threads(1)
        c0 = _t.process_time()
        for v in t["html"].to_pylist():
            extract_text(v)
        return pa.table({"n": [t.num_rows], "cpu_s": [_t.process_time() - c0]})

    frags = sorted((data_dir / "pages").glob("*.parquet"))[:n_frags]
    ds = rd.read_parquet([str(f) for f in frags], columns=["html"],
                         override_num_blocks=len(frags)) \
        .map_batches(work, batch_format="pyarrow", batch_size=8192)
    tot_n = tot_cpu = 0.0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        tot_n += pc.sum(b["n"]).as_py()
        tot_cpu += pc.sum(b["cpu_s"]).as_py()
    return round(tot_cpu / max(tot_n, 1) * 1e6, 2)


def run_scaling() -> dict:
    """Same job, fresh processes, at two parallelism levels (default 8 vs
    32, override with GRAFT_SCALE_PAIR="lo,hi") → scaling efficiency.

    Caveat (full analysis in BASELINE.md): on this single box, co-running
    worker processes contend on the shared memory subsystem — measured
    per-row process CPU time rises ~20% from 8 to 32 workers at constant
    clock — a term that does not exist between fixed-size nodes of a real
    N vs 4N cluster. The raw efficiency is reported as the headline;
    ``value_contention_normalized`` additionally divides out the measured
    per-row CPU inflation.
    """
    lo, hi = (int(x) for x in
              os.environ.get("GRAFT_SCALE_PAIR", "8,32").split(","))
    results = {}
    for ncpu in (lo, hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run([sys.executable, __file__], env=env,
                             capture_output=True, text=True, check=True).stdout
        results[ncpu] = json.loads(out.strip().splitlines()[-1])
    t_lo = results[lo]["queries"]["flagship_webpages"]
    t_hi = results[hi]["queries"]["flagship_webpages"]
    d_lo = results[lo]["flagship"]["docs_per_s"]
    d_hi = results[hi]["flagship"]["docs_per_s"]
    factor = hi / lo
    eff = (d_hi / d_lo) / factor
    cpu_lo = results[lo]["flagship"].get("udf_us_per_row")
    cpu_hi = results[hi]["flagship"].get("udf_us_per_row")
    norm = round(eff * (cpu_hi / cpu_lo), 3) if cpu_lo and cpu_hi else None
    return {
        "metric": "scaling_efficiency", "value": round(eff, 3), "unit": "ratio",
        "value_contention_normalized": norm,
        "flagship_rows": results[lo]["flagship"]["rows"],
        "cpus": [lo, hi], "sec_lo": t_lo, "sec_hi": t_hi,
        "docs_per_s_lo": d_lo, "docs_per_s_hi": d_hi,
        "checks_per_s_lo": results[lo]["flagship"]["checks_per_s"],
        "checks_per_s_hi": results[hi]["flagship"]["checks_per_s"],
        "udf_us_per_row": [cpu_lo, cpu_hi],
        "total_lo": results[lo]["value"], "total_hi": results[hi]["value"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
