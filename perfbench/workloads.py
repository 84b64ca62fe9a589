"""The workloads: set-up, the timed repetitions, the correctness gate and
the traced replay.

A pages repetition is one ``run_suite`` over a seeded choice of pool
fragments; a queries repetition materialises every query of the workload
over a seeded row permutation of the tables. A run makes a fixed number of
repetitions (``--seconds`` over the workload's nominal repetition time)
and every end-to-end time is the median over them.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs, reference, session
from perfbench.metrics import PAGES_LAYER, QUERY_LAYER, ROW_CHECK_IDS
from perfbench.spans import Tracer

RUNS = inputs.CACHE / "runs"
N_SETUPS = 4
# seconds one repetition took on one CPU of the reference host: a run makes
# round(--seconds / this) repetitions, at least two, a count that does not
# depend on how fast the host happens to be (so medians and peak RSS
# compare run to run)
NOMINAL_REP_S = {"pages_extract": 3.0, "queries": 10.5}

# the queries workload: (query, table scale, tables it reads)
QUERY_SET = (
    ("analytic_window_events", "sf0.01", ("events",)),
    ("q1_lineitem", "sf0.01", ("lineitem",)),
    ("duplicate_custkeys_in_orders", "sf0.01", ("orders",)),
    ("dedup_first_events", "sf0.01", ("events",)),
    ("events_hourly", "sf0.01", ("events",)),
    ("ref_events_supplier", "sf0.01", ("events", "supplier")),
    ("running_sum_events", "sf0.001", ("events",)),
)
SCALES = ("sf0.01", "sf0.001")
# the warm pass of a queries set-up: one shuffle query over the tiny tables
WARM_QUERY = "dedup_first_events"


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"perfbench [{time.perf_counter() - _T0:7.2f}s] {msg}",
          file=sys.stderr, flush=True)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark of this process (Linux)."""
    with contextlib.suppress(OSError):
        Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """Counts operations attempted and failed; a failure is an exception
    or a result that disagrees with the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            log(f"FAILED {what}: " + "; ".join(errors))


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def n_reps(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_REP_S[workload]))


def timed_setups(warm, n: int) -> list[float]:
    """``n`` set-ups (``ray.init`` plus the warm pass), each but the last
    followed by a shutdown; the last session stays up for the run."""
    times = []
    for k in range(n):
        if k:
            session.stop()
        t0 = time.perf_counter()
        session.start()
        warm(k)
        times.append(time.perf_counter() - t0)
        session.record_pids()
    return times


# ---------------------------------------------------------------------------
# pages workloads
# ---------------------------------------------------------------------------

class Pages:
    def __init__(self, name: str, seed: int) -> None:
        self.spec = inputs.PAGES[name]
        self.seed = seed
        self.suite = reference.webpages_suite()
        self.dir = _fresh(RUNS / name)
        self.row_counts = json.loads(
            (inputs.pool_dir(self.spec) / "row_counts.json").read_text())

    def warm(self, k: int) -> None:
        from prompture_ray.pipelines.validate_pipeline import run_suite
        warm = inputs.pool_dir(inputs.WARM_PAGES)
        run_suite(warm / "pages", self.suite, _fresh(self.dir / f"warm{k}"),
                  ref_tables={"warc_records": str(warm / "warc")},
                  resume=False, run_id=f"warm{k}")

    def rep_input(self, rep: int) -> tuple[Path, list[str]]:
        names = inputs.pick_fragments(self.spec, self.seed, rep)
        return inputs.link_pages_input(self.spec, names,
                                       self.dir / f"rep{rep}" / "in"), names

    def run_once(self, rep: int) -> dict:
        """One timed ``run_suite``; returns its timings and report."""
        from prompture_ray.pipelines.validate_pipeline import (
            RunCallbacks, run_suite)
        inp, names = self.rep_input(rep)
        out = self.dir / f"rep{rep}" / "out"
        first: list[float] = []
        cb = RunCallbacks(on_partition_complete=lambda _p: first.append(
            time.perf_counter()) if not first else None)
        t0 = time.perf_counter()
        report = run_suite(inp / "pages", self.suite, out,
                           ref_tables={"warc_records": str(inp / "warc")},
                           resume=False, run_id=f"rep{rep}", callbacks=cb)
        wall = time.perf_counter() - t0
        return {"rep": rep, "wall": wall, "first": first[0] - t0,
                "report": report, "input": inp, "out": out, "names": names}

    def check(self, r: dict, outcome: Outcome) -> None:
        expected = reference.expected_counts(
            r["input"], [self.row_counts[n] for n in r["names"]])
        outcome.record(reference.check_report(
            r["report"], expected, self.spec.rows_per_rep, r["out"]),
            f"rep {r['rep']}")

    def measure(self, seconds: float) -> tuple[dict, Outcome]:
        setups = timed_setups(self.warm, N_SETUPS)
        reset_peak_rss()
        outcome, runs = Outcome(), []
        for rep in range(n_reps(self.spec.name, seconds)):
            try:
                runs.append(self.run_once(rep))
            except Exception:  # counted, not fatal
                outcome.record([traceback.format_exc()], f"rep {rep}")
        rss = peak_rss_mb()
        session.record_pids()
        for r in runs:
            self.check(r, outcome)
        log(f"setups {[round(s, 3) for s in setups]} walls "
            f"{[round(r['wall'], 3) for r in runs]}")
        if not runs:
            return {}, outcome
        wall = statistics.median(r["wall"] for r in runs)
        return {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "rows_per_s": self.spec.rows_per_rep / wall,
            "first_verdict_s": statistics.median(r["first"] for r in runs),
            "driver_peak_rss_mb": rss,
        }, outcome

    # -- traced run -----------------------------------------------------
    def trace(self) -> tuple[dict, Outcome]:
        timed_setups(self.warm, 1)
        outcome = Outcome()
        r = self.run_once(0)
        self.check(r, outcome)
        phases = r["report"]["run"]["phases"]
        inp = r["input"]
        # the first replay warms this process (imports, caches); the second
        # is the untraced baseline of trace.overhead_s
        for _ in range(2):
            t0 = time.perf_counter()
            replay(self.suite, inp, _fresh(self.dir / "replay_plain"), None)
            plain_wall = time.perf_counter() - t0
        tracer = Tracer()
        t0 = time.perf_counter()
        with layer_spans(tracer):
            stats = replay(self.suite, inp, _fresh(self.dir / "replay"),
                           tracer)
        traced_wall = time.perf_counter() - t0
        tracer.write(self.dir / "spans.json")
        # the replay must do the work the pipeline did
        want = r["report"]["run"]["violations_by_check"]
        outcome.record([] if stats["by_check"] == want else [
            f"replay counts {stats['by_check']} != run_suite {want}"],
            "replay")
        m = pages_layer_metrics(tracer, stats, phases, self.dir / "replay",
                                traced_wall - plain_wall)
        return {**m, **dict.fromkeys(QUERY_LAYER, 0)}, outcome


def replay(suite, input_dir: Path, out_dir: Path,
           tracer: Tracer | None) -> dict:
    """Run the scan layers of ``run_suite`` serially in this process over
    ``input_dir``: read → HtmlExtractor → ValidateAndSink → MergePartials
    → driver fold with manifest writes. With a tracer, every layer call
    is a span."""
    import numpy as np
    import ray

    from prompture_ray.functions.extract_html import HtmlExtractor
    from prompture_ray.functions.sketches import hash_arrow_column
    from prompture_ray.pipelines.validate_pipeline import (
        MergePartials, ValidateAndSink, list_fragments)
    from prompture_ray.stages.stats import StatsAccumulator
    from prompture_ray.state.checkpoint import Manifest

    span = tracer.span if tracer else (lambda _n: contextlib.nullcontext())
    frags = list_fragments(input_dir / "pages")
    stats_checks = [c for c in suite.table_checks if c.kind == "stats"]
    unique = [c for c in suite.table_checks if c.kind == "unique"]
    refs = []
    for c in suite.table_checks:
        if c.kind == "referential":
            col = c.ref_column or c.column
            hashes = [hash_arrow_column(pq.read_table(p, columns=[col])[col])
                      for p in list_fragments(input_dir / "warc")]
            refs.append((c, ray.put(np.sort(np.concatenate(hashes)))))
    sink = ValidateAndSink(suite, str(out_dir), "url",
                           {f: i for i, f in enumerate(frags)},
                           ref_broadcasts=refs, unique_checks=unique)
    merge = MergePartials(stats_checks)
    extractor = HtmlExtractor()
    needs_extract = any(c.kind == "extract_match" for c in suite.row_checks)
    manifest = Manifest(out_dir, "replay")
    stats_dir = out_dir / "stats"
    stats_dir.mkdir()
    out = {"rows": 0, "read_bytes": 0, "partial_bytes": 0,
           "merge_rows_in": 0, "merge_rows_out": 0, "by_check": {}}
    for pid, frag in enumerate(frags):
        with span("read"):
            t = pq.read_table(frag)
            t = t.append_column("path", pa.array([frag] * t.num_rows))
        out["rows"] += t.num_rows
        out["read_bytes"] += t.nbytes
        if needs_extract:
            parts = []
            for off in range(0, t.num_rows, 1024):
                with span("extract_html"):
                    parts.append(extractor(t.slice(off, 1024)))
            t = pa.concat_tables(parts)
        partials = []
        for off in range(0, t.num_rows, 4096):
            with span("sink"):
                partials.append(sink(t.slice(off, 4096)))
        partials = pa.concat_tables(partials)
        out["partial_bytes"] += sum(len(b or b"") for b in
                                    partials["sketches"].to_pylist())
        with span("merge_partials"):
            merged = merge(partials)
        out["merge_rows_in"] += partials.num_rows
        out["merge_rows_out"] += merged.num_rows
        with span("driver_fold"):
            acc = StatsAccumulator(stats_checks)
            rows = ok = 0
            by_check: dict[str, int] = {}
            hashes: list[bytes] = []
            for row in merged.to_pylist():
                rows += row["rows"]
                ok += row["ok_rows"]
                for k, v in json.loads(row["viol_json"]).items():
                    by_check[k] = by_check.get(k, 0) + v
                if row["sketches"]:
                    acc.merge_bytes(row["sketches"])
                if row["key_hashes"]:
                    hashes.append(row["key_hashes"])
            (stats_dir / f"pid-{pid:05d}.pkl").write_bytes(acc.dumps())
            (stats_dir / f"hashes-{pid:05d}.pkl").write_bytes(b"".join(hashes))
            manifest.write(pid, {"status": "completed", "rows": rows,
                                 "ok_rows": ok,
                                 "violations": sum(by_check.values()),
                                 "violations_by_check": by_check})
        for k, v in by_check.items():
            out["by_check"][k] = out["by_check"].get(k, 0) + v
    return out


@contextlib.contextmanager
def layer_spans(tracer: Tracer):
    """Record a span around every call into the layers' public functions
    that the fused stage makes, for as long as the block runs."""
    from prompture_ray.functions import extract_html, sketches
    from prompture_ray.stages import validate
    from prompture_ray.stages.stats import StatsAccumulator
    from prompture_ray.state.checkpoint import Manifest

    patches = [
        (validate, "eval_check", tracer.wrap(
            lambda check, _b: f"validate.check.{check.id}",
            validate.eval_check)),
        (validate.ValidateBatch, "violations", tracer.wrap(
            "validate.violations", _counted(
                tracer, "validate.violation_rows",
                validate.ValidateBatch.violations))),
        (sketches, "hash_arrow_column", tracer.wrap(
            "sketches.hash", sketches.hash_arrow_column)),
        (StatsAccumulator, "update", tracer.wrap(
            "stats.update", StatsAccumulator.update)),
        (StatsAccumulator, "merge_bytes", tracer.wrap(
            "stats.merge", StatsAccumulator.merge_bytes)),
        (Manifest, "write", tracer.wrap("manifest.write", Manifest.write)),
        (extract_html, "strip_tags", _calls(
            tracer, "extract_html.fallback_rows", extract_html.strip_tags)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def _counted(tracer: Tracer, name: str, fn):
    def f(*args, **kwargs):
        res = fn(*args, **kwargs)
        tracer.count(name, res.num_rows)
        return res
    return f


def _calls(tracer: Tracer, name: str, fn):
    def f(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return f


def _dir_files(path: Path, pattern: str) -> tuple[int, int]:
    files = list(path.glob(pattern))
    return len(files), sum(f.stat().st_size for f in files)


def pages_layer_metrics(tracer: Tracer, stats: dict, phases: dict,
                        replay_dir: Path, overhead: float) -> dict:
    st = tracer.self_times()
    extract_s = st.get("extract_html", 0.0)
    replayed = sum(st.values())
    sink_files, sink_bytes = _dir_files(replay_dir / "violations",
                                        "pid=*/*.parquet")
    man_files, man_bytes = _dir_files(replay_dir / "manifest", "*.json")
    m = {
        "extract_html.busy_s": extract_s,
        "extract_html.us_per_row": extract_s / stats["rows"] * 1e6,
        "extract_html.fallback_rows": tracer.counts.get(
            "extract_html.fallback_rows", 0),
    }
    for cid in ROW_CHECK_IDS:
        m[f"validate.check.{cid}.busy_s"] = st.get(f"validate.check.{cid}",
                                                    0.0)
    m.update({
        "validate.violations.busy_s": st.get("validate.violations", 0.0),
        "validate.violation_rows": tracer.counts.get(
            "validate.violation_rows", 0),
        "sketches.hash.busy_s": st.get("sketches.hash", 0.0),
        "stats.update.busy_s": st.get("stats.update", 0.0),
        "stats.merge.busy_s": st.get("stats.merge", 0.0),
        "stats.partial_bytes": stats["partial_bytes"],
        "sink.busy_s": st.get("sink", 0.0),
        "sink.files": sink_files,
        "sink.bytes": sink_bytes,
        "read.busy_s": st.get("read", 0.0),
        "read.bytes": stats["read_bytes"],
        "merge_partials.busy_s": st.get("merge_partials", 0.0),
        "merge_partials.rows_in": stats["merge_rows_in"],
        "merge_partials.rows_out": stats["merge_rows_out"],
        "manifest.records": man_files,
        "manifest.bytes": man_bytes,
        "manifest.busy_s": st.get("manifest.write", 0.0),
        "driver_fold.busy_s": st.get("driver_fold", 0.0),
        "run_suite.ref_broadcast_build_s": phases["ref_broadcast_build"],
        "run_suite.main_scan_s": phases["main_scan"],
        "run_suite.driver_fold_s": phases["driver_fold_in_scan"],
        "run_suite.driver_fold_rows": phases["driver_fold_rows"],
        "run_suite.table_checks_s": phases["table_checks"],
        "ray_data.overhead_s": phases["main_scan"] - replayed,
        "trace.replayed_s": replayed,
        "trace.replay_share": replayed / phases["main_scan"],
        "trace.overhead_s": overhead,
    })
    return m


# ---------------------------------------------------------------------------
# queries workload
# ---------------------------------------------------------------------------

class Queries:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.dir = _fresh(RUNS / name)
        self.rows = sum(
            pq.read_metadata(inputs.QUERY_DATA / sf / f"{t}.parquet").num_rows
            for _, sf, tables in QUERY_SET for t in tables)

    def run_all(self, dirs: dict[str, Path]) -> tuple[list, float]:
        """Materialise every query; returns per-query (name, seconds,
        result, table dir) and the time to the first result."""
        from prompture_ray.pipelines.queries import QUERIES
        from tools.check_queries import to_pandas
        out, first = [], None
        t0 = time.perf_counter()
        for name, sf, _ in QUERY_SET:
            tq = time.perf_counter()
            df = to_pandas(QUERIES[name](str(dirs[sf])))
            out.append((name, time.perf_counter() - tq, df, dirs[sf]))
            if first is None:
                first = time.perf_counter() - t0
        return out, first

    def warm(self, _k: int) -> None:
        from prompture_ray.pipelines.queries import QUERIES
        from tools.check_queries import to_pandas
        to_pandas(QUERIES[WARM_QUERY](str(inputs.QUERY_DATA / "sf0.001")))

    def rep_dirs(self, rep: int) -> dict[str, Path]:
        return {sf: inputs.permute_tables(
                    sf, self.seed, rep, self.dir / f"rep{rep}" / sf)
                for sf in SCALES}

    def check(self, results: list, rep: int, outcome: Outcome) -> None:
        for name, _, df, tdir in results:
            verdict = reference.check_query(name, df, tdir)
            outcome.record([] if verdict == "OK" else [verdict],
                           f"rep {rep} {name}")

    def measure(self, seconds: float) -> tuple[dict, Outcome]:
        setups = timed_setups(self.warm, N_SETUPS)
        reset_peak_rss()
        outcome, reps = Outcome(), []
        for rep in range(n_reps(self.name, seconds)):
            dirs = self.rep_dirs(rep)
            try:
                t0 = time.perf_counter()
                results, first = self.run_all(dirs)
                reps.append((rep, time.perf_counter() - t0, first, results))
            except Exception:  # counted, not fatal
                outcome.record([traceback.format_exc()], f"rep {rep}")
        rss = peak_rss_mb()
        session.record_pids()
        for rep, _, _, results in reps:
            self.check(results, rep, outcome)
            log(f"rep {rep}: " + ", ".join(f"{n} {secs:.2f}s"
                                           for n, secs, _, _ in results))
        log(f"setups {[round(s, 3) for s in setups]} walls "
            f"{[round(w, 3) for _, w, _, _ in reps]}")
        if not reps:
            return {}, outcome
        wall = statistics.median(w for _, w, _, _ in reps)
        return {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "rows_per_s": self.rows / wall,
            "first_verdict_s": statistics.median(f for _, _, f, _ in reps),
            "driver_peak_rss_mb": rss,
        }, outcome

    def trace(self) -> tuple[dict, Outcome]:
        timed_setups(self.warm, 1)
        outcome = Outcome()
        results, _ = self.run_all(self.rep_dirs(0))
        self.check(results, 0, outcome)
        tiny = inputs.QUERY_DATA / "sf0.001"
        fixed, _ = self.run_all(dict.fromkeys(SCALES, tiny))
        m = {}
        for (name, secs, df, _), (_, fsecs, _, _) in zip(results, fixed):
            m[f"queries.{name}.wall_s"] = secs
            m[f"queries.{name}.rows_out"] = len(df)
            m[f"queries.{name}.fixed_s"] = fsecs
        return {**dict.fromkeys(PAGES_LAYER, 0), **m}, outcome


WORKLOADS = {"pages_extract": Pages, "queries": Queries}
