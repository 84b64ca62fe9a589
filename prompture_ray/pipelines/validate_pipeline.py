"""The flagship pipeline: suite run over a web_pages Parquet directory.

Execution shape (SURVEY §3.2's runner skeleton, made data-parallel):

    read_parquet(pending fragments, include_paths)          [stream]
      → ScanBlock map_batches(batch_size=None), fused into the read:
        one task-pool call per read block, which
            · extracts html → text per slice (only if extract_match)
            · runs ValidateAndSink per slice of ≤ batch_size rows:
              every row-level check vectorized, violation rows →
              violations/pid=<pid>/ [side sink], sketch partials
            · merges the block's partial rows with MergePartials
            · emits ONE small partial row per (block × fragment)
      → driver folds each partial block as it arrives
        (iter_batches(batch_size=None)):
            · sketch merge (associative partial+final reduction)
            · per-fragment row counts → manifest checkpoint record,
              callback and budget check as soon as a fragment completes
              (incremental, resumable)
    + table-level passes on narrow projections (unique / referential)
    + drift scoring vs pinned baseline
    → report.json {meta, results[], stats, drift, run}

Ray plans the scan as ONE operator, ``ReadParquet->MapBatches(ScanBlock)``:
a map with ``batch_size`` set does not fuse into the read, so the scan's
stages live inside one callable rather than in three ``map_batches``.

Resume: completed fragments (manifest) are skipped entirely; violation
dirs of incomplete partitions are wiped before rerun (idempotent outputs);
metrics always come from manifest records so nothing double-counts.

Scale notes: the one linear scan carries the whole row-level suite; the
only shuffles are the uniqueness groupby and (when the right side is big)
the referential anti-join — both over projected key columns, never over
``html``. Sketch partials are a few hundred KB per batch; ``ScanBlock``
merges them to one row per fragment of its block before they transit the
driver (the merge is associative — tested under arbitrary groupings), so
the driver fold is O(read blocks) in rows and O(fragments in flight) in
state.
"""

from __future__ import annotations

import json
import pickle
import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from prompture_ray.specs import Suite
from prompture_ray.stages.validate import ValidateBatch, VIOLATION_SCHEMA


def viol_schema() -> pa.Schema:
    return VIOLATION_SCHEMA
from prompture_ray.stages.stats import (
    StatsAccumulator, load_baseline, score_drift,
)
from prompture_ray.state.checkpoint import Manifest, check_budget

PARTIAL_SCHEMA = pa.schema([
    pa.field("path", pa.string()),
    pa.field("rows", pa.int64()),
    pa.field("ok_rows", pa.int64()),
    pa.field("viol_json", pa.string()),
    pa.field("sketches", pa.binary()),
    pa.field("key_hashes", pa.binary()),
    pa.field("elapsed_ms", pa.float64()),
])

# broadcast anti-join is used when the right side has at most this many
# keys (8 bytes/hash → 160 MB); beyond it the referential check falls back
# to the hash-partitioned groupby anti-join (stages.table_checks)
REF_BROADCAST_MAX = 20_000_000
# fused uniqueness folds per-partition hash arrays on the driver; beyond
# this row count use the groupby path instead (hashes no longer fit)
UNIQUE_FUSED_MAX = 500_000_000


def _col_hashes(batch: pa.Table, col: str) -> "np.ndarray":
    # numeric key columns hash via zero-copy to_numpy, strings via object
    # view — every site in this module that cross-compares these hashes
    # (uniqueness sidecars, referential broadcast + violations, dup rows)
    # goes through hash_arrow_column so the scheme stays consistent
    from prompture_ray.functions.sketches import hash_arrow_column
    return hash_arrow_column(batch[col])


def _non_null_keys(fragments, col: str):
    """``col`` of ``fragments`` without its nulls. The fused unique and
    referential checks hash keys with ``hash_arrow_column``, which skips
    nulls, so their scale fallbacks drop them too: a null key is neither
    a duplicate nor a missing reference (``not_null`` checks count it)."""
    import ray.data as rd
    return rd.read_parquet(fragments, columns=[col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[col])), batch_format="pyarrow")


class ValidateAndSink:
    """Fused validate + violation-sink + sketch + uniqueness/referential
    partial stage — ONE linear scan carries the whole suite.

    - row checks: vectorized masks → verdicts + violation rows
    - stats checks: per-batch sketch partials
    - unique checks: per-batch uint64 key-hash blobs (driver folds per
      partition; exact up to 64-bit hash collision)
    - referential checks (broadcast mode): membership test against a
      sorted hash array shipped once via ``ray.put``; misses become
      inline violation rows

    Violations are written under ``violations/pid=<pid>/`` (idempotent by
    pid: incomplete pids are wiped on resume before rerun).
    """

    def __init__(self, suite: Suite, out_dir: str, key_col: str,
                 path_to_pid: dict[str, int],
                 ref_broadcasts: list[tuple] = (),   # [(CheckSpec, ObjectRef)]
                 unique_checks: list = ()):          # [CheckSpec]
        self.vb = ValidateBatch(suite, key_col=key_col)
        self.stats_checks = [c for c in suite.table_checks if c.kind == "stats"]
        self.out_dir = out_dir
        self.key_col = key_col
        self.path_to_pid = path_to_pid
        self.ref_broadcasts = list(ref_broadcasts)
        self.unique_checks = list(unique_checks)
        self._ref_arrays: dict[str, "np.ndarray"] = {}
        # per-fragment running row offset: deterministic per task (a task
        # retry replays the same batch sequence), distinguishes two
        # batches of one fragment whose violation payloads are identical
        self._row_offset: dict[str, int] = {}

    def _ref_violations(self, batch: pa.Table,
                        hash_cache: dict | None = None
                        ) -> tuple[pa.Table | None, dict]:
        import ray
        parts, by_check = [], {}
        for check, ref in self.ref_broadcasts:
            if check.id not in self._ref_arrays:
                self._ref_arrays[check.id] = ray.get(ref)
            sorted_hashes = self._ref_arrays[check.id]
            arr = batch[check.column]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            valid = arr.drop_null()
            if len(valid) == 0:
                continue
            h = (hash_cache or {}).get(check.column)
            if h is None:
                from prompture_ray.functions.sketches import hash_arrow_column
                h = hash_arrow_column(valid)
                if hash_cache is not None:
                    hash_cache[check.column] = h
            if len(sorted_hashes):
                idx = np.clip(np.searchsorted(sorted_hashes, h), 0,
                              len(sorted_hashes) - 1)
                missing = sorted_hashes[idx] != h
            else:
                missing = np.ones(len(h), dtype=bool)
            n = int(missing.sum())
            if n == 0:
                continue
            bad_vals = pc.cast(valid.filter(pa.array(missing)), pa.string())
            parts.append(pa.table({
                "check_id": pa.array([check.id] * n),
                "row_key": bad_vals,
                "column": pa.array([check.column] * n),
                "ok": pa.array([False] * n),
                "reason": pa.array([check.reason()] * n),
                "observed": pc.utf8_slice_codeunits(bad_vals, 0, 80),
            }, schema=viol_schema()))
            by_check[check.id] = n
        out = pa.concat_tables(parts) if parts else None
        return out, by_check

    def _process_group(self, batch: pa.Table, path: str) -> dict:
        t0 = time.perf_counter()
        pid = self.path_to_pid.get(path, -1)
        row_offset = self._row_offset.get(path, 0)
        self._row_offset[path] = row_offset + batch.num_rows
        masks = self.vb.masks(batch)
        ok, _ = self.vb.verdict_columns(batch, masks)
        viol = self.vb.violations(batch, masks)
        ok_rows = int(pc.sum(pc.cast(ok, pa.int64())).as_py() or 0)

        # one hash pass per column, shared by unique + referential + HLL
        hash_cache = {c.column: _col_hashes(batch, c.column)
                      for c in self.unique_checks}
        ref_viol, _ = self._ref_violations(batch, hash_cache)
        if ref_viol is not None:
            viol = pa.concat_tables([viol, ref_viol])
        if viol.num_rows:
            vdir = Path(self.out_dir) / "violations" / f"pid={pid}"
            vdir.mkdir(parents=True, exist_ok=True)
            out_viol = viol.append_column(
                "partition_id", pa.array([pid] * viol.num_rows, type=pa.int32()))
            # deterministic file name per (fragment, batch position,
            # batch content): a Ray task retry re-writes the SAME file
            # instead of duplicating rows; the row offset keeps two
            # DIFFERENT batches of one fragment with identical violation
            # payloads (duplicate/null row keys) from colliding
            import hashlib
            hsh = hashlib.sha1(
                f"{path}|{row_offset}|{batch.num_rows}|{viol.num_rows}"
                .encode())
            hsh.update(repr(viol["check_id"].to_pylist()).encode())
            hsh.update(repr(viol["row_key"].to_pylist()).encode())
            pq.write_table(out_viol, vdir / f"{hsh.hexdigest()[:20]}.parquet")

        acc = StatsAccumulator(self.stats_checks)
        acc.update(batch, hash_cache=hash_cache)
        key_hashes = {c.id: hash_cache[c.column].tobytes()
                      for c in self.unique_checks}

        # counters keyed by check id, not reason() — two checks of the same
        # (kind, column) must not conflate (vectorized value_counts, no
        # per-row Python)
        counts: dict[str, int] = {}
        if viol.num_rows:
            vc = viol["check_id"].combine_chunks().value_counts()
            counts = dict(zip((v.as_py() for v in vc.field("values")),
                              (int(n.as_py()) for n in vc.field("counts"))))
        return {
            "path": path,
            "rows": batch.num_rows,
            "ok_rows": ok_rows,
            "viol_json": json.dumps(counts, sort_keys=True),
            "sketches": acc.dumps(),
            "key_hashes": pickle.dumps(key_hashes) if key_hashes else None,
            "elapsed_ms": (time.perf_counter() - t0) * 1e3,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        from prompture_ray.functions import limit_arrow_threads
        limit_arrow_threads(1)
        batch = batch.combine_chunks()
        paths = batch["path"]
        data = batch.drop_columns(["path"])
        uniq = pc.unique(paths).to_pylist()
        rows = []
        if len(uniq) == 1:
            rows.append(self._process_group(data, uniq[0]))
        else:
            # a block can span fragments when small files are coalesced
            for p in uniq:
                mask = pc.equal(paths, p)
                rows.append(self._process_group(data.filter(mask), p))
        return pa.Table.from_pylist(rows, schema=PARTIAL_SCHEMA)


class MergePartials:
    """Distributed merge level for ValidateAndSink partial rows.

    ``ScanBlock`` runs it over the partial rows of its own read block,
    merging all rows of the same fragment path, so the driver folds one
    row per (read block × fragment) instead of one row per (batch ×
    fragment). At 10^12 docs / ~40M fragments this removes the first
    driver bottleneck.

    Correct for ANY row grouping: every merge here (counter sums,
    violation-count dict union, sketch merge, hash-blob concat) is
    associative and the driver fold finishes whatever remains split
    across blocks.
    """

    def __init__(self, stats_checks: list):
        self.stats_checks = stats_checks

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        if len(rows) <= 1:
            return batch
        by_path: dict[str, list[dict]] = {}
        order: list[str] = []
        for row in rows:
            if row["path"] not in by_path:
                order.append(row["path"])
            by_path.setdefault(row["path"], []).append(row)
        out = []
        for path in order:
            group = by_path[path]
            if len(group) == 1:
                out.append(group[0])
                continue
            counts: dict[str, int] = {}
            for r in group:
                for k, v in json.loads(r["viol_json"]).items():
                    counts[k] = counts.get(k, 0) + v
            sk_blobs = [r["sketches"] for r in group if r["sketches"]]
            if sk_blobs:
                acc = StatsAccumulator(self.stats_checks)
                for b in sk_blobs:
                    acc.merge_bytes(b)
                sketches = acc.dumps()
            else:
                sketches = None
            hash_parts: dict[str, list[bytes]] = {}
            for r in group:
                if r["key_hashes"]:
                    for cid, blob in pickle.loads(r["key_hashes"]).items():
                        hash_parts.setdefault(cid, []).append(blob)
            key_hashes = (pickle.dumps({cid: b"".join(bs)
                                        for cid, bs in hash_parts.items()})
                          if hash_parts else None)
            out.append({
                "path": path,
                "rows": sum(r["rows"] for r in group),
                "ok_rows": sum(r["ok_rows"] for r in group),
                "viol_json": json.dumps(counts, sort_keys=True),
                "sketches": sketches,
                "key_hashes": key_hashes,
                "elapsed_ms": sum(r["elapsed_ms"] for r in group),
            })
        return pa.Table.from_pylist(out, schema=PARTIAL_SCHEMA)


class ScanBlock:
    """The whole scan of one read block, as one task-pool ``map_batches``
    call with ``batch_size=None``, so Ray fuses it into the read
    (``ReadParquet->MapBatches(ScanBlock)``) and no block crosses the
    object store between stages.

    The block is cut into slices of at most ``batch_size`` rows; each
    slice is extracted (when ``extractor`` is given) and passed to
    ``sink``. ``merge`` then collapses the block's partial rows to one
    row per fragment.
    """

    def __init__(self, sink: ValidateAndSink, merge: MergePartials,
                 batch_size: int, extractor=None):
        self.sink = sink
        self.merge = merge
        self.batch_size = batch_size
        self.extractor = extractor

    def __call__(self, block: pa.Table) -> pa.Table:
        parts = []
        for off in range(0, block.num_rows, self.batch_size):
            batch = block.slice(off, self.batch_size)
            if self.extractor is not None:
                batch = self.extractor(batch)
            parts.append(self.sink(batch))
        if not parts:
            return PARTIAL_SCHEMA.empty_table()
        return self.merge(pa.concat_tables(parts))


def list_fragments(input_dir: str | Path) -> list[str]:
    d = Path(input_dir)
    return sorted(str(p) for p in d.glob("*.parquet"))


class RunCallbacks:
    """Observability hooks around a suite run (the analog of the
    reference's DriverCallbacks container, infra/callbacks.py:35-56 —
    per-call request/response hooks become per-partition / per-table-check
    / per-run hooks in the data plane). Each callback receives one dict
    payload; exceptions in callbacks propagate (fail fast, like a budget
    guard — wrap in try/except yourself for log-only hooks).

    ``on_partition_complete``: {partition_id, rows, ok_rows, violations,
    violations_by_check, elapsed_ms}
    ``on_table_check``: {check_id, result}
    ``on_complete``: the full report dict
    """

    def __init__(self, on_partition_complete=None, on_table_check=None,
                 on_complete=None):
        self.on_partition_complete = on_partition_complete
        self.on_table_check = on_table_check
        self.on_complete = on_complete

    def partition(self, pid: int, record: dict) -> None:
        if self.on_partition_complete:
            self.on_partition_complete({"partition_id": pid, **record})

    def table_check(self, check_id: str, result: dict) -> None:
        if self.on_table_check:
            self.on_table_check({"check_id": check_id, "result": result})

    def complete(self, report: dict) -> None:
        if self.on_complete:
            self.on_complete(report)


def run_suite(
    input_dir: str | Path,
    suite: Suite,
    out_dir: str | Path,
    *,
    run_id: str | None = None,
    resume: bool = True,
    key_col: str = "url",
    ref_tables: dict[str, str] | None = None,
    batch_size: int = 4096,
    baseline_path: str | Path | None = None,
    unique_violation_rows: bool = False,
    budget: dict | None = None,
    callbacks: "RunCallbacks | None" = None,
) -> dict:
    """Run a validation suite end to end; returns the report dict.

    ``ref_tables`` maps a referential check's ``ref_table`` name to a
    parquet path/dir. Ray must already be initialised by the caller.
    ``batch_size`` caps the rows of one extract + validate slice of a read
    block.

    ``report["run"]["phases"]`` holds seconds per phase, the driver fold's
    time and partial rows inside the scan, and ``first_partition``: the
    seconds from the call to the first partition this run completes
    (absent when every partition was resumed).

    ``budget``: optional ceilings checked after every completed
    partition (reference check_budget, tracker.py:604-698) — keys
    ``max_rows / max_violations / max_violation_rate / max_elapsed_ms``;
    crossing one raises BudgetExceededError (completed partitions stay
    checkpointed, so a re-run with a raised budget resumes).
    """
    import ray.data as rd

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = run_id or uuid.uuid4().hex[:12]
    t_start = time.perf_counter()

    phases: dict[str, float] = {}

    def _phase(name: str, t0: float) -> None:
        phases[name] = round(time.perf_counter() - t0, 3)

    fragments = list_fragments(input_dir)
    if not fragments:
        raise FileNotFoundError(f"no parquet fragments under {input_dir}")
    path_to_pid = {f: i for i, f in enumerate(fragments)}

    manifest = Manifest(out, run_id)
    if not resume:
        for p in (out / "manifest").glob("*.json"):
            p.unlink()
    manifest.clean_incomplete(out / "violations")
    pending = manifest.pending(fragments)
    resumed_pids = sorted(manifest.completed_pids())

    needs_extract = any(c.kind == "extract_match" for c in suite.row_checks)
    stats_checks = [c for c in suite.table_checks if c.kind == "stats"]
    global_acc = StatsAccumulator(stats_checks)

    stats_dir = out / "stats"
    stats_dir.mkdir(exist_ok=True)

    unique_checks = [c for c in suite.table_checks if c.kind == "unique"]
    ref_checks = [c for c in suite.table_checks if c.kind == "referential"]
    total_rows_estimate = sum(pq.read_metadata(f).num_rows for f in fragments)
    fuse_unique = total_rows_estimate <= UNIQUE_FUSED_MAX

    # referential right sides: build sorted hash arrays (parallel narrow
    # pass over the small side) and broadcast once via ray.put — the
    # anti-join then rides the main scan with zero shuffle. Right sides
    # bigger than REF_BROADCAST_MAX fall back to the hash-partitioned
    # groupby anti-join after the scan.
    ref_broadcasts, ref_fallback = [], []
    t_ph = time.perf_counter()
    if pending and ref_checks:
        import ray
        for c in ref_checks:
            ref_path = (ref_tables or {}).get(c.ref_table)
            if ref_path is None:
                ref_fallback.append(c)
                continue
            rpaths = (list_fragments(ref_path) if Path(ref_path).is_dir()
                      else [ref_path])
            n_right = sum(pq.read_metadata(p).num_rows for p in rpaths)
            if n_right > REF_BROADCAST_MAX:
                ref_fallback.append(c)
                continue
            rcol = c.ref_column or c.column
            if n_right <= 500_000:
                # small right side: hash on the driver (a Ray execution's
                # fixed cost would dominate the actual work)
                parts = [_col_hashes(pq.read_table(p, columns=[rcol]), rcol)
                         for p in rpaths]
                merged = (np.sort(np.concatenate(parts)) if parts
                          else np.empty(0, dtype=np.uint64))
                ref_broadcasts.append((c, ray.put(merged)))
            else:
                # larger right side: build as a Ray TASK TREE and pass the
                # FINAL task's ObjectRef — ValidateAndSink ray.gets it
                # lazily at its first batch, so the hash build overlaps the
                # main scan's read ramp instead of serializing before it.
                n_cpu = int(ray.cluster_resources().get("CPU", 8))
                n_chunks = min(max(8, n_cpu), len(rpaths))
                chunks = [rpaths[i::n_chunks] for i in range(n_chunks)]

                @ray.remote(num_cpus=1)
                def _hash_files(paths: list, col: str) -> np.ndarray:
                    parts = [_col_hashes(pq.read_table(p, columns=[col]), col)
                             for p in paths]
                    return (np.concatenate(parts) if parts
                            else np.empty(0, dtype=np.uint64))

                @ray.remote(num_cpus=1)
                def _merge_sorted(*arrs: np.ndarray) -> np.ndarray:
                    return (np.sort(np.concatenate(arrs)) if arrs
                            else np.empty(0, dtype=np.uint64))

                futures = [_hash_files.remote(ch, rcol)
                           for ch in chunks if ch]
                ref_broadcasts.append((c, _merge_sorted.remote(*futures)))
    elif ref_checks:
        ref_fallback = []  # nothing pending: counts already in the manifest
    _phase("ref_broadcast_build", t_ph)

    t_ph = time.perf_counter()
    if pending:
        pending_paths = [f for _, f in pending]
        expected = {f: pq.read_metadata(f).num_rows for f in pending_paths}
        # one block per fragment (or per ~128MB for large fragments):
        # Ray's default SplitBlocks interacts badly with include_paths
        # (measured 6× slower read); explicit sizing also keeps block
        # boundaries aligned with checkpoint partitions.
        total_bytes = sum(Path(f).stat().st_size for f in pending_paths)
        n_blocks = max(len(pending_paths), total_bytes // (128 << 20))
        ds = rd.read_parquet(pending_paths, include_paths=True,
                             override_num_blocks=n_blocks)
        extractor = None
        if needs_extract:
            from prompture_ray.functions.extract_html import HtmlExtractor
            extractor = HtmlExtractor()
        # one stateless task-pool call per read block (batch_size=None):
        # Ray fuses it into the read, so a block is read, extracted,
        # validated, sunk and merged in one task
        scan = ScanBlock(
            ValidateAndSink(suite, str(out), key_col, path_to_pid,
                            ref_broadcasts=ref_broadcasts,
                            unique_checks=unique_checks if fuse_unique else []),
            MergePartials(stats_checks), batch_size, extractor)
        partials = ds.map_batches(scan, batch_format="pyarrow",
                                  batch_size=None)

        # streaming driver fold + incremental per-fragment checkpointing,
        # one partial block at a time as the scan yields it (a batch_size
        # here would hold rows back until that many had arrived).
        # Per-fragment sketch partials are persisted atomically BEFORE the
        # manifest record, so a crash can never produce a completed
        # fragment without its stats (memory stays bounded: only fragments
        # currently in flight hold an accumulator).
        seen: dict[str, dict] = {}
        # budget counters seeded from resumed partitions (cheap: manifest)
        running = dict(manifest.totals()) if budget else {}
        fold_s, folded_rows = 0.0, 0
        for pb in partials.iter_batches(batch_size=None,
                                        batch_format="pyarrow"):
            t_fold = time.perf_counter()
            folded_rows += pb.num_rows
            for row in pb.to_pylist():
                path = row["path"]
                st = seen.setdefault(path, {
                    "rows": 0, "ok_rows": 0, "by_check": {},
                    "elapsed_ms": 0.0, "acc": StatsAccumulator(stats_checks),
                    "hashes": {}})
                st["rows"] += row["rows"]
                st["ok_rows"] += row["ok_rows"]
                st["elapsed_ms"] += row["elapsed_ms"]
                for k, v in json.loads(row["viol_json"]).items():
                    st["by_check"][k] = st["by_check"].get(k, 0) + v
                if row["sketches"]:
                    st["acc"].merge_bytes(row["sketches"])
                if row["key_hashes"]:
                    for cid, blob in pickle.loads(row["key_hashes"]).items():
                        st["hashes"].setdefault(cid, []).append(blob)
                if st["rows"] >= expected[path]:
                    pid = path_to_pid[path]
                    record = {
                        "rows": st["rows"], "ok_rows": st["ok_rows"],
                        "violations": sum(st["by_check"].values()),
                        "violations_by_check": st["by_check"],
                        "elapsed_ms": round(st["elapsed_ms"], 3),
                    }
                    if stats_checks:
                        tmp = stats_dir / f"pid-{pid:05d}.tmp"
                        tmp.write_bytes(st["acc"].dumps())
                        tmp.rename(stats_dir / f"pid-{pid:05d}.pkl")
                    if st["hashes"]:
                        tmp = stats_dir / f"hashes-{pid:05d}.tmp"
                        tmp.write_bytes(pickle.dumps(
                            {cid: b"".join(blobs)
                             for cid, blobs in st["hashes"].items()}))
                        tmp.rename(stats_dir / f"hashes-{pid:05d}.pkl")
                    manifest.write(pid, {
                        "status": "completed",
                        "input_fragments": [path],
                        **record,
                    })
                    phases.setdefault("first_partition",
                                      round(time.perf_counter() - t_start, 3))
                    if callbacks:
                        callbacks.partition(pid, record)
                    if budget:
                        running["rows"] += st["rows"]
                        running["violations"] += sum(st["by_check"].values())
                        running["elapsed_ms_sum"] += st["elapsed_ms"]
                        check_budget(running, **budget)
                    del seen[path]
            fold_s += time.perf_counter() - t_fold
        phases["driver_fold_in_scan"] = round(fold_s, 3)
        phases["driver_fold_rows"] = folded_rows
    _phase("main_scan", t_ph)

    t_ph = time.perf_counter()
    # global stats = fold of per-partition sketch files of completed pids
    for pid in sorted(manifest.completed_pids()):
        p = stats_dir / f"pid-{pid:05d}.pkl"
        if p.exists():
            global_acc.merge_bytes(p.read_bytes())

    # ---- table-level check results ---------------------------------------
    table_results_path = out / "table_checks.json"
    if table_results_path.exists() and resume and not pending:
        table_results = json.loads(table_results_path.read_text())
    else:
        table_results = {}
        # uniqueness (fused path): fold per-partition key-hash files
        if unique_checks and fuse_unique:
            merged_hashes: dict[str, list] = {c.id: [] for c in unique_checks}
            for pid in sorted(manifest.completed_pids()):
                p = stats_dir / f"hashes-{pid:05d}.pkl"
                if not p.exists():
                    continue
                for cid, blob in pickle.loads(p.read_bytes()).items():
                    if cid in merged_hashes:
                        merged_hashes[cid].append(
                            np.frombuffer(blob, dtype=np.uint64))
            for c in unique_checks:
                h = (np.concatenate(merged_hashes[c.id])
                     if merged_hashes[c.id] else np.empty(0, np.uint64))
                uniq, counts = np.unique(h, return_counts=True)
                dup_mask = counts > 1
                table_results[c.id] = {
                    "kind": "unique", "column": c.column,
                    "duplicate_keys": int(dup_mask.sum()),
                    "duplicate_rows": int(len(h) - len(uniq)),
                }
                # duplicate rows can become per-key violation rows via one
                # extra narrow pass — opt-in (the exact counts above are
                # the semantic core; the pass costs a full key-column read)
                n_dup = int(dup_mask.sum())
                if n_dup and unique_violation_rows:
                    import ray
                    dup_sorted = np.sort(uniq[dup_mask])
                    dup_ref = ray.put(dup_sorted)

                    def _dup_rows(t: pa.Table, _col=c.column,
                                  _ref=dup_ref) -> pa.Table:
                        import ray as _ray
                        ds_ = _ray.get(_ref)
                        arr = t[_col]
                        if isinstance(arr, pa.ChunkedArray):
                            arr = arr.combine_chunks()
                        valid = arr.drop_null()
                        if len(valid) == 0 or len(ds_) == 0:
                            return pa.table({_col: pa.array([], type=pa.string())})
                        from prompture_ray.functions.sketches import (
                            hash_arrow_column)
                        hh = hash_arrow_column(valid)
                        idx = np.clip(np.searchsorted(ds_, hh), 0, len(ds_) - 1)
                        hit = ds_[idx] == hh
                        return pa.table({_col: pc.cast(
                            valid.filter(pa.array(hit)), pa.string())})

                    import ray as _r
                    _ncpu = int(_r.cluster_resources().get("CPU", 8))
                    dup_vals = rd.read_parquet(
                        fragments, columns=[c.column],
                        override_num_blocks=min(max(8, _ncpu),
                                                len(fragments))) \
                        .map_batches(_dup_rows, batch_format="pyarrow") \
                        .to_pandas()[c.column]
                    vc = dup_vals.value_counts()
                    vdir = out / "violations" / "table"
                    vdir.mkdir(parents=True, exist_ok=True)
                    keys = vc.index.astype(str).to_numpy()
                    ns = vc.to_numpy()
                    viol = pa.table({
                        "check_id": pa.array([c.id] * len(vc)),
                        "row_key": pa.array(list(keys), type=pa.string()),
                        "column": pa.array([c.column] * len(vc)),
                        "ok": pa.array([False] * len(vc)),
                        "reason": pa.array([c.reason()] * len(vc)),
                        "observed": pa.array([f"count={int(n)}" for n in ns],
                                             type=pa.string()),
                    }, schema=VIOLATION_SCHEMA)
                    pq.write_table(
                        viol.append_column("partition_id",
                                           pa.array([-1] * len(vc), type=pa.int32())),
                        vdir / f"{c.id}.parquet")
                    table_results[c.id]["sample"] = [
                        {c.column: k, "n": int(n)}
                        for k, n in sorted(zip(keys, ns),
                                           key=lambda kv: (-kv[1], kv[0]))[:10]]
        elif unique_checks:
            # scale fallback: hash-partitioned groupby
            from prompture_ray.stages.table_checks import duplicate_keys
            for c in unique_checks:
                dups = duplicate_keys(_non_null_keys(fragments, c.column),
                                      c.column).to_pandas()
                extra = int((dups["n"] - 1).sum()) if len(dups) else 0
                table_results[c.id] = {
                    "kind": "unique", "column": c.column,
                    "duplicate_keys": int(len(dups)),
                    "duplicate_rows": extra,
                }

        # referential: fused results live in the manifest reason counters;
        # fallback checks run the partitioned anti-join now
        totals_so_far = manifest.totals()
        for c in ref_checks:
            if c in ref_fallback:
                from prompture_ray.stages.table_checks import referential_missing
                ref_path = (ref_tables or {}).get(c.ref_table)
                if ref_path is None:
                    table_results[c.id] = {
                        "kind": "referential",
                        "error": f"ref table {c.ref_table} not provided"}
                    continue
                narrow = _non_null_keys(fragments, c.column)
                right = rd.read_parquet(
                    list_fragments(ref_path) if Path(ref_path).is_dir()
                    else ref_path, columns=[c.ref_column or c.column])
                missing = referential_missing(narrow, right, c.column,
                                              c.ref_column).to_pandas()
                table_results[c.id] = {
                    "kind": "referential", "column": c.column,
                    "missing_keys": int(len(missing)),
                    "missing_rows": int(missing["n"].sum()) if len(missing) else 0,
                }
            else:
                table_results[c.id] = {
                    "kind": "referential", "column": c.column, "fused": True,
                    "missing_rows": totals_so_far["violations_by_check"]
                    .get(c.id, 0),
                }
        table_results_path.write_text(json.dumps(table_results, sort_keys=True))
    if callbacks:
        for cid, tr in table_results.items():
            callbacks.table_check(cid, tr)
    _phase("table_checks", t_ph)

    # ---- report assembly (driver-side, tiny data) -----------------------
    totals = manifest.totals()
    results = []
    for c in suite.row_checks:
        bad = totals["violations_by_check"].get(c.id, 0)
        results.append({
            "check_id": c.id, "column": c.column, "kind": c.kind,
            "total": totals["rows"], "violations": bad,
            "ok": totals["rows"] - bad,
            "pass_rate": round(1 - bad / totals["rows"], 6) if totals["rows"] else 1.0,
        })
    for c in suite.table_checks:
        if c.kind in ("unique", "referential") and c.id in table_results:
            tr = table_results[c.id]
            bad = tr.get("duplicate_rows", tr.get("missing_rows", 0))
            results.append({
                "check_id": c.id, "column": c.column, "kind": c.kind,
                "total": totals["rows"], "violations": bad,
                "ok": totals["rows"] - bad,
                "pass_rate": round(1 - bad / totals["rows"], 6) if totals["rows"] else 1.0,
            })

    stats_summaries = global_acc.summaries()

    drift = None
    if baseline_path and Path(baseline_path).exists() and stats_checks:
        baseline = load_baseline(baseline_path)
        len_check = next((c for c in stats_checks if "kll" in (c.sketches or ())), None)
        cat_check = next((c for c in stats_checks
                          if "countmin" in (c.sketches or ())
                          or "topk" in (c.sketches or ())), None)
        live_hist = None
        if len_check:
            live_hist = global_acc.sketches[len_check.id]["hist"]
        live_freq = {}
        if cat_check:
            top = global_acc.sketches[cat_check.id].get("topk")
            if top:
                total_c = sum(c for _, c in top.counts.items()) or 1
                live_freq = {str(v): c / total_c for v, c in top.counts.items()}
        if live_hist is not None:
            drift = score_drift(baseline, live_hist, live_freq)

    # violation exemplars for the report (reference report rows carry the
    # offending input/response, runner.py:85-95): a few rows per reason
    # from the first violation files — bounded read, never a full scan
    samples: dict[str, list] = {}
    vdirs = sorted((out / "violations").glob("pid=*"))[:4]
    for vdir in vdirs:
        for f in sorted(vdir.glob("*.parquet"))[:1]:
            t = pq.read_table(f)
            for row in t.slice(0, 200).to_pylist():
                bucket = samples.setdefault(row["check_id"], [])
                if len(bucket) < 3:
                    bucket.append({k: row[k] for k in
                                   ("check_id", "row_key", "observed")})

    # per-partition pass/fail verdict table (north-star output shape):
    # full table → parquet; report carries a bounded preview
    part_rows = [{
        "partition_id": r["partition_id"],
        "rows": r.get("rows", 0),
        "ok_rows": r.get("ok_rows", 0),
        "violations": r.get("violations", 0),
        "pass": r.get("violations", 0) == 0,
        "status": r.get("status"),
    } for r in manifest.records()]
    if part_rows:
        pq.write_table(pa.Table.from_pylist(part_rows),
                       out / "partition_verdicts.parquet")

    elapsed = time.perf_counter() - t_start
    report = {
        "meta": {**suite.meta, "run_id": run_id,
                 "input_dir": str(input_dir), "fragments": len(fragments),
                 "resumed_partitions": resumed_pids},
        "results": results,
        "violation_samples": samples,
        "partitions": part_rows[:64],
        "stats": stats_summaries,
        "drift": drift,
        "run": {**totals, "wall_s": round(elapsed, 3), "phases": phases,
                "docs_per_s": round(totals["rows"] / elapsed, 1) if elapsed else None,
                "checks_per_s": round(totals["rows"] * len(suite.row_checks) / elapsed, 1)
                if elapsed else None},
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if callbacks:
        callbacks.complete(report)
    return report
