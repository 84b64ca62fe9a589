"""Round-5 seventh-session scale rehearsal: walls for the new
operators at ~1M and ~9M rows over PLANTED inputs (no corpus
dependency — every op here is driven by arithmetic plants, so the
rehearsal is self-contained and deterministic).

Ops: set_similarity_join (PPJoin), hits_scores (2 rounds),
cusum_flags, gini_by_key, ntile_by_key, transition_counts,
max_drawdown_by_key, leading_digit_counts, morton zorder_sort.

Usage:  python tools/rehearse_session7.py [n_rows]     (default 1_000_000)

Run from the repo root with nothing else on the machine; walls are only
comparable within a session (CLAUDE.md machine-noise protocol).
"""
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import ray


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    res = {"n_rows": n}

    def ids_ds(n_blocks=256):
        return rd.range(n, override_num_blocks=n_blocks)

    def timed(name, fn):
        t0 = time.time()
        out = fn()
        res[name] = round(time.time() - t0, 1)
        print(f"{name:28s} {res[name]:8.1f} s   {out}")

    # ---- set-similarity join: 4-doc overlap groups ------------------
    def run_setjoin():
        from fractions import Fraction
        from prompture_ray.stages.setjoin import set_similarity_join

        def plant(t: pa.Table) -> pa.Table:
            d = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
            base = (d // 4) * 32 + (d % 4) * 4
            parts = [pa.array((base + j).astype(str)) for j in range(16)]
            import pyarrow.compute as pc
            text = pc.binary_join_element_wise(*parts, " ")
            return pa.table({"doc_id": pa.array(d), "text": text})

        out = set_similarity_join(
            ids_ds().map_batches(plant, batch_format="pyarrow"),
            "doc_id", "text", Fraction(1, 2),
            candidate_max=50_000_000)
        c = out.count()
        exp = (n // 4) * 3
        return f"pairs={c} (expect {exp})"

    timed("set_similarity_join", run_setjoin)

    # ---- HITS: two planted families ---------------------------------
    def run_hits():
        from prompture_ray.stages.graph import hits_scores

        def plant(t: pa.Table) -> pa.Table:
            d = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
            src = np.r_[d, d % 49999]
            dst = np.r_[10**9 + d % 99991, 10**9 + d % 88801]
            return pa.table({"src": pa.array(src),
                             "dst": pa.array(dst)})

        out = hits_scores(ids_ds().map_batches(
            plant, batch_format="pyarrow"), k=2)
        return f"nodes={out.count()}"

    timed("hits_scores_k2", run_hits)

    # ---- per-key ordered analytics over one planted event table -----
    def plant_events(t: pa.Table) -> pa.Table:
        d = t["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(d % 10007),
            "ts": pa.array((d * 2654435761) % (10**12)),
            "tie": pa.array(d),
            "v": pa.array(d % 9973)})

    def ev():
        return ids_ds().map_batches(plant_events,
                                    batch_format="pyarrow")

    def run_cusum():
        from prompture_ray.stages.analytic import cusum_flags
        out = cusum_flags(ev(), "key", "ts", "tie", "v",
                          target_k=4986, threshold_h=100000,
                          n_parts=256)
        return f"rows={out.count()}"

    timed("cusum_flags", run_cusum)

    def run_drawdown():
        from prompture_ray.stages.analytic import max_drawdown_by_key
        out = max_drawdown_by_key(ev(), "key", "ts", "tie", "v",
                                  n_parts=256)
        return f"keys={out.count()}"

    timed("max_drawdown_by_key", run_drawdown)

    def run_ntile():
        from prompture_ray.stages.analytic import ntile_by_key
        out = ntile_by_key(ev(), "key", "tie", 7, n_parts=256)
        return f"rows={out.count()}"

    timed("ntile_by_key", run_ntile)

    def run_gini():
        from prompture_ray.stages.groupstats import gini_by_key
        out = gini_by_key(ev(), "key", "v", n_parts=256)
        return f"keys={out.count()}"

    timed("gini_by_key", run_gini)

    def run_transitions():
        from prompture_ray.stages.userpath import transition_counts

        def plant(t: pa.Table) -> pa.Table:
            d = t["id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            types = np.array(["view", "click", "buy", "share"],
                             dtype=object)
            return pa.table({
                "u": pa.array(d % 100003),
                "ts": pa.array((d * 2654435761) % (10**12)),
                "tie": pa.array(d),
                "t": pa.array(types[d % 4], type=pa.string())})

        out = transition_counts(
            ids_ds().map_batches(plant, batch_format="pyarrow"),
            "u", "ts", "tie", "t", n_parts=256)
        return f"cells={out.count()}"

    timed("transition_counts", run_transitions)

    def run_benford():
        from prompture_ray.stages.stats import leading_digit_counts
        out = leading_digit_counts(ev(), "v", "key")
        return f"cells={out.count()}"

    timed("leading_digit_counts", run_benford)

    def run_zorder():
        from prompture_ray.stages.zorder import zorder_sort

        def plant(t: pa.Table) -> pa.Table:
            d = t["id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({"x": pa.array(d % 65536),
                             "y": pa.array((d * 7919) % 65536)})

        out = zorder_sort(ids_ds().map_batches(
            plant, batch_format="pyarrow"), "x", "y", bits=16)
        return f"rows={out.count()}"

    timed("zorder_sort", run_zorder)

    print(json.dumps(res))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
