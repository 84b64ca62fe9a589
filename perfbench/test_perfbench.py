"""Tests of the benchmark's own parts: the self-time arithmetic, the
reference counter, the seeded inputs and the metric declarations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from perfbench import inputs, metrics, reference
from perfbench.spans import Tracer, covered, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(8, 12), (-3, 1)], 0, 10) == 3
    assert covered([(4, 6), (1, 2), (5, 9)], 0, 10) == 6
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        _span("sink", 0.0, 10.0),
        _span("kernel", 1.0, 3.0, parent=0),
        _span("hash", 2.0, 5.0, parent=0),     # overlaps the kernel
        _span("stats", 6.0, 8.0, parent=0),
        _span("hash", 6.5, 7.0, parent=3),     # grandchild of sink
        _span("read", 10.0, 12.5),
    ]
    st = self_times(spans)
    assert st["sink"] == pytest.approx(10 - 4 - 2)
    assert st["kernel"] == pytest.approx(2)
    assert st["hash"] == pytest.approx(3 + 0.5)
    assert st["stats"] == pytest.approx(1.5)
    assert st["read"] == pytest.approx(2.5)


def test_self_times_of_a_serial_tree_add_up_to_its_root():
    spans = [
        _span("sink", 0.0, 10.0),
        _span("kernel", 1.0, 3.0, parent=0),
        _span("stats", 4.0, 8.0, parent=0),
        _span("hash", 4.5, 6.0, parent=2),
    ]
    st = self_times(spans)
    assert st == pytest.approx({"sink": 4.0, "kernel": 2.0, "stats": 2.5,
                                "hash": 1.5})
    assert sum(st.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_wraps():
    tr = Tracer()

    def work(x):
        time.sleep(0.01)
        return x + 1

    traced = tr.wrap(lambda x: f"work.{x}", work)
    with tr.span("outer"):
        assert traced(1) == 2
        with tr.span("inner"):
            traced(2)
    names = [(s["name"], s["parent"]) for s in tr.spans]
    assert names == [("outer", None), ("work.1", 0), ("inner", 0),
                     ("work.2", 2)]
    st = tr.self_times()
    total = tr.spans[0]["end"] - tr.spans[0]["start"]
    assert sum(st.values()) == pytest.approx(total)
    assert st["work.1"] >= 0.01 and st["inner"] < st["work.2"]


# the verify recipe's flagship numbers: 6000 rows, 6 parts, seed 42
SEED42_COUNTS = {"url-notnull": 0, "url-regex": 64, "ts-range": 66,
                 "lang-enum": 88, "text-extract": 192, "url-unique": 97,
                 "url-ref": 56}


def test_reference_counter_matches_seed42_counts(tmp_path):
    from prompture_ray.synth import generate
    generate(tmp_path, n_rows=6000, n_parts=6, seed=42, use_ray=False)
    frags = sorted((tmp_path / "pages").glob("*.parquet"))
    per_frag = [reference.fragment_row_counts(f) for f in frags]
    got = reference.expected_counts(tmp_path, per_frag)
    assert got == SEED42_COUNTS
    assert sum(got.values()) == 563


def test_permuted_tables_keep_the_rows(tmp_path):
    a = inputs.permute_tables("sf0.001", 1, 0, tmp_path / "a")
    b = inputs.permute_tables("sf0.001", 1, 0, tmp_path / "b")
    c = inputs.permute_tables("sf0.001", 2, 0, tmp_path / "c")
    for t in inputs.QUERY_TABLES:
        src = pq.read_table(inputs.QUERY_DATA / "sf0.001" / f"{t}.parquet")
        ta, tc = (pq.read_table(d / f"{t}.parquet") for d in (a, c))
        assert ta.equals(pq.read_table(b / f"{t}.parquet"))
        keys = [(n, "ascending") for n in src.column_names]
        assert ta.sort_by(keys).equals(src.sort_by(keys))
        if src.num_rows > 100:
            assert not ta.equals(tc)


def test_pick_fragments_is_seeded():
    spec = inputs.PAGES["pages_extract"]
    a = inputs.pick_fragments(spec, 1, 0)
    assert a == inputs.pick_fragments(spec, 1, 0)
    assert a != inputs.pick_fragments(spec, 2, 0)
    assert len(set(a)) == spec.frags_per_rep


def test_benchmark_json_declares_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        list(metrics.WORKLOAD_NAMES)


def test_workload_tables_agree():
    from perfbench.workloads import NOMINAL_REP_S, QUERY_SET, WORKLOADS
    assert metrics.QUERY_NAMES == tuple(q for q, _, _ in QUERY_SET)
    assert tuple(WORKLOADS) == metrics.WORKLOAD_NAMES
    assert tuple(NOMINAL_REP_S) == metrics.WORKLOAD_NAMES


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "queries", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout == ""
