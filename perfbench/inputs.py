"""Seeded benchmark inputs, built outside every timed region.

A run's ``--seed`` only chooses which pieces of a fixed input a
repetition reads and in which order, so preparing a run's input costs
milliseconds and never enters a timed region:

- ``pages_extract``: a *pool* of synthesized web_pages fragments
  (``prompture_ray.synth.gen_partition``) plus their warc_records
  fragments, built the first time the benchmark runs in a checkout
  (``build_all``) and cached in ``.perfbench/`` at the checkout root
  (ignored by git). A repetition links a seeded choice of fragments, in
  seeded order, into its own input directory.
- ``queries``: the ``events / lineitem / orders / supplier`` tables of the
  repo's seed-42 test data at sf0.01 and sf0.001 (see TESTDATA.md), copied
  byte for byte under ``data/`` so the benchmark reads nothing outside its
  checkout. A repetition writes a seeded row permutation of them, which
  changes the layout and never the answers.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench"
POOLS = CACHE / "pools"
POOL_SEED = 42
# bump when a pool's content changes, so stale caches are rebuilt
POOL_VERSION = "2"


@dataclass(frozen=True)
class PagesSpec:
    """A pool of web_pages fragments and how a repetition samples it."""
    name: str
    pool_frags: int        # fragments in the pool
    frag_rows: int         # rows per fragment
    words_scale: float     # synth page-body length multiplier
    frags_per_rep: int     # fragments one repetition reads

    @property
    def rows_per_rep(self) -> int:
        return self.frags_per_rep * self.frag_rows


PAGES = {
    "pages_extract": PagesSpec("pages_extract", pool_frags=24,
                               frag_rows=6000, words_scale=3.0,
                               frags_per_rep=5),
}
# the warm slice every pages set-up runs over: small, fixed, seed-free
WARM_PAGES = PagesSpec("warm_pages", pool_frags=2, frag_rows=500,
                       words_scale=1.0, frags_per_rep=2)

# queries workload: the timed tables (sf0.01) and the tiny ones (sf0.001:
# warm pass, per-query fixed cost, and the events running_sum_events reads)
QUERY_DATA = Path(__file__).resolve().parent / "data"
QUERY_TABLES = ("events", "lineitem", "orders", "supplier")


# ---------------------------------------------------------------------------
# pages pools
# ---------------------------------------------------------------------------

def _pages_pool(spec: PagesSpec) -> Path:
    from prompture_ray.synth import gen_partition
    from perfbench.reference import fragment_row_counts

    out = POOLS / spec.name
    content = {k: v for k, v in spec.__dict__.items() if k != "frags_per_rep"}
    stamp = json.dumps({"v": POOL_VERSION, **content}, sort_keys=True)
    if (out / "_DONE").exists() and (out / "_DONE").read_text() == stamp:
        return out
    shutil.rmtree(out, ignore_errors=True)
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "pages").mkdir(parents=True)
    (tmp / "warc").mkdir()
    ref = {}
    for pid in range(spec.pool_frags):
        pages, warc = gen_partition(pid, spec.frag_rows, POOL_SEED,
                                    spec.words_scale)
        name = f"part-{pid:05d}.parquet"
        pq.write_table(pages, tmp / "pages" / name)
        pq.write_table(warc, tmp / "warc" / name)
        # per-fragment reference counts of the row checks, computed once
        # and kept beside the pool
        ref[name] = fragment_row_counts(tmp / "pages" / name)
    (tmp / "row_counts.json").write_text(json.dumps(ref, sort_keys=True))
    tmp.rename(out)
    (out / "_DONE").write_text(stamp)
    return out


def pool_dir(spec: PagesSpec) -> Path:
    return POOLS / spec.name


def pick_fragments(spec: PagesSpec, seed: int, rep: int) -> list[str]:
    """Seeded choice of ``frags_per_rep`` pool fragments, in seeded order."""
    rng = np.random.default_rng([seed, rep, spec.pool_frags])
    idx = rng.choice(spec.pool_frags, size=spec.frags_per_rep, replace=False)
    return [f"part-{int(i):05d}.parquet" for i in idx]


def link_pages_input(spec: PagesSpec, names: list[str], dest: Path) -> Path:
    """Hard-link the chosen pool fragments into ``dest/{pages,warc}``; the
    link names carry the seeded order (run_suite sorts fragments by path)."""
    src = pool_dir(spec)
    shutil.rmtree(dest, ignore_errors=True)
    for sub in ("pages", "warc"):
        (dest / sub).mkdir(parents=True)
        for pos, name in enumerate(names):
            os.link(src / sub / name, dest / sub / f"part-{pos:05d}.parquet")
    return dest


# ---------------------------------------------------------------------------
# query tables
# ---------------------------------------------------------------------------

def permute_tables(scale: str, seed: int, rep: int, dest: Path) -> Path:
    """Write a seeded row permutation of every table of ``QUERY_DATA /
    scale`` to ``dest`` (same rows, new layout — the answers do not
    change)."""
    dest.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(QUERY_TABLES):
        tab = pq.read_table(QUERY_DATA / scale / f"{t}.parquet")
        rng = np.random.default_rng([seed, rep, i])
        pq.write_table(tab.take(rng.permutation(tab.num_rows)),
                       dest / f"{t}.parquet")
    return dest


# ---------------------------------------------------------------------------

def build_all() -> None:
    """Build every pool that is missing or stale (the first run in a
    checkout pays this; later runs find it cached)."""
    for spec in (WARM_PAGES, *PAGES.values()):
        _pages_pool(spec)
