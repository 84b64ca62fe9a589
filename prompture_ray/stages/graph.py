"""Distributed link-graph operators: PageRank power iteration over an
edge Dataset (beyond the reference — the link-analysis slot of a
web-crawl pipeline; Page et al. 1999).

Scale shape: out-degrees are folded into the edge table ONCE (one
``shuffle.aggregate`` + one bucketed join, materialized); each power
iteration is then exactly one bucketed join (ranks x edges on src — the
rank side is one narrow (node, v) column pair) and one
``shuffle.aggregate`` sum by dst, with a left join back to the node
list for dangling-in nodes. Every grouped count and sum here (node
sets, degrees, per-node sums) is a ``shuffle.aggregate``, whose output
is not ordered by node. No
driver state grows with the graph; k iterations = k shuffle rounds
(inherent to power iteration).

Float determinism: contributions to one dst are summed by the grouped
aggregate — summation ORDER is layout-dependent, so cross-run
bit-stability holds only for in-degree <= 1 graphs (each Sum has one
operand; the planted ring oracle exploits exactly this) or with
rounding on the consumer side.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages.shuffle import (aggregate, bound_blocks,
                                          target_blocks)

# hash partitions of the edge, wedge and closing folds of triangle_count,
# common_neighbors and k_core
EDGE_PARTS = 128


def _ends(t: pa.Table, a: str, b: str) -> pa.Table:
    """One ``node`` row per edge end: the ``a`` ids, then the ``b`` ids
    (int64)."""
    return pa.table({"node": pa.concat_arrays([
        t[a].combine_chunks().cast(pa.int64()),
        t[b].combine_chunks().cast(pa.int64())])})


def _nodes(ds, a: str, b: str):
    """The distinct node ids ``(node,)`` of ``a`` ∪ ``b`` (unordered)."""
    return aggregate(ds.map_batches(_ends, fn_args=(a, b),
                                    batch_format="pyarrow"), ["node"])


def _degrees(ds, a: str, b: str, name: str):
    """Total degree per node of the edge ends ``a`` ∪ ``b``:
    ``(node, name)``, unordered."""
    return aggregate(ds.map_batches(_ends, fn_args=(a, b),
                                    batch_format="pyarrow"),
                     ["node"], **{name: ("count", None)})


def pagerank(edges, src_col: str = "src", dst_col: str = "dst",
             k: int = 3, damping: float = 0.85,
             n_buckets: int = 32):
    """k power-iteration rounds from the uniform start over the node
    set (distinct src ∪ dst). Returns a Dataset ``(node, rank)``.
    Dangling-OUT nodes (no out-edges) leak mass like the classic
    simple formulation (no redistribution term) — documented choice so
    the oracle recurrence stays closed-form."""
    from prompture_ray.stages.shuffle import join

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src_col].combine_chunks().cast(pa.int64()),
            "dst": t[dst_col].combine_chunks().cast(pa.int64())})

    e = edges.map_batches(proj, batch_format="pyarrow").materialize()

    nodes = _nodes(e, "src", "dst").materialize()
    n = nodes.count()

    # fold 1/outdeg into the edges once
    outdeg = aggregate(e, ["src"], outdeg=("count", None))
    e = join(e, outdeg, "src", n_buckets=n_buckets).materialize()

    def seed(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "rank": pa.array(np.full(len(t), 1.0 / n))})

    ranks = nodes.map_batches(seed, batch_format="pyarrow") \
        .materialize()
    base = (1.0 - damping) / n

    # Each round's rank table comes out of a bucketed join whose output
    # block count follows its INPUT block count (nodes + sums blocks,
    # where sums itself carries edge blocks) — without a bound the rank
    # table's block count GROWS linearly per round and the join/sort
    # cost per round climbs superlinearly on constant rows (the
    # components-round lesson, dedup.py). Bound it per round.
    for _ in range(k):
        contrib_in = join(e, ranks, "src", "node", n_buckets=n_buckets)

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "dst": b["dst"].to_numpy(),
                "c": b["rank"].to_numpy() / b["outdeg"].to_numpy()})

        sums = aggregate(contrib_in.map_batches(contrib,
                                                batch_format="pandas"),
                         ["dst"], insum=("sum", "c"))
        joined = join(nodes, sums, "node", "dst", how="left",
                      n_buckets=n_buckets)

        def update(b: pd.DataFrame) -> pd.DataFrame:
            s = b["insum"].fillna(0.0).to_numpy()
            return pd.DataFrame({
                "node": b["node"].to_numpy().astype(np.int64),
                "rank": base + damping * s})

        ranks = bound_blocks(
            joined.map_batches(update, batch_format="pandas")
            .materialize()).materialize()
    return ranks


import re

# \x00 excluded from the href class so a match can never span the
# blob's document separator (e.g. an unclosed quote at a doc boundary)
_HREF_RE = re.compile(r'href\s*=\s*["\x27]([^"\x27\x00]+)["\x27]')


def extract_links(ds, html_col: str, id_col: str):
    """(src_id, href) rows from an HTML column. Per batch: ONE regex
    pass over the \\x00-joined document blob (no per-row loop — the
    scan is O(batch bytes) regardless of row count), match offsets
    mapped back to rows via searchsorted on the document start
    offsets."""

    def fn(t: pa.Table) -> pa.Table:
        arr = t[html_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.fill_null(arr.cast(pa.string()), "")
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = arr.to_pylist()
        blob = "\x00".join(texts)
        starts = np.zeros(len(texts), dtype=np.int64)
        if len(texts) > 1:
            lens = np.fromiter((len(x) for x in texts), dtype=np.int64,
                               count=len(texts))
            starts[1:] = np.cumsum(lens[:-1] + 1)
        hrefs, pos = [], []
        for m in _HREF_RE.finditer(blob):     # one pass, per MATCH only
            hrefs.append(m.group(1))
            pos.append(m.start())
        row = np.searchsorted(starts, np.asarray(pos, dtype=np.int64),
                              side="right") - 1 if pos else \
            np.empty(0, dtype=np.int64)
        return pa.table({
            "src": pa.array(ids[row] if len(row) else
                            np.empty(0, dtype=np.int64),
                            type=pa.int64()),
            "href": pa.array(hrefs, type=pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def degree_table(edges, src_col: str = "src", dst_col: str = "dst"):
    """In/out degree per node over an edge Dataset — the standard
    pre-PageRank audit (degree distribution, dangling/sink detection).
    Returns ``(node, out_deg, in_deg)`` covering distinct src ∪ dst,
    unordered.

    Scale shape: each edge becomes two 24-byte ``(node, __o, __i)`` rows
    (its src with ``__o = 1``, its dst with ``__i = 1``), and ONE
    ``shuffle.aggregate`` sums them per node. Edges never shuffle whole;
    the driver holds nothing."""

    def ends(t: pa.Table) -> pa.Table:
        one = np.ones(t.num_rows, dtype=np.int64)
        zero = np.zeros(t.num_rows, dtype=np.int64)
        return _ends(t, src_col, dst_col).append_column(
            "__o", pa.array(np.r_[one, zero])).append_column(
            "__i", pa.array(np.r_[zero, one]))

    return aggregate(edges.map_batches(ends, batch_format="pyarrow"),
                     ["node"], out_deg=("sum", "__o"),
                     in_deg=("sum", "__i"))


# anchor = href + inner text up to the first '<' (nested markup inside
# an anchor is out of scope — documented; \x00 excluded everywhere so a
# match can never span the blob's document separator)
_ANCHOR_RE = re.compile(
    r'<a\s[^>\x00]*?href\s*=\s*["\x27]([^"\x27\x00]+)["\x27]'
    r'[^>\x00]*>([^<\x00]*)<')


def extract_anchor_texts(ds, html_col: str, id_col: str):
    """(src_id, href, anchor) rows from an HTML column — the anchor-text
    corpus pass (inbound link text is a classic relevance/label signal;
    the reference's HTML surface stops at text extraction). Same scan
    shape as extract_links: ONE regex pass over the \\x00-joined blob
    per batch, per-MATCH work only, offsets mapped back to rows via
    searchsorted. Anchor text is the run up to the first '<' inside the
    element; anchors with nested markup yield their leading text run
    (possibly empty)."""

    def fn(t: pa.Table) -> pa.Table:
        arr = t[html_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.fill_null(arr.cast(pa.string()), "")
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = arr.to_pylist()
        blob = "\x00".join(texts)
        starts = np.zeros(len(texts), dtype=np.int64)
        if len(texts) > 1:
            lens = np.fromiter((len(x) for x in texts), dtype=np.int64,
                               count=len(texts))
            starts[1:] = np.cumsum(lens[:-1] + 1)
        hrefs, anchors, pos = [], [], []
        for m in _ANCHOR_RE.finditer(blob):
            hrefs.append(m.group(1))
            anchors.append(m.group(2).strip())
            pos.append(m.start())
        row = np.searchsorted(starts, np.asarray(pos, dtype=np.int64),
                              side="right") - 1 if pos else \
            np.empty(0, dtype=np.int64)
        return pa.table({
            "src": pa.array(ids[row] if len(row) else
                            np.empty(0, dtype=np.int64),
                            type=pa.int64()),
            "href": pa.array(hrefs, type=pa.string()),
            "anchor": pa.array(anchors, type=pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def _edge_rows(t: pa.Table) -> pa.Table:
    """Canonical edges as ``(u, v, w=0, e=1)`` rows, the edge arm of a
    wedge ∪ edge fold (wedge rows are ``w=1, e=0``)."""
    n = len(t)
    return pa.table({"u": t["u"], "v": t["v"],
                     "w": pa.array(np.zeros(n, dtype=np.int64)),
                     "e": pa.array(np.ones(n, dtype=np.int64))})


def canonical_edges(edges, a_col: str = "src", b_col: str = "dst",
                    n_parts: int = EDGE_PARTS):
    """Globally-distinct canonical undirected edges ``(u, v)`` with
    ``u < v`` (self-loops dropped, duplicate/reverse edges collapsed):
    per-batch canonicalize + Arrow-distinct shrink, then ONE
    ``partition_fold`` on (u, v) (``n_parts`` partitions) where the
    per-frame drop_duplicates is a global distinct (a pair always lands
    whole). Shared by triangle_count / k_core."""
    from prompture_ray.stages.shuffle import partition_fold

    def canon(t: pa.Table) -> pa.Table:
        a = t[a_col].combine_chunks().cast(pa.int64())
        b = t[b_col].combine_chunks().cast(pa.int64())
        keep = pc.invert(pc.equal(a, b))
        a, b = a.filter(keep), b.filter(keep)
        u = pc.min_element_wise(a, b)
        v = pc.max_element_wise(a, b)
        return pa.table({"u": u, "v": v}).group_by(["u", "v"]) \
            .aggregate([])

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["u", "v"])[["u", "v"]]

    return partition_fold(edges.map_batches(canon, batch_format="pyarrow"),
                          ["u", "v"], distinct, n_parts=n_parts)


def triangle_count(edges, a_col: str = "src", b_col: str = "dst", *,
                   broadcast_max: int = 20_000_000):
    """Exact triangle count of the UNDIRECTED graph induced by the
    edge Dataset (self-loops dropped, duplicate/reverse edges collapse
    to one) — the clustering-coefficient / community-density staple.
    Returns a one-row Dataset ``(n_triangles,)``.

    Algorithm (the MapReduce node-iterator: Suri & Vassilvitskii,
    WWW'11): orient each canonical edge from lower to higher
    (degree, id) rank — out-degrees then bound by O(sqrt(2m)) — emit a
    wedge per out-neighbor pair of each source (itemsets'
    pairs_within_sorted_groups, pure arithmetic), and count wedges
    whose endpoints are themselves an edge. Each triangle is counted
    exactly once: only its lowest-rank corner emits the closing wedge.

    Scale shape: THREE ``partition_fold`` row shuffles, none carrying
    payload wider than 16-24 bytes/row — (1) on (u, v) for exact edge
    distinct, (2) on the source for wedge expansion, (3) on (u, v) of
    wedges ∪ edges for the closing count (one vectorized pandas groupby
    per fold frame; partials fold with one tiny Sum).
    Degree ranks ride a size-aware broadcast (sorted node/degree
    arrays via ray.put) while the node table fits ``broadcast_max``;
    beyond it the orientation falls back to id rank — still EXACT
    (any total order is), only skew-slower; ``broadcast_max=0`` pins
    the fallback for equality tests."""
    import ray
    from ray.data.aggregate import Sum
    from prompture_ray.stages.itemsets import pairs_within_sorted_groups
    from prompture_ray.stages.shuffle import partition_fold

    ded = canonical_edges(edges, a_col, b_col,
                          n_parts=EDGE_PARTS).materialize()
    degs = _degrees(ded, "u", "v", "d").materialize()

    rank_ref = None
    if degs.count() <= broadcast_max:
        dt = degs.to_pandas()
        nodes = dt["node"].to_numpy().astype(np.int64)
        dg = dt["d"].to_numpy().astype(np.int64)
        order = np.argsort(nodes, kind="mergesort")
        rank_ref = ray.put((nodes[order], dg[order]))

    def orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        if rank_ref is not None:
            nodes, dg = ray.get(rank_ref)
            du = dg[np.searchsorted(nodes, u)]
            dv = dg[np.searchsorted(nodes, v)]
            swap = (dv < du) | ((dv == du) & (v < u))
        else:
            swap = np.zeros(len(u), dtype=bool)  # canonical u<v already
        s = np.where(swap, v, u)
        d = np.where(swap, u, v)
        return pa.table({"s": pa.array(s, type=pa.int64()),
                         "t": pa.array(d, type=pa.int64())})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s", "t"], kind="mergesort")
        s = g["s"].to_numpy()
        t = g["t"].to_numpy()
        first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]]) \
            if len(s) else np.empty(0, dtype=np.int64)
        sizes = np.diff(np.r_[first, len(s)]) if len(s) \
            else np.empty(0, dtype=np.int64)
        li, ri = pairs_within_sorted_groups(sizes)
        x, y = t[li], t[ri]
        return pd.DataFrame({"u": np.minimum(x, y),
                             "v": np.maximum(x, y),
                             "w": np.ones(len(x), dtype=np.int64),
                             "e": np.zeros(len(x), dtype=np.int64)})

    wedge_ds = partition_fold(
        ded.map_batches(orient, batch_format="pyarrow"), ["s"], wedges,
        n_parts=EDGE_PARTS)

    def close(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["u", "v"], sort=False).agg(
            w=("w", "sum"), e=("e", "max"))
        n = int((agg["w"] * agg["e"]).sum())
        return pd.DataFrame({"n": np.array([n], dtype=np.int64)})

    # wedges and edges share one schema: a one-sided fold on (u, v)
    partials = partition_fold(
        wedge_ds.union(ded.map_batches(_edge_rows, batch_format="pyarrow")),
        ["u", "v"], close, n_parts=EDGE_PARTS)
    total = partials.aggregate(Sum("n", alias_name="n_triangles"))
    val = int(total["n_triangles"]) \
        if total and total.get("n_triangles") is not None else 0
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "n_triangles": pa.array([val], type=pa.int64())}))


def k_core(edges, k: int, a_col: str = "src", b_col: str = "dst", *,
           broadcast_max: int = 20_000_000, max_rounds: int = 100,
           n_buckets: int = 32):
    """k-core decomposition — iteratively peel nodes of degree < k
    until the remaining subgraph is stable; returns the surviving
    nodes with their IN-CORE degree as a Dataset ``(node, deg)``
    (empty when the graph has no k-core). The density/community
    filter of web-graph curation (Batagelj-Zaveršnik peeling).

    Scale shape: each round = one degree count (one
    ``shuffle.aggregate`` over the edge ends) and one edge filter by
    alive-node membership — size-aware: alive ids broadcast as ONE
    sorted array via ``ray.put`` + per-batch searchsorted while they
    fit ``broadcast_max``, else two hash-bucketed equi-joins (the
    100-TB path; equality-tested via ``broadcast_max=0``). Rounds ≤
    peeling depth (data-dependent, bounded by ``max_rounds``); the
    driver holds only per-round counts, never node sets (in the
    broadcast regime the sorted id array is object-store-resident)."""
    import ray
    import ray.data as rd
    from prompture_ray.stages.shuffle import join

    if k < 1:
        raise ValueError("k_core: k must be >= 1")

    ded = canonical_edges(edges, a_col, b_col,
                          n_parts=EDGE_PARTS).materialize()
    empty = rd.from_arrow(pa.table({
        "node": pa.array([], type=pa.int64()),
        "deg": pa.array([], type=pa.int64())}))

    for _ in range(max_rounds):
        if ded.count() == 0:
            return empty
        degs = _degrees(ded, "u", "v", "deg").materialize()
        alive = degs.filter(expr=f"deg >= {int(k)}").materialize()
        n_alive, n_nodes = alive.count(), degs.count()
        if n_alive == n_nodes:
            return degs
        if n_alive == 0:
            return empty

        if n_alive <= broadcast_max:
            ids = np.sort(np.concatenate([
                t["node"].to_numpy(zero_copy_only=False)
                for t in alive.iter_batches(batch_format="pyarrow")]))
            ref = ray.put(ids)

            def keep_edges(t: pa.Table) -> pa.Table:
                a = ray.get(ref)
                u = t["u"].to_numpy(zero_copy_only=False)
                v = t["v"].to_numpy(zero_copy_only=False)
                iu = np.searchsorted(a, u)
                iv = np.searchsorted(a, v)
                ok = ((iu < len(a)) & (a[np.minimum(iu, len(a) - 1)]
                                       == u)) \
                    & ((iv < len(a)) & (a[np.minimum(iv, len(a) - 1)]
                                        == v))
                return t.filter(pa.array(ok))

            ded = ded.map_batches(keep_edges,
                                  batch_format="pyarrow").materialize()
        else:
            alive_u = alive.map_batches(
                lambda t: pa.table({"node": t["node"]}),
                batch_format="pyarrow")
            j1 = join(ded, alive_u, "u", "node", n_buckets=n_buckets) \
                .select_columns(["u", "v"])
            ded = join(j1, alive_u, "v", "node", n_buckets=n_buckets) \
                .select_columns(["u", "v"]).materialize()
    raise RuntimeError(
        f"k_core: no fixpoint within max_rounds={max_rounds} "
        "(raise the cap; peeling depth equals the graph's "
        "degeneracy ordering depth)")


def hits_scores(edges, src_col: str = "src", dst_col: str = "dst",
                k: int = 2, n_buckets: int = 32,
                broadcast_max: int = 20_000_000):
    """k rounds of UNNORMALIZED integer HITS (Kleinberg 1999 —
    "Authoritative Sources in a Hyperlinked Environment", public
    algorithm): starting from hub₀ ≡ 1,

        auth_r(v) = Σ_{u→v} hub_{r−1}(u)
        hub_r(u)  = Σ_{u→v} auth_r(v)

    Returns ``(node, hub, auth)`` after round k over the node set
    (distinct src ∪ dst; multi-edges count multiply — multiset
    semantics). Skipping the usual L2 normalization keeps every score
    an EXACT int64 (the ranking is identical — normalization is a
    positive scalar per round), so a SQL join-aggregate replay is
    bit-identical with no floats anywhere. Caller bound: scores grow
    like (max_in_deg · max_out_deg)^k — with k=2 anything below ~10^4
    degree is safely inside int64.

    Scale shape: size-aware dispatch (the corpus_frequency /
    group_prior precedent). Up to ``broadcast_max`` nodes the score
    vector lives as ONE sorted broadcast array per half-round — each
    half-round is a zero-join pass (per-batch searchsorted attach +
    in-batch partial sums indexed into the node order) with an
    O(nodes) guarded driver fold. Beyond that, each half-round is one
    ``shuffle.join`` (edges × score table) + one ``shuffle.aggregate``
    sum, exactly the pagerank iteration shape; score-table block count is re-bounded every round (the
    components-round lesson). Both paths are equality-tested via
    ``broadcast_max=0``."""
    from prompture_ray.stages.shuffle import join

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t[src_col].combine_chunks().cast(pa.int64()),
            "dst": t[dst_col].combine_chunks().cast(pa.int64())})

    e = edges.map_batches(proj, batch_format="pyarrow").materialize()
    # groupby/join cost follows INPUT block count (round-5 pathology):
    # coalesce the edge table once at birth
    e = bound_blocks(e).materialize()

    nodes = _nodes(e, "src", "dst").materialize()
    n = nodes.count()

    if n <= broadcast_max:
        return _hits_broadcast(e, nodes, n, int(k))

    def seed(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "hub": pa.array(np.ones(len(t), np.int64))})

    hubs = nodes.map_batches(seed, batch_format="pyarrow") \
        .materialize()
    auths = None

    def _half(score_ds, score_col, join_key, group_key, out_col):
        """auth pass: join on src, sum hub into dst (and vice versa)."""
        j = join(e, score_ds, join_key, "node", n_buckets=n_buckets)

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": b[group_key].to_numpy().astype(np.int64),
                "v": b[score_col].fillna(0).to_numpy()
                .astype(np.int64)})

        sums = aggregate(j.map_batches(contrib, batch_format="pandas"),
                         ["node"], v=("sum", "v"))
        full = join(nodes, sums, "node", how="left", n_buckets=n_buckets)

        def finish(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": b["node"].to_numpy().astype(np.int64),
                out_col: b["v"].fillna(0).to_numpy()
                .astype(np.int64)})

        return bound_blocks(
            full.map_batches(finish, batch_format="pandas")
            .materialize()).materialize()

    for _ in range(int(k)):
        auths = _half(hubs, "hub", "src", "dst", "auth")
        hubs = _half(auths, "auth", "dst", "src", "hub")

    out = join(hubs, auths, "node", n_buckets=n_buckets)

    def sel(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"].combine_chunks().cast(pa.int64()),
            "hub": t["hub"].combine_chunks().cast(pa.int64()),
            "auth": t["auth"].combine_chunks().cast(pa.int64())})

    return out.map_batches(sel, batch_format="pyarrow")


def _hits_broadcast(e, nodes, n: int, k: int):
    """Broadcast HITS rounds (≤ broadcast_max nodes — guarded by the
    caller): the per-round score vector ships once via ray.put as a
    (sorted nodes, values) pair; each half-round is a zero-join
    per-batch pass (searchsorted attach + in-batch partial sums
    indexed into the node order) + an O(nodes) driver fold of those
    partials (the same bound the broadcast itself already holds)."""
    import ray
    import ray.data as rd

    nt = pa.concat_tables(
        [b for b in nodes.iter_batches(batch_format="pyarrow")],
        promote_options="default")
    node_arr = np.sort(nt["node"].to_numpy(zero_copy_only=False)
                       .astype(np.int64))

    def half(score_vec: np.ndarray, join_col: str, group_col: str):
        ref = ray.put((node_arr, score_vec))

        def contrib(t: pa.Table) -> pd.DataFrame:
            na, sv = ray.get(ref)
            j = t[join_col].to_numpy(zero_copy_only=False)
            g = t[group_col].to_numpy(zero_copy_only=False)
            v = sv[np.searchsorted(na, j)]
            # partial sums INDEXED into the node order — the final fold
            # is then one int64 add per batch on the driver; a grouped
            # aggregate over ~|nodes| distinct keys measured ~100×
            # slower than this shape (the round-5 pathology, extended:
            # Ray grouped aggregates degrade with distinct-group count).
            # int64 accumulator: bincount weights sum in float64 and
            # round scores above 2^53
            idx = np.searchsorted(na, g)
            s = np.zeros(len(na), dtype=np.int64)
            np.add.at(s, idx, v)
            keep = np.flatnonzero(s)
            return pd.DataFrame({"i": keep, "v": s[keep]})

        out = np.zeros(n, dtype=np.int64)
        for b in e.map_batches(contrib, batch_format="pyarrow") \
                .iter_batches(batch_format="pandas"):
            np.add.at(out, b["i"].to_numpy(),
                      b["v"].to_numpy().astype(np.int64))
        return out

    hub = np.ones(n, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(k):
        auth = half(hub, "src", "dst")
        hub = half(auth, "dst", "src")
    res = pa.table({"node": pa.array(node_arr),
                    "hub": pa.array(hub), "auth": pa.array(auth)})
    return rd.from_arrow(res).repartition(
        min(target_blocks(n), max(1, n // 10_000 + 1)))


def common_neighbors(edges, a_col: str = "src", b_col: str = "dst", *,
                     min_common: int = 1):
    """Common-neighbor counts per node pair over the UNDIRECTED graph
    — the integer-exact core of link-prediction scores (Adamic-Adar /
    Jaccard similarity divide this by degree terms; the COUNT itself
    needs no floats). Returns ``(u, v, common, is_edge)`` for every
    pair with ≥ ``min_common`` shared neighbors (u < v; ``is_edge``
    1 when the pair is already an edge — the training-label column).

    Scale shape: the triangle_count pipeline with the orientation
    step removed (common-neighbor pairs need wedges from EVERY
    center): symmetrize the distinct edge set, ONE ``partition_fold``
    on the center with arithmetic neighbor-pair expansion per fold frame
    (Σ deg² work — cap hub degrees upstream on power-law graphs),
    then ONE fold on (u, v) counting wedges and edge flags together in
    a single vectorized pandas pass."""
    from prompture_ray.stages.itemsets import pairs_within_sorted_groups
    from prompture_ray.stages.shuffle import partition_fold

    ded = canonical_edges(edges, a_col, b_col,
                          n_parts=EDGE_PARTS).materialize()

    def sym(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"c": pa.array(np.r_[u, v]),
                         "n": pa.array(np.r_[v, u])})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c", "n"], kind="mergesort")
        c = g["c"].to_numpy()
        n = g["n"].to_numpy()
        first = np.flatnonzero(np.r_[True, c[1:] != c[:-1]]) \
            if len(c) else np.empty(0, dtype=np.int64)
        sizes = np.diff(np.r_[first, len(c)]) if len(c) \
            else np.empty(0, dtype=np.int64)
        li, ri = pairs_within_sorted_groups(sizes)
        x, y = n[li], n[ri]
        # canonical edges have no self-loops and distinct neighbors
        # within a center, so x != y always
        return pd.DataFrame({"u": np.minimum(x, y),
                             "v": np.maximum(x, y),
                             "w": np.ones(len(x), dtype=np.int64),
                             "e": np.zeros(len(x), dtype=np.int64)})

    wedge_ds = partition_fold(
        ded.map_batches(sym, batch_format="pyarrow"), ["c"], wedges,
        n_parts=EDGE_PARTS)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["u", "v"], sort=False).agg(
            common=("w", "sum"), is_edge=("e", "max")).reset_index()
        agg = agg[agg["common"] >= int(min_common)]
        agg["common"] = agg["common"].astype("int64")
        agg["is_edge"] = agg["is_edge"].astype("int64")
        return agg

    return partition_fold(
        wedge_ds.union(ded.map_batches(_edge_rows, batch_format="pyarrow")),
        ["u", "v"], fold, n_parts=EDGE_PARTS)


def negative_edges(edges, k: int, a_col: str = "src",
                   b_col: str = "dst", *,
                   broadcast_max: int = 20_000_000):
    """Deterministic negative sampling for link-prediction /
    embedding training: for every node u, ``k`` pseudo-random
    candidate partners drawn by the Knuth multiplicative hash
    (``idx = ((u·2654435761 + j·40503) mod 2^32) mod n_nodes`` over
    the SORTED node list), keeping (u, cand, j) when cand ≠ u and
    {u, cand} is NOT an edge — block-layout independent, re-runnable,
    and SQL-replayable (the split_assignment precedent). Collisions
    with real edges/self are DROPPED, not retried, so a node yields
    ≤ k negatives (document the rate, don't hide it).

    Scale shape: the node list and the packed canonical edge-key
    array broadcast once (guarded by ``broadcast_max``; ids < 2^31 —
    beyond the guard, swap the membership test for
    ``joins.bloom_semi_filter(exact=False)`` + a bucketed anti-join
    verify); generation is a zero-shuffle per-batch numpy pass over
    the node Dataset."""
    import ray

    def _guard(count: int, what: str):
        if count > broadcast_max:
            raise ValueError(
                f"negative_edges: {count} {what} exceed "
                f"broadcast_max={broadcast_max}; for larger graphs test "
                "membership with joins.bloom_semi_filter(exact=False) "
                "and a bucketed anti-join")

    ded = canonical_edges(edges, a_col, b_col).materialize()
    _guard(ded.count(), "distinct edges")

    nodes = _nodes(ded, "u", "v").materialize()
    n = nodes.count()
    _guard(n, "nodes")
    nt = pa.concat_tables(
        [b for b in nodes.iter_batches(batch_format="pyarrow")],
        promote_options="default")
    node_arr = np.sort(nt["node"].to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    ekeys = []
    for b in ded.iter_batches(batch_format="pyarrow"):
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        ekeys.append((u << np.int64(32)) | v)
    ek = np.sort(np.concatenate(ekeys)) if ekeys else \
        np.empty(0, dtype=np.int64)
    if len(node_arr) and (node_arr.max() >= 2**31
                          or node_arr.min() < 0):
        raise ValueError("negative_edges: ids must be in [0, 2^31)")
    ref = ray.put((node_arr, ek))

    K1 = np.uint64(2654435761)
    K2 = np.uint64(40503)
    M32 = np.uint64(4294967296)

    def gen(t: pa.Table) -> pa.Table:
        na, eks = ray.get(ref)
        u = t["node"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uu = np.repeat(u, k)
        jj = np.tile(np.arange(k, dtype=np.int64), len(u))
        with np.errstate(over="ignore"):
            h = (uu.astype(np.uint64) * K1
                 + jj.astype(np.uint64) * K2) % M32
        cand = na[(h % np.uint64(len(na))).astype(np.int64)]
        lo = np.minimum(uu, cand)
        hi = np.maximum(uu, cand)
        key = (lo << np.int64(32)) | hi
        pos = np.searchsorted(eks, key)
        is_edge = np.zeros(len(key), dtype=bool)
        in_rng = pos < len(eks)
        is_edge[in_rng] = eks[pos[in_rng]] == key[in_rng]
        keep = (cand != uu) & ~is_edge
        return pa.table({"src": pa.array(uu[keep]),
                         "dst": pa.array(cand[keep]),
                         "j": pa.array(jj[keep])})

    return nodes.map_batches(gen, batch_format="pyarrow")
