import numpy as np
import pyarrow as pa

from prompture_ray.stages.graph import pagerank, extract_links


def _ref_pagerank(edges, k=3, d=0.85):
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for a, _ in edges:
        out[idx[a]] += 1
    v = np.full(n, 1.0 / n)
    for _ in range(k):
        nxt = np.full(n, (1.0 - d) / n)
        for a, b in edges:
            nxt[idx[b]] += d * v[idx[a]] / out[idx[a]]
        v = nxt
    return dict(zip(nodes, v))


def test_pagerank_small_graph(ray_session):
    import ray.data as rd
    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 3), (2, 4)]
    ds = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], type=pa.int64()),
        "dst": pa.array([b for _, b in edges], type=pa.int64())}))
    df = pagerank(ds, k=4).to_pandas().sort_values(
        "node", ignore_index=True)
    ref = _ref_pagerank(edges, k=4)
    assert df["node"].tolist() == sorted(ref)
    assert np.allclose(df["rank"].to_numpy(),
                       [ref[v] for v in sorted(ref)], atol=1e-12)


def test_pagerank_ring_exact(ray_session):
    # ring: in-degree 1 everywhere -> every grouped Sum has ONE operand,
    # so the engine value is BIT-IDENTICAL to the unrolled scalar
    # recurrence (the oracle's construction)
    import ray.data as rd
    n, k, d = 10, 3, 0.85
    ds = rd.from_arrow(pa.table({
        "src": pa.array(range(n), type=pa.int64()),
        "dst": pa.array([(i + 1) % n for i in range(n)],
                        type=pa.int64())}))
    df = pagerank(ds, k=k).to_pandas()
    u = 1.0 / n
    for _ in range(k):
        u = (1.0 - d) / n + d * u
    assert (df["rank"].to_numpy() == u).all()     # exact, no atol


def test_extract_links(ray_session):
    import ray.data as rd
    html = [
        '<a href="http://a.com/x">x</a> <a href=\'b.html\'>b</a>',
        "no links here",
        '<link href = "style.css"> <a href="http://a.com/x">dup</a>',
        '<a href="unclosed',       # must not capture across doc bound
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), type=pa.int64()),
        "html": pa.array(html)}))
    df = extract_links(ds, "html", "doc_id").to_pandas()
    got = sorted(zip(df["src"], df["href"]))
    assert got == [(0, "b.html"), (0, "http://a.com/x"),
                   (2, "http://a.com/x"), (2, "style.css")]


# ---------------------------------------------------------- triangles


def _tri_brute(pairs):
    es = set()
    for a, b in pairs:
        if a != b:
            es.add((min(a, b), max(a, b)))
    adj = {}
    for u, v in es:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # each triangle a<b<c counted once: edge (a,b) with common nbr c>b
    return sum(1 for u, v in es for w in (adj[u] & adj[v]) if w > v)


def test_triangle_count_hand(ray_session):
    import ray.data as rd
    from prompture_ray.stages.graph import triangle_count

    def run(pairs, **kw):
        t = pa.table({"src": pa.array([p[0] for p in pairs],
                                      type=pa.int64()),
                      "dst": pa.array([p[1] for p in pairs],
                                      type=pa.int64())})
        ds = rd.from_arrow(t).repartition(3)
        return int(triangle_count(ds, **kw).to_pandas()
                   ["n_triangles"][0])

    # one triangle, with a duplicate + reversed edge + self loop
    assert run([(1, 2), (2, 3), (3, 1), (2, 1), (1, 2), (5, 5)]) == 1
    # square: no triangle
    assert run([(1, 2), (2, 3), (3, 4), (4, 1)]) == 0
    # K4: 4 triangles
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert run(k4) == 4
    # chain: 0
    assert run([(i, i + 1) for i in range(10)]) == 0


def test_triangle_count_brute_and_fallback(ray_session):
    import numpy as np
    import ray.data as rd
    from prompture_ray.stages.graph import triangle_count
    rng = np.random.default_rng(11)
    a = rng.integers(0, 30, size=400)
    b = rng.integers(0, 30, size=400)
    expect = _tri_brute(list(zip(a.tolist(), b.tolist())))
    t = pa.table({"src": pa.array(a, type=pa.int64()),
                  "dst": pa.array(b, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(4)
    got = int(triangle_count(ds).to_pandas()["n_triangles"][0])
    assert got == expect
    # id-orientation fallback (broadcast_max=0) must agree exactly
    got0 = int(triangle_count(ds, broadcast_max=0).to_pandas()
               ["n_triangles"][0])
    assert got0 == expect


# ------------------------------------------------------------ k-core


def test_k_core_hand(ray_session):
    import ray.data as rd
    from prompture_ray.stages.graph import k_core

    def run(pairs, k, **kw):
        t = pa.table({"src": pa.array([p[0] for p in pairs],
                                      type=pa.int64()),
                      "dst": pa.array([p[1] for p in pairs],
                                      type=pa.int64())})
        df = k_core(rd.from_arrow(t).repartition(3), k, **kw) \
            .to_pandas()
        if df.empty:        # Ray drops column names on 0-row pandas
            return []
        df = df.sort_values("node", ignore_index=True)
        return list(zip(df["node"], df["deg"]))

    # K4 with a pendant chain 3-10-11-12: 3-core = K4 (deg 3 each);
    # peeling cascades: 12 (deg1) -> 11 -> 10
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = k4 + [(3, 10), (10, 11), (11, 12)]
    assert run(g, 3) == [(0, 3), (1, 3), (2, 3), (3, 3)]
    # 2-core of a triangle with tail = the triangle
    tri = [(1, 2), (2, 3), (3, 1), (3, 9)]
    assert run(tri, 2) == [(1, 2), (2, 2), (3, 2)]
    # no 4-core anywhere -> empty
    assert run(g, 4) == []
    # k=1 drops nothing on a connected graph (isolated nodes can't
    # exist in an edge list)
    assert run(tri, 1) == [(1, 2), (2, 2), (3, 3), (9, 1)]
    # join fallback path must agree
    assert run(g, 3, broadcast_max=0) == [(0, 3), (1, 3), (2, 3),
                                          (3, 3)]


def test_k_core_brute(ray_session):
    import numpy as np
    import ray.data as rd
    from prompture_ray.stages.graph import k_core
    rng = np.random.default_rng(17)
    a = rng.integers(0, 40, size=300)
    b = rng.integers(0, 40, size=300)
    es = {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())
          if x != y}

    def brute(k):
        cur = set(es)
        while True:
            deg = {}
            for u, v in cur:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            alive = {n for n, d in deg.items() if d >= k}
            nxt = {(u, v) for u, v in cur
                   if u in alive and v in alive}
            if nxt == cur:
                return sorted(deg.items())
            cur = nxt
            if not cur:
                return []

    t = pa.table({"src": pa.array(a, type=pa.int64()),
                  "dst": pa.array(b, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(4)
    for k in (3, 5, 8):
        df = k_core(ds, k).to_pandas() \
            .sort_values("node", ignore_index=True)
        assert list(zip(df["node"], df["deg"])) == brute(k)


def test_hits_matches_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.graph import hits_scores
    rng = np.random.default_rng(13)
    m = 400
    src = rng.integers(0, 60, m)
    dst = rng.integers(0, 60, m) + 20  # overlap + pure-authority ids
    edges = pd.DataFrame({"src": src, "dst": dst})
    out = hits_scores(rd.from_pandas(edges).repartition(5),
                      k=2).to_pandas().sort_values("node") \
        .reset_index(drop=True)
    nodes = np.unique(np.r_[src, dst])
    idx = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for s, d in zip(src, dst):
        A[idx[s], idx[d]] += 1  # multi-edges count multiply
    hub = np.ones(len(nodes), dtype=np.int64)
    for _ in range(2):
        auth = A.T @ hub
        hub = A @ auth
    assert out["node"].tolist() == nodes.tolist()
    assert out["hub"].tolist() == hub.tolist()
    assert out["auth"].tolist() == auth.tolist()


def test_hits_broadcast_equals_bucketed(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.graph import hits_scores
    rng = np.random.default_rng(29)
    edges = pd.DataFrame({"src": rng.integers(0, 40, 200),
                          "dst": rng.integers(10, 50, 200)})
    a = hits_scores(rd.from_pandas(edges).repartition(4), k=2) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    b = hits_scores(rd.from_pandas(edges).repartition(4), k=2,
                    broadcast_max=0) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_common_neighbors_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from itertools import combinations
    from prompture_ray.stages.graph import common_neighbors
    rng = np.random.default_rng(53)
    m = 300
    edges = pd.DataFrame({"src": rng.integers(0, 40, m),
                          "dst": rng.integers(0, 40, m)})
    out = common_neighbors(rd.from_pandas(edges).repartition(5),
                           min_common=2).to_pandas() \
        .sort_values(["u", "v"]).reset_index(drop=True)
    # brute force over the canonical simple graph
    adj = {}
    eset = set()
    for s, d in zip(edges["src"], edges["dst"]):
        if s == d:
            continue
        a, b = min(s, d), max(s, d)
        eset.add((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    exp = []
    nodes = sorted(adj)
    for a, b in combinations(nodes, 2):
        c = len(adj[a] & adj[b])
        if c >= 2:
            exp.append((a, b, c, int((a, b) in eset)))
    got = list(map(tuple, out.itertuples(index=False)))
    assert got == exp


def test_negative_edges_deterministic_and_valid(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.graph import negative_edges
    rng = np.random.default_rng(59)
    edges = pd.DataFrame({"src": rng.integers(0, 50, 200),
                          "dst": rng.integers(0, 50, 200)})
    a = negative_edges(rd.from_pandas(edges).repartition(4), k=3) \
        .to_pandas().sort_values(["src", "j"]).reset_index(drop=True)
    b = negative_edges(rd.from_pandas(edges).repartition(9), k=3) \
        .to_pandas().sort_values(["src", "j"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # layout-independent
    eset = set()
    for s, d in zip(edges["src"], edges["dst"]):
        if s != d:
            eset.add((min(s, d), max(s, d)))
    for r in a.itertuples(index=False):
        assert r.src != r.dst
        assert (min(r.src, r.dst), max(r.src, r.dst)) not in eset
    # every node emits at most k rows, and the formula is exact
    nodes = np.unique(np.r_[edges["src"], edges["dst"]])
    per = a.groupby("src").size()
    assert (per <= 3).all()
    na = np.sort(nodes)
    for r in a.head(20).itertuples(index=False):
        h = (np.uint64(r.src) * np.uint64(2654435761)
             + np.uint64(r.j) * np.uint64(40503)) % np.uint64(2**32)
        assert na[int(h) % len(na)] == r.dst


def test_hits_broadcast_exact_above_2_53(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.graph import hits_scores
    rng = np.random.default_rng(71)
    src = rng.integers(0, 30, 600)
    dst = rng.integers(0, 30, 600)
    nodes = sorted(set(src.tolist()) | set(dst.tolist()))
    # Python-int reference; run rounds until a score passes 2^53
    hub = {v: 1 for v in nodes}
    for k in range(1, 30):
        auth = dict.fromkeys(nodes, 0)
        for s, d in zip(src.tolist(), dst.tolist()):
            auth[d] += hub[s]
        hub = dict.fromkeys(nodes, 0)
        for s, d in zip(src.tolist(), dst.tolist()):
            hub[s] += auth[d]
        if max(hub.values()) > 2**53:
            break
    assert 2**53 < max(hub.values()) < 2**63
    out = hits_scores(rd.from_pandas(pd.DataFrame({"src": src,
                                                   "dst": dst}))
                      .repartition(3), k=k).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert out["node"].tolist() == nodes
    assert [int(x) for x in out["hub"]] == [hub[v] for v in nodes]
    assert [int(x) for x in out["auth"]] == [auth[v] for v in nodes]


def test_negative_edges_guards_edge_broadcast(ray_session):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd
    from prompture_ray.stages.graph import negative_edges
    rng = np.random.default_rng(59)
    edges = pd.DataFrame({"src": rng.integers(0, 50, 200),
                          "dst": rng.integers(0, 50, 200)})
    # 50 nodes fit; ~180 distinct edges do not
    with pytest.raises(ValueError, match="distinct edges exceed "
                       "broadcast_max=60; .*bloom_semi_filter"):
        negative_edges(rd.from_pandas(edges).repartition(4), k=3,
                       broadcast_max=60)
