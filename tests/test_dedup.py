"""Dedup semantics: exact first-wins, MinHash-LSH near-dup, SimHash,
embedding cosine — against small constructed corpora with known duplicate
structure (reference dedup.py:73-169,199-272 semantics)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from prompture_ray.stages import dedup as dd


def corpus():
    rows = [
        (0, "The quick brown fox jumps over the lazy dog near the river bank today"),
        (1, "the QUICK brown fox, jumps over the lazy dog near the river bank today"),  # exact dup of 0 after normalize
        (2, "The quick brown fox jumps over the lazy dog near the river bank yesterday"),  # near dup of 0
        (3, "completely different content about distributed data processing engines"),
        (4, "another unrelated document discussing arrow columnar formats and ray"),
        (5, ""),                                          # empty → dropped in exact dedup
        (6, "completely different content about distributed data processing engines"),  # exact dup of 3
    ]
    return pa.table({"doc_id": [r[0] for r in rows],
                     "text": [r[1] for r in rows]})


@pytest.fixture(scope="module")
def ds(ray_session):
    import ray.data as rd
    return rd.from_arrow(corpus())


def test_dedup_exact_first_wins(ds):
    kept = dd.dedup_exact(ds, "text", order_col="doc_id").to_pandas()
    kept_ids = sorted(kept["doc_id"])
    # 0/1 collapse → keep 0; 3/6 collapse → keep 3; 5 empty dropped
    assert kept_ids == [0, 2, 3, 4]


def test_dedup_exact_stats(ds):
    import ray.data as rd
    want = {"total": 7, "kept": 4, "removed": 2, "empty_dropped": 1}
    assert dd.dedup_exact_stats(ds, "text") == want
    # one row per block: the same counters whatever the layout
    t = corpus()
    seven = rd.from_arrow([t.slice(i, 1) for i in range(t.num_rows)])
    assert dd.dedup_exact_stats(seven, "text") == want
    # empty and null texts only: every row is dropped, none kept
    blank = pa.table({"doc_id": [0, 1, 2], "text": ["", None, ""]})
    assert dd.dedup_exact_stats(rd.from_arrow(blank), "text") == {
        "total": 3, "kept": 0, "removed": 0, "empty_dropped": 3}


def test_shingle_hashes_set_semantics():
    a = dd.char_shingle_hashes("abcabc", 3)
    assert len(a) == len(set(a.tolist()))  # sets, not multisets
    assert dd.char_shingle_hashes("", 3).size == 0
    assert dd.char_shingle_hashes("ab", 3).size == 1  # short text → whole text


def test_minhash_candidates_find_near_dups(ds, ray_session):
    pairs = dd.minhash_candidate_pairs(
        ds, "text", "doc_id", threshold=0.6).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got        # exact dup must be found
    assert (0, 2) in got or (1, 2) in got   # near dup found
    assert not any({3, 4} == set(p) for p in got)  # unrelated not paired


def test_minhash_star_pair_mode(ds, ray_session):
    """pair_mode='star' (the O(k)-per-bucket scale path) must (a) emit
    only min-id-anchored edges, (b) find the same components as triangle
    mode on this corpus (every dup family shares its bucket min), and
    (c) reject unknown modes."""
    import ray.data as rd
    star = dd.minhash_candidate_pairs(
        ds, "text", "doc_id", threshold=0.6, pair_mode="star").to_pandas()
    # every star edge is anchored at the bucket min → id_a < id_b always
    assert (star["id_a"] < star["id_b"]).all()
    got = {tuple(sorted((a, b)))
           for a, b in zip(star["id_a"], star["id_b"])}
    assert (0, 1) in got
    assert (0, 2) in got or (1, 2) in got
    # same kept set through the full dedup on this family structure
    kept_t, _ = dd.dedup_minhash(ds, "text", "doc_id", threshold=0.6)
    kept_s, st_s = dd.dedup_minhash(ds, "text", "doc_id", threshold=0.6,
                                    pair_mode="star")
    assert sorted(kept_t.to_pandas()["doc_id"]) == \
        sorted(kept_s.to_pandas()["doc_id"])
    # star's raw pair volume is O(k) per bucket: its verified pair count
    # can never exceed triangle's
    with pytest.raises(ValueError, match="pair_mode"):
        dd.minhash_candidate_pairs(ds, "text", "doc_id", pair_mode="ring")


def test_dedup_minhash_components(ds, ray_session):
    kept, stats = dd.dedup_minhash(ds, "text", "doc_id", threshold=0.6)
    kept_ids = set(kept.to_pandas()["doc_id"])
    # component {0,1,2} keeps min id 0; {3,6} keeps 3
    assert 0 in kept_ids and 3 in kept_ids
    assert 1 not in kept_ids and 6 not in kept_ids
    assert stats["removed"] >= 3


def test_simhash_pairs(ds, ray_session):
    pairs = dd.simhash_pairs(ds, "text", "doc_id", max_hamming=6).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got
    assert not any({0, 3} == set(p) for p in got)


def test_verify_jaccard_exact(ds, ray_session):
    cand = pd.DataFrame({"id_a": [0, 0], "id_b": [1, 3]})
    verified = dd.verify_jaccard_pairs(ds, cand, "text", "doc_id",
                                       threshold=0.8)
    assert list(verified["id_b"]) == [1]   # 0-1 identical post-normalize; 0-3 unrelated
    assert verified["jaccard"].iloc[0] == 1.0


def test_embedding_neardup(ray_session):
    import ray.data as rd
    rng = np.random.RandomState(0)
    base = rng.normal(size=32)
    rows = {
        "vec_id": [0, 1, 2, 3],
        "embedding": [base, base + rng.normal(scale=0.01, size=32),
                      rng.normal(size=32), -base],
    }
    ds = rd.from_arrow(pa.table({
        "vec_id": rows["vec_id"],
        "embedding": pa.array([list(map(float, v)) for v in rows["embedding"]],
                              type=pa.list_(pa.float32()))}))
    pairs = dd.embedding_neardup_pairs(ds, "embedding", "vec_id",
                                       threshold=0.95).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in got
    assert not any({0, 3} == set(p) for p in got)


def test_dedup_semantic_kept_set_vs_bruteforce(ray_session):
    """dedup_semantic (LSH buckets → components → keep min id) must equal
    the reference's O(n²) greedy keep over the same cosine threshold for a
    clique-structured corpus (reference dedup.py:199-272)."""
    import ray.data as rd
    rng = np.random.RandomState(7)
    base_a = rng.normal(size=16)
    base_b = rng.normal(size=16)
    vecs = [base_a, base_a + rng.normal(scale=0.005, size=16),
            base_a + rng.normal(scale=0.005, size=16),
            base_b, base_b + rng.normal(scale=0.005, size=16),
            rng.normal(size=16)]
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(len(vecs))),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32()))}))
    kept, stats = dd.dedup_semantic(ds, "embedding", "vec_id",
                                    threshold=0.95)
    kept_ids = sorted(kept.to_pandas()["vec_id"])

    # O(n²) oracle: greedy keep-first over cosine ≥ threshold
    unit = np.stack([np.asarray(v, dtype=np.float32) for v in vecs])
    unit = unit / np.linalg.norm(unit, axis=1, keepdims=True)
    oracle_kept = []
    for i in range(len(vecs)):
        if all(float(unit[i] @ unit[j]) < 0.95 for j in oracle_kept):
            oracle_kept.append(i)
    assert kept_ids == oracle_kept == [0, 3, 5]
    assert stats["removed"] == 3 and stats["components"] == 2
    assert stats["oversized_buckets"] == 0


def test_oversized_bucket_counter(ray_session):
    """A bucket over max_bucket must surface dropped-member counts in
    stats_out instead of truncating silently."""
    import ray.data as rd
    rng = np.random.RandomState(3)
    base = rng.normal(size=16)
    # 12 near-identical vectors land in one LSH bucket
    vecs = [base + rng.normal(scale=0.001, size=16) for _ in range(12)]
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(12)),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32()))}))
    stats: dict = {}
    pairs = dd.embedding_neardup_pairs(ds, "embedding", "vec_id",
                                       threshold=0.99, max_bucket=5,
                                       stats_out=stats).to_pandas()
    assert stats["oversized_buckets"] >= 1
    assert stats["dropped_members"] >= 7
    # pairs among the capped head still found, no null counter rows leak
    assert pairs["id_a"].notna().all()
    assert len(pairs) == 10  # C(5,2) within the capped head

    # minhash path: same corpus of identical texts → one hot bucket
    tds = rd.from_arrow(pa.table({
        "doc_id": list(range(10)),
        "text": ["identical text content for bucket overflow test"] * 10}))
    mh_stats: dict = {}
    mh_pairs = dd.minhash_candidate_pairs(
        tds, "text", "doc_id", max_bucket=4,
        stats_out=mh_stats).to_pandas()
    assert mh_stats["oversized_buckets"] >= 1
    assert mh_stats["dropped_members"] >= 6
    assert mh_pairs["id_a"].notna().all()


def test_bloom_dedup_actor(ds, ray_session):
    from prompture_ray.stages.dedup import make_bloom_actor, bloom_dedup
    actor = make_bloom_actor(1 << 16, 4)
    kept = bloom_dedup(ds, "text", actor).to_pandas()
    # duplicates (0/1 normalize-equal, 3/6 identical) collapse to one
    # survivor each; empty text hashes to one key that also survives once
    texts = kept["text"].tolist()
    assert len(kept) == 5
    from prompture_ray.functions.textfuncs import normalize_text
    norms = [normalize_text(t) for t in texts]
    assert len(set(norms)) == 5


def test_bloom_hashed_roundtrip():
    import numpy as np
    from prompture_ray.functions.sketches import Bloom, hash64
    bl = Bloom(1 << 14, 4)
    h = hash64(np.array([f"k{i}" for i in range(500)], dtype=object))
    bl.add_hashes(h[:300])
    assert bl.contains_hashes(h[:300]).all()
    assert bl.contains_hashes(h[300:]).mean() < 0.05


def test_label_propagation_matches_union_find(ray_session):
    """Distributed components must equal driver union-find on a graph with
    chains (diameter > 1), multiple components, and singleton pairs."""
    import ray.data as rd
    from prompture_ray.stages.dedup import (
        components_label_propagation, _components)
    pairs = pd.DataFrame({
        "id_a": [1, 2, 3,   10, 11,   20,   30, 31, 32],
        "id_b": [2, 3, 4,   11, 12,   21,   31, 32, 33],
    })
    dist = components_label_propagation(rd.from_pandas(pairs)).to_pandas()
    got = dict(zip(dist["id"].astype(int), dist["component"].astype(int)))
    comp = _components(pairs)
    want = {int(k): int(v) for k, v in comp.items()}
    # same partitioning into components (roots may differ in principle,
    # but both use min-id canonical roots here)
    assert got == want
    assert got[4] == 1 and got[12] == 10 and got[21] == 20 and got[33] == 30


def test_label_propagation_hash_magnitude_ids(ray_session):
    """Node ids above 2^53 must stay int64-exact through the message
    rounds (regression: the pandas-frame form float64-widened the
    nullable peer/label columns, rounding hash-magnitude ids — a 900k
    hash64(url)-keyed run crashed on label-table KeyErrors)."""
    import ray.data as rd
    from prompture_ray.stages.dedup import (
        components_label_propagation, _components)
    rng = np.random.default_rng(7)
    # ids in [2^62, 2^63): adjacent values differ below float64's
    # resolution at this magnitude, so any widening corrupts them
    base = rng.integers(2**62, 2**63 - 16, 40, dtype=np.int64)
    ids = np.unique(np.concatenate([base, base + 1, base + 3]))
    assert len(ids) >= 100
    # chain triples (x, x+1, x+3) per base + a few cross links
    pairs = pd.DataFrame({
        "id_a": np.concatenate([base, base + 1, base[:5]]),
        "id_b": np.concatenate([base + 1, base + 3, base[5:10] + 3]),
    })
    dist = components_label_propagation(rd.from_pandas(pairs)).to_pandas()
    got = dict(zip(dist["id"].astype(np.int64),
                   dist["component"].astype(np.int64)))
    want = {int(k): int(v) for k, v in _components(pairs).items()}
    assert got == want


def test_label_propagation_jump_hash_magnitude_ids(ray_session):
    """Pointer jumping (the bucketed shuffle.lookup of label(label))
    keeps node ids above 2^53 int64-exact on a long chain."""
    import ray.data as rd
    from prompture_ray.stages.dedup import (
        components_label_propagation, _components)
    ids = 2**62 + 7 * np.arange(40, dtype=np.int64)
    pairs = pd.DataFrame({"id_a": ids[:-1], "id_b": ids[1:]})
    dist = components_label_propagation(rd.from_pandas(pairs),
                                        max_rounds=40,
                                        jump=True).to_pandas()
    got = dict(zip(dist["id"].astype(np.int64),
                   dist["component"].astype(np.int64)))
    assert got == {int(k): int(v) for k, v in _components(pairs).items()}


def test_label_propagation_many_tiny_edge_blocks(ray_session):
    """Regression for the two 900k-rehearsal pathologies: (a) edges
    arriving in hundreds of tiny blocks used to GROW the label table's
    block count every round (union + sort per round went 21→1385 s on a
    constant 18k-row table) — the fix consolidates both tables to a
    bounded block count, so this graph must finish in seconds, which the
    test-session timeout enforces; (b) Σlabel as a raw int64 Sum
    overflows with thousands of hash-magnitude ids — the hi/lo split
    checksum must still certify convergence to the exact union-find
    answer."""
    import ray.data as rd
    from prompture_ray.stages.dedup import (
        components_label_propagation, _components)
    rng = np.random.default_rng(11)
    base = np.unique(rng.integers(2**62, 2**63 - 4, 4000, dtype=np.int64))
    # 2-cliques + 50 chains of length 3 (forces >1 round)
    pairs = pd.DataFrame({
        "id_a": np.concatenate([base, base[:50] + 1]),
        "id_b": np.concatenate([base + 1, base[:50] + 2])})
    ds = rd.from_pandas(pairs).repartition(150).materialize()
    assert ds.num_blocks() == 150
    dist = components_label_propagation(ds).to_pandas()
    got = dict(zip(dist["id"].astype(np.int64),
                   dist["component"].astype(np.int64)))
    want = {int(k): int(v) for k, v in _components(pairs).items()}
    assert got == want


def test_dedup_minhash_distributed_equals_driver(ds, ray_session):
    from prompture_ray.stages import dedup as dd2
    kept_d, st_d = dd2.dedup_minhash(ds, "text", "doc_id", threshold=0.6,
                                     components="driver")
    kept_x, st_x = dd2.dedup_minhash(ds, "text", "doc_id", threshold=0.6,
                                     components="distributed")
    assert sorted(kept_d.to_pandas()["doc_id"]) == \
        sorted(kept_x.to_pandas()["doc_id"])
    assert st_d["removed"] == st_x["removed"]
    assert st_x["strategy"] == "distributed"


def test_minhash_score_broadcast_equals_join_path(ds, ray_session):
    """The size-aware stage-2 scoring dispatch: the broadcast sig-matrix
    path (default) and the bucketed-join fallback (forced via
    score_broadcast_max=0) must produce the identical verified pair
    set and est_jaccard values."""
    bc = dd.minhash_candidate_pairs(
        ds, "text", "doc_id", threshold=0.6).to_pandas()
    jn = dd.minhash_candidate_pairs(
        ds, "text", "doc_id", threshold=0.6,
        score_broadcast_max=0).to_pandas()
    key = lambda df: sorted(
        (min(a, b), max(a, b), round(e, 12))
        for a, b, e in zip(df["id_a"], df["id_b"], df["est_jaccard"]))
    assert key(bc) == key(jn)
    assert len(bc) > 0


def test_apply_dedup_dispatch(ds, ray_session):
    """Unified DedupConfig dispatch returns (kept, stats) per strategy
    and rejects unknown strategies (reference config-enum shape)."""
    cfg = dd.DedupConfig(strategy="exact", column="text", id_col="doc_id")
    kept, stats = dd.apply_dedup(ds, cfg)
    assert sorted(kept.to_pandas()["doc_id"]) == [0, 2, 3, 4]
    assert stats["removed"] == 2

    kept_mh, st_mh = dd.apply_dedup(ds, dd.DedupConfig(
        strategy="minhash", column="text", id_col="doc_id",
        params={"threshold": 0.6}))
    ids = set(kept_mh.to_pandas()["doc_id"])
    assert 0 in ids and 1 not in ids
    assert "oversized_buckets" in st_mh

    kept_sh, st_sh = dd.apply_dedup(ds, dd.DedupConfig(
        strategy="simhash", column="text", id_col="doc_id",
        params={"max_hamming": 6}))
    ids = set(kept_sh.to_pandas()["doc_id"])
    assert 0 in ids and 1 not in ids

    with pytest.raises(ValueError):
        dd.DedupConfig(strategy="nope", column="text")


def test_bloom_dedup_sharded(ds, ray_session):
    """Sharded Bloom dedup keeps exactly one survivor per distinct key
    (same guarantee as the single-actor form, parallel state)."""
    from prompture_ray.stages.dedup import (
        bloom_dedup_sharded, make_bloom_shards)
    shards = make_bloom_shards(4, 1 << 16, 4)
    kept = bloom_dedup_sharded(ds, "text", shards).to_pandas()
    from prompture_ray.functions.textfuncs import normalize_text
    keys = [normalize_text(t or "") for t in kept["text"]]
    assert len(keys) == len(set(keys))       # no duplicate keys survive
    assert len(kept) == 5                    # 7 rows, 2 dup keys collapse


def test_minhash_batched_signatures_bit_identical():
    """signatures()/band_keys_batch() must equal the per-doc sig()/
    band_keys() forms exactly (the stage's hot path relies on it)."""
    import numpy as np
    from prompture_ray.functions.sketches import MinHasher
    rng = np.random.RandomState(3)
    mh = MinHasher(n_perm=32)
    arrays = [rng.randint(0, 2**63, size=rng.randint(0, 40))
              .astype(np.uint64) for _ in range(25)]
    batch = mh.signatures(arrays)
    for i, a in enumerate(arrays):
        assert (batch[i] == mh.sig(a)).all(), i
    keys = mh.band_keys_batch(batch, 8)
    for i in range(len(arrays)):
        assert (keys[i] == mh.band_keys(batch[i], 8)).all(), i


def test_ngram_contamination(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.dedup import ngram_contamination
    train = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["a b c d e f g h i j",      # 10 tokens
                          "k l m n o p q r s"]),      # 9 tokens
    }))
    evals = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13], type=pa.int64()),
        "text": pa.array([
            "a b c d e f g h i j",        # full copy: 3/3 grams
            "x b c d e f g h y",          # 9 tokens, no 8-gram match: 0/2
            "a b c d e f g h zz yy",      # first 8-gram only: 1/3
            "u v w",                      # <8 tokens: no row
        ]),
    }))
    for bmax in (20_000_000, 0):     # broadcast path AND bucketed-join path
        out = ngram_contamination(train, evals, "text", "doc_id", n=8,
                                  broadcast_max=bmax) \
            .to_pandas().sort_values("id", ignore_index=True)
        got = {int(r["id"]): (int(r["contaminated"]),
                              int(r["total_grams"]))
               for _, r in out.iterrows()}
        assert got == {10: (3, 3), 11: (0, 2), 12: (1, 3)}, bmax
        assert out[out["id"] == 10]["rate"].iloc[0] == 1.0


def test_line_dedup(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.dedup import line_dedup
    texts = {
        1: "NAV\nwelcome to site one\nFOOTER",
        2: "NAV\nunique text two\nmore two\nFOOTER",
        3: "NAV\nthird doc body\nFOOTER",
        4: "NAV\nFOOTER",                       # all lines removed
        5: "only one line here",                # nothing removed
        6: "dup inside\ndup inside\nsolo",      # within-doc dup: df=1, kept
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)]),
    }))

    # pure-Python reference: df = #docs containing the line
    from collections import Counter
    df = Counter()
    for t in texts.values():
        for ln in set(t.split("\n")):
            df[ln] += 1
    expect = {}
    for k, t in texts.items():
        lines = t.split("\n")
        kept = [ln for ln in lines if df[ln] < 3]
        expect[k] = ("\n".join(kept), len(kept), len(lines) - len(kept))

    for bmax in (20_000_000, 0):     # broadcast path AND bucketed path
        out = line_dedup(ds, "text", "doc_id", min_docs=3,
                         broadcast_max=bmax) \
            .to_pandas().sort_values("doc_id", ignore_index=True)
        got = {int(r["doc_id"]): (r["text"], int(r["n_kept"]),
                                  int(r["n_removed"]))
               for _, r in out.iterrows()}
        assert got == expect, bmax
    assert expect[4] == ("", 0, 2)          # the all-removed doc is empty


def test_duplicate_span_stats(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.dedup import duplicate_span_stats
    texts = {
        1: "a b c d e f g h",        # "a b c" dup vs doc 2; "g h" tail
        2: "a b c x y z q r s",      # shares "a b c"
        3: "m n o p m n o p m n",    # self-repeat
        4: "u v",                    # < n tokens: no row
        5: "t1 t2 t3 t4 t5",         # no dup grams
    }
    n, mc = 3, 2
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)]),
    }))

    # pure-Python reference
    from collections import Counter
    cnt = Counter()
    grams = {}
    for k, t in texts.items():
        toks = t.split()
        grams[k] = [tuple(toks[i:i + n]) for i in range(len(toks) - n + 1)]
        cnt.update(grams[k])
    expect = {}
    for k, t in texts.items():
        toks = t.split()
        if len(toks) < n:
            continue
        dup_pos = [i for i, g in enumerate(grams[k]) if cnt[g] >= mc]
        spans, covered, prev = 0, 0, None
        for p in dup_pos:
            if prev is None or p - prev > n:
                spans += 1
                covered += n
            else:
                covered += min(p - prev, n)
            prev = p
        expect[k] = (len(toks), len(dup_pos), spans, covered)

    for bmax in (20_000_000, 0):     # broadcast path AND bucketed path
        out = duplicate_span_stats(ds, "text", "doc_id", n=n,
                                   min_count=mc, normalize=False,
                                   broadcast_max=bmax) \
            .to_pandas().sort_values("id", ignore_index=True)
        got = {int(r["id"]): (int(r["n_tokens"]), int(r["dup_windows"]),
                              int(r["n_spans"]),
                              int(r["covered_tokens"]))
               for _, r in out.iterrows()}
        assert got == expect, (bmax, got, expect)
        row3 = out[out["id"] == 3].iloc[0]
        assert row3["dup_frac"] == row3["covered_tokens"] / row3["n_tokens"]


def test_remove_duplicate_spans(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from prompture_ray.stages.dedup import remove_duplicate_spans
    texts = {
        1: "a b c d e f g h",        # "a b c" dup vs doc 2
        2: "a b c x y z q r s",
        3: "m n o p m n o p m n",    # self-repeat: heavy removal
        4: "u v",                    # < n tokens: unchanged
        5: "t1 t2 t3 t4 t5",         # no dup grams: unchanged
        6: "",                       # empty: dropped
    }
    n, mc = 3, 2
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)]),
    }))

    # pure-Python reference: cut tokens covered by any dup window
    from collections import Counter
    cnt = Counter()
    grams = {}
    for k, t in texts.items():
        toks = t.split()
        grams[k] = [tuple(toks[i:i + n]) for i in range(len(toks) - n + 1)]
        cnt.update(grams[k])
    expect = {}
    for k, t in texts.items():
        toks = t.split()
        if not toks:
            continue
        covered = set()
        for i, g in enumerate(grams[k]):
            if cnt[g] >= mc:
                covered.update(range(i, i + n))
        kept = [w for i, w in enumerate(toks) if i not in covered]
        expect[k] = (len(toks), len(kept), len(toks) - len(kept),
                     " ".join(kept))

    for bmax in (20_000_000, 0):     # broadcast path AND bucketed path
        out = remove_duplicate_spans(ds, "text", "doc_id", n=n,
                                     min_count=mc, normalize=False,
                                     broadcast_max=bmax) \
            .to_pandas().sort_values("id", ignore_index=True)
        got = {int(r["id"]): (int(r["n_tokens"]), int(r["kept_tokens"]),
                              int(r["removed_tokens"]), r["clean_text"])
               for _, r in out.iterrows()}
        assert got == expect, (bmax, got, expect)
    assert expect[3][3] == ""        # doc 3 is fully removed
    assert expect[4][3] == "u v"     # short doc unchanged


def test_cross_corpus_minhash_pairs(ray_session):
    """Cross pairs verified; same-side duplicates pruned before
    scoring; ids de-namespaced."""
    import hashlib
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.dedup import cross_corpus_minhash_pairs

    def txt(key):
        return "".join(hashlib.sha256(f"{key}:{j}".encode()).hexdigest()
                       for j in range(3))

    train = pd.DataFrame({
        "id": [1, 2, 3, 4],
        "text": [txt("a"), txt("b"), txt("c"), txt("a")],  # 1 and 4 dup
    })
    ev = pd.DataFrame({
        "id": [7, 8],
        "text": [txt("a"), txt("z")],   # 7 contaminated, 8 clean
    })
    out = cross_corpus_minhash_pairs(
        rd.from_pandas(train).repartition(2),
        rd.from_pandas(ev), "text", "id", threshold=0.8) \
        .to_pandas().sort_values(["train_id", "eval_id"],
                                 ignore_index=True)
    # BOTH train copies of txt("a") pair with eval 7; the train-train
    # pair (1,4) is pruned; clean eval 8 matches nothing
    assert out["train_id"].tolist() == [1, 4]
    assert out["eval_id"].tolist() == [7, 7]
    assert (out["est_jaccard"] == 1.0).all()


def test_pointer_jumping_components(ray_session):
    """jump=True must (a) equal the plain form, and (b) converge on a
    diameter-40 chain within O(log d) rounds where the plain form
    provably cannot (min label travels one hop per plain round)."""
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.dedup import components_label_propagation

    n = 41  # one chain 0-1-...-40 plus a separate triangle
    pairs = pd.DataFrame({
        "id_a": list(range(n - 1)) + [100, 101, 100],
        "id_b": list(range(1, n)) + [101, 102, 102],
    })
    ds = rd.from_pandas(pairs).repartition(4)
    jumped = components_label_propagation(ds, max_rounds=8, jump=True) \
        .to_pandas().sort_values("id", ignore_index=True)
    assert (jumped[jumped["id"] < 100]["component"] == 0).all()
    assert (jumped[jumped["id"] >= 100]["component"] == 100).all()
    # the plain form needs ~40 rounds for this chain; with 8 it must
    # NOT have converged (guards against the test being vacuous)
    plain8 = components_label_propagation(ds, max_rounds=8, jump=False) \
        .to_pandas()
    assert (plain8[plain8["id"] < 100]["component"] != 0).any()
    # equality of the two forms on a graph the plain form CAN finish
    # cheaply: diameter-6 chains + the triangle
    small = pd.DataFrame({
        "id_a": [0, 1, 2, 3, 4, 5, 100, 101, 100],
        "id_b": [1, 2, 3, 4, 5, 6, 101, 102, 102]})
    sds = rd.from_pandas(small).repartition(3)
    a = components_label_propagation(sds, max_rounds=10, jump=True) \
        .to_pandas().sort_values("id", ignore_index=True)
    b = components_label_propagation(sds, max_rounds=10, jump=False) \
        .to_pandas().sort_values("id", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_auto_pointer_jumping(ray_session):
    """r4 verdict #4: jump='auto' (the default) must converge a
    diameter-40 chain in auto_jump_after + O(log d) rounds with NO flag
    from the caller — the first 3 rounds run plain (so near-clique
    graphs never pay the extra join), then the still-moving Σlabel
    certificate flips every remaining round to pointer jumping."""
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.dedup import components_label_propagation

    n = 41
    pairs = pd.DataFrame({
        "id_a": list(range(n - 1)) + [100, 101, 100],
        "id_b": list(range(1, n)) + [101, 102, 102]})
    ds = rd.from_pandas(pairs).repartition(4)
    # 11 = auto_jump_after(3) + 8: the plain form provably can't finish
    # a 40-chain in 11 rounds, so success proves the auto-switch fired
    out = components_label_propagation(ds, max_rounds=11) \
        .to_pandas().sort_values("id", ignore_index=True)
    assert (out[out["id"] < 100]["component"] == 0).all()
    assert (out[out["id"] >= 100]["component"] == 100).all()


def test_remove_contaminated_spans(ray_session):
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.dedup import remove_contaminated_spans
    train = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c d e", "x y z", "b c b c"],
    })).repartition(2)
    ev = rd.from_pandas(pd.DataFrame({
        "doc_id": [9], "text": ["q b c q"],
    }))
    out = remove_contaminated_spans(train, ev, "text", "doc_id", n=2,
                                    normalize=False).to_pandas() \
        .sort_values("id", ignore_index=True)
    got = dict(zip(out["id"], out["clean_text"]))
    # eval 2-grams: {q b, b c, c q}; train doc 1 hits 'b c' at pos 1 ->
    # tokens 1..2 cut; doc 3 is wall-to-wall hits -> empty
    assert got[1] == "a d e"
    assert got[2] == "x y z"
    assert got[3] == ""
    assert out.set_index("id").loc[3, "removed_tokens"] == 4
    # bucketed tail equality (the shared _cut_spans_by_gramset path)
    out2 = remove_contaminated_spans(train, ev, "text", "doc_id", n=2,
                                     normalize=False, broadcast_max=0,
                                     n_buckets=4).to_pandas() \
        .sort_values("id", ignore_index=True)
    pd.testing.assert_frame_equal(out, out2[out.columns.tolist()])


def test_dedup_best_survivor(ray_session):
    """score_col survivor selection: the max-score member of each
    component is kept (ties -> min id); singletons untouched; driver
    and distributed component modes agree."""
    import hashlib
    import ray.data as rd
    from prompture_ray.stages.dedup import dedup_minhash

    def sha_text(seed: str) -> str:
        return "".join(hashlib.sha256(f"{seed}:{j}".encode()).hexdigest()
                       for j in range(3))

    rows = [
        (1, sha_text("a"), 5), (11, sha_text("a"), 9),
        (12, sha_text("a"), 9),                       # {1,11,12}: tie 9
        (2, sha_text("b"), 3), (22, sha_text("b"), 3),  # {2,22}: tie 3
        (3, sha_text("c"), 1), (33, sha_text("c"), 7),  # {3,33}: best 33
        (4, sha_text("d"), 0),                        # singleton
    ]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows],
                                     type=pa.int64()),
                  "text": [r[1] for r in rows],
                  "score": pa.array([r[2] for r in rows],
                                    type=pa.int64())})
    want = [2, 4, 11, 33]
    for mode in ("driver", "distributed"):
        kept, st = dedup_minhash(rd.from_arrow(t), "text", "doc_id",
                                 threshold=0.8, components=mode,
                                 score_col="score")
        assert sorted(kept.to_pandas()["doc_id"]) == want, mode
        assert st["survivor"] == "best" and st["removed"] == 4
    # without score_col the old min-id semantics are untouched
    kept, st = dedup_minhash(rd.from_arrow(t), "text", "doc_id",
                             threshold=0.8)
    assert sorted(kept.to_pandas()["doc_id"]) == [1, 2, 3, 4]
    assert st["survivor"] == "min_id"
