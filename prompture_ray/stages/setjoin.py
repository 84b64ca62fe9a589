"""Exact all-pairs set-similarity join (Jaccard ≥ τ) with prefix
filtering — the PPJoin family (Xiao et al., "Efficient Similarity
Joins for Near Duplicate Detection", WWW 2008 — public algorithm),
re-expressed as Ray Data stages.

Guarantee: EXACT results (every pair with token-set Jaccard ≥ τ, no
misses, no extras) — unlike the MinHash path (stages/dedup.py), which
is probabilistic. The pruning stack is the classic one:

- **prefix filter**: order every doc's tokens by one global total
  order (df-ascending → rarest first, falling back to plain token
  order when the lexicon exceeds ``broadcast_max``; ANY total order is
  correct, df-ascending just prunes best). If J(A,B) ≥ τ the two
  prefixes of length ``|X| − ⌈τ·|X|⌉ + 1`` MUST share a token, so only
  prefix postings enter candidate generation.
- **length filter**: J(A,B) ≥ τ ⇒ τ·max(|A|,|B|) ≤ min(|A|,|B|) —
  applied vectorized at pair-emission time.
- **exact verify**: |A∩B| recomputed distributively for candidate ids
  only (the MinHash stage-2 precedent), threshold test
  ``inter·den ≥ num·(|A|+|B|−inter)`` in pure int64, and the reported
  ``jaccard = inter/union`` is ONE correctly-rounded double division
  of exact ints — bit-identical to a SQL replay.

Scale shape: tokenization/prefix selection are per-batch vectorized
passes (text never shuffles); df is one narrow lexicon-bounded
shuffle; candidate generation and intersection counting are each ONE
``shuffle.partition_fold`` on the token hash with a single vectorized
sort + run-boundary + arithmetic pair-expansion pass per fold frame
(itemsets.pairs_within_sorted_groups — no Python loop, no frame per
token), and pairs dedupe or sum in one more fold on ``(a, b)``. The
verify stage broadcasts only the candidate-id and candidate-pair
arrays (O(candidates), enforced by ``candidate_max`` with an
actionable error — at web scale raise τ or use dedup_shingle's MinHash
path for recall-bounded discovery first). Both joins share every stage
but candidate emission and the final test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.itemsets import pairs_within_sorted_groups
from prompture_ray.stages.shuffle import (aggregate, bound_blocks,
                                          partition_fold, target_blocks)

_EMPTY_PAIRS = pd.DataFrame({
    "a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
    "na": pd.Series(dtype="int64"), "nb": pd.Series(dtype="int64")})
_EMPTY_ABC = pd.DataFrame({
    "a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
    "c": pd.Series(dtype="int64")})


def _token_runs(g: pd.DataFrame):
    """Sort by (th, tok, id); boundaries check th FIRST (int) and the
    true string only at hash-equal neighbors — collisions can never
    merge two distinct tokens into one run."""
    g = g.sort_values(["th", "tok", "id"], kind="mergesort",
                      ignore_index=True)
    th = g["th"].to_numpy()
    tk = g["tok"].to_numpy()
    diff = np.r_[True, th[1:] != th[:-1]]
    same_h = np.flatnonzero(~diff)
    if len(same_h):
        diff[same_h] = tk[same_h] != tk[same_h - 1]
    starts = np.flatnonzero(diff)
    sizes = np.diff(np.r_[starts, len(g)])
    return g, sizes


def _tok_sets(t: pa.Table, id_col: str, text_col: str):
    """Per-row DISTINCT whitespace tokens → (ids-per-token, flat
    tokens, set size per token, row set sizes). Vectorized: one split,
    one pandas drop_duplicates over (row, token)."""
    arr = t[text_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    toks = pc.utf8_split_whitespace(arr)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    rid = np.repeat(ids, lens)
    df = pd.DataFrame({"id": rid, "tok": flat}).drop_duplicates()
    return df


def _rate(threshold: float | Fraction, who: str) -> tuple[int, int]:
    """``threshold`` as an exact rational ``(num, den)`` (float inputs
    like 0.5 convert exactly), so every threshold test is pure int64."""
    frac = Fraction(threshold).limit_denominator(10**9) \
        if not isinstance(threshold, Fraction) else threshold
    if not (0 < frac <= 1):
        raise ValueError(f"{who}: threshold in (0, 1]")
    return frac.numerator, frac.denominator


def _i64(t: pa.Table, col: str) -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False).astype(np.int64)


def _collect(ds, cols: list) -> pa.Table:
    """The int64 ``cols`` of every block of ``ds`` in one Arrow table."""
    blocks = [b.select(cols) for b in ds.iter_batches(batch_format="pyarrow")
              if b.num_rows]
    if not blocks:
        return pa.table({c: pa.array([], type=pa.int64()) for c in cols})
    return pa.concat_tables(blocks, promote_options="default")


def _postings(ds, id_col: str, text_col: str):
    """Distinct ``(id, tok, th, n)`` postings (``n`` = the row's set
    size), materialized with a bounded block count
    (``shuffle.bound_blocks``), and the partition count of every fold
    (``shuffle.target_blocks`` of the posting count).

    Tokens are hashed to int64 ONCE here ("th"): every downstream
    order, lookup and partition works on ints (object-string
    searchsorted over a millions-entry lexicon was the measured hot
    spot: ~20× log(lexicon) Python comparisons per posting); the token
    STRING still travels and run grouping re-checks true string
    equality, so hash collisions never merge tokens."""
    def postings(t: pa.Table) -> pa.Table:
        df = _tok_sets(t, id_col, text_col)
        n = df.groupby("id", sort=False)["tok"].transform("size") \
            .to_numpy().astype(np.int64)
        tok = df["tok"].to_numpy()
        th = hash64(np.asarray(tok, dtype=object)) \
            .astype(np.uint64).view(np.int64)
        return pa.table({
            "id": pa.array(df["id"].to_numpy()),
            "tok": pa.array(tok, type=pa.string()),
            "th": pa.array(th),
            "n": pa.array(n)})

    # bound the block count ONCE before the folds: the sort cost follows
    # the INPUT block count
    posts = bound_blocks(ds.map_batches(postings, batch_format="pyarrow")
                         .materialize()).materialize()
    return posts, target_blocks(posts.count())


def _df_lexicon(posts, broadcast_max: int):
    """Object ref of the ``(token hash, df)`` arrays sorted by hash
    when the lexicon fits ``broadcast_max`` rows, else None (plain hash
    order — still a total order). df is counted per token HASH: a
    collision merges two tokens' counts (pruning heuristic only); the
    order key is a function of ``th`` alone, so it stays consistent
    across docs and the prefix theorem holds regardless."""
    import ray

    dft = aggregate(posts, ["th"], df=("count", None)).materialize()
    if dft.count() > broadcast_max:
        return None
    lt = _collect(dft, ["th", "df"])
    ths, dfs = _i64(lt, "th"), _i64(lt, "df")
    order = np.argsort(ths, kind="mergesort")
    return ray.put((ths[order], dfs[order]))


def _prefix_order(t: pa.Table, lex_ref, num: int, den: int):
    """The postings ``t`` as Arrow rows sorted by (id, df, th, tok) and
    the mask of each id's prefix: its first ``n − ⌈τ·n⌉ + 1`` tokens
    in the global order."""
    import ray
    th = t["th"].to_numpy(zero_copy_only=False)
    if lex_ref is not None:
        sths, sdfs = ray.get(lex_ref)
        key = sdfs[np.searchsorted(sths, th)]
    else:
        key = np.zeros(len(th), dtype=np.int64)
    d = t.to_pandas()
    d["k"] = key
    d = d.sort_values(["id", "k", "th", "tok"], kind="mergesort",
                      ignore_index=True)
    # position within id run
    idv = d["id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, idv[1:] != idv[:-1]])
    posi = np.arange(len(d), dtype=np.int64) \
        - np.repeat(starts, np.diff(np.r_[starts, len(d)]))
    nn = d["n"].to_numpy()
    rows = pa.table({
        "id": pa.array(d["id"].to_numpy(), type=pa.int64()),
        "tok": pa.array(d["tok"].to_numpy(), type=pa.string()),
        "th": pa.array(d["th"].to_numpy(), type=pa.int64()),
        "n": pa.array(nn, type=pa.int64())})
    return rows, posi < nn - (num * nn + den - 1) // den + 1


def _distinct_ab(g: pd.DataFrame) -> pd.DataFrame:
    # sizes ride along (identical on every duplicate)
    return g.drop_duplicates(["a", "b"])


def _candidate_arrays(pairs, candidate_max: int, who: str):
    """``(a, b, na, nb)`` int64 arrays of the candidate pair Dataset,
    guarded: at most ``candidate_max`` pairs, ids in [0, 2^31) (the
    packed ``(a << 32) | b`` pair keys)."""
    n_pairs = pairs.count()
    if n_pairs > candidate_max:
        raise ValueError(
            f"{who}: {n_pairs} candidate pairs exceed "
            f"candidate_max={candidate_max}; raise the threshold or "
            "pre-bucket with dedup_shingle (MinHash) first")
    pt = _collect(pairs, ["a", "b", "na", "nb"])
    a, b = _i64(pt, "a"), _i64(pt, "b")
    if len(a) and (max(a.max(), b.max()) >= 2**31
                   or min(a.min(), b.min()) < 0):
        raise ValueError(f"{who}: ids must be in [0, 2^31) — pre-map "
                         "ids first")
    return a, b, _i64(pt, "na"), _i64(pt, "nb")


def _intersections(posts, cids: np.ndarray, keys: np.ndarray,
                   n_parts: int):
    """Exact ``(a, b, inter)`` (a < b) for the candidate pairs whose
    packed keys ``(a << 32) | b`` are ``keys`` (sorted): the postings of
    the candidate ids ``cids`` (sorted) only, one token-hash fold
    counting each token run's listed pairs, then one ``(a, b)`` fold
    summing the per-frame partial counts."""
    import ray
    bc = ray.put((cids, keys))

    def cand_only(t: pa.Table) -> pa.Table:
        cid, _ = ray.get(bc)
        ids = t["id"].to_numpy(zero_copy_only=False)
        hit = np.zeros(len(ids), dtype=bool)
        if len(cid):
            pos = np.searchsorted(cid, ids)
            in_rng = pos < len(cid)
            hit[in_rng] = cid[pos[in_rng]] == ids[in_rng]
        return t.filter(pa.array(hit))

    def inter_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _EMPTY_ABC
        _, pks = ray.get(bc)
        g, sizes = _token_runs(g)
        li, ri = pairs_within_sorted_groups(sizes)
        if not len(li):
            return _EMPTY_ABC
        ids = g["id"].to_numpy().astype(np.int64)
        a, b = ids[li], ids[ri]
        key = (a << np.int64(32)) | b
        pos = np.searchsorted(pks, key)
        ok = np.zeros(len(key), dtype=bool)
        in_rng = pos < len(pks)
        ok[in_rng] = pks[pos[in_rng]] == key[in_rng]
        d = pd.DataFrame({"a": a[ok], "b": b[ok]})
        out = d.groupby(["a", "b"], sort=False).size().rename("c") \
            .reset_index()
        out["c"] = out["c"].astype("int64")
        return out

    def inter_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], sort=False)["c"].sum() \
            .rename("inter").reset_index()
        out["inter"] = out["inter"].astype("int64")
        return out

    partial = partition_fold(
        posts.map_batches(cand_only, batch_format="pyarrow"), ["th"],
        inter_part, n_parts=n_parts)
    return partition_fold(partial, ["a", "b"], inter_fold,
                          n_parts=n_parts)


def set_similarity_join(ds, id_col: str, text_col: str,
                        threshold: float | Fraction, *,
                        broadcast_max: int = 20_000_000,
                        candidate_max: int = 5_000_000):
    """All pairs (a < b) of rows whose whitespace token SETS have
    Jaccard ≥ ``threshold``; returns columns (a, b, inter, size_a,
    size_b, jaccard). ``threshold`` is taken as an exact rational
    (float inputs like 0.5 convert exactly; pass a Fraction for
    non-dyadic rates) so the threshold test is pure int64.

    Caller contract: ``id_col`` values are distinct, non-negative and
    < 2^31 (the packed pair-key filter; ids beyond that → pre-map ids,
    as dedup's namespacing queries do)."""
    num, den = _rate(threshold, "set_similarity_join")
    posts, n_parts = _postings(ds, id_col, text_col)
    lex_ref = _df_lexicon(posts, broadcast_max)

    def prefix(t: pa.Table) -> pa.Table:
        rows, pre = _prefix_order(t, lex_ref, num, den)
        return rows.filter(pa.array(pre))

    # ---- candidate pairs: one token-hash fold ------------------------
    def pair_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _EMPTY_PAIRS
        g, sizes = _token_runs(g)
        li, ri = pairs_within_sorted_groups(sizes)
        if not len(li):
            return _EMPTY_PAIRS
        ids = g["id"].to_numpy()
        ns = g["n"].to_numpy()
        a, b = ids[li], ids[ri]
        na, nb = ns[li], ns[ri]
        # length filter: min·den ≥ max·num (ids sorted within run, but
        # sizes arbitrary)
        mn, mx = np.minimum(na, nb), np.maximum(na, nb)
        ok = mn * den >= mx * num
        return pd.DataFrame({"a": a[ok], "b": b[ok],
                             "na": na[ok], "nb": nb[ok]})

    cand = partition_fold(
        posts.map_batches(prefix, batch_format="pyarrow"), ["th"],
        pair_part, n_parts=n_parts)
    # pair dedupe: one (a, b) fold with ONE vectorized drop_duplicates
    # per frame — a grouped-aggregate dedupe over ~|pairs| DISTINCT
    # two-column groups measured ~100× slower (60.5 vs 0.6 s at 850k
    # pairs)
    pairs = partition_fold(cand, ["a", "b"], _distinct_ab,
                           n_parts=n_parts).materialize()

    # ---- broadcast candidate ids + packed pair keys ------------------
    pa_, pb_, na_, nb_ = _candidate_arrays(pairs, candidate_max,
                                           "set_similarity_join")
    pk = (pa_ << np.int64(32)) | pb_
    order = np.argsort(pk, kind="mergesort")
    pk = pk[order]
    size_a, size_b = na_[order], nb_[order]
    inter = _intersections(posts, np.unique(np.r_[pa_, pb_]), pk,
                           n_parts)

    # ---- exact threshold + jaccard -----------------------------------
    def finish(t: pa.Table) -> pa.Table:
        a, b, c = _i64(t, "a"), _i64(t, "b"), _i64(t, "inter")
        key = (a << np.int64(32)) | b
        pos = np.searchsorted(pk, key)
        sa, sb = size_a[pos], size_b[pos]
        union = sa + sb - c
        keep = c * den >= num * union
        return pa.table({
            "a": pa.array(a[keep]), "b": pa.array(b[keep]),
            "inter": pa.array(c[keep]),
            "size_a": pa.array(sa[keep]),
            "size_b": pa.array(sb[keep]),
            "jaccard": pa.array(c[keep].astype(np.float64)
                                / union[keep])})

    return inter.map_batches(finish, batch_format="pyarrow")


def _cross_within_runs(p_pos: np.ndarray, p_run: np.ndarray,
                       f_pos: np.ndarray, f_run: np.ndarray,
                       n_runs: int):
    """GLOBAL index pairs (li from the P rows × ri from the F rows of
    the SAME run) — the directional complement of
    pairs_within_sorted_groups, pure repeat/cumsum arithmetic. Inputs:
    positions and run ids of the two row families, each sorted by run;
    returns (li, ri) into the respective position arrays' values."""
    cf = np.bincount(f_run, minlength=n_runs).astype(np.int64)
    per_p = cf[p_run]
    li = np.repeat(p_pos, per_p)
    total = int(per_p.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    starts = np.cumsum(np.r_[np.int64(0), per_p[:-1]])
    intra = np.arange(total, dtype=np.int64) - np.repeat(starts, per_p)
    f_start = np.cumsum(np.r_[np.int64(0), cf[:-1]])
    ri_idx = np.repeat(f_start[p_run], per_p) + intra
    return li, f_pos[ri_idx]


def containment_join(ds, id_col: str, text_col: str,
                     threshold: float | Fraction, *,
                     broadcast_max: int = 20_000_000,
                     candidate_max: int = 5_000_000):
    """DIRECTIONAL set-containment join: all ordered pairs (a, b),
    a ≠ b, with ``|A∩B| ≥ τ·|A|`` (A's token set τ-contained in B) —
    the asymmetric PPJoin variant behind "is this doc's content
    subsumed by another" subset-dedup. Returns (a, b, inter, size_a,
    size_b, containment) with ``containment = inter / size_a`` ONE
    exact-int division.

    Pruning: A-side prefix filter (if |A∩B| ≥ τ|A|, A's df-ordered
    prefix of length |A| − ⌈τ|A|⌉ + 1 must hit B's FULL set — so
    candidates are prefix(A) × full(B) within a token run) plus the
    directional length filter |B| ≥ τ|A|. Verification reuses the
    symmetric intersection recount on canonical (min, max) pairs, then
    fans back out to the surviving directions. Same caller contract as
    :func:`set_similarity_join` (distinct ids in [0, 2^31));
    ``candidate_max`` guards the broadcast arrays."""
    num, den = _rate(threshold, "containment_join")
    posts, n_parts = _postings(ds, id_col, text_col)
    lex_ref = _df_lexicon(posts, broadcast_max)

    # role-tagged postings: every posting is F (full side); the
    # A-prefix postings are ADDITIONALLY emitted with role P
    def roles(t: pa.Table) -> pa.Table:
        rows, pre = _prefix_order(t, lex_ref, num, den)
        n_pre = int(pre.sum())
        idx = np.r_[np.arange(rows.num_rows), np.flatnonzero(pre)]
        return rows.take(pa.array(idx, type=pa.int64())).append_column(
            "role", pa.array(np.repeat(np.array([0, 1], dtype=np.int64),
                                       [rows.num_rows, n_pre])))

    def pair_part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _EMPTY_PAIRS
        g = g.sort_values(["th", "tok", "role", "id"],
                          kind="mergesort", ignore_index=True)
        th = g["th"].to_numpy()
        tk = g["tok"].to_numpy()
        diff = np.r_[True, th[1:] != th[:-1]]
        same = np.flatnonzero(~diff)
        if len(same):
            diff[same] = tk[same] != tk[same - 1]
        run_id = np.cumsum(diff) - 1
        n_runs = int(run_id[-1]) + 1
        role = g["role"].to_numpy()
        pos = np.arange(len(g), dtype=np.int64)
        pmask = role == 1
        li, ri = _cross_within_runs(pos[pmask], run_id[pmask],
                                    pos[~pmask], run_id[~pmask],
                                    n_runs)
        if not len(li):
            return _EMPTY_PAIRS
        ids = g["id"].to_numpy()
        ns = g["n"].to_numpy()
        a, b = ids[li], ids[ri]
        na, nb = ns[li], ns[ri]
        ok = (a != b) & (nb * den >= na * num)
        return pd.DataFrame({"a": a[ok], "b": b[ok],
                             "na": na[ok], "nb": nb[ok]})

    cand = partition_fold(
        posts.map_batches(roles, batch_format="pyarrow"), ["th"],
        pair_part, n_parts=n_parts)
    # directional pairs dedupe on (a, b) itself: (a, b) and (b, a) are
    # two results, and each lands whole in one frame
    pairs = partition_fold(cand, ["a", "b"], _distinct_ab,
                           n_parts=n_parts).materialize()

    da, db, na_, nb_ = _candidate_arrays(pairs, candidate_max,
                                         "containment_join")
    # canonical unordered keys for the shared intersection recount
    lo, hi = np.minimum(da, db), np.maximum(da, db)
    dkey = (lo << np.int64(32)) | hi
    inter = _intersections(posts, np.unique(np.r_[da, db]),
                           np.unique(dkey), n_parts)

    # canonical intersections back on the driver (≤ |candidate pairs|,
    # already guarded) → fan out to the surviving DIRECTIONAL rows
    it = _collect(inter, ["a", "b", "inter"])
    ikey = (_i64(it, "a") << np.int64(32)) | _i64(it, "b")
    iorder = np.argsort(ikey, kind="mergesort")
    ikey, ic = ikey[iorder], _i64(it, "inter")[iorder]
    pos = np.searchsorted(ikey, dkey)
    cvals = np.zeros(len(dkey), dtype=np.int64)
    in_rng = pos < len(ikey)
    match = np.zeros(len(dkey), dtype=bool)
    match[in_rng] = ikey[pos[in_rng]] == dkey[in_rng]
    if len(ic):
        cvals[match] = ic[pos[match]]
    keep = cvals * den >= num * na_
    res = pa.table({
        "a": pa.array(da[keep]), "b": pa.array(db[keep]),
        "inter": pa.array(cvals[keep]),
        "size_a": pa.array(na_[keep]),
        "size_b": pa.array(nb_[keep]),
        "containment": pa.array(cvals[keep].astype(np.float64)
                                / na_[keep])})
    import ray.data as rd
    out_blocks = int(max(1, min(64, len(da) // 100_000 + 1)))
    return rd.from_arrow(res).repartition(out_blocks)
