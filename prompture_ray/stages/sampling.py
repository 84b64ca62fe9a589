"""Deterministic sampling operators for training-data curation.

``ds.random_sample`` is nondeterministic across runs/block layouts; these
operators decide membership from a PURE FUNCTION of the row's id, so the
sample is reproducible, resumable (a re-run keeps the same rows), and
auditable in SQL. Selection rule: Knuth multiplicative hashing —
keep iff (id * 2654435761) mod 2^32 < fraction * 2^32 — which both numpy
(uint64) and any SQL engine (BIGINT arithmetic) evaluate identically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_KNUTH = np.uint64(2654435761)
_MOD = np.uint64(1) << np.uint64(32)


def _keep_mask(ids: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    h = (ids.astype(np.uint64) * _KNUTH) % _MOD
    thresh = np.floor(fractions * float(2 ** 32)).astype(np.uint64)
    return h < thresh


def deterministic_sample(ds, id_col: str, fraction: float):
    """Keep a reproducible ``fraction`` of rows keyed by an integer id."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = _keep_mask(ids, np.full(len(ids), fraction))
        return t.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(ds, id_col: str, strata_col: str,
                      fractions: dict, default: float = 1.0):
    """Per-stratum deterministic sampling: ``fractions`` maps stratum
    value → keep fraction (missing strata keep ``default``). The strata
    map is tiny and ships inside the task closure — no shuffle, no
    driver-side pass; output is stable under any block layout."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        strata = t[strata_col].to_pylist()
        fr = np.array([fractions.get(s, default) for s in strata])
        return t.filter(pa.array(_keep_mask(ids, fr)))

    return ds.map_batches(fn, batch_format="pyarrow")


def assign_splits(ds, key_col: str, splits, out_col: str = "split"):
    """Deterministic train/val/test split assignment: every row gets the
    split chosen by its key's Knuth bucket — reproducible under any
    block layout, resumable, auditable in SQL (same rule as
    ``deterministic_sample``).

    ``splits``: ordered [(name, fraction), ...] summing to 1.0 (±1e-9).
    Leakage-safe GROUP splits fall out of the key choice: pass a group
    key column (e.g. a domain id) instead of the row id and every row of
    a group — including near-duplicates kept within one group — lands in
    the same split.
    """
    names = [n for n, _ in splits]
    fr = np.asarray([f for _, f in splits], dtype=np.float64)
    if abs(fr.sum() - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1 (got {fr.sum()})")
    thresh = np.floor(np.cumsum(fr) * float(2 ** 32)).astype(np.uint64)
    thresh[-1] = np.uint64(2 ** 32)          # close rounding gap at the top
    names_arr = pa.array(names, type=pa.string())

    def fn(t: pa.Table) -> pa.Table:
        ids = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (ids.astype(np.uint64) * _KNUTH) % _MOD
        idx = np.searchsorted(thresh, h, side="right")
        col = names_arr.take(pa.array(idx.astype(np.int64)))
        return t.append_column(out_col, col)

    return ds.map_batches(fn, batch_format="pyarrow")


def domain_cap(ds, domain_col: str, id_col: str, cap: int,
               broadcast_max: int = 20_000_000, n_buckets: int = 32):
    """Per-domain document quota (crawl-pipeline staple, e.g. C4 /
    RefinedWeb host caps; beyond the reference): keep the ``cap``
    smallest ``id_col`` rows of each domain. Returns one row per input
    row: ``(id, <domain_col>, keep)``.

    Shape (never a full per-domain sort): pass 1 keeps the cap smallest
    ids PER DOMAIN PER BATCH (vectorized pandas groupby head — a
    combiner, so at most cap × n_batches candidate rows per domain move);
    pass 2 folds candidates per 64-bit domain hash (one
    ``partition_fold``) to the cap-th smallest id (the domain's keep
    threshold). Pass 3: ``shuffle.lookup`` maps the thresholds (one row
    per domain — Heaps-ish small) back onto the rows by domain hash —
    broadcast up to ``broadcast_max`` domains (flagging is a pure map),
    hash buckets beyond."""
    import pandas as pd
    import pyarrow.compute as pc
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.shuffle import lookup, partition_fold

    def dom_hash(dom_obj: np.ndarray) -> np.ndarray:
        return hash64(dom_obj.astype(object)).view(np.int64)

    def candidates(b: pd.DataFrame) -> pa.Table:
        b = b[[domain_col, id_col]].sort_values([domain_col, id_col],
                                                kind="mergesort")
        rank = b.groupby(domain_col, sort=False).cumcount()
        b = b[rank.to_numpy() < cap]
        # an Arrow block: pandas schema metadata would make the fold's
        # block schemas unhashable
        return pa.table({
            "__dh": pa.array(dom_hash(b[domain_col].to_numpy()),
                             type=pa.int64()),
            "id": pa.array(b[id_col].to_numpy().astype(np.int64))})

    def fold_cell(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__dh", "id"], kind="mergesort")
        rank = g.groupby("__dh", sort=False).cumcount().to_numpy()
        # threshold = cap-th smallest id (or the domain max if < cap)
        last = g.groupby("__dh", sort=False).tail(1)
        kth = g[rank == cap - 1]
        thr = pd.concat([last, kth]).drop_duplicates(
            "__dh", keep="last")      # kth wins when it exists
        return pd.DataFrame({"__dh": thr["__dh"].to_numpy(),
                             "thr": thr["id"].to_numpy()})

    thresholds = partition_fold(
        ds.map_batches(candidates, batch_format="pandas"), ["__dh"],
        fold_cell, n_parts=n_buckets * 2).materialize()

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id": b[id_col].to_numpy().astype(np.int64),
            domain_col: b[domain_col],
            "__dh": dom_hash(b[domain_col].to_numpy())})

    def flag(t: pa.Table) -> pa.Table:
        # every domain has a threshold by construction
        return pa.table({"id": t["id"], domain_col: t[domain_col],
                         "keep": pc.less_equal(t["id"], t["thr"])})

    rows = ds.map_batches(project, batch_format="pandas")
    return lookup(rows, thresholds, ["__dh"], ["thr"],
                  broadcast_max=broadcast_max, n_buckets=n_buckets) \
        .map_batches(flag, batch_format="pyarrow")


def pack_sequences(ds, id_col: str, count_col: str, budget: int,
                   bucket: str = "1s"):
    """Sequence-packing bin assignment for LLM training (beyond the
    reference; cf. the T5/GPT sample-packing preprocessing step): docs
    in ``id_col`` order fill contiguous token bins of ``budget`` tokens
    — a doc lands in bin ``floor(exclusive_prefix_sum(count) /
    budget)`` (contiguous fill, docs never split; a doc longer than the
    budget owns its bins). Returns the input rows +
    ``(bin, offset_in_stream)``.

    Distribution: the GLOBAL ordered prefix sum is the hot part — it
    reuses ``windows.running_aggregate_bucketed`` (phase-bounded cells,
    offsets mapped back by ``shuffle.lookup``; the driver holds one row
    per cell) with a constant key and the id as the order axis;
    ``bucket`` (id units, '1s' = 1M ids per cell) bounds cell size for
    dense id spaces."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from prompture_ray.stages.windows import running_aggregate_bucketed

    def prep(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.cast(pa.int64())
        return pa.table({
            id_col: ids,
            count_col: t[count_col].combine_chunks().cast(pa.int64()),
            "__k": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "__ts": ids.cast(pa.timestamp("us")),
        })

    run = running_aggregate_bucketed(ds.map_batches(
        prep, batch_format="pyarrow"), "__k", "__ts", count_col,
        bucket=bucket)

    def finish(b: pa.Table) -> pa.Table:
        prefix = pc.subtract(b["running_sum"], b[count_col])
        return pa.table({
            "id": b[id_col], count_col: b[count_col],
            "offset_in_stream": prefix,
            "bin": prefix.to_numpy() // np.int64(budget)})

    return run.map_batches(finish, batch_format="pyarrow")


def domain_mix_weights(ds, domain_col: str, id_col: str,
                       targets: dict | None = None):
    """Domain-mixture reweighting (the Pile/DoReMi source-mixing step;
    beyond the reference): per-domain sampling weight that morphs the
    empirical source mix into a target mixture,
    ``weight_d = target_share_d / empirical_share_d``. Returns one row
    per input row: ``(id, <domain_col>, weight)``.

    ``targets`` maps domain → exact rational share ``(num, den)``;
    ``None`` = uniform over the observed domains (1/K each). Domains
    absent from ``targets`` get weight 0.0 (dropped from the mix).

    Shape: ONE ``shuffle.aggregate`` count (domain lexicon is
    Heaps-small),
    weight map broadcast once via ``ray.put``, per-doc attach is a pure
    map (sorted-hash ``searchsorted``). Exactness: each weight is a
    SINGLE division of exact integers ``(num·N)/(den·n_d)`` — the
    correctly-rounded double is bit-identical on any engine (the
    IEEE-exactness trick)."""
    import ray
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.shuffle import aggregate

    counts = aggregate(ds, [domain_col], n=("count", None)).materialize()
    doms, ns = [], []
    for t in counts.iter_batches(batch_format="pyarrow"):
        doms.append(np.asarray(t[domain_col].to_pylist(), dtype=object))
        ns.append(t["n"].to_numpy(zero_copy_only=False))
    dom = np.concatenate(doms) if doms else np.empty(0, dtype=object)
    n_d = (np.concatenate(ns) if ns else np.empty(0)).astype(np.int64)
    N, K = int(n_d.sum()), len(dom)

    if targets is None:
        num = np.ones(K, dtype=np.int64)
        den = np.full(K, K, dtype=np.int64)
    else:
        num = np.array([targets.get(d, (0, 1))[0] for d in dom],
                       dtype=np.int64)
        den = np.array([targets.get(d, (0, 1))[1] for d in dom],
                       dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (num * N).astype(np.float64) / (den * n_d).astype(np.float64)
    w = np.where(num == 0, 0.0, w)

    dh = hash64(dom).view(np.int64) if K else np.empty(0, np.int64)
    order = np.argsort(dh, kind="stable")
    ref = ray.put((dh[order], w[order]))

    def attach(t: pa.Table) -> pa.Table:
        keys, wts = ray.get(ref)
        d_obj = np.asarray(t[domain_col].to_pylist(), dtype=object)
        ids = t[id_col].combine_chunks().cast(pa.int64())
        out = np.zeros(len(d_obj), dtype=np.float64)
        if len(keys) and len(d_obj):
            h = hash64(d_obj).view(np.int64)
            i = np.clip(np.searchsorted(keys, h), 0, len(keys) - 1)
            hit = keys[i] == h
            out[hit] = wts[i[hit]]
        return pa.table({"id": ids,
                         domain_col: pa.array(d_obj, type=pa.string()),
                         "weight": pa.array(out, type=pa.float64())})

    return ds.map_batches(attach, batch_format="pyarrow")


def weighted_sample(ds, id_col: str, weight_col: str):
    """Per-row deterministic weighted rejection sampling (the
    downsampling half of domain-mixture resampling): keep iff
    ``knuth(id) < floor(min(w,1)·2^32)`` — same auditable rule as
    ``deterministic_sample`` with a per-row fraction."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.minimum(t[weight_col].to_numpy(zero_copy_only=False)
                       .astype(np.float64), 1.0)
        return t.filter(pa.array(_keep_mask(ids, w)))

    return ds.map_batches(fn, batch_format="pyarrow")


def repeat_by_weight(ds, id_col: str, weight_col: str,
                     max_copies: int = 64, emit_rows: bool = True):
    """Deterministic mixture resampling (both halves): every row gets
    ``n = floor(w) + [knuth(id) < floor(frac(w)·2^32)]`` copies —
    w<1 is rejection sampling, w>1 is upsampling with a stochastic
    (but id-deterministic) remainder, exactly the resampler of
    Pile-style domain mixing. ``emit_rows=False`` returns one row per
    INPUT row with its ``n_copies`` (the auditable plan); otherwise
    rows are physically repeated with a ``copy_idx`` column.
    ``max_copies`` bounds pathological weights."""

    def n_copies(t: pa.Table):
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.clip(t[weight_col].to_numpy(zero_copy_only=False)
                    .astype(np.float64), 0.0, float(max_copies))
        base = np.floor(w)
        extra = _keep_mask(ids, w - base)
        return (base.astype(np.int64) + extra).astype(np.int64)

    if not emit_rows:
        def plan(t: pa.Table) -> pa.Table:
            return t.append_column("n_copies",
                                   pa.array(n_copies(t), type=pa.int64()))
        return ds.map_batches(plan, batch_format="pyarrow")

    def repeat(t: pa.Table) -> pa.Table:
        n = n_copies(t)
        idx = np.repeat(np.arange(len(t), dtype=np.int64), n)
        out = t.take(pa.array(idx))
        # 0,1,...,n_i-1 within each repeated row
        starts = np.cumsum(n) - n
        copy_idx = np.arange(len(idx), dtype=np.int64) \
            - np.repeat(starts, n)
        return out.append_column("copy_idx",
                                 pa.array(copy_idx, type=pa.int64()))

    return ds.map_batches(repeat, batch_format="pyarrow")


def sample_k_per_group(ds, key_col: str, id_col: str, k: int):
    """Deterministic exactly-min(k, n)-rows-per-group sample: order a
    group by ``(knuth(id), id)`` and keep the first k. Reproducible
    under any block layout (pure function of the id, the repo's
    sampling invariant), auditable in SQL with the same Knuth rule the
    other samplers use, and executed by the partial-top-k machinery —
    the shuffle carries <= k rows per (group, batch), never the group.
    Returns the surviving rows + rk (1-based draw order)."""
    import pyarrow as pa
    from prompture_ray.stages.analytic import top_k_per_group

    def add_h(t: "pa.Table") -> "pa.Table":
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * _KNUTH) % np.uint64(1 << 32)
        return t.append_column("__kh", pa.array(h.astype(np.int64)))

    out = top_k_per_group(ds.map_batches(add_h, batch_format="pyarrow"),
                          key_col, "__kh", k=k, tie_col=id_col,
                          ascending=True)
    return out.map_batches(lambda b: b.drop(columns=["__kh"]),
                           batch_format="pandas")


def assign_shards(ds, id_col: str, n_shards: int,
                  cells_per_shard: int = 256, n_parts: int = 64):
    """Deterministic training-shard shuffle (beyond the reference; the
    standard "globally shuffle then write N shards" preprocessing step
    before LLM training): every row gets

    - ``shard`` = knuth(id) % n_shards,
    - ``pos``   = 0-based rank of (knuth(id), id) within its shard,

    i.e. a reproducible pseudo-random global order, auditable in SQL as
    ``row_number() OVER (PARTITION BY shard ORDER BY h, id) - 1`` with
    h = (id * 2654435761) % 2^32 (the module's Knuth rule). Identical
    under any block layout, resumable, and ties (ids that collide in
    the 32-bit hash) break by id on both sides.

    Scale shape: rank needs cross-block coordination — it costs ONE
    narrow shuffle of the rows, which a shard writer pays anyway to
    co-locate shards. A cell = (shard, h >> shift) with
    ~``cells_per_shard`` cells per shard: one ``shuffle.aggregate``
    count makes the distinct-cell table (bounded by n_shards × cells_per_shard
    rows, independent of corpus size), its per-shard exclusive prefix
    is broadcast as sorted arrays, rows shuffle once in a
    ``partition_fold`` on the cell, and each fold frame ranks all its
    cells in one vectorized sort + grouped cumcount. Output = input
    columns + (shard, pos), rows grouped by cell (contiguous shard
    runs)."""
    import pandas as pd
    import ray
    from prompture_ray.stages.shuffle import aggregate, partition_fold

    shift = max(0, 32 - int(np.ceil(np.log2(max(cells_per_shard, 2)))))
    n_hb = np.int64(1) << np.int64(32 - shift)

    def _cells(ids: np.ndarray):
        h = (ids.astype(np.uint64) * _KNUTH) % _MOD
        shard = (h % np.uint64(n_shards)).astype(np.int64)
        hb = (h >> np.uint64(shift)).astype(np.int64)
        return h.astype(np.int64), shard, shard * n_hb + hb

    def cell_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"cell": pa.array(_cells(ids)[2], type=pa.int64())})

    cells = aggregate(ds.map_batches(cell_rows, batch_format="pyarrow"),
                      ["cell"], c=("count", None)).materialize()
    cdf = cells.to_pandas().sort_values("cell", ignore_index=True)
    cell_ids = cdf["cell"].to_numpy().astype(np.int64)
    c = cdf["c"].to_numpy().astype(np.int64)
    start = np.cumsum(c) - c
    shard_of_cell = cell_ids // n_hb
    new_shard = np.ones(len(cdf), dtype=bool)
    if len(cdf) > 1:
        new_shard[1:] = shard_of_cell[1:] != shard_of_cell[:-1]
    # exclusive prefix within shard: global start minus the shard's
    # first cell's global start (propagated by segmented max — start
    # is non-decreasing)
    base = np.maximum.accumulate(
        np.where(new_shard, start, np.int64(np.iinfo(np.int64).min)))
    offsets = start - base
    ref = ray.put((cell_ids, offsets))

    def add_cells(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h, shard, cell = _cells(ids)
        t = t.append_column("__h", pa.array(h, type=pa.int64()))
        t = t.append_column("shard", pa.array(shard, type=pa.int64()))
        return t.append_column("__cell", pa.array(cell, type=pa.int64()))

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        cells_sorted, offs = ray.get(ref)
        g = g.sort_values(["__cell", "__h", id_col],
                          kind="mergesort").copy()
        local = g.groupby("__cell", sort=False).cumcount().to_numpy()
        i = np.searchsorted(cells_sorted,
                            g["__cell"].to_numpy().astype(np.int64))
        g["pos"] = (offs[i] + local).astype(np.int64)
        return g.drop(columns=["__h", "__cell"])

    return partition_fold(ds.map_batches(add_cells, batch_format="pyarrow"),
                          ["__cell"], rank_part, n_parts=n_parts)


def priority_sample_k(ds, id_col: str, weight_col: str, group_col: str,
                      k: int):
    """Deterministic weight-proportional sample of ``k`` rows per group
    (priority sampling, Duffield et al.; the weighted coreset-per-domain
    curation step): row priority = weight · 2^32 / knuth(id), keep each
    group's top ``k`` priorities (ties → id asc). A pure function of
    (id, weight), so the sample is reproducible under any block layout,
    resumable, and auditable in SQL — the priority double is ONE
    division of exact ints (< 2^53 for weights ≤ ~2^21), identical on
    both sides, and the (priority desc, id asc) order is total.

    Rows with knuth(id) = 0 (id = 0 mod 2^32/gcd) get priority +inf in
    exact arithmetic; they are mapped to the max finite priority rank by
    both sides ordering NULL-free doubles — we sidestep it by hashing to
    h + 1 ∈ [1, 2^32]. Scale shape = ``top_k_per_group`` (partial top-k
    per batch, ≤ k rows per (group, batch) shuffle)."""
    from prompture_ray.stages.analytic import top_k_per_group

    def attach(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = ((ids.astype(np.uint64) * _KNUTH) % _MOD).astype(np.int64) \
            + np.int64(1)
        pr = (w * np.int64(2 ** 32)) / h
        return t.append_column("priority",
                               pa.array(pr, type=pa.float64()))

    return top_k_per_group(ds.map_batches(attach,
                                          batch_format="pyarrow"),
                           group_col, "priority", k, tie_col=id_col)
