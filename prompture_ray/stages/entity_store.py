"""Entity store + mention resolution (knowledge-graph surface).

Distributed analog of the reference's ``KnowledgeGraph``/``EntityStore``
(reference prompture/kg/core.py:15-182, stores.py): the entity table is
the SMALL side — built once, broadcast via ``ray.put`` — and mention
resolution is a vectorized per-batch lookup (exact, case-insensitive,
alias-aware name → entity, optional type filter), the same broadcast
pattern as the referential anti-join. Mutations become data-plane
aggregations: ``upsert_entities_from_mentions`` turns the DISTINCT
unresolved mentions of a corpus into new entity rows (groupby first-wins
under canonical order — the distributed form of ``upsert_entity``'s
merge, core.py:79-118).

Relations are a plain (subject_id, predicate, object_id) table;
``neighbors_of`` is a broadcast-filtered projection of it
(core.py neighbors traversal).
"""

from __future__ import annotations

import re
import unicodedata

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def normalize_name(name: str | None) -> str:
    """Case/accent/whitespace-insensitive resolution key
    (reference find_entities' exact-case-insensitive matching)."""
    if not name:
        return ""
    s = unicodedata.normalize("NFKD", name)
    s = "".join(c for c in s if not unicodedata.combining(c))
    return " ".join(s.lower().split())


def make_entity_id(name: str, type: str = "thing") -> str:
    """Deterministic id slug (reference Entity.make_id name+type slug)."""
    slug = _SLUG_RE.sub("-", normalize_name(name)).strip("-")
    return f"{type}:{slug}"


class EntityStore:
    """Driver-built, broadcastable entity lookup.

    ``entities``: DataFrame with columns ``entity_id, name, type`` and
    optionally ``aliases`` (list of strings). Name AND every alias map
    to the entity; on collisions the lexicographically smallest
    entity_id wins (deterministic stand-in for the reference's
    most-recently-updated-wins, core.py:63-72).
    """

    def __init__(self, entities: pd.DataFrame):
        self.entities = entities.reset_index(drop=True)
        lookup: dict[tuple[str, str], str] = {}
        typed: dict[str, str] = {}
        for row in self.entities.sort_values("entity_id").itertuples():
            names = [row.name] + list(getattr(row, "aliases", None) or [])
            for nm in names:
                key = (normalize_name(nm), row.type)
                lookup.setdefault(key, row.entity_id)
        for (nm, typ), eid in lookup.items():
            typed.setdefault(nm, eid)  # untyped resolution: smallest id
        self._by_name_type = lookup
        self._by_name = typed

    def resolve(self, name: str, type: str | None = None) -> str | None:
        """Entity id for a mention, or None (reference resolve,
        core.py:63-72)."""
        key = normalize_name(name)
        if type is not None:
            return self._by_name_type.get((key, type))
        return self._by_name.get(key)

    def to_ref(self):
        import ray
        return ray.put(self)


def build_entity_store(df: pd.DataFrame, name_col: str = "name",
                       type_col: str | None = None,
                       alias_cols: tuple[str, ...] = (),
                       default_type: str = "thing") -> EntityStore:
    """EntityStore from any small dataframe: one entity per row, id from
    the name+type slug, extra columns as aliases."""
    ents = pd.DataFrame({
        "name": df[name_col].astype(str),
        "type": (df[type_col].astype(str) if type_col else default_type),
    })
    ents["entity_id"] = [make_entity_id(n, t)
                         for n, t in zip(ents["name"], ents["type"])]
    ents["aliases"] = [[str(df[c].iloc[i]) for c in alias_cols]
                       for i in range(len(df))]
    return EntityStore(ents)


def resolve_mentions(ds, mention_col: str, store_ref,
                     type: str | None = None,
                     out_col: str = "entity_id"):
    """map_batches stage: mention column → entity_id column (null when
    unresolved). The store ships through the object store ONCE."""

    def fn(t: pa.Table) -> pa.Table:
        import ray
        store = ray.get(store_ref) if not isinstance(store_ref, EntityStore) \
            else store_ref
        arr = t[mention_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        out = [None if v is None else store.resolve(v, type)
               for v in arr.to_pylist()]
        return t.append_column(out_col, pa.array(out, type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def upsert_entities_from_mentions(ds, mention_col: str, store: EntityStore,
                                  type: str = "thing") -> pd.DataFrame:
    """Distributed upsert: DISTINCT unresolved mentions become new entity
    rows (first surface form per normalized name wins under canonical
    sort — the deterministic groupby form of upsert_entity's merge).
    Returns the extended entity dataframe (build a new store from it)."""
    store_ref = store.to_ref()
    # untyped resolution: an existing entity of ANY type counts as
    # resolved (new entities get ``type``)
    resolved = resolve_mentions(ds, mention_col, store_ref, type=None)

    def unresolved(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["entity_id"]))
        arr = t[mention_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.drop_null()
        names = sorted({v for v in arr.to_pylist() if v and v.strip()})
        return pa.table({"name": pa.array(names, type=pa.string())})

    def first_form(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("surface", kind="mergesort").head(1)

    raw = resolved.map_batches(unresolved, batch_format="pyarrow")
    forms = raw.map_batches(
        lambda t: pa.table({
            "norm": pa.array([normalize_name(v)
                              for v in t["name"].to_pylist()]),
            "surface": t["name"]}),
        batch_format="pyarrow")
    new = forms.groupby("norm").map_groups(first_form,
                                           batch_format="pandas").to_pandas()
    new_rows = pd.DataFrame({
        "name": new["surface"],
        "type": type,
        "entity_id": [make_entity_id(n, type) for n in new["surface"]],
        "aliases": [[] for _ in range(len(new))],
    })
    return pd.concat([store.entities, new_rows], ignore_index=True)


def _ids_array(entity_ids):
    """Broadcast-ready sorted array of ids (numeric → searchsorted path
    in the membership filter, else object array for pc.is_in)."""
    import numpy as np
    arr = np.asarray(list(entity_ids))
    if arr.dtype.kind in "iuf":
        return np.sort(arr)
    return np.asarray(sorted(set(arr.tolist())), dtype=object)


def neighbors_of(relations_ds, entity_ids, direction: str = "out",
                 predicate: str | None = None):
    """Relations touching the given entity ids (reference ``neighbors``
    traversal, kg/core.py:183-206): broadcast id array → vectorized
    membership filter over the (subject_id, predicate, object_id) table.
    ``direction``: "out" (subject side), "in" (object side), "both"."""
    import ray
    import pyarrow.compute as pc
    from prompture_ray.stages.dedup import _id_filter_fn
    ids_ref = ray.put(_ids_array(entity_ids))
    cols = {"out": ["subject_id"], "in": ["object_id"],
            "both": ["subject_id", "object_id"]}[direction]

    def fn(t: pa.Table) -> pa.Table:
        mask = None
        for col in cols:
            m = _id_filter_fn(t[col], ids_ref)
            mask = m if mask is None else pc.or_(mask, m)
        if predicate is not None:
            mask = pc.and_(mask, pc.equal(t["predicate"], predicate))
        return t.filter(mask)

    return relations_ds.map_batches(fn, batch_format="pyarrow")


def mentions_of(mentions_ds, entity_ids):
    """Every mention row of the given entities (reference ``mentions``,
    kg/core.py:208-211) — vectorized broadcast-id filter."""
    import ray
    from prompture_ray.stages.dedup import _id_filter_fn
    ids_ref = ray.put(_ids_array(entity_ids))

    def fn(t: pa.Table) -> pa.Table:
        return t.filter(_id_filter_fn(t["entity_id"], ids_ref))

    return mentions_ds.map_batches(fn, batch_format="pyarrow")


def _member_mask(vals: np.ndarray, sset: np.ndarray) -> np.ndarray:
    """vals ∈ sset (sset sorted-unique); searchsorted for numerics,
    np.isin for object/string ids."""
    if len(sset) == 0:
        return np.zeros(len(vals), dtype=bool)
    if sset.dtype.kind in "iuf" and vals.dtype.kind in "iuf":
        i = np.clip(np.searchsorted(sset, vals), 0, len(sset) - 1)
        return sset[i] == vals
    return np.isin(vals, sset)


def _non_null(t: pa.Table, col: str) -> np.ndarray:
    return t[col].drop_null().to_numpy(zero_copy_only=False)


def _semi_join_dst(relations_ds, frontier_ds, src: str, dst: str,
                   n_parts: int, id_type: pa.DataType):
    """Distinct ``dst`` values of edges whose ``src`` is in the frontier
    Dataset — one ``shuffle.cogroup`` of edges and frontier on the
    source id, per-frame vectorized membership, per-frame distinct
    (shrinks the output before the dedup shuffle)."""
    from prompture_ray.stages.shuffle import cogroup
    empty = pa.table({"entity_id": pa.array([], type=id_type)})

    def per_frame(e: pa.Table, f: pa.Table) -> pa.Table:
        front = np.unique(_non_null(f, "entity_id"))
        if len(front) == 0 or e.num_rows == 0:
            return empty
        u = e[src].to_numpy(zero_copy_only=False)
        v = e[dst].to_numpy(zero_copy_only=False)
        return pa.table({"entity_id": pa.array(
            np.unique(v[_member_mask(u, front)]), type=id_type)})

    edges = relations_ds.map_batches(lambda t: t.select([src, dst]),
                                     batch_format="pyarrow")
    return cogroup(edges, frontier_ds, [src], ["entity_id"], per_frame,
                   n_buckets=n_parts)


def _distinct_minus(cand_ds, visited_ds, n_parts: int,
                    id_type: pa.DataType):
    """Globally distinct candidate ids NOT present in the visited
    Dataset — one ``shuffle.cogroup`` on the id, per-frame vectorized
    set difference. Both inputs carry a single ``entity_id`` column."""
    from prompture_ray.stages.shuffle import cogroup

    def per_frame(c: pa.Table, v: pa.Table) -> pa.Table:
        cand = np.unique(_non_null(c, "entity_id"))
        seen = np.unique(_non_null(v, "entity_id"))
        return pa.table({"entity_id": pa.array(
            cand[~_member_mask(cand, seen)], type=id_type)})

    return cogroup(cand_ds, visited_ds, ["entity_id"], ["entity_id"],
                   per_frame, n_buckets=n_parts)


def k_hop_neighbors(relations_ds, seed_ids, k: int = 2,
                    direction: str = "out",
                    broadcast_max: int = 2_000_000, n_parts: int = 64,
                    as_dataset: bool = False):
    """Multi-hop graph traversal: BFS frontier expansion over the
    relations Dataset, ``k`` rounds. Each reached node is reported once,
    at its MINIMUM hop, seeds excluded. Returns a pandas frame
    ``(entity_id, hop)`` — or the (entity_id, hop) Dataset when
    ``as_dataset=True`` (the form to use when the reached set itself is
    large).

    Two execution shapes, size-aware (reference walks,
    kg/core.py:183-235, are driver-side; this adds the scale path):

    - **broadcast** (frontier/visited fit the driver): each hop is one
      distributed membership filter over the edge table (broadcast
      frontier array) + a distinct on the far column — O(reached nodes)
      driver memory, never O(edges).
    - **distributed** (``broadcast_max=0``, or the visited set outgrows
      ``broadcast_max`` mid-traversal — the driver escalates and hands
      its state to Datasets): each hop is two hash shuffles — a
      semi-join of edges × frontier on the source column, then a
      distinct + anti-join against the visited Dataset — the
      label-propagation shape (stages/dedup.components_label_propagation);
      nothing id-set-shaped ever lives on the driver. Driver memory is
      bounded by ``broadcast_max`` ids plus one hop's overshoot.
    """
    import pandas as pd
    import ray.data as rd
    from prompture_ray.stages.shuffle import bound_blocks
    if direction not in ("out", "in"):
        raise ValueError("k_hop_neighbors: direction must be 'out' or 'in'")
    src = "subject_id" if direction == "out" else "object_id"
    dst = "object_id" if direction == "out" else "subject_id"

    seeds = sorted(set(seed_ids))
    visited = set(seeds)
    frontier = set(seeds)
    rows = []
    hop = 1
    hop_datasets = []
    frontier_ds = visited_ds = None

    while hop <= k and frontier and len(visited) <= broadcast_max:
        edges = neighbors_of(relations_ds, frontier, direction=direction)
        nxt = set(edges.unique(dst)) - visited
        rows.extend((i, hop) for i in sorted(nxt))
        visited |= nxt
        frontier = nxt
        hop += 1

    if hop <= k and frontier:
        # escalate: hand the driver's state to Datasets and continue
        # with the two-shuffle hop rounds
        id_type = pa.array(sorted(frontier)).type

        def _ds_of(ids):
            return rd.from_arrow(pa.table({"entity_id": pa.array(
                sorted(ids), type=id_type)})).materialize()
        frontier_ds = _ds_of(frontier)
        visited_ds = _ds_of(visited)
        while hop <= k:
            # materialized: cogroup reads its inputs' schemas, which
            # would otherwise run the semi-join a second time
            cand = _semi_join_dst(relations_ds, frontier_ds, src, dst,
                                  n_parts, id_type).materialize()
            nxt_ds = _distinct_minus(cand, visited_ds, n_parts,
                                     id_type).materialize()
            if nxt_ds.count() == 0:
                break
            h = hop

            def add_hop(t: pa.Table, _h=h) -> pa.Table:
                return t.append_column("hop", pa.array(
                    np.full(t.num_rows, _h, dtype=np.int64)))

            hop_datasets.append(nxt_ds.map_batches(
                add_hop, batch_format="pyarrow").materialize())
            # union adds nxt's blocks EVERY hop — bound the visited
            # table's block count or the anti-join's sort cost grows
            # per hop on slowly-growing rows (components-round lesson)
            visited_ds = bound_blocks(
                visited_ds.union(nxt_ds).materialize()).materialize()
            frontier_ds = nxt_ds
            hop += 1

    head = pd.DataFrame(rows, columns=["entity_id", "hop"])
    if not hop_datasets:
        if as_dataset:
            return rd.from_pandas(head) if len(head) else rd.from_arrow(
                pa.table({"entity_id": pa.array([], type=pa.int64()),
                          "hop": pa.array([], type=pa.int64())}))
        return head
    tail = hop_datasets[0]
    for d in hop_datasets[1:]:
        tail = tail.union(d)
    if as_dataset:
        return tail if head.empty else rd.from_pandas(head).union(tail)
    out = tail.to_pandas() if head.empty else pd.concat(
        [head, tail.to_pandas()], ignore_index=True)
    return out.sort_values(["hop", "entity_id"], ignore_index=True)
