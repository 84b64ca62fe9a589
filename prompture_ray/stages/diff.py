"""Corpus snapshot diff — the dataset-versioning audit between two
crawls/releases (which documents were added, removed, changed, or
kept byte-identical; beyond the reference, which validates a single
snapshot).

Scale shape: both sides are tagged and unioned, then ONE grouped
aggregate by id folds each side's presence flag and content hash
(Min-folded — ids are unique per side, so Min is the identity on the
present side and the +inf sentinel marks absence). No join, no
driver state; the id space never materializes outside the grouped
shuffle.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_ABSENT = np.iinfo(np.int64).max


def corpus_diff(ds_old, ds_new, id_col: str, content_col: str,
                normalize: bool = False):
    """Per-id rows ``(id, status)`` with status ∈ {'added',
    'removed', 'changed', 'same'}. Content equality is 64-bit content
    hash (``sketches.hash64``) over ``content_col`` (optionally
    normalized like exact dedup)."""
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.shuffle import aggregate

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            from prompture_ray.functions.textfuncs import \
                normalize_strings
            import pyarrow.compute as pc
            ids = t[id_col].combine_chunks().cast(pa.int64())
            arr = t[content_col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if normalize:
                arr = normalize_strings(arr)
            arr = pc.fill_null(arr, "")
            h = hash64(np.asarray(arr.to_pylist(), dtype=object)) \
                .view(np.int64)
            # clear the sentinel collision (2^-63 per row) by mapping
            # MAX → MAX-1: status stays hash-equality-correct
            h = np.where(h == _ABSENT, _ABSENT - 1, h)
            absent = np.full(len(h), _ABSENT, dtype=np.int64)
            return pa.table({
                "id": ids,
                "h_old": pa.array(h if side == "old" else absent),
                "h_new": pa.array(h if side == "new" else absent)})
        return fn

    import pyarrow.compute as pc  # noqa: F401  (used in tag closures)
    both = ds_old.map_batches(tag("old"), batch_format="pyarrow") \
        .union(ds_new.map_batches(tag("new"), batch_format="pyarrow"))
    agg = aggregate(both, ["id"], h_old=("min", "h_old"),
                    h_new=("min", "h_new"))

    def status(t: pa.Table) -> pa.Table:
        ho = t["h_old"].to_numpy(zero_copy_only=False)
        hn = t["h_new"].to_numpy(zero_copy_only=False)
        st = np.where(ho == _ABSENT, "added",
                      np.where(hn == _ABSENT, "removed",
                               np.where(ho == hn, "same", "changed")))
        return pa.table({"id": t["id"].combine_chunks().cast(pa.int64()),
                         "status": pa.array(st.astype(object),
                                            type=pa.string())})

    return agg.map_batches(status, batch_format="pyarrow")
