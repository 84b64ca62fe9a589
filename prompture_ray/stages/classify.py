"""Distributed multinomial Naive Bayes: corpus-scale training of a
text classifier (the fastText-style quality/domain filter slot in
crawl pipelines — e.g. the GPT-3/CCNet quality-classifier step; beyond
the reference, which has no trainable component).

Scale shape: training reduces the corpus to per-(label, token) counts
with ONE narrow groupby shuffle (the lexicon x classes table — Heaps'
law keeps it small; ``max_vocab`` documents the driver bound). The
model is broadcast once via ``ray.put``; inference is a pure
map_batches — flat token hashes -> searchsorted vocab lookup ->
per-class bincount log-prob sums -> argmax, no per-row Python."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64
from prompture_ray.stages.shuffle import aggregate


def _flat_tokens(t: pa.Table, text_col: str, normalize: bool):
    from prompture_ray.functions.textfuncs import normalize_strings
    arr = t[text_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if normalize:
        arr = normalize_strings(arr)
    arr = pc.fill_null(arr, "")
    ne = pc.greater(pc.utf8_length(arr), 0)
    t = t.filter(ne)
    arr = arr.filter(ne)
    toks = pc.utf8_split_whitespace(arr)
    lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
    return t, lens, flat


def nb_train_counts(ds, text_col: str, label_col: str,
                    normalize: bool = False):
    """Distributed (label, token, cnt) + per-label doc counts: one
    grouped shuffle (``shuffle.aggregate``, unordered). Returns the
    counts as a Dataset (oracle-checkable with a SQL GROUP BY)."""

    def label_tokens(t: pa.Table) -> pa.Table:
        t, lens, flat = _flat_tokens(t, text_col, normalize)
        labels = np.asarray(t[label_col].to_pylist(), dtype=object)
        return pa.table({
            "label": pa.array(np.repeat(labels, lens), type=pa.string()),
            "token": pa.array(flat, type=pa.string())})

    return aggregate(ds.map_batches(label_tokens, batch_format="pyarrow"),
                     ["label", "token"], cnt=("count", None))


def train_nb(ds, text_col: str, label_col: str, alpha: float = 1.0,
             normalize: bool = False, max_vocab: int = 20_000_000):
    """Train the model: distributed counts -> driver arrays (sorted
    token-hash vocab + per-class log-prob tables). Returns a plain dict
    ready for ``ray.put``."""
    counts = nb_train_counts(ds, text_col, label_col, normalize) \
        .materialize()
    if counts.count() > max_vocab:
        raise ValueError("vocab x classes exceeds max_vocab "
                         f"({max_vocab}) — driver model bound")
    labs, toks, cnts = [], [], []
    for t in counts.iter_batches(batch_format="pyarrow"):
        labs.append(np.asarray(t["label"].to_pylist(), dtype=object))
        toks.append(np.asarray(t["token"].to_pylist(), dtype=object))
        cnts.append(t["cnt"].to_numpy(zero_copy_only=False))
    lab = np.concatenate(labs) if labs else np.empty(0, dtype=object)
    tok = np.concatenate(toks) if toks else np.empty(0, dtype=object)
    cnt = np.concatenate(cnts) if cnts else np.empty(0, dtype=np.int64)

    classes = np.unique(lab.astype(str))
    th = hash64(tok).view(np.int64)
    vocab = np.unique(th)
    V = len(vocab)
    mat = np.zeros((len(classes), V), dtype=np.int64)
    ci = np.searchsorted(classes, lab.astype(str))
    vi = np.searchsorted(vocab, th)
    np.add.at(mat, (ci, vi), cnt)
    totals = mat.sum(axis=1)

    # per-label doc counts for the prior (distributed count)
    def doc_label(t: pa.Table) -> pa.Table:
        return pa.table({"label": pa.array(np.asarray(
            t[label_col].to_pylist(), dtype=object).astype(str),
            type=pa.string())})

    docs = aggregate(ds.map_batches(doc_label, batch_format="pyarrow"),
                     ["label"], n=("count", None))
    dl, dn = [], []
    for t in docs.iter_batches(batch_format="pyarrow"):
        dl.append(np.asarray(t["label"].to_pylist(), dtype=object))
        dn.append(t["n"].to_numpy(zero_copy_only=False))
    dlab = np.concatenate(dl).astype(str) if dl else classes
    dcnt = np.concatenate(dn) if dn else np.ones(len(classes), np.int64)
    prior_n = np.zeros(len(classes), dtype=np.int64)
    prior_n[np.searchsorted(classes, dlab)] = dcnt

    denom = totals[:, None] + alpha * V
    return {
        "classes": classes,
        "vocab": vocab,                      # sorted token hashes
        "log_prob": np.log((mat + alpha) / denom),
        "log_oov": np.log(alpha / denom[:, 0]),
        "log_prior": np.log(prior_n / prior_n.sum()),
    }


def nb_classify(ds, text_col: str, id_col: str, model,
                normalize: bool = False):
    """Broadcast inference: ``(id, pred)`` per doc with nonempty text.
    The model ships once (``ray.put``); scoring is searchsorted +
    per-class bincount — vectorized over the flat token stream."""
    import ray
    model_ref = model if isinstance(model, ray.ObjectRef) \
        else ray.put(model)

    def score(t: pa.Table) -> pa.Table:
        m = ray.get(model_ref)
        t, lens, flat = _flat_tokens(t, text_col, normalize)
        ids = t[id_col].combine_chunks().cast(pa.int64())
        n_docs, C = len(lens), len(m["classes"])
        scores = np.tile(m["log_prior"], (n_docs, 1))
        if len(flat):
            th = hash64(flat).view(np.int64)
            idx = np.searchsorted(m["vocab"], th)
            idx_c = np.clip(idx, 0, max(len(m["vocab"]) - 1, 0))
            known = (len(m["vocab"]) > 0) & (m["vocab"][idx_c] == th)
            doc_idx = np.repeat(np.arange(n_docs), lens)
            for c in range(C):
                lp = np.where(known, m["log_prob"][c][idx_c],
                              m["log_oov"][c])
                scores[:, c] += np.bincount(doc_idx, weights=lp,
                                            minlength=n_docs)
        pred = m["classes"][np.argmax(scores, axis=1)]
        return pa.table({"id": ids,
                         "pred": pa.array(pred, type=pa.string())})

    return ds.map_batches(score, batch_format="pyarrow")
