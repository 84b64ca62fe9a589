"""RAKE keyword scoring over a document corpus (Rose et al. 2010,
"Automatic Keyword Extraction from Individual Documents" — public
algorithm): candidate phrases are the maximal runs of non-stopword
tokens inside a document; each word occurrence contributes 1 to its
corpus frequency and the length of its enclosing phrase to its corpus
degree, and the word's keyword score is ``deg / freq`` (words that
live in long multi-word phrases outrank equally-frequent words that
stand alone).

Reference analogue: the marker-table scoring walk of
prompture/validators/markers.py builds per-term weights from token
statistics; this is the corpus-statistics generalization as a
distributed aggregate.

Exactness: ``freq`` and ``deg`` are pure integer grouped sums and
``score`` is ONE correctly-rounded double division of exact small ints
— bit-identical to a SQL replay (the tf/df precedent), no rounding.

Scale shape: phrase segmentation happens inside ``map_batches``
(flattened-token numpy) and emits one narrow (word, phrase length) row
per token; ONE ``shuffle.aggregate`` folds them (its per-batch combine
shrinks each batch to the Heaps-small lexicon first). Text never
shuffles; no driver state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from prompture_ray.stages.classify import _flat_tokens

DEFAULT_STOPWORDS = ("the", "a", "an", "and", "of", "in", "to", "is")


def rake_word_scores(ds, text_col: str = "text", *,
                     stopwords=DEFAULT_STOPWORDS, min_freq: int = 1,
                     normalize: bool = False):
    """Corpus-level RAKE word table: one row per non-stopword token
    with ``freq`` (occurrences), ``deg`` (Σ enclosing-phrase length
    over occurrences) and ``score = deg / freq``. Words with
    ``freq < min_freq`` are dropped AFTER the global fold (the
    truncation is on exact global counts, not partials)."""
    from prompture_ray.stages.shuffle import aggregate

    stop = np.asarray(sorted(set(stopwords)), dtype=object)
    empty = pa.table({"word": pa.array([], type=pa.string()),
                      "p": pa.array([], type=pa.int64())})

    def phrase_words(t: pa.Table) -> pa.Table:
        # one (word, enclosing-phrase length) row per non-stop token
        _, lens, flat = _flat_tokens(t, text_col, normalize)
        if not len(flat):
            return empty
        # doc id per flattened token + stopword mask
        did = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        is_stop = np.isin(flat, stop)
        # phrase id: increments at every stopword and doc start, so a
        # maximal non-stop run shares one id (stop tokens get their own
        # throwaway ids and are masked out below)
        new_doc = np.empty(len(flat), dtype=bool)
        new_doc[0] = True
        new_doc[1:] = did[1:] != did[:-1]
        pid = np.cumsum(is_stop | new_doc)
        keep = ~is_stop
        if not keep.any():
            return empty
        kpid = pid[keep]
        return pa.table({
            "word": pa.array(flat[keep], type=pa.string()),
            "p": pa.array(np.bincount(kpid)[kpid].astype(np.int64))})

    folded = aggregate(ds.map_batches(phrase_words, batch_format="pyarrow"),
                       ["word"], freq=("count", None), deg=("sum", "p"))

    def finish(t: pa.Table) -> pa.Table:
        f = t["freq"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = f >= int(min_freq)
        return pa.table({
            "word": t["word"].combine_chunks().filter(pa.array(m)),
            "freq": pa.array(f[m]), "deg": pa.array(d[m]),
            "score": pa.array(d[m].astype(np.float64) / f[m])})

    return folded.map_batches(finish, batch_format="pyarrow")
