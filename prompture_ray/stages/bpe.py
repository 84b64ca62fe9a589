"""BPE subword tokenizer: distributed training + distributed encoding
(beyond the reference, whose token accounting is whitespace/pre-tokenizer
based — prompture/rag/chunkers/token.py:60-75; cf. Sennrich et al. 2016
"Neural Machine Translation of Rare Words with Subword Units").

Scale architecture (the GPT-2-style split): merge learning never touches
the corpus row-by-row — pass 1 reduces the corpus to a (word, count)
lexicon with ONE narrow groupby shuffle (Heaps' law keeps it small; a
``max_words`` guard documents the driver bound), pass 2 trains merges
driver-side over that compact dict (the standard approach — the
iterative argmax is inherently sequential and its input is the lexicon,
not the corpus), pass 3 broadcasts the merge ranks once via ``ray.put``
and encodes distributed: each batch encodes every DISTINCT word once
(np.unique + inverse indices) so the per-word merge loop runs on the
lexicon-sized set, never per token occurrence.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

END_OF_WORD = "</w>"


# ------------------------------------------------------------------ train

def train_bpe_from_counts(words, counts, n_merges: int,
                          end_of_word: str = END_OF_WORD):
    """Classic BPE merge learning over a (word, count) dict. Ties break
    deterministically: highest pair count, then lexicographically
    smallest pair. Returns the ordered merge list
    ``[(left, right), ...]``."""
    from collections import Counter
    syms = {w: tuple(w) + (end_of_word,) for w in words}
    cnt = {w: int(c) for w, c in zip(words, counts)}
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pairs: Counter = Counter()
        for w, s in syms.items():
            c = cnt[w]
            for a, b in zip(s, s[1:]):
                pairs[(a, b)] += c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        for w, s in syms.items():
            if best[0] not in s:
                continue
            out, i = [], 0
            while i < len(s):
                if (i + 1 < len(s) and s[i] == best[0]
                        and s[i + 1] == best[1]):
                    out.append(merged)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[w] = tuple(out)
    return merges


def bpe_word_counts(ds, text_col: str, normalize: bool = False,
                    max_words: int = 20_000_000, min_count: int = 1):
    """Distributed (word, count) lexicon: ONE ``shuffle.aggregate``
    count of the word rows → driver collect, unordered (the
    lexicon IS the training input; ``max_words`` documents the driver
    bound — raise it only with matching driver memory).

    Measured growth on the synth webpages corpus (round 5): 89,407
    distinct words at 90k docs → 891,207 at 900k (~0.99 new words/doc —
    the synth texts embed unique url/id tokens, an adversarial i.e.
    WORST case vs real web text's sublinear Heaps growth; ~15 B/word →
    1.3 MB and 13.4 MB lexicons). Linear extrapolation meets the
    default ``max_words`` near 20M docs, so at larger corpora either
    raise ``max_words`` with matching driver memory or set
    ``min_count`` > 1: a DISTRIBUTED count filter applied after the
    grouped Sum and BEFORE the driver collect. Frequency-truncating the
    training lexicon is the standard BPE practice (hapax words cannot
    win a merge round against repeated pairs until vocab is nearly
    exhausted); on the corpus above ``min_count=2`` collects 363 words
    instead of 891,207 (the growth IS the hapax url/id tokens)."""
    from prompture_ray.functions.textfuncs import normalize_strings
    from prompture_ray.stages.shuffle import aggregate

    def words(t: pa.Table) -> pa.Table:
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if normalize:
            arr = normalize_strings(arr)
        arr = pc.fill_null(arr, "")
        arr = arr.filter(pc.greater(pc.utf8_length(arr), 0))
        return pa.table({"word": pc.list_flatten(
            pc.utf8_split_whitespace(arr)).cast(pa.string())})

    agg = aggregate(ds.map_batches(words, batch_format="pyarrow"),
                    ["word"], cnt=("count", None))
    if min_count > 1:
        agg = agg.map_batches(
            lambda t: t.filter(pc.greater_equal(
                t["cnt"], pa.scalar(int(min_count), pa.int64()))),
            batch_format="pyarrow")
    agg = agg.materialize()
    n = agg.count()
    if n > max_words:
        raise ValueError(
            f"lexicon has {n} words > max_words={max_words}; "
            "raise max_words (driver-side training input bound)")
    ws, cs = [], []
    for t in agg.iter_batches(batch_format="pyarrow"):
        ws.append(np.asarray(t["word"].to_pylist(), dtype=object))
        cs.append(t["cnt"].to_numpy(zero_copy_only=False))
    words = np.concatenate(ws) if ws else np.empty(0, dtype=object)
    counts = np.concatenate(cs) if cs else np.empty(0, dtype=np.int64)
    return words, counts


def train_bpe(ds, text_col: str, n_merges: int, normalize: bool = False,
              max_words: int = 20_000_000, min_count: int = 1):
    """Distributed lexicon → driver merge learning. Returns the merge
    list. ``min_count`` > 1 frequency-truncates the lexicon BEFORE the
    driver collect (see ``bpe_word_counts`` for the measured bound)."""
    words, counts = bpe_word_counts(ds, text_col, normalize, max_words,
                                    min_count)
    return train_bpe_from_counts(words, counts, n_merges)


# ----------------------------------------------------------------- encode

def bpe_segment(word: str, ranks: dict, cache: dict,
                end_of_word: str = END_OF_WORD):
    """Segment one word under merge ``ranks`` (pair -> priority), with
    memoization. Standard greedy lowest-rank-first merging."""
    got = cache.get(word)
    if got is not None:
        return got
    s = list(word) + [end_of_word]
    while len(s) > 1:
        best_rank, best_i = None, -1
        for i in range(len(s) - 1):
            r = ranks.get((s[i], s[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_i < 0:
            break
        s[best_i:best_i + 2] = [s[best_i] + s[best_i + 1]]
    out = tuple(s)
    cache[word] = out
    return out


def bpe_encode_counts(ds, text_col: str, id_col: str, merges,
                      normalize: bool = False):
    """Distributed encode: per doc, the whitespace word count and the
    BPE token count under ``merges``. The merge table is broadcast once
    (``ray.put``); each batch segments only its DISTINCT words
    (np.unique + inverse) with a per-task memo cache — the per-word
    Python merge loop runs on lexicon-sized input, never per
    occurrence. Returns ``(id, n_words, n_bpe_tokens)``."""
    import ray
    from prompture_ray.functions.textfuncs import normalize_strings

    ranks_ref = ray.put({tuple(m): i for i, m in enumerate(merges)})

    class Encoder:
        def __init__(self):
            self.ranks = None
            self.cache: dict = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            if self.ranks is None:
                self.ranks = ray.get(ranks_ref)
            arr = t[text_col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if normalize:
                arr = normalize_strings(arr)
            arr = pc.fill_null(arr, "")
            ne = pc.greater(pc.utf8_length(arr), 0)
            t = t.filter(ne)
            arr = arr.filter(ne)
            ids = t[id_col].combine_chunks().cast(pa.int64())
            toks = pc.utf8_split_whitespace(arr)
            lens = pc.list_value_length(toks).to_numpy(
                zero_copy_only=False).astype(np.int64)
            flat = np.asarray(pc.list_flatten(toks).to_pylist(),
                              dtype=object)
            if len(flat):
                uniq, inv = np.unique(flat, return_inverse=True)
                per_uniq = np.fromiter(
                    (len(bpe_segment(w, self.ranks, self.cache))
                     for w in uniq),
                    dtype=np.int64, count=len(uniq))
                per_tok = per_uniq[inv]
                doc_idx = np.repeat(np.arange(len(lens)), lens)
                n_bpe = np.bincount(doc_idx, weights=per_tok,
                                    minlength=len(lens)).astype(np.int64)
            else:
                n_bpe = np.zeros(len(lens), dtype=np.int64)
            return pa.table({
                "id": ids,
                "n_words": pa.array(lens, type=pa.int64()),
                "n_bpe_tokens": pa.array(n_bpe, type=pa.int64())})

    # callable INSTANCE -> task pool (CLAUDE.md: lets Ray fuse stages);
    # the memo cache lives per task worker process anyway
    return ds.map_batches(Encoder(), batch_format="pyarrow")
