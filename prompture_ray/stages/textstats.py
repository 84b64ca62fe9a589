"""Text analysis stages: language ID, quality scoring, token counting,
document fingerprinting — the large-scale training-data-pipeline operators
(build brief), expressed as vectorized map_batches kernels.

Reference anchors: the quality-filter predicate chain
(prompture/dataset/filters.py:85-164 — length/shape/refusal reasons), the
n-gram embedder (prompture/extraction/few_shot.py:52-75) whose
char-trigram hashing seeds the language-ID profiles, and the BM25
tokenizer (prompture/rag/retrievers/hybrid.py:12-19).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.functions.sketches import hash64

# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------
_BPE_ISH = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

# GPT-2 pre-tokenizer pattern, RE2-compatible form: the published pattern
# minus the `\s+(?!\S)` lookahead (RE2 has no lookahead; trailing
# whitespace folds into the final \s+ alternative instead). RE2 is the
# regex engine on BOTH sides (pyarrow and DuckDB), so engine and oracle
# token counts agree exactly, unicode included. tiktoken itself is not in
# this environment — this is the standard public approximation of its
# GPT-2 split stage (merges would only LOWER counts).
GPT2_SPLIT_RE = (r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+|"
                 r" ?[^\s\p{L}\p{N}]+|\s+")


def add_token_counts(ds, text_col: str = "text"):
    """Whitespace tokens + a BPE-ish regex token count, vectorized."""

    def fn(t: pa.Table) -> pa.Table:
        ws = pc.count_substring_regex(t[text_col], r"\S+")
        bpe = pc.count_substring_regex(t[text_col], _BPE_ISH)
        t = t.append_column("n_ws_tokens", pc.cast(ws, pa.int64()))
        return t.append_column("n_bpe_tokens", pc.cast(bpe, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def add_gpt2_token_counts(ds, text_col: str = "text",
                          out_col: str = "n_gpt2_tokens"):
    """LLM-budget token estimate: one vectorized RE2 pass with the GPT-2
    pre-tokenizer split pattern (the reference TokenChunker's budget
    unit, rag/chunkers/token.py — tiktoken-free approximation)."""

    def fn(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t[text_col], GPT2_SPLIT_RE)
        return t.append_column(out_col, pc.cast(n, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# quality scoring
# ---------------------------------------------------------------------------
STOPWORDS_EN = {"the", "and", "of", "a", "to", "in", "is", "it", "that",
                "for", "on", "was", "with", "as", "be", "this", "are"}


def quality_features(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / stopword / digit ratios per doc — the
    vectorized descendant of the reference's shape+length filters."""
    col = t[text_col]
    n_chars = pc.cast(pc.utf8_length(col), pa.int64())
    n_words = pc.cast(pc.count_substring_regex(col, r"\S+"), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(col, r"[^\w\s]"), pa.int64())
    n_digit = pc.cast(pc.count_substring_regex(col, r"[0-9]"), pa.int64())
    n_upper = pc.cast(pc.count_substring_regex(col, r"[A-Z]"), pa.int64())
    n_stop = pc.cast(pc.count_substring_regex(
        pc.utf8_lower(col),
        r"\b(?:" + "|".join(sorted(STOPWORDS_EN)) + r")\b"), pa.int64())
    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1, type=pa.int64()))
    safe_words = pc.max_element_wise(n_words, pa.scalar(1, type=pa.int64()))
    out = t.append_column("n_chars_q", n_chars)
    out = out.append_column("n_words_q", n_words)
    out = out.append_column("punct_ratio", pc.divide(
        pc.cast(n_punct, pa.float64()), pc.cast(safe_chars, pa.float64())))
    out = out.append_column("digit_ratio", pc.divide(
        pc.cast(n_digit, pa.float64()), pc.cast(safe_chars, pa.float64())))
    out = out.append_column("upper_ratio", pc.divide(
        pc.cast(n_upper, pa.float64()), pc.cast(safe_chars, pa.float64())))
    out = out.append_column("stopword_ratio", pc.divide(
        pc.cast(n_stop, pa.float64()), pc.cast(safe_words, pa.float64())))
    out = out.append_column("mean_word_len", pc.divide(
        pc.cast(n_chars, pa.float64()), pc.cast(safe_words, pa.float64())))
    return out


def add_quality_score(ds, text_col: str = "text",
                      min_words: int = 5, max_punct_ratio: float = 0.3):
    """Composite 0..1 quality score + first-failure drop reason column
    (QualityFilter.evaluate semantics, filters.py:229-255)."""

    def fn(t: pa.Table) -> pa.Table:
        t = quality_features(t, text_col)
        words = t["n_words_q"]
        punct = t["punct_ratio"]
        stop = t["stopword_ratio"]
        score = pc.multiply(
            pc.min_element_wise(
                pc.divide(pc.cast(words, pa.float64()), pa.scalar(50.0)),
                pa.scalar(1.0)),
            pc.subtract(pa.scalar(1.0),
                        pc.min_element_wise(punct, pa.scalar(1.0))))
        t = t.append_column("quality_score", score)
        short = pc.less(words, pa.scalar(min_words, type=pa.int64()))
        punchy = pc.greater(punct, pa.scalar(max_punct_ratio))
        reason = pc.if_else(
            short, pa.scalar("drop:short_text", type=pa.string()),
            pc.if_else(punchy, pa.scalar("drop:punct_heavy", type=pa.string()),
                       pa.scalar(None, type=pa.string())))
        t = t.append_column("drop_reason", reason)
        return t.append_column("keep", pc.is_null(reason))

    return ds.map_batches(fn, batch_format="pyarrow")


def filter_stats(ds_with_reasons) -> dict:
    """``dropped_by_reason`` rollup (FilterStats.to_dict shape,
    reference filters.py:185-192) via one ``shuffle.aggregate`` row
    count per reason; the null reason (kept rows) is its own group."""
    from prompture_ray.stages.shuffle import aggregate

    agg = aggregate(ds_with_reasons, ["drop_reason"], n=("count", None)) \
        .to_pandas()
    d = {r: int(n) for r, n in zip(agg.get("drop_reason", ()),
                                   agg.get("n", ())) if isinstance(r, str)}
    total_in = int(agg["n"].sum()) if len(agg) else 0
    dropped = sum(d.values())
    return {"total_in": int(total_in), "total_out": int(total_in - dropped),
            "dropped_by_reason": {k: int(v) for k, v in sorted(d.items())},
            "drop_rate": round(dropped / total_in, 6) if total_in else 0.0}


# ---------------------------------------------------------------------------
# language identification (n-gram heuristic)
# ---------------------------------------------------------------------------
LANG_MARKERS = {
    "en": ["the", "and", "of", "is", "that", "with", "for", "this"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "mit", "ein"],
    "fr": ["le", "la", "les", "est", "une", "dans", "pour", "que"],
    "es": ["el", "la", "los", "es", "una", "por", "para", "del"],
    "it": ["il", "la", "che", "di", "una", "per", "sono", "con"],
    "pt": ["o", "a", "os", "de", "uma", "para", "com", "não"],
    "nl": ["de", "het", "een", "van", "en", "niet", "met", "zijn"],
}


class LangIdStage:
    """Actor-pool language-ID stage: stopword-profile scoring per language,
    compiled once per actor in ``__init__`` (n-gram heuristic — no external
    model; the char-trigram fallback mirrors the reference's _NgramEmbedder
    hashing, few_shot.py:52-75)."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        import re
        self.text_col = text_col
        self.out_col = out_col
        self.patterns = {
            lang: re.compile(r"\b(?:" + "|".join(words) + r")\b")
            for lang, words in LANG_MARKERS.items()
        }

    @staticmethod
    def _script_lang(txt: str) -> tuple[str | None, float]:
        """Unicode-script shortcut for non-Latin languages: when a large
        share of letters is CJK/kana/cyrillic/greek the stopword profiles
        are useless — classify by script instead."""
        n = len(txt)
        if n == 0:
            return None, 0.0
        cjk = kana = cyr = 0
        for ch in txt[:512]:
            o = ord(ch)
            if 0x4E00 <= o <= 0x9FFF:
                cjk += 1
            elif 0x3040 <= o <= 0x30FF:
                kana += 1
            elif 0x0400 <= o <= 0x04FF:
                cyr += 1
        base = min(n, 512)
        if kana / base > 0.1:
            return "ja", round(kana / base, 6)
        if cjk / base > 0.3:
            return "zh", round(cjk / base, 6)
        if cyr / base > 0.3:
            return "ru", round(cyr / base, 6)
        return None, 0.0

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(t[self.text_col]).to_pylist()
        langs, confs = [], []
        for txt in texts:
            if not txt:
                langs.append(None)
                confs.append(0.0)
                continue
            script_lang, script_conf = self._script_lang(txt)
            if script_lang:
                langs.append(script_lang)
                confs.append(script_conf)
                continue
            n_words = max(1, len(txt.split()))
            scores = {lang: len(p.findall(txt)) / n_words
                      for lang, p in self.patterns.items()}
            best = max(scores, key=lambda k: (scores[k], k))
            langs.append(best if scores[best] > 0 else "und")
            confs.append(round(scores[best], 6))
        t = t.append_column(self.out_col, pa.array(langs, type=pa.string()))
        return t.append_column("lang_conf", pa.array(confs, type=pa.float64()))


# ---------------------------------------------------------------------------
# document fingerprinting (rolling hash / winnowing)
# ---------------------------------------------------------------------------
def fingerprint_docs(ds, text_col: str = "text", id_col: str = "doc_id",
                     window: int = 8, n_keep: int = 4):
    """Winnowing-style fingerprint: rolling token-window hashes → keep the
    ``n_keep`` smallest → hex digest column. Deterministic; near-identical
    docs share fingerprints."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        fps = []
        for txt in texts:
            toks = txt.split() if txt else []
            if len(toks) < window:
                grams = [" ".join(toks)] if toks else []
            else:
                grams = [" ".join(toks[i:i + window])
                         for i in range(len(toks) - window + 1)]
            if not grams:
                fps.append(None)
                continue
            h = np.sort(hash64(np.asarray(grams, dtype=object)))[:n_keep]
            fps.append("".join(f"{int(x):016x}" for x in h))
        return t.select([id_col]).append_column(
            "fingerprint", pa.array(fps, type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_signals(ds, text_col: str = "text", id_col: str = "doc_id",
                       top_n: int = 2, dup_n: int = 5):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1,
    public; the reference has no equivalent — this is a beyond-reference
    web-scale filter): per doc,

    - ``top_frac``  — chars covered by the best repeated ``top_n``-gram,
      max over grams of count(g)·charlen(g), over the doc's char total
      (charlen counts the joining spaces; ties resolve by the max of the
      product, so the signal is deterministic and SQL-expressible);
    - ``dup_frac``  — fraction of ``dup_n``-gram POSITIONS whose gram
      occurs more than once in the doc.

    Vectorized per batch: one flattened token array + doc offsets, a
    rolling 64-bit hash for gram identity, ONE pandas groupby pass per
    signal — no per-doc Python loop. Embarrassingly parallel (no
    shuffle). Docs with fewer than ``dup_n`` tokens are dropped (both
    signals undefined). Both output fractions are single divisions of
    exact small ints → bit-identical to an integer-exact SQL oracle.
    """
    import pandas as pd

    if top_n > dup_n:
        raise ValueError("top_n must be <= dup_n (docs are filtered to "
                         ">= dup_n tokens)")
    P = np.uint64(0x9E3779B97F4A7C15)        # golden-ratio odd multiplier

    def gram_hash(th: np.ndarray, n: int, valid_len: int) -> np.ndarray:
        g = th[:valid_len].copy()
        for j in range(1, n):
            g = g * P + th[j:valid_len + j]
        return g

    def fn(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "id": pa.array([], type=pa.int64()),
            "top_frac": pa.array([], type=pa.float64()),
            "dup_frac": pa.array([], type=pa.float64()),
        })
        if t.num_rows == 0:
            return empty
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        toks = pc.utf8_split_whitespace(arr)
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = lens >= dup_n
        if not keep.any():
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        tok_len = pc.utf8_length(flat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        th = hash64(np.asarray(flat.to_pylist(), dtype=object))
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        doc_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos_in_doc = np.arange(len(flat)) - doc_start[doc_idx]

        def positions(n):
            m = (pos_in_doc <= lens[doc_idx] - n) & keep[doc_idx]
            return np.nonzero(m)[0]

        # top_n-grams: per (doc, gram) count and char length, then the
        # per-doc max of count * charlen
        i_top = positions(top_n)
        g_top = gram_hash(th, top_n, len(th) - top_n + 1)[i_top] \
            if len(i_top) else np.empty(0, dtype=np.uint64)
        clen = np.zeros(len(i_top), dtype=np.int64) + (top_n - 1)
        for j in range(top_n):
            clen += tok_len[i_top + j]
        df = pd.DataFrame({"d": doc_idx[i_top], "g": g_top, "L": clen})
        per_gram = df.groupby(["d", "g"], sort=False).agg(
            c=("L", "size"), L=("L", "first")).reset_index()
        per_gram["prod"] = per_gram["c"] * per_gram["L"]
        best = per_gram.groupby("d", sort=False)["prod"].max()

        # dup_n-grams: fraction of positions whose gram repeats
        i_dup = positions(dup_n)
        g_dup = gram_hash(th, dup_n, len(th) - dup_n + 1)[i_dup]
        dd = pd.DataFrame({"d": doc_idx[i_dup], "g": g_dup})
        cnt = dd.groupby(["d", "g"], sort=False)["g"].transform("size")
        dd["dup"] = (cnt > 1).astype(np.int64)
        dupagg = dd.groupby("d", sort=False)["dup"].agg(["sum", "size"])

        docs = np.nonzero(keep)[0]
        # total chars of " ".join(tokens): token chars + joining spaces
        tc = pd.Series(tok_len).groupby(doc_idx).sum()
        total_chars = tc.loc[docs].to_numpy() + lens[docs] - 1

        best_v = best.reindex(docs).to_numpy()
        dup_sum = dupagg["sum"].reindex(docs).to_numpy()
        dup_tot = dupagg["size"].reindex(docs).to_numpy()
        return pa.table({
            "id": pa.array(ids[docs], type=pa.int64()),
            "top_frac": pa.array(best_v / total_chars,
                                 type=pa.float64()),
            "dup_frac": pa.array(dup_sum / dup_tot, type=pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def corpus_frequency_score(ds, text_col: str = "text",
                           id_col: str = "doc_id", n_buckets: int = 32,
                           broadcast_max: int = 20_000_000):
    """CCNet-style rarity scoring with integer-exact semantics (beyond
    reference; cf. Wenzek et al. 2020 — CCNet ranks docs by LM
    perplexity; this is the distributed-lexicon analogue that stays
    bit-exact against a SQL oracle): per doc, the mean corpus frequency
    of its tokens,

        score = sum_i count(tok_i) / (n_tokens(doc) * N_corpus_tokens)

    — a single division of exact integers, so engine and oracle doubles
    are bit-identical with no rounding.

    Shape: token rows (id, hash64(token)) → lexicon = grouped counts
    (one narrow ``shuffle.aggregate`` of 8-byte hashes).
    ``shuffle.lookup`` attaches each token's corpus count — broadcast up
    to ``broadcast_max`` lexicon entries (Heaps' law keeps the
    unique-token count far below the corpus token count), hash buckets
    beyond (the 100-TB path) — and one more ``shuffle.aggregate`` sums
    them per doc. Nothing corpus-sized on the driver; N_corpus is the
    only driver scalar.
    """
    import pandas as pd
    from prompture_ray.stages.dedup import _token_ngram_rows
    from prompture_ray.stages.shuffle import aggregate, lookup

    toks = _token_ngram_rows(ds, text_col, id_col, n=1,
                             normalize=False).materialize()
    n_corpus = toks.count()
    lexicon = aggregate(toks, ["gram"],
                        tok_count=("count", None)).materialize()

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["count_sum"] = b["count_sum"].astype(np.int64)
        b["n_tokens"] = b["n_tokens"].astype(np.int64)
        b["score"] = b["count_sum"] / (b["n_tokens"] * n_corpus)
        return b[["id", "count_sum", "n_tokens", "score"]]

    # every token is in the lexicon by construction
    per_doc = aggregate(
        lookup(toks, lexicon, ["gram"], ["tok_count"],
               broadcast_max=broadcast_max, n_buckets=n_buckets),
        ["id"], count_sum=("sum", "tok_count"), n_tokens=("count", None))
    return per_doc.map_batches(finish, batch_format="pandas")


def badword_flags(ds, text_col: str, words, max_hits: int = 0,
                  lowercase: bool = True, out_prefix: str = ""):
    """C4-style blocklist filter (Raffel et al. 2020 §2.2 'bad words'
    line; beyond the reference's marker scanner, which scores phrase
    positions — this one counts exact token hits): per row appends
    ``<prefix>n_hits`` (blocklisted-token occurrences, whitespace
    tokens) and ``<prefix>keep`` (hits <= max_hits).

    Shape: the word list ships inside the task closure as a SORTED
    hash array (tiny — blocklists are thousands of words); the kernel
    is flat-token hash64 → searchsorted membership → one bincount per
    batch. No per-row Python, nothing shuffled."""
    from prompture_ray.functions.sketches import hash64
    from prompture_ray.stages.classify import _flat_tokens

    w = np.asarray([str(x).lower() if lowercase else str(x)
                    for x in words], dtype=object)
    wh = np.sort(hash64(w).view(np.int64)) if len(w) \
        else np.empty(0, np.int64)

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        hits = np.zeros(n, dtype=np.int64)
        if n and len(wh):
            ft, lens, flat = _flat_tokens(t, text_col, False)
            if len(flat):
                if lowercase:
                    flat = np.asarray([s.lower() for s in flat],
                                      dtype=object)
                th = hash64(flat).view(np.int64)
                idx = np.clip(np.searchsorted(wh, th), 0, len(wh) - 1)
                hit = wh[idx] == th
                # map the filtered sub-table's rows back to t's rows
                arr = t[text_col]
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                ne = pc.greater(pc.utf8_length(pc.fill_null(arr, "")), 0) \
                    .to_numpy(zero_copy_only=False)
                rows = np.nonzero(ne)[0]
                doc_idx = np.repeat(rows, lens)
                hits = np.bincount(doc_idx[hit], minlength=n) \
                    .astype(np.int64)
        return t.append_column(out_prefix + "n_hits", pa.array(hits)) \
                .append_column(out_prefix + "keep",
                               pa.array(hits <= max_hits))

    return ds.map_batches(fn, batch_format="pyarrow")


def compression_signals(ds, text_col: str = "text", level: int = 6):
    """Per-doc zlib compression signal — the classic cheap quality /
    repetitiveness heuristic for web text (boilerplate and keyword-stuffed
    pages compress far below prose; near-random strings compress above
    1.0). Appends ``orig_len`` (utf-8 bytes), ``comp_len`` (zlib bytes at
    ``level``) and ``comp_ratio`` = comp/orig (ONE exact-int division;
    NaN for empty text). Complements the LM-perplexity bucket
    (stages/lm.py) the way CCNet pairs both signals.

    The compress call is per-row by nature (zlib is a stream codec), but
    it is one C call per doc with no Python-object churn — the same cost
    class as the media codecs."""
    import zlib

    def fn(t: pa.Table) -> pa.Table:
        arr = t[text_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        texts = pc.fill_null(arr, "").to_pylist()
        orig = np.fromiter((len(s.encode("utf-8")) for s in texts),
                           dtype=np.int64, count=len(texts))
        comp = np.fromiter(
            (len(zlib.compress(s.encode("utf-8"), level)) for s in texts),
            dtype=np.int64, count=len(texts))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(orig > 0, comp / np.maximum(orig, 1), np.nan)
        return t.append_column("orig_len", pa.array(orig)) \
                .append_column("comp_len", pa.array(comp)) \
                .append_column("comp_ratio",
                               pa.array(ratio, type=pa.float64()))

    return ds.map_batches(fn, batch_format="pyarrow")
