"""Distributed classifier-evaluation metrics over scored corpora —
the audit tail of every quality-filter / contamination-classifier
stage (reference analogue: prompture's suite rollup reports pass
rates per check, prompture/pipeline.py; these are the
ranking-quality complements a trained filter needs).

Exactness contract: AUC is the Mann-Whitney statistic computed in
EXACT integer units — ``U2 = 2*#(pos>neg) + #(pos==neg)`` folded from
per-score-value (n_pos, n_neg) counts, ``auc = U2 / (2*n_pos*n_neg)``
as ONE correctly-rounded double division of exactly-representable
int64s (the tf/df precedent), so a SQL replay is bit-identical with
no rounding anywhere. Ties use the standard midrank convention.

Scale shape: one ``shuffle.aggregate`` folds the rows to
(score, n_pos, n_neg), bounded by the DISTINCT SCORE VOCABULARY, and
the final cumulative fold runs on the driver over
that value table — the operator's documented contract is therefore
*quantized/bucketed scores* (the universal practice for AUC at scale:
fixed-precision model scores). ``max_distinct`` guards the driver
fold; raise it only with memory to match.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def auc_exact(ds, score_col: str, label_col: str, *,
              max_distinct: int = 5_000_000):
    """One-row Dataset ``(n_pos, n_neg, u2, auc)`` — the exact ROC AUC
    of ``score_col`` ranking ``label_col`` (0/1 ints). See module
    docstring for the integer-exact contract."""
    from prompture_ray.stages.shuffle import aggregate

    def labels(t: pa.Table) -> pa.Table:
        y = t[label_col].combine_chunks().cast(pa.int64())
        return pa.table({
            "s": t[score_col].combine_chunks().cast(pa.int64()),
            "y": y, "n": pc.subtract(1, y)})

    counts = aggregate(ds.map_batches(labels, batch_format="pyarrow"),
                       ["s"], np=("sum", "y"), nn=("sum", "n")).materialize()
    n_vals = counts.count()
    if n_vals > max_distinct:
        raise ValueError(
            f"auc_exact: {n_vals} distinct score values exceed "
            f"max_distinct={max_distinct} — quantize the scores "
            "(the operator's contract) or raise the cap")
    df = counts.to_pandas()
    s = df["s"].to_numpy()
    order = np.argsort(s, kind="mergesort")
    np_ = df["np"].to_numpy().astype(np.int64)[order]
    nn_ = df["nn"].to_numpy().astype(np.int64)[order]
    cum = np.cumsum(nn_) - nn_          # negatives strictly below s
    u2 = int((np_ * (2 * cum + nn_)).sum())
    n_pos, n_neg = int(np_.sum()), int(nn_.sum())
    auc = u2 / (2 * n_pos * n_neg) if n_pos and n_neg else float("nan")
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "n_pos": pa.array([n_pos], type=pa.int64()),
        "n_neg": pa.array([n_neg], type=pa.int64()),
        "u2": pa.array([u2], type=pa.int64()),
        "auc": pa.array([auc], type=pa.float64())}))


def confusion_at_threshold(ds, score_col: str, label_col: str,
                           threshold: int):
    """One-row Dataset ``(tp, fp, tn, fn)`` for the decision rule
    ``score >= threshold`` against 0/1 ``label_col`` — per-batch
    partial sums, one tiny aggregate fold; rows never shuffle."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        y = t[label_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pred = (t[score_col].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False) >= threshold)
        return pa.table({
            "tp": pa.array([int(y[pred].sum())], type=pa.int64()),
            "fp": pa.array([int((pred & (y == 0)).sum())],
                           type=pa.int64()),
            "tn": pa.array([int((~pred & (y == 0)).sum())],
                           type=pa.int64()),
            "fn": pa.array([int(y[~pred].sum())], type=pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("tp", alias_name="tp"), Sum("fp", alias_name="fp"),
        Sum("tn", alias_name="tn"), Sum("fn", alias_name="fn"))
    import ray.data as rd
    return rd.from_arrow(pa.table({
        k: pa.array([int(agg[k] or 0)], type=pa.int64())
        for k in ("tp", "fp", "tn", "fn")}))
