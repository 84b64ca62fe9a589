"""Consensus / voting aggregates: majority with tolerant equality,
weighted average, agreement ratio, self-consistency.

Reference semantics (prompture/groups/consensus.py):
- ``_values_equal``: floats equal within 0.01 relative tolerance
  (consensus.py:104-139) — distributed via value binning (round to the
  tolerance grid) before grouping, as SURVEY §2.4 prescribes
- ``_find_majority_value``: mode with canonical-JSON hashing
  (consensus.py:142-172); deterministic tie-break (count desc, value asc)
- weighted average for numerics with int preservation via round
  (consensus.py:284-367)
- agreement ratio = share of votes matching the winner (consensus.py:175-229)
- ``SelfConsistencyEvaluator``: normalized-answer majority share
  (prompture/eval/self_consistency.py:107-152)
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def bin_tolerant(values: np.ndarray, rel_tol: float = 0.01) -> np.ndarray:
    """Map floats onto a tolerance grid so tolerant-equal values collide
    (the distributed stand-in for pairwise ``_values_equal``). One shared
    step per call (scaled by the group's median magnitude) — a per-value
    step would put near-equal values in different bins."""
    v = np.asarray(values, dtype=np.float64)
    step = max(float(np.median(np.abs(v))) * rel_tol, 1e-12)
    return np.round(v / step) * step


def majority_vote(ds, key_col: str, value_col: str,
                  tolerant_floats: bool = False, rel_tol: float = 0.01):
    """Per-key majority value + agreement ratio."""

    def vote(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[value_col]
        if tolerant_floats:
            binned = pd.Series(bin_tolerant(vals.to_numpy(), rel_tol))
            counts = binned.value_counts()
            winner_bin = sorted(counts.items(),
                                key=lambda kv: (-kv[1], kv[0]))[0][0]
            members = vals[binned.to_numpy() == winner_bin]
            winner = float(np.median(members))
            n_win = len(members)
        else:
            counts = vals.value_counts()
            winner, n_win = sorted(counts.items(),
                                   key=lambda kv: (-kv[1], str(kv[0])))[0]
        return pd.DataFrame({
            key_col: [g[key_col].iloc[0]],
            "majority": [winner],
            "agreement": [round(n_win / len(vals), 6)],
            "n_votes": [np.int64(len(vals))],
        })

    return ds.groupby(key_col).map_groups(vote, batch_format="pandas")


def weighted_average(ds, key_col: str, value_col: str, weight_col: str):
    """Per-key Σ(w·x)/Σw as one ``shuffle.aggregate`` of the two sums
    (no full group needed)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from prompture_ray.stages.shuffle import aggregate

    def products(t: pa.Table) -> pa.Table:
        wx = pc.multiply(pc.cast(t[value_col], pa.float64()),
                         pc.cast(t[weight_col], pa.float64()))
        return pa.table({key_col: t[key_col], "wx": wx,
                         "w": pc.cast(t[weight_col], pa.float64())})

    agg = aggregate(ds.map_batches(products, batch_format="pyarrow"),
                    [key_col], sum_wx=("sum", "wx"), sum_w=("sum", "w"))

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            "weighted_avg": pc.round(pc.divide(t["sum_wx"], t["sum_w"]), 6),
        })

    return agg.map_batches(final, batch_format="pyarrow")


def self_consistency(ds, key_col: str, answer_col: str,
                     normalize: bool = True):
    """Majority share of normalized answers per key (the distributed
    SelfConsistencyEvaluator)."""
    from prompture_ray.functions.textfuncs import normalize_text

    def score(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[answer_col].map(lambda v: normalize_text(str(v))
                                 if normalize and v is not None else v)
        counts = vals.value_counts()
        winner, n_win = sorted(counts.items(),
                               key=lambda kv: (-kv[1], str(kv[0])))[0]
        return pd.DataFrame({
            key_col: [g[key_col].iloc[0]],
            "consensus_answer": [winner],
            "consistency": [round(n_win / len(vals), 6)],
        })

    return ds.groupby(key_col).map_groups(score, batch_format="pandas")
