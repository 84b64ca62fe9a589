"""User-path analytics over an event stream: ordered multi-step funnel
and cohort retention.

Reference analogue: prompture's UsageTracker folds a per-session event
stream into ordered per-entity rollups (prompture/infra/tracker.py —
buffered event walk, first/last-seen accounting); these are the two
standard sequence rollups a web-scale event table needs that plain
groupby can't express.

Scale shape (both operators): ONE ``shuffle.partition_fold`` on the
user id, so every user's history lands wholly inside one bounded group
frame, then a single VECTORIZED pandas pass inside
the frame handles all users of the partition at once (the repo rule:
never a frame per key). ``P`` is auto-sized from the row count so a
frame stays ~``target_rows``; partial rows are pre-shrunk map-side
(funnel: only step-type rows shuffle; retention: per-batch distinct
(user, day) pairs). The final fold is a tiny keyed aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.stages.shuffle import (aggregate, auto_n_parts,
                                          partition_fold)


def funnel_counts(ds, user_col: str, ts_col: str, type_col: str,
                  steps: list[str], n_parts: int | None = None):
    """Ordered funnel: a user reaches step k when they have a
    ``steps[k]`` event STRICTLY after their step-(k-1) reach time
    (reach time = earliest qualifying ts; step 0 = min ts of the first
    type). Returns one row per step: (step 1-based, event_type, users).

    Only rows whose type is in ``steps`` ever shuffle (filtered and
    projected to (user, ts_us, step_idx) map-side); timestamps travel
    as int64 micros so every comparison is exact.
    Without ``n_parts``, ``auto_n_parts(ds)`` sizes the shuffle by
    counting ``ds``: cheap for a plain parquet read (what the registry
    query passes), a full run of a mapped or projected input, so pass
    ``n_parts`` for those.
    """
    step_set = pa.array(steps, type=pa.string())
    nparts = n_parts or auto_n_parts(ds)

    def tag(t: pa.Table) -> pa.Table:
        idx = pc.index_in(pc.cast(t[type_col], pa.string()),
                          value_set=step_set)
        keep = pc.is_valid(idx)
        t2 = t.filter(keep)
        idx = pc.cast(pc.drop_null(idx), pa.int64())
        us = pc.cast(pc.cast(t2[ts_col], pa.timestamp("us")), pa.int64())
        return pa.table({
            "u": pc.cast(t2[user_col], pa.int64()),
            "ts": us,
            "k": idx,
        })

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        users = np.zeros(len(steps), dtype=np.int64)
        sub = g[g["k"] == 0]
        t_prev = sub.groupby("u")["ts"].min()
        users[0] = len(t_prev)
        for k in range(1, len(steps)):
            sub = g[g["k"] == k]
            sub = sub[sub["u"].isin(t_prev.index)]
            if len(sub):
                tp = t_prev.loc[sub["u"]].to_numpy()
                sub = sub[sub["ts"].to_numpy() > tp]
            t_prev = sub.groupby("u")["ts"].min()
            users[k] = len(t_prev)
        return pd.DataFrame({"step": np.arange(1, len(steps) + 1,
                                               dtype=np.int64),
                             "users": users})

    partials = partition_fold(ds.map_batches(tag, batch_format="pyarrow"),
                              ["u"], chain, n_parts=nparts)
    out = aggregate(partials, ["step"], users=("sum", "users"))

    types = pd.DataFrame({"step": np.arange(1, len(steps) + 1,
                                            dtype=np.int64),
                          "event_type": steps})

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        m = b.merge(types, on="step")
        return m[["step", "event_type", "users"]]

    return out.map_batches(attach, batch_format="pandas")


def retention_cohorts(ds, user_col: str, ts_col: str,
                      day_us: int = 86_400_000_000,
                      n_parts: int | None = None):
    """Cohort retention: cohort = a user's first active day (floor of
    ts to ``day_us``-sized days since epoch); one output row per
    (cohort_day, day_offset) with the count of users from that cohort
    active ``day_offset`` days after their first day.

    Map-side, each batch is shrunk to its distinct (user, day) pairs;
    the hash-partition pass dedupes globally (a user's rows all share a
    partition) and computes offsets with one vectorized ``transform
    ('min')``; the final fold sums bounded partial counts. Pure int64
    arithmetic end to end — the oracle can mirror it exactly.
    Without ``n_parts``, ``auto_n_parts(ds)`` sizes the shuffle by
    counting ``ds``: cheap for a plain parquet read (what the registry
    query passes), a full run of a mapped or projected input, so pass
    ``n_parts`` for those.
    """
    nparts = n_parts or auto_n_parts(ds)

    def tag(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        day = pc.divide(us, day_us)  # positive epochs: floor == trunc
        b = pd.DataFrame({
            "u": pc.cast(t[user_col], pa.int64()).to_numpy(
                zero_copy_only=False),
            "day": day.to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        return pa.Table.from_pandas(b, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["u", "day"])
        day0 = g.groupby("u")["day"].transform("min")
        out = pd.DataFrame({"cohort_day": day0.to_numpy(),
                            "day_offset": (g["day"] - day0).to_numpy()}) \
            .groupby(["cohort_day", "day_offset"], sort=False) \
            .size().rename("users").reset_index()
        out["users"] = out["users"].astype("int64")
        return out

    partials = partition_fold(ds.map_batches(tag, batch_format="pyarrow"),
                              ["u"], fold, n_parts=nparts)
    return aggregate(partials, ["cohort_day", "day_offset"],
                     users=("sum", "users"))


def transition_counts(ds, user_col: str, ts_col: str, tie_col: str,
                      type_col: str, n_parts: int = 64):
    """First-order Markov transition table over per-user event
    sequences: one row per (from_type, to_type) ordered-adjacent pair
    (by ``ts_col``, ``tie_col`` within a user) with ``cnt`` and
    ``prob = cnt / Σ cnt over from_type`` — the maximum-likelihood
    transition probability. ``prob`` is ONE correctly-rounded double
    division of exact int64 counts on both engine and SQL sides
    (bit-identical, no rounding — the tf/df precedent).

    Reference analogue: the ordered per-stream walk of
    prompture/extraction/streaming.py diffs each record against its
    predecessor; this is that adjacent-pair primitive folded into
    corpus statistics.

    Scale shape: ``lag_shift`` (one ``shuffle.partition_fold`` on the
    user, vectorized grouped shift per fold frame) emits only the
    bounded (from, to) pair rows; the |types|²-sized count table takes
    one ``shuffle.aggregate``, and the per-from totals are a second
    grouped fold of that TINY table (never a re-scan of the events)."""
    from prompture_ray.stages.analytic import lag_shift

    lead = lag_shift(ds, user_col, ts_col, tie_col, [type_col],
                     shifts=(-1,), n_parts=n_parts)

    def pairs(t: pa.Table) -> pa.Table:
        a, b = t[type_col], t[f"{type_col}_lead1"]
        # a pair with a null type on either side is not counted
        ok = pc.and_(pc.is_valid(a), pc.is_valid(b))
        return pa.table({"from_type": pc.cast(a.filter(ok), pa.string()),
                         "to_type": pc.cast(b.filter(ok), pa.string())})

    counts = aggregate(lead.map_batches(pairs, batch_format="pyarrow"),
                       ["from_type", "to_type"], cnt=("count", None))

    def probs(g: pd.DataFrame) -> pd.DataFrame:
        tot = int(g["cnt"].sum())
        g = g.copy()
        g["cnt"] = g["cnt"].astype("int64")
        g["prob"] = g["cnt"].to_numpy(dtype=np.int64) / float(tot)
        return g

    # |types|² rows: the per-from normalization is a fold of the tiny
    # count table itself (a grouped pass per from_type is bounded)
    return counts.groupby("from_type") \
        .map_groups(probs, batch_format="pandas")
