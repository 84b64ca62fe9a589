"""Salted grouped aggregation for skewed keys.

The web corpus' ``lang``/domain distributions are Zipfian (SURVEY §4
"skew"): a bare ``groupby("lang")`` sends every "en" row to one reducer.
Salting splits each hot key across S sub-keys: phase 1 aggregates per
``(key, salt)`` — S-way parallel even for the hottest key — phase 2
merges the S partials per key (tiny). Correct for any
commutative/associative aggregate set; here count/sum/min/max.

Skew-mitigation by key-splitting follows the approach of FP-Hadoop
(VLDB 2015, see PAPERS.md) adapted to Ray Data two-phase aggregation.

This composes with ``shuffle.aggregate``'s per-batch combine: batches
already pre-aggregate, so phase 1's shuffle moves at most
``distinct_keys × S × blocks`` rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from prompture_ray.stages.shuffle import aggregate


def salted_groupby_stats(ds, key: str, value: str, n_salt: int = 8):
    """(key, n, sum_v, min_v, max_v) via salted two-phase aggregation
    (two ``shuffle.aggregate`` calls; unordered)."""

    def salted(t: pa.Table) -> pa.Table:
        # salt assigned per batch-row position so a hot key inside one
        # batch still spreads across salts deterministically
        salt = pa.array(np.arange(t.num_rows, dtype=np.int64) % n_salt)
        return pa.table({key: t[key], "salt": salt, value: t[value]})

    phase1 = aggregate(ds.map_batches(salted, batch_format="pyarrow"),
                       [key, "salt"], n=("count", value), s=("sum", value),
                       mn=("min", value), mx=("max", value))
    return aggregate(phase1, [key], n=("sum", "n"), sum_v=("sum", "s"),
                     min_v=("min", "mn"), max_v=("max", "mx"))
