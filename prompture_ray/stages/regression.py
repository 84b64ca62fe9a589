"""Grouped ordinary-least-squares trend fitting in EXACT integer
units — per-key slope/intercept over integer (x, y) pairs, the
"quality drift per host / volume trend per source" audit (reference
analogue: prompture's drift baseline compares aggregate stats per
run, prompture/pipeline.py; this is the regression complement).

Exactness contract (the oracle basis): every moment (n, Σx, Σy, Σxy,
Σx²) folds as exact int64, and

    slope     = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
    intercept = (Σy·Σx² − Σx·Σxy) / (n·Σx² − (Σx)²)

are each ONE correctly-rounded double division of exactly-representable
int64 numerators/denominators (caller bound: |n·Σxy| etc. < 2^53 —
quantized x/y satisfy it; the planted oracles use x,y < 2^11), so a
SQL replay of the same sums is bit-identical with no rounding
anywhere. Degenerate keys (all x equal → den = 0) are dropped,
mirroring SQL ``HAVING den <> 0``.

Scale shape: per-row moment terms → ONE ``shuffle.aggregate`` (its
per-batch combine leaves one row per key per batch to shuffle) → a
vectorized finish map. Rows never shuffle whole; the driver holds
nothing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def grouped_ols(ds, key_col: str, x_col: str, y_col: str):
    """Dataset ``(key, n, sx, sy, sxy, sxx, slope, intercept)`` — the
    per-key least-squares line through the integer points. See module
    docstring for the exactness contract."""
    from prompture_ray.stages.shuffle import aggregate

    def terms(t: pa.Table) -> pa.Table:
        x = t[x_col].combine_chunks().cast(pa.int64())
        y = t[y_col].combine_chunks().cast(pa.int64())
        return pa.table({key_col: t[key_col], "x": x, "y": y,
                         "xy": pc.multiply(x, y), "xx": pc.multiply(x, x)})

    folded = aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                       [key_col], n=("count", None), sx=("sum", "x"),
                       sy=("sum", "y"), sxy=("sum", "xy"),
                       sxx=("sum", "xx"))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.int64)
        sy = t["sy"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxy = t["sxy"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.int64)
        den = n * sxx - sx * sx
        keep = den != 0
        num_s = n * sxy - sx * sy
        num_i = sy * sxx - sx * sxy
        out = pa.table({
            key_col: t[key_col].combine_chunks().filter(
                pa.array(keep)),
            "n": pa.array(n[keep], type=pa.int64()),
            "sx": pa.array(sx[keep], type=pa.int64()),
            "sy": pa.array(sy[keep], type=pa.int64()),
            "sxy": pa.array(sxy[keep], type=pa.int64()),
            "sxx": pa.array(sxx[keep], type=pa.int64()),
            "slope": pa.array(num_s[keep] / den[keep],
                              type=pa.float64()),
            "intercept": pa.array(num_i[keep] / den[keep],
                                  type=pa.float64())})
        return out

    return folded.map_batches(finish, batch_format="pyarrow")
