"""Vectorized constraint evaluation over Arrow batches.

The core verdict operator: the Ray-Data-native reimplementation of the
reference's per-record ``validate_against_schema``
(reference: prompture/extraction/validator.py:10-31) and its filter chain
(prompture/dataset/filters.py:85-164, 229-255). One ``map_batches`` pass
evaluates every row-level check of a suite as a whole-column
``pyarrow.compute`` kernel — no Python loop over rows (the only per-row
Python is HTML parsing, which lives in its own actor pool stage).

Outputs per batch:
- pass mask per check (BooleanArray)
- per-row ``ok`` (AND of all checks) + first-failure ``reason`` column
  (priority-ordered cascade, mirroring QualityFilter's short-circuit
  first-failure-wins semantics, filters.py:237-249)
- violation rows ``{check_id, row_key, column, ok, reason, observed}``
  shaped like the reference's report rows (cli/runner.py:28-44,85-95);
  ``observed`` stringified + truncated to 80 chars like the reference's
  error-value formatting (extraction/core.py:141-143).
"""

from __future__ import annotations

import datetime as _dt
import re


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prompture_ray.specs import CheckSpec, Suite
from prompture_ray.functions.extract_html import extract_column

OBSERVED_TRUNC = 80

VIOLATION_SCHEMA = pa.schema([
    pa.field("check_id", pa.string()),
    pa.field("row_key", pa.string()),
    pa.field("column", pa.string()),
    pa.field("ok", pa.bool_()),
    pa.field("reason", pa.string()),
    pa.field("observed", pa.string()),
])


def _coerce_bound(value, col_type: pa.DataType):
    """Parse a spec bound (possibly an ISO string) to a scalar of col_type."""
    if value is None:
        return None
    if pa.types.is_timestamp(col_type) and isinstance(value, str):
        value = _dt.datetime.fromisoformat(value)
    if pa.types.is_date(col_type) and isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return pa.scalar(value, type=col_type)


def _null_policy(mask: pa.ChunkedArray | pa.Array, col, nullable: bool):
    """Combine a (possibly null-propagating) kernel mask with null policy:
    null input passes iff the check allows nulls."""
    nulls = pc.is_null(col)
    filled = pc.fill_null(mask, nullable)
    return pc.if_else(nulls, pa.scalar(nullable), filled)


def eval_check(check: CheckSpec, batch: pa.Table) -> pa.Array:
    """Evaluate one row-level check → boolean pass mask (no nulls)."""
    kind = check.kind
    if check.column not in batch.column_names:
        if kind == "extract_match" and check.source in batch.column_names:
            pass  # handled below (text col missing would be a spec error)
        return pa.array(np.zeros(batch.num_rows, dtype=bool))
    col = batch[check.column]

    if kind == "not_null":
        return pc.is_valid(col).combine_chunks() if isinstance(col, pa.ChunkedArray) else pc.is_valid(col)

    if kind == "type":
        expected = check.dtype
        actual = str(batch.schema.field(check.column).type)
        ok = expected is None or actual == expected or \
            (expected == "string" and actual == "large_string") or \
            (expected == "binary" and actual == "large_binary")
        if not ok:
            return pa.array(np.zeros(batch.num_rows, dtype=bool))
        if not check.nullable:
            return pc.is_valid(col)
        return pa.array(np.ones(batch.num_rows, dtype=bool))

    if kind == "regex":
        mask = pc.match_substring_regex(col, check.pattern)
        return _null_policy(mask, col, check.nullable)

    if kind == "enum":
        vals = list(check.values)
        target = col
        if check.case_insensitive:
            target = pc.utf8_lower(col)
            vals = [v.lower() for v in vals]
        mask = pc.is_in(target, value_set=pa.array(vals, type=pa.string()))
        # is_in returns false for nulls already; apply null policy explicitly
        return _null_policy(mask, col, check.nullable)

    if kind == "range":
        col_type = batch.schema.field(check.column).type
        lo = _coerce_bound(check.min, col_type)
        hi = _coerce_bound(check.max, col_type)
        mask = None
        if lo is not None:
            mask = pc.greater_equal(col, lo)
        if hi is not None:
            m2 = pc.less_equal(col, hi)
            mask = m2 if mask is None else pc.and_(mask, m2)
        return _null_policy(mask, col, check.nullable)

    if kind == "length":
        col_type = batch.schema.field(check.column).type
        if pa.types.is_list(col_type) or pa.types.is_large_list(col_type):
            length = pc.list_value_length(col)
        elif pa.types.is_binary(col_type) or pa.types.is_large_binary(col_type):
            length = pc.binary_length(col)
        else:
            length = pc.utf8_length(col)
        mask = None
        if check.min is not None:
            mask = pc.greater_equal(length, pa.scalar(check.min))
        if check.max is not None:
            m2 = pc.less_equal(length, pa.scalar(check.max))
            mask = m2 if mask is None else pc.and_(mask, m2)
        return _null_policy(mask, col, check.nullable)

    if kind == "json_schema":
        # nested JSON-Schema validation of a JSON-string column (reference
        # validate_against_schema, validator.py:10-31); compiled validator
        # is memoized per process so tasks/actors pay compilation once
        from prompture_ray.stages.json_schema import validate_json_strings
        ok, _, _ = validate_json_strings(col, check.params["schema"])
        return _null_policy(ok, col, check.nullable)

    if kind == "extract_match":
        # expects an `extracted_text` column appended by HtmlExtractor;
        # falls back to inline extraction (slow path) if absent.
        if "extracted_text" in batch.column_names:
            extracted = batch["extracted_text"]
        else:
            extracted = extract_column(batch[check.source])
        both_null = pc.and_(pc.is_null(col), pc.is_null(extracted))
        eq = pc.fill_null(pc.equal(col, extracted), False)
        return pc.or_(eq, both_null)

    from prompture_ray.specs import custom_kernel
    kernel = custom_kernel(kind)
    if kernel is not None:
        mask = kernel(check, batch)
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        return mask

    raise ValueError(f"not a row-level check: {check.id} ({kind})")


def _observed(col, mask: pa.Array) -> pa.Array:
    """Stringified offending values, truncated to 80 chars
    (reference: prompture/extraction/core.py:141-143)."""
    bad = col.filter(mask) if not isinstance(col, pa.ChunkedArray) else col.combine_chunks().filter(mask)
    col_type = bad.type
    if pa.types.is_binary(col_type) or pa.types.is_large_binary(col_type):
        s = pa.array(
            [None if v is None else repr(v[:OBSERVED_TRUNC]) for v in bad.to_pylist()],
            type=pa.string(),
        )
    else:
        s = pc.cast(bad, pa.string())
    s = pc.utf8_slice_codeunits(pc.fill_null(s, "null"), 0, OBSERVED_TRUNC)
    return s


class ValidateBatch:
    """Callable map_batches stage evaluating all row-level checks of a suite.

    Stateful setup (spec parsing, regex compilation warm-up) happens once in
    ``__init__`` — when passed as a class to ``map_batches`` this runs once
    per actor, not per batch (actor-pool pattern).

    mode="verdict"     → input batch + ok:bool + reason:string columns
    mode="violations"  → violation-rows table (VIOLATION_SCHEMA)
    mode="both"        → verdict table with violations available via
                         ``last_violations`` (used by the fused pipeline
                         stage that writes violations as a side output)
    """

    def __init__(self, suite: Suite, key_col: str = "url", mode: str = "verdict"):
        self.checks = suite.row_checks
        self.key_col = key_col
        self.mode = mode
        # warm regex caches (compile once per actor)
        for c in self.checks:
            if c.pattern:
                re.compile(c.pattern)

    # -- helpers ---------------------------------------------------------
    def masks(self, batch: pa.Table) -> dict[str, pa.Array]:
        out = {}
        for c in self.checks:
            m = eval_check(c, batch)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            out[c.id] = m
        return out

    def verdict_columns(self, batch: pa.Table, masks: dict[str, pa.Array]):
        ok = pa.array(np.ones(batch.num_rows, dtype=bool))
        reason = pa.array([None] * batch.num_rows, type=pa.string())
        # first-failure-wins: iterate checks in REVERSE priority so the
        # earliest check's reason overwrites later ones.
        for c in reversed(self.checks):
            m = masks[c.id]
            ok = pc.and_(ok, m)
            reason = pc.if_else(m, reason, pa.scalar(c.reason(), type=pa.string()))
        reason = pc.if_else(ok, pa.scalar(None, type=pa.string()), reason)
        return ok, reason

    def violations(self, batch: pa.Table, masks: dict[str, pa.Array]) -> pa.Table:
        keys = batch[self.key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = pc.cast(keys, pa.string())
        parts = []
        for c in self.checks:
            bad = pc.invert(masks[c.id])
            n = pc.sum(bad).as_py() or 0
            if n == 0:
                continue
            parts.append(pa.table({
                "check_id": pa.array([c.id] * n, type=pa.string()),
                "row_key": pc.fill_null(keys.filter(bad), "null"),
                "column": pa.array([c.column] * n, type=pa.string()),
                "ok": pa.array([False] * n, type=pa.bool_()),
                "reason": pa.array([c.reason()] * n, type=pa.string()),
                "observed": _observed(batch[c.column], bad),
            }, schema=VIOLATION_SCHEMA))
        if not parts:
            return VIOLATION_SCHEMA.empty_table()
        return pa.concat_tables(parts)

    # -- map_batches entry ----------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        masks = self.masks(batch)
        if self.mode == "violations":
            return self.violations(batch, masks)
        ok, reason = self.verdict_columns(batch, masks)
        out = batch.append_column("ok", ok).append_column("reason", reason)
        return out


def validate_dataset(ds, suite: Suite, key_col: str = "url",
                     mode: str = "verdict", batch_size: int | None = 8192,
                     concurrency=None):
    """Attach the validation stage to a Dataset. Stateless-task form by
    default (pure Arrow compute, no init cost — SURVEY §7.2)."""
    fn = ValidateBatch(suite, key_col=key_col, mode=mode)
    kwargs = {}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          **kwargs)
